"""The five benchmark workloads, in the order they are run and reported."""

from . import ch_analytics, mux_point, serve_htap, sysbench_ebp, tpcc_log

WORKLOADS = {
    module.NAME: module
    for module in (tpcc_log, sysbench_ebp, mux_point, ch_analytics, serve_htap)
}
