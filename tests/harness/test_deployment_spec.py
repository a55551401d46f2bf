"""DeploymentSpec: builder methods, validation, registry-backed stats."""

import pytest

from repro import MB, DeploymentSpec
from repro.harness.deployment import Deployment
from repro.harness.stats import collect_stats, format_stats


def test_builders_compose_and_copy():
    base = DeploymentSpec(seed=7)
    spec = base.with_astore(servers=4).with_ebp(128 * MB).with_pushdown()
    assert spec.use_astore_log and spec.use_ebp and spec.enable_pushdown
    assert spec.astore_servers == 4
    assert spec.ebp_capacity_bytes == 128 * MB
    # Builders return copies; the base spec is untouched.
    assert not base.use_astore_log
    assert base.astore_servers == 3


def test_builders_match_canonical_shapes():
    built = DeploymentSpec().with_astore().with_ebp().with_pushdown()
    assert built == DeploymentSpec.astore_pq()
    assert DeploymentSpec().with_seed(9) == DeploymentSpec(seed=9)


def test_with_engine_overrides_engine_config():
    spec = DeploymentSpec().with_engine(buffer_pool_bytes=8 * MB)
    assert spec.engine.buffer_pool_bytes == 8 * MB
    # Other engine fields keep their defaults.
    assert spec.engine.cores == DeploymentSpec().engine.cores


def test_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        DeploymentSpec(astore_servers=0)
    with pytest.raises(ValueError):
        DeploymentSpec(astore_servers=2)
    with pytest.raises(ValueError, match="below one segment"):
        DeploymentSpec(use_ebp=True, ebp_capacity_bytes=MB, ebp_segment_bytes=4 * MB)
    # A fleet of zero replicas is no fleet: the spec would build without
    # a frontend that every caller of with_replicas goes on to use.
    with pytest.raises(ValueError, match="replicas must be >= 1, got 0"):
        DeploymentSpec.astore_ebp().with_replicas(0)


def test_validation_rejects_a_feature_setting_without_its_feature():
    """Tenants without lanes and apply intervals without replicas would
    build a deployment that never reads them."""
    with pytest.raises(ValueError, match=r"with_multiplexing"):
        DeploymentSpec.astore_ebp(seed=1, replicas=1,
                                  mux_tenants=(("gold", 4),))
    with pytest.raises(ValueError, match=r"with_multiplexing"):
        DeploymentSpec(mux_tenants=(("a", 0),))
    with pytest.raises(ValueError, match=r"with_replicas"):
        DeploymentSpec(replica_apply_intervals=(0.002,))
    # Through the builders both settings arrive with their feature.
    spec = (DeploymentSpec.astore_ebp().with_replicas(1, apply_intervals=(0.002,))
            .with_multiplexing(2, tenants={"gold": 4}))
    assert spec.mux_tenants == (("gold", 4),)
    assert spec.replica_apply_intervals == (0.002,)


def test_validation_rejects_an_ebp_of_fewer_than_three_segments():
    """One segment is always the cleaner's spare: a two-segment pool
    caches half of what its capacity says, a one-segment pool nothing."""
    for segments in (1, 2):
        with pytest.raises(ValueError, match="one segment spare"):
            DeploymentSpec(use_ebp=True, ebp_capacity_bytes=segments * 4 * MB,
                           ebp_segment_bytes=4 * MB)
        with pytest.raises(ValueError, match="one segment spare"):
            DeploymentSpec.astore_ebp().with_ebp(segments * MB, segment_bytes=MB)
    spec = DeploymentSpec(use_ebp=True, ebp_capacity_bytes=12 * MB,
                          ebp_segment_bytes=4 * MB)
    assert spec.ebp_capacity_bytes // spec.ebp_segment_bytes == 3
    # Without an EBP the two fields are not read.
    DeploymentSpec(use_ebp=False, ebp_capacity_bytes=4 * MB,
                   ebp_segment_bytes=4 * MB)


def test_build_stands_up_a_deployment():
    dep = DeploymentSpec.astore_ebp(seed=11).build()
    dep.start()
    assert dep.config.seed == 11
    assert dep.ebp is not None
    assert dep.astore is not None


def test_deployment_constructor_takes_a_spec():
    # Direct construction is the same path as ``spec.build()``.
    dep = Deployment(DeploymentSpec.astore_pq(seed=5))
    dep.start()
    assert isinstance(dep.config, DeploymentSpec)
    assert dep.config.enable_pushdown


def test_tracing_flag_wires_a_recording_tracer():
    traced = DeploymentSpec.stock().with_tracing().build()
    assert traced.tracer.enabled
    plain = DeploymentSpec.stock().build()
    assert not plain.tracer.enabled


def test_stats_come_from_registry_snapshot():
    dep = DeploymentSpec.astore_pq(seed=3).build()
    dep.start()
    stats = collect_stats(dep)
    assert stats == dep.registry.snapshot()
    # Legacy schema anchors, now registry gauges.
    assert stats["engine"]["committed"] == 0
    assert "hit_ratio" in stats["ebp"]
    assert "rebuilds" in stats["astore"]
    assert stats["query"]["pushdown"]["fragments"] == 0
    assert "queue_wait_s" in format_stats(dep)
