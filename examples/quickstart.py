"""Quickstart: stand up a veDB+AStore deployment and talk SQL to it.

Run:  python examples/quickstart.py
"""

from repro import KB, DeploymentSpec
from repro.engine import DECIMAL, INT, VARCHAR, Column, Schema
from repro.query.plan import explain


def main():
    # A full deployment: DBEngine + PageStore + AStore (SegmentRing log +
    # extended buffer pool) + push-down query support.  The buffer pool is
    # kept tiny so the table spills to the EBP and the analytical query
    # actually exercises storage-side execution.
    deployment = (
        DeploymentSpec()
        .with_astore()
        .with_ebp()
        .with_pushdown()
        .with_engine(buffer_pool_bytes=8 * 16 * KB)
        .build()
    )
    deployment.start()
    engine = deployment.engine

    engine.create_table(
        "products",
        Schema(
            [
                Column("id", INT()),
                Column("category", VARCHAR(16)),
                Column("name", VARCHAR(40)),
                Column("price", DECIMAL(2)),
                Column("description", VARCHAR(1200)),
            ]
        ),
        ["id"],
    )

    session = deployment.new_session(pushdown_row_threshold=100)

    def work(env):
        # DML through SQL.
        yield from session.execute(
            "INSERT INTO products (id, category, name, price, description) "
            "VALUES "
            + ", ".join(
                "(%d, '%s', 'product-%d', %0.2f, '%s')"
                % (i, ["tools", "toys", "books"][i % 3], i, 1.0 + i % 50,
                   "d" * 1100)
                for i in range(600)
            )
        )
        # A point query.
        point = yield from session.execute(
            "SELECT name, price FROM products WHERE id = 42"
        )
        print("point lookup:", point.rows[0])

        # An analytical query: pushed down to storage-side CPUs.
        sql = (
            "SELECT category, count(*) AS n, avg(price) AS avg_price "
            "FROM products WHERE price > 10 GROUP BY category ORDER BY category"
        )
        print("\nplan:")
        print(explain(session.plan(sql)))
        result = yield from session.execute(sql)
        print("\n%-8s %6s %10s" % ("category", "n", "avg_price"))
        for category, n, avg_price in result.rows:
            print("%-8s %6d %10.2f" % (category, n, avg_price))

        # Update + verify.
        yield from session.execute(
            "UPDATE products SET price = price * 2 WHERE id = 42"
        )
        after = yield from session.execute(
            "SELECT price FROM products WHERE id = 42"
        )
        print("\nprice after doubling:", after.rows[0][0])
        return env.now

    proc = deployment.env.process(work(deployment.env))
    deployment.run_until(proc)
    print("\nvirtual time elapsed: %.3f ms" % (proc.value * 1000))
    registry = deployment.obs.registry
    print(
        "push-down tasks: %d (pages via EBP: %d, via PageStore: %d)"
        % tuple(
            registry.value("query.pushdown." + name)
            for name in ("tasks_dispatched", "pages_via_ebp",
                         "pages_via_pagestore")
        )
    )


if __name__ == "__main__":
    main()
