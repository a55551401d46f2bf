"""Unit tests for key->shard routing and statement classification."""

from zlib import crc32

import pytest

from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query import parse
from repro.shard import ShardKeySpec, ShardMap


@pytest.fixture(scope="module")
def catalog():
    dep = Deployment(DeploymentSpec.stock())
    dep.engine.create_table(
        "kv",
        Schema([Column("k", INT()), Column("v", INT()),
                Column("tag", VARCHAR(8))]),
        ["k"],
    )
    dep.engine.create_table(
        "ref",
        Schema([Column("r", INT()), Column("x", INT())]),
        ["r"],
    )
    return dep.engine.catalog


def test_int_keys_route_by_modulo():
    shardmap = ShardMap(4)
    assert shardmap.shard_of("kv", (7,)) == 3
    assert shardmap.shard_of("kv", (8,)) == 0
    assert [shardmap.shard_of("kv", (k,)) for k in range(4)] == [0, 1, 2, 3]


def test_string_keys_route_by_crc32_not_hash():
    shardmap = ShardMap(4)
    expected = crc32(b"alpha") % 4
    assert shardmap.shard_of("kv", ("alpha",)) == expected
    # Stable across ShardMap instances (Python hash() would not be).
    assert ShardMap(4).shard_of("kv", ("alpha",)) == expected


def test_extractor_overrides_column():
    shardmap = ShardMap(2)
    shardmap.set_table("kv", ShardKeySpec(extractor=lambda key: key[0] % 10))
    assert shardmap.shard_of("kv", (23,)) == 3 % 2
    assert shardmap.shard_of("kv", (40,)) == 0


def test_replicated_tables_broadcast_writes_read_locally():
    shardmap = ShardMap(3)
    shardmap.set_replicated("kv")
    assert shardmap.shard_of("kv", (5,)) is None
    assert shardmap.write_shards("kv", (5,)) == [0, 1, 2]
    assert shardmap.read_shard_of("kv", (5,), home=2) == 2


def test_column_pos_selects_key_component():
    shardmap = ShardMap(2)
    shardmap.set_table("kv", ShardKeySpec(column_pos=0))
    assert shardmap.shard_of("kv", (9,)) == 1
    assert shardmap.write_shards("kv", (9,)) == [1]


def select_shards(shardmap, catalog, sql):
    return shardmap.shards_for_select(parse(sql), catalog)


def dml_shards(shardmap, catalog, sql):
    return shardmap.shards_for_dml(parse(sql), catalog)


def test_select_equality_pins_one_shard(catalog):
    shardmap = ShardMap(4)
    assert select_shards(shardmap, catalog,
                         "SELECT v FROM kv WHERE k = 7") == {3}


def test_select_in_list_enumerates(catalog):
    shardmap = ShardMap(4)
    assert select_shards(
        shardmap, catalog, "SELECT v FROM kv WHERE k IN (1, 2, 5)"
    ) == {1, 2}


def test_select_small_between_enumerates(catalog):
    shardmap = ShardMap(4)
    assert select_shards(
        shardmap, catalog, "SELECT v FROM kv WHERE k BETWEEN 1 AND 2"
    ) == {1, 2}


def test_select_wide_between_scatters(catalog):
    shardmap = ShardMap(4)
    assert select_shards(
        shardmap, catalog, "SELECT v FROM kv WHERE k BETWEEN 0 AND 1000"
    ) == {0, 1, 2, 3}


def test_select_non_shard_predicate_scatters(catalog):
    shardmap = ShardMap(4)
    assert select_shards(
        shardmap, catalog, "SELECT v FROM kv WHERE v = 3"
    ) == {0, 1, 2, 3}


def test_select_and_narrows_or_unions(catalog):
    shardmap = ShardMap(4)
    assert select_shards(
        shardmap, catalog, "SELECT v FROM kv WHERE k = 1 AND v = 2"
    ) == {1}
    assert select_shards(
        shardmap, catalog, "SELECT v FROM kv WHERE k = 1 OR k = 2"
    ) == {1, 2}


def test_select_replicated_reads_shard_zero(catalog):
    shardmap = ShardMap(4)
    shardmap.set_replicated("kv")
    assert select_shards(shardmap, catalog, "SELECT v FROM kv") == {0}


def test_insert_routes_by_key_values(catalog):
    shardmap = ShardMap(4)
    assert dml_shards(
        shardmap, catalog, "INSERT INTO kv VALUES (5, 1, 'a')"
    ) == {1}
    assert dml_shards(
        shardmap, catalog,
        "INSERT INTO kv VALUES (4, 1, 'a'), (6, 1, 'b')"
    ) == {0, 2}


def test_update_delete_classified_by_where(catalog):
    shardmap = ShardMap(4)
    assert dml_shards(
        shardmap, catalog, "UPDATE kv SET v = 1 WHERE k = 3"
    ) == {3}
    assert dml_shards(
        shardmap, catalog, "DELETE FROM kv WHERE k IN (0, 4)"
    ) == {0}
    assert dml_shards(
        shardmap, catalog, "UPDATE kv SET v = 1 WHERE v = 9"
    ) == {0, 1, 2, 3}


def test_single_shard_map_short_circuits(catalog):
    shardmap = ShardMap(1)
    assert select_shards(
        shardmap, catalog, "SELECT v FROM kv WHERE k = 7"
    ) == {0}
    assert dml_shards(
        shardmap, catalog, "UPDATE kv SET v = 1 WHERE k = 7"
    ) == {0}


def test_validation():
    with pytest.raises(ValueError):
        ShardMap(0)
