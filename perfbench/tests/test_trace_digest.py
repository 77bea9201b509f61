"""Tracing wraps emzv's functions; it must not change what they compute."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from workloads import TABLE_SHA256, Table  # noqa: E402


def test_traced_and_untraced_table_digests_match(tmp_path):
    run.import_emzv()
    table = Table(seed=0, smoke=True, scratch=tmp_path)
    table.setup()
    unit = table.passes()[0]
    plain = run.in_child(lambda: table.run_unit(unit, False), 60)
    traced = run.in_child(lambda: table.run_unit(unit, True), 60)
    assert plain["digest"] == traced["digest"] == TABLE_SHA256[unit]
    assert traced["spans"]["reduction.reduce_index"]["calls"] == table.rows
    assert "spans" not in plain
