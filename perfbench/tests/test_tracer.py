"""Tests of the benchmark's tracer and correctness gates.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

from pillowcase import _kernels, cli, compose, variety  # noqa: E402

COMPOSE_ARGV = ["compose", "--name", "beta", "--variant", "bypass",
                "--s", "0.1"]


def _counts(summary: dict) -> dict:
    """Everything but the times."""
    return {name: {k: v for k, v in layer.items() if not k.endswith("_s")}
            for name, layer in summary.items()}


def _traced_compose(out: Path):
    with Tracer() as tr:
        rc = tr.span("cli.main", cli.main, COMPOSE_ARGV + ["--out", str(out)])
    return rc, tr.summary()


@pytest.fixture(scope="module")
def compose_runs(tmp_path_factory, monkeypatch_module):
    outs = [tmp_path_factory.mktemp(n)
            for n in ("plain", "traced1", "traced2")]
    rc_plain = cli.main(COMPOSE_ARGV + ["--out", str(outs[0])])
    traced = [_traced_compose(out) for out in outs[1:]]
    return rc_plain, traced, outs


@pytest.fixture(scope="module")
def monkeypatch_module():
    mp = pytest.MonkeyPatch()
    mp.delenv("PILLOWCASE_OUT", raising=False)
    yield mp
    mp.undo()


def test_aliases_are_rebound_to_one_wrapper():
    g = _kernels._g_impl
    with Tracer() as tr:
        assert _kernels.g_scalar is _kernels._g_impl is _kernels.g_scalar_py
        assert _kernels._g_impl is not g
        assert cli.solve_fiber is variety.solve_fiber is compose.solve_fiber
        _kernels.g_scalar(0, 0.05, 1.0, 2.0, 0.1, 0.3)
    assert _kernels.g_scalar is g and _kernels._g_impl is g
    assert cli.solve_fiber is variety.solve_fiber
    assert tr.summary()["kernels.g"]["calls"] == 1
    assert tr.summary()["kernels.g"]["points"] == 1


def test_fiber_counts_repeat_and_results_match():
    plain = variety.classify_grid("earring", 0.05, 8)[2]
    summaries = []
    for _ in range(2):
        with Tracer() as tr:
            statuses = variety.classify_grid("earring", 0.05, 8)[2]
            fiber = variety.solve_fiber("earring", 0.05, 1.0, 2.0)
        assert (statuses == plain).all()
        summaries.append(tr.summary())
    assert fiber.solutions == variety.solve_fiber("earring", 0.05, 1.0,
                                                  2.0).solutions
    assert _counts(summaries[0]) == _counts(summaries[1])
    sf = summaries[0]["variety.solve_fiber"]
    assert sf["calls"] == sum(sf.get(k, 0) for k in
                              ("two_sheets", "fold_region", "empty"))
    assert summaries[0]["kernels.newton_fiber_batch"]["points"] > 0


def test_traced_cli_run_matches_untraced(compose_runs):
    rc_plain, traced, outs = compose_runs
    assert rc_plain == 0 and all(rc == 0 for rc, _ in traced)
    for out in outs[1:]:
        for name in ("composed.json", "composed.svg"):
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes()


def test_traced_cli_counts_repeat(compose_runs):
    _, ((_, first), (_, second)), _ = compose_runs
    assert _counts(first) == _counts(second)
    fp = first["compose.fiber_product"]
    assert fp["calls"] == 1
    assert fp["corrector_calls"] >= fp["accepted_steps"] > 0


def test_self_times_partition_the_wall(compose_runs):
    _, traced, _ = compose_runs
    for _, summary in traced:
        wall = summary["cli.main"]["incl_s"]
        assert all(layer["self_s"] >= 0 for layer in summary.values())
        # self times telescope to the root span's duration; allow rounding
        total = sum(layer["self_s"] for layer in summary.values())
        assert total <= wall * (1 + 1e-9)


def _topology(tmp_path: Path, **override) -> Path:
    topo = {"euler_characteristic": -8, "genus_cover": 5, "genus_quotient": 3,
            "fold_circles": 4, "consistent": True,
            "counts": {"two_sheets": 4076, "fold_region": 16, "empty": 4}}
    topo.update(override)
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "fold_circles.csv").write_text("# c\nh\n1\n2\n")
    return tmp_path


def test_trace_gate(tmp_path):
    problems, record = run.check_trace(_topology(tmp_path), "")
    assert problems == [] and record["fold_circle_rows"] == 2
    problems, _ = run.check_trace(_topology(tmp_path, genus_cover=4), "")
    assert problems == ["genus_cover is 4, expected 5"]


def test_verify_gate_counts_a_missing_row():
    rows = [{"check": n, "ok": True} for n in run.VERIFY_ROWS]
    assert run.check_verify(Path("."), json.dumps(rows))[0] == []
    del rows[9]  # composed_circles, skipped when composed_edge raises
    assert run.check_verify(Path("."), json.dumps(rows))[0]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()
