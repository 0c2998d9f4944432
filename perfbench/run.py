"""The pillowcase benchmark: CLI workloads gated on the paper's integers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  Every repetition is a fresh interpreter (``child.py``) that calls
``pillowcase.cli.main(argv)`` with ``--out`` and ``PILLOWCASE_OUT`` both set
to a fresh directory under ``.bench_out/``; repetitions run one at a time.
Each run's outputs are checked against values hard-coded from the paper
(chi = -8, genus 5/3, four fold circles, 9 + 9 torus-knot points, all
eleven verify rows passing); a run that exits nonzero or misses one of them
counts as failed.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at least
once) and reports the end-to-end metrics: median wall time of ``main``,
median import time of ``pillowcase.cli`` over import-only interpreters and
the workload's own, and median peak resident memory.  ``--trace 1`` makes
one untraced and one traced run (``tracer.py``) and reports the per-layer
metrics, with the tracer's overhead.  Lines before the last one carry the
machine facts and the ungated record of each run; the last line is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pillowcase"

# import-only interpreters per run; with the workload's own imports a run
# samples set-up at least SETUP_SAMPLES + 1 times
SETUP_SAMPLES = 4
BUDGET_S = 170.0  # a run must end within 180 s

VERIFY_ROWS = ["identities", "w2_condition", "explicit_points", "k_circle",
               "asymptotics", "fold_structure", "topology", "factorization",
               "composed_edge", "composed_circles", "tangent_anchor"]


# ---------------------------------------------------------------------------
# correctness gates: expected values come from the paper, not from a run
# ---------------------------------------------------------------------------

def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} is {got!r}, expected {want!r}")


def check_trace(out: Path, stdout: str):
    topo = json.loads((out / "topology.json").read_text())
    problems: list[str] = []
    _expect(problems, "euler_characteristic", topo["euler_characteristic"], -8)
    _expect(problems, "genus_cover", topo["genus_cover"], 5)
    _expect(problems, "genus_quotient", topo["genus_quotient"], 3)
    _expect(problems, "fold_circles", topo["fold_circles"], 4)
    _expect(problems, "consistent", topo["consistent"], True)
    rows = [ln for ln in (out / "fold_circles.csv").read_text().splitlines()
            if ln and not ln.startswith("#")][1:]  # drop the header
    record = {"fiber_counts": topo["counts"], "fold_circle_rows": len(rows)}
    return problems, record


def check_scene(out: Path, stdout: str):
    scene = json.loads((out / "scene.json").read_text())
    problems: list[str] = []
    _expect(problems, "forward total", scene["forward"]["total"], 9)
    _expect(problems, "pullback total", scene["pullback"]["total"], 9)
    record = {side: [scene[side]["vs_A2"], scene[side]["vs_circles"]]
              for side in ("forward", "pullback")}
    return problems, record


def check_verify(out: Path, stdout: str):
    rows = json.loads(stdout.strip().splitlines()[-1])
    problems: list[str] = []
    # a missing row is a failure: composed_circles is skipped silently when
    # composed_edge raises
    _expect(problems, "verify rows", [r["check"] for r in rows], VERIFY_ROWS)
    failing = [r["check"] for r in rows if r["ok"] is not True]
    _expect(problems, "failing rows", failing, [])
    return problems, {"rows": len(rows)}


# name -> (CLI arguments from the seed, gate); BENCHMARK.json says why each
WORKLOADS = {
    "trace-earring": (
        lambda seed: ["trace", "--variant", "earring", "--s", "0.05",
                      "--grid", "64"],
        check_trace),
    "scene-earring": (
        lambda seed: ["scene", "--variant", "earring", "--s", "0.05"],
        check_scene),
    "verify-bypass": (
        lambda seed: ["verify", "--variant", "bypass", "--s", "0.05",
                      "--json", "--seed", str(seed)],
        check_verify),
}


# ---------------------------------------------------------------------------
# per-layer metrics (--trace 1)
# ---------------------------------------------------------------------------

# layer -> outcome counts reported besides calls, incl_s and self_s
LAYER_COUNTS = {
    "kernels.g": ["points"],
    "kernels.newton_fiber": ["fail"],
    "kernels.newton_fiber_batch": ["points", "fail_points"],
    "kernels.g_pair": ["points"],
    "kernels.corrector": ["fail"],
    "kernels.tangent": [],
    "kernels.ppoly_eval": [],
    "variety.solve_fiber": ["two_sheets", "fold_region", "empty"],
    "variety.classify_grid": [],
    "variety.verify_topology": [],
    "variety.fold_locus": [],
    "compose.fiber_product": ["branches", "samples", "fold_crossings",
                              "accepted_steps", "corrector_calls"],
    "compose.push_forward": ["vertices"],
    "compose.check_transversality": [],
    "curves.intersect": ["hits"],
    "curves.invariants": [],
    "curves.hausdorff_r3": [],
    "projection.pi1_r3_of_chart": ["points"],
    "projection.verify_factorization": [],
    "words.check_identities": [],
    "svg.scene_svg": ["bytes"],
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, counts in LAYER_COUNTS.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.incl_s"] = "s"
        units[f"{layer}.self_s"] = "s"
        for c in counts:
            units[f"{layer}.{c}"] = "B" if c == "bytes" else "count"
    units.update({
        "compose.step_accept_ratio": "ratio",
        "cli.self_s": "s",
        "cli.out_bytes": "B",
        "trace.traced_wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead": "ratio",
    })
    return units


def layer_metrics(traced: dict, plain: dict, out_bytes: int
                  ) -> dict[str, float]:
    """Per-layer values from the traced run's measurements, with the
    untraced run's for the overhead.  A layer the workload never calls reads
    0: every per-layer metric is reported on every workload."""
    layers = traced["layers"]
    values = {}
    for layer, counts in LAYER_COUNTS.items():
        got = layers.get(layer, {})
        for field in ["calls", "incl_s", "self_s", *counts]:
            values[f"{layer}.{field}"] = got.get(field, 0)
    fp = layers.get("compose.fiber_product", {})
    corr = fp.get("corrector_calls", 0)
    values["compose.step_accept_ratio"] = (
        fp.get("accepted_steps", 0) / corr if corr else 0.0)
    values["cli.self_s"] = layers["cli.main"]["self_s"]
    values["cli.out_bytes"] = out_bytes
    values["trace.traced_wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    return values


# ---------------------------------------------------------------------------
# running fresh interpreters
# ---------------------------------------------------------------------------

class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@contextlib.contextmanager
def _workdir():
    """A fresh directory under ``.bench_out/``, removed afterwards."""
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _child(work: Path, argv: list[str], *, trace: bool, deadline: float):
    """Run one fresh interpreter in ``work``; returns (measurements or None,
    stdout, problems)."""
    out = work / "out"
    out.mkdir()
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result)]
    if trace:
        cmd.append("--trace")
    if argv:
        cmd += ["--", *argv, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC), PILLOWCASE_OUT=str(out))
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", [f"timed out after {timeout:.0f} s"]
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, proc.stdout, [f"exit code {proc.returncode}: {tail}"]
    meas = json.loads(result.read_text())
    if Path(meas["package"]).resolve() != PACKAGE.resolve():
        raise BenchError(f"pillowcase was imported from {meas['package']}, "
                         f"not from {PACKAGE}")
    return meas, proc.stdout, []


def _run_workload(name: str, seed: int, *, trace: bool, deadline: float):
    """One measured CLI run, gated; returns (measurements or None, bytes
    written, problems, ungated record)."""
    make_argv, gate = WORKLOADS[name]
    with _workdir() as work:
        meas, stdout, problems = _child(work, make_argv(seed), trace=trace,
                                        deadline=deadline)
        if meas is None:
            return None, 0, problems, {}
        if meas["rc"] != 0:
            problems.append(f"exit code {meas['rc']}")
        out = work / "out"
        record = {}
        try:
            found, record = gate(out, stdout)
            problems += found
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"outputs unreadable: {exc!r}")
        size = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    return meas, size, problems, record


def _import_times(deadline: float) -> list[float]:
    """Import times of ``pillowcase.cli`` in import-only interpreters.  A run
    of a long workload holds a single repetition, so without these its
    set-up time would rest on one import; the median also drops the first
    import in a fresh checkout, which compiles byte code that users compile
    once."""
    times = []
    for _ in range(SETUP_SAMPLES):
        with _workdir() as work:
            meas, _, problems = _child(work, [], trace=False,
                                       deadline=deadline)
        if meas is None:
            raise BenchError(f"importing pillowcase.cli failed: {problems}")
        times.append(meas["setup_s"])
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    deadline = start + BUDGET_S
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no pillowcase sources under {SRC}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            runs = [_run_workload(args.workload, args.seed, trace=t,
                                  deadline=deadline) for t in (False, True)]
        else:
            import_times = _import_times(deadline)
            runs = []
            while True:
                t0 = time.monotonic()
                runs.append(_run_workload(args.workload, args.seed,
                                          trace=False, deadline=deadline))
                now = time.monotonic()
                if now - start >= args.seconds or now + (now - t0) > deadline:
                    break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = sum(1 for meas, _, problems, _ in runs
                 if meas is None or problems)
    measured = [(meas, size) for meas, size, _, _ in runs if meas is not None]
    facts = measured[0][0]["facts"] if measured else None
    print("detail: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "facts": facts,
        "runs": [{"wall_s": meas and meas["wall_s"],
                  "cpu_s": meas and meas["cpu_s"], "problems": problems,
                  "record": record} for meas, _, problems, record in runs]}))

    metrics = {}
    if args.trace:
        if len(measured) == 2:
            (plain, _), (traced, size) = measured
            values = layer_metrics(traced, plain, size)
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in per_layer_units().items()}
    elif measured:
        metrics = {
            "wall_s": {"value": statistics.median(
                m["wall_s"] for m, _ in measured), "unit": "s"},
            "setup_s": {"value": statistics.median(
                import_times + [m["setup_s"] for m, _ in measured]),
                "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                m["peak_rss_mb"] for m, _ in measured), "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
