import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pillowcase import cli
from pillowcase import curves as C


def run(argv):
    return cli.main(argv)


def test_trace_outputs(tmp_path):
    code = run(["trace", "--variant", "earring", "--s", "0.05",
                "--grid", "16", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "topology.json").read_text())
    assert report["euler_characteristic"] == -8
    assert report["genus_cover"] == 5
    assert report["genus_quotient"] == 3
    fibers = (tmp_path / "fibers.csv").read_text().splitlines()
    assert fibers[2] == "gamma,theta,status"
    assert len(fibers) == 3 + 16 * 16
    assert (tmp_path / "fold_circles.csv").exists()
    assert (tmp_path / "trace.svg").exists()


def test_trace_degenerate(tmp_path):
    code = run(["trace", "--variant", "bypass", "--s", "0",
                "--grid", "8", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "topology.json").read_text())
    assert report["degenerate"] is True


def test_compose_command_and_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = run(["compose", "--name", "beta", "--variant", "bypass",
                    "--s", "0.1", "--out", str(out)])
        assert code == 0
    assert (a / "composed.svg").read_bytes() == (b / "composed.svg").read_bytes()
    curve = C.ImmersedCurve.from_json((a / "composed.json").read_text())
    assert curve.side == "P1"
    assert len(curve.components) == 1


def test_compose_curve_file(tmp_path):
    src = tmp_path / "curve.json"
    src.write_text(C.vertical_circle().to_json())
    code = run(["compose", "--curve-file", str(src), "--variant", "bypass",
                "--s", "0.1", "--out", str(tmp_path)])
    assert code == 0
    out = C.ImmersedCurve.from_json((tmp_path / "composed.json").read_text())
    assert len(out.components) == 2


def test_compose_tangency_exit_code(tmp_path, capsys):
    from pillowcase.variety import fold_locus

    circles = fold_locus("earring", 0.05)
    r = float(np.mean(circles[0].radii))
    curve = C.ImmersedCurve([C.CurveComponent(
        "circle",
        C._polyline(lambda t: (r * np.cos(t), r * np.sin(t)), 0, 2 * np.pi,
                    400))], "P0")
    src = tmp_path / "tangent.json"
    src.write_text(curve.to_json())
    code = run(["compose", "--curve-file", str(src), "--variant", "earring",
                "--s", "0.05", "--out", str(tmp_path)])
    assert code == 3


def test_scene_command(tmp_path):
    code = run(["scene", "--variant", "bypass", "--s", "0.05",
                "--out", str(tmp_path), "--json"])
    assert code == 0
    payload = json.loads((tmp_path / "scene.json").read_text())
    assert payload["forward"]["total"] == 9
    assert payload["pullback"]["total"] == 9
    assert (tmp_path / "scene_p0.svg").exists()
    assert (tmp_path / "scene_p1.svg").exists()


def _verify_rows(capsys, variant, out):
    code = run(["verify", "--variant", variant, "--s", "0.05", "--json",
                "--out", str(out)])
    printed = capsys.readouterr().out
    assert (out / "verify.json").read_text() == printed
    rows = json.loads(printed)
    assert len(rows) == 11
    return code, {r["check"] for r in rows if not r["ok"]}, rows


def test_verify_writes_its_rows_under_out(tmp_path, capsys, monkeypatch):
    rows = [("identities", True, "max residual 1e-16"),
            ("topology", False, "chi None")]
    monkeypatch.setattr(cli, "verification_suite", lambda *a, **k: rows)
    want = [{"check": n, "ok": ok, "detail": d} for n, ok, d in rows]
    assert run(["verify", "--json", "--out", str(tmp_path / "flag")]) == 1
    printed = capsys.readouterr().out
    assert (tmp_path / "flag" / "verify.json").read_text() == printed
    assert json.loads(printed) == want
    # the table on stdout, the same rows in the file; the environment wins
    monkeypatch.setenv("PILLOWCASE_OUT", str(tmp_path / "env"))
    assert run(["verify", "--out", str(tmp_path / "flag2")]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert json.loads((tmp_path / "env" / "verify.json").read_text()) == want
    assert not (tmp_path / "flag2").exists()


def test_verify_json_and_fault(capsys, monkeypatch, tmp_path):
    assert _verify_rows(capsys, "bypass", tmp_path)[:2] == (0, set())
    # a wrong fixed-point angle on the circles over the bottom edge
    from pillowcase import compose, variety

    eta = variety.eta
    for mod in (variety, compose):
        monkeypatch.setattr(mod, "eta", lambda s, sigma: -eta(s, sigma))
    code, failing, _ = _verify_rows(capsys, "earring", tmp_path)
    assert code == 1 and {"k_circle", "composed_edge"} <= failing


def test_verify_reports_both_rows_when_composition_fails(capsys, monkeypatch,
                                                         tmp_path):
    from pillowcase.variety import ContinuationError

    def refuse(*args, **kwargs):
        raise ContinuationError("loop failed to close")

    monkeypatch.setattr(cli, "compose_curve", refuse)
    code, failing, rows = _verify_rows(capsys, "bypass", tmp_path)
    assert code == 1 and failing == {"composed_edge", "composed_circles"}
    assert {r["detail"] for r in rows if not r["ok"]} == {
        "loop failed to close"}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    "trace --s nan", "trace --s inf", "trace --s -0.5",
    "compose --s 0", "scene --s 0", "verify --s 0",
    "trace --grid 0", "trace --grid -3",
    "compose --max-step 0", "scene --max-step nan", "scene --max-step -0.001",
    # options a command does not read
    "trace --json", "trace --seed 3", "compose --json", "compose --seed 3",
    "scene --seed 3",
])
def test_bad_option_values_exit_2(argv, capsys):
    # rejected while parsing: no fiber is solved and no file is written
    command, option, *value = argv.split()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if option in ("--json", "--seed"):
        expected = ("pillowcase: error: unrecognized arguments: "
                    + " ".join([option, *value]))
    else:
        expected = (f"pillowcase {command}: error: argument {option}: "
                    f"'{value[0]}' is not")
    assert err.splitlines()[-1].startswith(expected)


def test_env_out_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PILLOWCASE_OUT", str(tmp_path / "env_dir"))
    code = run(["trace", "--variant", "earring", "--s", "0", "--grid", "8",
                "--out", str(tmp_path / "flag_dir")])
    assert code == 0
    assert (tmp_path / "env_dir" / "topology.json").exists()
    assert not (tmp_path / "flag_dir").exists()


def test_svg_well_formed(tmp_path):
    import xml.etree.ElementTree as ET

    code = run(["compose", "--name", "b_ver", "--variant", "bypass",
                "--s", "0.1", "--out", str(tmp_path)])
    assert code == 0
    root = ET.fromstring((tmp_path / "composed.svg").read_text())
    assert root.tag.endswith("svg")
    assert len(root) > 5


def test_compose_rejects_bad_curve_files(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    no_components = tmp_path / "keys.json"
    no_components.write_text('{"side": "P0"}')
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    # a "circle" whose lift does not close modulo the lattice
    half = C.ImmersedCurve([C.CurveComponent(
        "circle",
        C._polyline(lambda t: (1.0 + 0.3 * np.cos(t), 1.0 + 0.3 * np.sin(t)),
                    0, np.pi, 200))], "P0")
    open_circle = tmp_path / "open.json"
    open_circle.write_text(half.to_json())
    for src in (bad_json, no_components, not_an_object, open_circle):
        code = run(["compose", "--curve-file", str(src), "--variant",
                    "earring", "--s", "0.05", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bad curve file {src}") and err.count("\n") == 1
    assert not (tmp_path / "composed.json").exists()


def test_variety_points_gives_up(monkeypatch):
    from pillowcase.variety import ContinuationError, FiberSolutions

    monkeypatch.setattr(cli, "solve_fibers", lambda variant, s, gs, ts: [
        FiberSolutions(variant, s, g, t, [], "empty") for g, t in zip(gs, ts)])
    with pytest.raises(ContinuationError, match="earring at s=0.05 in 300 "
                                                "attempts"):
        cli._variety_points(np.random.default_rng(0), "earring", 0.05, 3)


def _ref_variety_points(rng, variant, s, n):
    """``cli._variety_points`` one fiber at a time; also returns the number
    of misses."""
    from pillowcase.variety import ContinuationError, solve_fiber

    pts = []
    attempts = misses = 0
    while len(pts) < n:
        if attempts == 100 * n:
            raise ContinuationError(f"found {len(pts)} of {n}")
        attempts += 1
        g = float(rng.uniform(0.3, np.pi - 0.3))
        t = float(rng.uniform(0.3, np.pi - 0.3))
        fs = solve_fiber(variant, s, g, t)
        if fs.status == "two_sheets" and all(abs(nu) <= 0.5 + 1e-9
                                             for nu, _ in fs.solutions):
            pts.append(fs.chart_points()[int(rng.integers(0, 2))])
        else:
            misses += 1
    return pts, misses


@pytest.mark.parametrize("variant,s,n", [
    ("earring", 0.05, 10), ("bypass", 0.05, 10),
    ("earring", -0.3, 10), ("bypass", -0.3, 10),
    ("bypass", 0.45, 8)])
def test_variety_points_match_one_fiber_at_a_time(variant, s, n):
    # the batched draws replay the one-at-a-time stream exactly, misses too
    rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
    ref, misses = _ref_variety_points(ref_rng, variant, s, n)
    assert cli._variety_points(rng, variant, s, n) == ref
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if s == 0.45:
        assert misses >= 1  # the replay after a miss has run


def test_variety_points_skip_roots_outside_the_chart():
    # at s = 0.45 some earring fibers have a root with |nu| > 1/2
    pts = cli._variety_points(np.random.default_rng(0), "earring", 0.45, 25)
    assert len(pts) == 25
    assert all(abs(p.nu) <= 0.5 + 1e-9 for p in pts)


def test_runtime_does_not_import_scipy():
    # the CLI, the spline fit and the Hausdorff distance run on numpy alone
    script = (
        "import sys\n"
        "import pillowcase.cli\n"
        "from pillowcase import compose, curves\n"
        "c = curves.vertical_circle()\n"
        "compose._component_splines(c.components[0])\n"
        "assert curves.hausdorff_r3(c, curves.double(c)) > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
