import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_trace_inconsistent_is_not_called_degenerate(tmp_path, capsys,
                                                     monkeypatch):
    real = cli.verify_topology

    def inconsistent(*args, **kwargs):
        return dataclasses.replace(
            real(*args, **kwargs), consistent=False, euler_characteristic=None,
            genus_cover=None, genus_quotient=None,
            notes=["refined fiber near (0, 0) at d=0.1 is fold_region"])

    monkeypatch.setattr(cli, "verify_topology", inconsistent)
    code = run(["trace", "--grid", "8", "--out", str(tmp_path)])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "degenerate" not in stdout
    assert "inconsistent report: its notes are in topology.json" in stdout
    report = json.loads((tmp_path / "topology.json").read_text())
    assert report["degenerate"] is False and report["notes"]


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


def _fail_to_close(*args, **kwargs):
    from pillowcase.variety import ContinuationError

    raise ContinuationError("loop failed to close")


def test_scene_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "torus_knot_scene", _fail_to_close)
    assert run(["scene", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "numerical failure: loop failed to close\n"
    # the directory is made at the first write, and nothing was written
    assert not (tmp_path / "o").exists()


def test_compose_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "compose_curve", _fail_to_close)
    assert run(["compose", "--variant", "bypass",
                "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "numerical failure: loop failed to close\n"
    assert not (tmp_path / "o").exists()


def test_trace_fold_failure_is_a_numerical_failure(tmp_path, capsys,
                                                  monkeypatch):
    from pillowcase import variety

    monkeypatch.setattr(variety, "FOLD_MAXIT", 0)
    assert run(["trace", "--grid", "8", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "numerical failure: fold Newton failed at tau = ")
    assert not (tmp_path / "o").exists()


def test_compose_fails_at_the_chart_bound(tmp_path, capsys, monkeypatch):
    # the earring image of slope_two leaves the chart at s = 0.45: the trace
    # stops at its first coarse sample past NU_MAX, where tracing the whole
    # loop for push_forward to refuse took 255 scalar corrector calls
    from pillowcase import _kernels
    from pillowcase.words import NU_MAX

    results, real = [], _kernels.corrector

    def counting(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(_kernels, "corrector", counting)
    assert run(["compose", "--variant", "earring", "--name", "slope_two",
                "--s", "0.45", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: fiber-product sample outside the chart: "
        "nu out of [-1/2, 1/2]\n")
    assert len(results) < 255
    *_, (_, nu, _, ok, _) = results
    assert ok and abs(nu) > NU_MAX
    assert not (tmp_path / "o").exists()


def test_compose_refused_is_a_numerical_failure(tmp_path, capsys,
                                                monkeypatch):
    from pillowcase.compose import TangencyError

    def tangent(*args, **kwargs):
        raise TangencyError("curve tangent to the fold image")

    monkeypatch.setattr(cli, "compose_curve", tangent)
    assert run(["compose", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == \
        "numerical failure: curve tangent to the fold image\n"
    assert not (tmp_path / "o").exists()


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
    from pillowcase import variety, verify

    eta = variety.eta
    for mod in (variety, verify):
        monkeypatch.setattr(mod, "eta", lambda s, sigma: -eta(s, sigma))
    code, failing, _ = _verify_rows(capsys, "earring", tmp_path)
    assert code == 1 and {"k_circle", "composed_edge"} <= failing


def test_verify_reports_both_rows_when_composition_fails(capsys, monkeypatch,
                                                         tmp_path):
    monkeypatch.setattr(cli, "compose_curve", _fail_to_close)
    code, failing, rows = _verify_rows(capsys, "bypass", tmp_path)
    assert code == 1 and failing == {"composed_edge", "composed_circles"}
    assert {r["detail"] for r in rows if not r["ok"]} == {
        "loop failed to close"}


def test_verify_reports_the_fold_circles_failure_on_their_rows(
        capsys, monkeypatch, tmp_path):
    # the fold circles are solved once; where they cannot be found, the
    # four rows that read them fail with the solver's message
    from pillowcase import variety

    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise variety.ContinuationError("fold Newton did not converge")

    for mod in (cli, variety):
        monkeypatch.setattr(mod, "fold_locus", fail)
    code, failing, rows = _verify_rows(capsys, "earring", tmp_path)
    assert code == 1 and len(calls) == 1
    assert failing == {"fold_structure", "topology", "composed_edge",
                       "composed_circles"}
    assert {r["detail"] for r in rows if not r["ok"]} == {
        "fold Newton did not converge"}


def test_verify_reports_an_off_variety_sample_as_a_failing_row(
        capsys, monkeypatch, tmp_path):
    # one point off the variety among the 40 of the factorization row
    draw = cli._variety_points
    off = np.array([(0.05, 1.0, 2.0, 0.3, 0.5)])
    monkeypatch.setattr(cli, "_variety_points", lambda rng, variant, s, n: (
        np.vstack([draw(rng, variant, s, n)] + ([off] if n == 40 else []))))
    code, failing, rows = _verify_rows(capsys, "bypass", tmp_path)
    assert code == 1 and failing == {"factorization"}
    assert [r["detail"] for r in rows if not r["ok"]] == [
        "transformed a is not traceless; input is off the variety"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    "trace --s nan", "trace --s inf", "trace --s -0.5",
    "compose --s 0", "scene --s 0", "verify --s 0", "verify --s 0.3",
    # below the floor of verify's |s|, where its compositions do not close
    "verify --s 3e-4",
    "trace --grid 0", "trace --grid -3", "trace --grid 1025",
    "compose --max-step 0", "scene --max-step nan", "scene --max-step -0.001",
    # options a command does not read
    "trace --json", "trace --seed 3", "compose --json", "compose --seed 3",
    "scene --seed 3", "verify --seed -1",
    # below the floor of trace's |s|, where its fiber solve is not resolved
    "trace --s 1e-7", "trace --s=-5e-7",
])
def test_bad_option_values_exit_2(argv, capsys):
    # rejected while parsing: no fiber is solved and no file is written
    command, option, *value = argv.replace("=", " ").split()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if option in ("--json", "--seed") and command != "verify":
        expected = ("pillowcase: error: unrecognized arguments: "
                    + " ".join([option, *value]))
    else:
        expected = (f"pillowcase {command}: error: argument {option}: "
                    f"'{value[0]}' is not")
    assert err.splitlines()[-1].startswith(expected)


def test_tiny_max_step_is_a_numerical_failure(tmp_path, capsys):
    # ceil(chord / max_step) samples per coarse segment would overflow; the
    # loop's dense sample count is checked against STEP_BUDGET first
    code = run(["compose", "--max-step", "1e-300",
                "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["compose", "scene"])
def test_huge_max_step_is_a_numerical_failure(command, tmp_path, capsys):
    # a prediction past |nu| = 1 is refused and the step halves, but the
    # images traced at maximum steps 100 and 50 both fail the immersion proxy
    code = run([command, "--max-step", "100", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("numerical failure: composed image violates the immersion "
                   "proxy after refinement; decrease the continuation step\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("variant, s", [("earring", "0.05"), ("bypass", "0.1")])
def test_compose_reads_its_own_output(variant, s, tmp_path):
    # composed.json lives in the second factor; composing it again reads it
    # in the first and doubles the doubled vertical circle
    for argv, out in ((["--name", "b_ver"], "once"),
                      (["--curve-file", str(tmp_path / "once" / "composed.json")],
                       "twice")):
        assert run(["compose", *argv, "--variant", variant, "--s", s,
                    "--out", str(tmp_path / out)]) == 0
    twice = C.ImmersedCurve.from_json(
        (tmp_path / "twice" / "composed.json").read_text())
    assert twice.side == "P1" and len(twice.components) == 4
    assert C.invariants(twice) == C.invariants(
        C.double(C.double(C.vertical_circle())))


@pytest.mark.parametrize("argv, env", [
    (["trace", "--grid", "2"], None), (["compose"], None), (["scene"], None),
    (["verify"], None),
    # PILLOWCASE_OUT overrides --out, here with a path under the file
    (["trace", "--grid", "2"], "afile/sub"), (["verify"], "afile/sub/deeper")])
def test_unwritable_output_exits_2(argv, env, tmp_path, capsys, monkeypatch):
    # an output directory that names a file, or a path under one, is
    # refused before the command computes, with one line; the file is left
    # as it was and nothing is created
    computation = {"trace": "verify_topology", "compose": "fold_locus",
                   "scene": "torus_knot_scene",
                   "verify": "verification_suite"}[argv[0]]
    monkeypatch.setattr(cli, computation, lambda *a, **k: pytest.fail(
        f"{computation} ran although the output path is blocked"))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile
    if env:
        monkeypatch.setenv("PILLOWCASE_OUT", str(tmp_path / env))
        out = tmp_path / "flag_dir"
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cannot write output: [Errno 20] Not a "
                            f"directory: '{afile}'\n")
    assert afile.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == [afile]


def test_empty_pillowcase_out_counts_as_unset(tmp_path, monkeypatch):
    monkeypatch.setenv("PILLOWCASE_OUT", "")
    monkeypatch.chdir(tmp_path)
    assert run(["trace", "--grid", "2", "--out", "mydir"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mydir"]
    assert sorted(p.name for p in (tmp_path / "mydir").iterdir()) == [
        "fibers.csv", "fold_circles.csv", "topology.json", "trace.svg"]


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


def test_svg_escapes_its_text():
    import xml.etree.ElementTree as ET

    from pillowcase import _svg

    svg = _svg.scene_svg([("a&b<c", C.vertical_circle()),
                          ("composed -> P1", C.vertical_circle())],
                         title="a&b<c")
    assert "composed -> P1" in svg
    texts = [el.text for el in ET.fromstring(svg).iter()
             if el.tag.endswith("text")]
    assert texts == ["a&b<c", "a&b<c", "composed -> P1"]


def test_svg_formats_a_repeated_component_once(monkeypatch):
    from pillowcase import _svg

    dt = C.twisted_double(C.vertical_circle())
    # the same arrays twice, two equal copies, and the one curve in
    # another color
    figure = [("twice", C.ImmersedCurve(dt.components * 2)),
              ("copies", C.double(dt)), ("once", dt)]
    want = [_svg._polyline_svg(seg, _svg.PALETTE[k])
            for k, (_, curve) in enumerate(figure)
            for comp in curve.components
            for seg in _svg._clip_segments(comp.lift)]
    formatted = []
    polyline_svg = _svg._polyline_svg

    def counted(points, color, width=1.2):
        formatted.append(color)
        return polyline_svg(points, color, width)

    monkeypatch.setattr(_svg, "_polyline_svg", counted)
    svg = _svg.scene_svg(figure)
    got = [line for line in svg.splitlines() if line.startswith("<polyline")]
    assert got == want
    assert svg.count("<polyline") == len(want)
    # five components of one lift, formatted once per color
    assert len(formatted) * 5 == 3 * len(want)


_coord = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e6, -1e6, 999999.9999995, -5e-7]))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=40))
def test_polyline_coordinates_match_per_pair_formatting(pairs):
    from pillowcase import _svg

    points = np.array(pairs, dtype=float)
    xs = (_svg._MARGIN + _svg._SCALE * points[:, 0]).tolist()
    ys = (_svg._MARGIN + _svg._SCALE * (_svg.TWO_PI - points[:, 1])).tolist()
    coords = " ".join(f"{x:.6f},{y:.6f}" for x, y in zip(xs, ys))
    assert _svg._polyline_svg(points, "#000") == (
        f'<polyline fill="none" stroke="#000" stroke-width="1.200000" '
        f'points="{coords}"/>')


def test_compose_rejects_bad_curve_files(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    no_components = tmp_path / "keys.json"
    no_components.write_text('{"side": "P0"}')
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    empty = tmp_path / "empty.json"
    empty.write_text('{"components": []}')
    # a "circle" whose lift does not close modulo the lattice
    half = C.ImmersedCurve([C.CurveComponent(
        "circle",
        C._polyline(lambda t: (1.0 + 0.3 * np.cos(t), 1.0 + 0.3 * np.sin(t)),
                    0, np.pi, 200))], "P0")
    open_circle = tmp_path / "open.json"
    open_circle.write_text(half.to_json())
    # b_ver circles with one gamma NaN or infinite, which json writes bare
    not_finite = []
    for value in (np.nan, np.inf):
        circle = C.vertical_circle()
        circle.components[0].lift[100, 0] = value
        not_finite.append(tmp_path / f"{value}.json")
        not_finite[-1].write_text(circle.to_json())
    # the message names the defect in words, not a Python exception
    worded = {}
    for name, text, why in [
            ("no-lift", '{"components": [{"kind": "circle"}]}',
             'component 0 is not an object with "kind" and "lift" keys'),
            ("strings", '{"components": ["circle"]}',
             'component 0 is not an object with "kind" and "lift" keys'),
            ("ragged", '{"components": [{"kind": "circle", '
                       '"lift": [[1.5, 0.0], [1.5]]}]}',
             "component 0: lift is not a list of [gamma, theta] number "
             "pairs"),
            ("huge-int", '{"components": [{"kind": "circle", "lift": '
                         '[[1' + '0' * 400 + ', 0.0], [1.5, 2.0]]}]}',
             "component 0: lift has a number beyond the float range"),
            # deeper than Python's recursion limit, which json's decoder
            # meets as a RecursionError
            ("deep", '{"components": ' + '[' * 100_000,
             "the curve file is nested too deeply")]:
        worded[tmp_path / f"{name}.json"] = why
        (tmp_path / f"{name}.json").write_text(text)
    # a b_ver circle at gamma = 1e300, where reducing mod 2 pi keeps no digit
    huge = C.vertical_circle()
    huge.components[0].lift[:, 0] = 1e300
    worded[tmp_path / "huge.json"] = \
        "component lift has a coordinate beyond 1e+06 in absolute value"
    (tmp_path / "huge.json").write_text(huge.to_json())
    # a circle along gamma = 0, through the corners (0, 0) and (0, pi)
    edge = C.ImmersedCurve([C.CurveComponent(
        "circle", C._polyline(lambda t: (0.0, t), 0, 2 * np.pi, 721))], "P0")
    worded[tmp_path / "corner.json"] = "circle passes through a corner"
    (tmp_path / "corner.json").write_text(edge.to_json())
    # the same circle from theta = 0.5: no vertex is within 0.004 of a
    # corner, but two segments run through (0, pi) and (0, 2 pi)
    edge = C.ImmersedCurve([C.CurveComponent("circle", C._polyline(
        lambda t: (0.0, t), 0.5, 0.5 + 2 * np.pi, 400))], "P0")
    worded[tmp_path / "corner-segment.json"] = "circle passes through a corner"
    (tmp_path / "corner-segment.json").write_text(edge.to_json())
    for src in (bad_json, no_components, not_an_object, empty, open_circle,
                *not_finite, *worded):
        code = run(["compose", "--curve-file", str(src), "--variant",
                    "earring", "--s", "0.05", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bad curve file {src}") and err.count("\n") == 1
        if src in not_finite:
            assert err.endswith("lift has a coordinate that is not finite\n")
        if src == empty:
            assert err.endswith("curve has no components\n")
        if src in worded:
            assert err.endswith(f"CurveError: {worded[src]}\n")
    assert not (tmp_path / "composed.json").exists()


# the curve-file contract, fuzzed: edits to the named curves' own files
_NUMBERS = st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300,
                            1e6 + 1, -2.5e5, 10 ** 400, 0, True, "1.5", None])


@st.composite
def _curve_files(draw):
    """The JSON text of a named curve after a few structural and numeric
    edits."""
    data = json.loads(cli.NAMED_CURVES[draw(st.sampled_from(
        sorted(cli.NAMED_CURVES)))]().to_json())
    for _ in range(draw(st.integers(1, 3))):
        comps = data.get("components") if isinstance(data, dict) else None
        comp = (draw(st.sampled_from(comps)) if isinstance(comps, list)
                and comps else None)
        lift = comp.get("lift") if isinstance(comp, dict) else None
        ok_lift = isinstance(lift, list) and len(lift) > 2 and all(
            isinstance(v, list) and len(v) == 2 for v in lift)
        i = draw(st.integers(0, len(lift) - 2)) if ok_lift else 0
        edit = draw(st.sampled_from([
            "drop_key", "add_key", "retype", "nest", "number", "corner",
            "near_corner", "segment_corner", "repeat", "far"]))
        if edit in ("drop_key", "add_key", "retype", "nest") or not ok_lift:
            target = draw(st.sampled_from(
                [x for x in (data, comp) if isinstance(x, dict)] or [data]))
            if not isinstance(target, dict):
                data = draw(st.sampled_from([[data], {"components": data}]))
                continue
            key = draw(st.sampled_from(sorted(target) + ["extra"]))
            if edit == "drop_key":
                target.pop(key, None)
            elif edit == "nest":
                target[key] = [target.get(key)]
            else:
                target[key] = draw(st.sampled_from(
                    [None, 3, "circle", "P1", [], {}, [[1.5, 0.0]], [1.5]]))
        elif edit == "number":
            lift[i][draw(st.integers(0, 1))] = draw(_NUMBERS)
        elif edit == "far":
            lift[:] = [[x + 3e5, y] for x, y in lift]
        else:
            # a vertex on or by a corner, or a segment through one
            k, m = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            x, y = k * np.pi, m * np.pi
            if edit == "corner":
                lift[i] = [x, y]
            elif edit == "near_corner":
                lift[i] = [x + 1e-10, y - 1e-10]
            elif edit == "segment_corner":
                lift[i], lift[i + 1] = [x - 0.01, y - 0.02], [x + 0.01, y + 0.02]
            else:
                lift.insert(i, list(lift[i]))
    return json.dumps(data)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(text=_curve_files())
def test_compose_keeps_the_curve_file_contract(text):
    # exit 0, 2 or 3 with no traceback; 0 only for a curve that validates
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.json"
        path.write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["compose", "--curve-file", str(path),
                             "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        C.ImmersedCurve.from_json(text).validate()


def test_variety_points_gives_up(monkeypatch):
    from pillowcase.variety import ContinuationError, FiberSolutions

    monkeypatch.setattr(cli, "solve_fibers", lambda variant, s, gs, ts: [
        FiberSolutions(g, t, [], "empty") for g, t in zip(gs, ts)])
    with pytest.raises(ContinuationError, match="earring at s=0.05 in 300 "
                                                "attempts"):
        cli._variety_points(random.Random(0), "earring", 0.05, 3)


def test_random_chart_rows_are_the_per_point_scalar_draws():
    # the rows are five scalar draws per point, bit for bit
    rng, ref = random.Random(3), random.Random(3)
    want = [[ref.uniform(-0.2, 0.2), ref.uniform(0, 2 * np.pi),
             ref.uniform(0, 2 * np.pi), ref.uniform(-0.5, 0.5),
             ref.uniform(0, 2 * np.pi)] for _ in range(200)]
    assert cli._random_chart_rows(rng, 200).tobytes() == \
        np.array(want).tobytes()
    assert rng.getstate() == ref.getstate()


def _ref_variety_points(rng, variant, s, n):
    """``cli._variety_points`` one fiber at a time, as rows (s, gamma,
    theta, nu, tau); also returns the number of misses."""
    from pillowcase.variety import ContinuationError, solve_fiber

    pts = []
    attempts = misses = 0
    while len(pts) < n:
        if attempts == 100 * n:
            raise ContinuationError(f"found {len(pts)} of {n}")
        attempts += 1
        g = rng.uniform(0.3, np.pi - 0.3)
        t = rng.uniform(0.3, np.pi - 0.3)
        side = rng.randrange(2)
        fs = solve_fiber(variant, s, g, t)
        if fs.status == "two_sheets" and all(abs(nu) <= 0.5 + 1e-9
                                             for nu, _ in fs.solutions):
            pts.append((s, g, t, *fs.solutions[side]))
        else:
            misses += 1
    return np.array(pts), misses


@pytest.mark.parametrize("variant,s,n", [
    ("earring", 0.05, 10), ("bypass", 0.05, 10),
    ("earring", -0.3, 10), ("bypass", -0.3, 10),
    ("bypass", 0.45, 8)])
def test_variety_points_match_one_fiber_at_a_time(variant, s, n):
    # the batched draws are the one-at-a-time stream exactly, misses too
    rng, ref_rng = random.Random(0), random.Random(0)
    ref, misses = _ref_variety_points(ref_rng, variant, s, n)
    got = cli._variety_points(rng, variant, s, n)
    assert got.tobytes() == ref.tobytes() and got.shape == ref.shape == (n, 5)
    assert rng.getstate() == ref_rng.getstate()
    if s == 0.45:
        assert misses >= 1  # a miss has been skipped


def test_variety_points_skip_roots_outside_the_chart():
    # at s = 0.45 some earring fibers have a root with |nu| > 1/2
    pts = cli._variety_points(random.Random(0), "earring", 0.45, 25)
    assert len(pts) == 25
    assert np.all(np.abs(pts[:, 3]) <= 0.5 + 1e-9)


def _run_fresh(script: str, **extra: str) -> str:
    """Stdout of a script run in a fresh interpreter on this checkout, with
    ``extra`` added to its environment.  OPENBLAS_NUM_THREADS is passed on
    only when given: importing cli here has set it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env = dict(base, PYTHONPATH=src + (os.pathsep + path if path else ""),
               **extra)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_starts_numpy_on_one_blas_thread():
    script = (
        "import os, sys\n"
        "import pillowcase.cli\n"
        "assert 'numpy' in sys.modules\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
        "if sys.platform.startswith('linux'):\n"
        "    print(len(os.listdir('/proc/self/task')))\n")
    out = _run_fresh(script).split()
    assert out[0] == "1"
    if sys.platform.startswith("linux"):
        assert out[1] == "1"
    # a value the user set is kept
    assert _run_fresh(script, OPENBLAS_NUM_THREADS="2").split()[0] == "2"


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
    assert _run_fresh(script).strip() == "[]"


def test_verify_does_not_import_numpy_random(tmp_path):
    # verify draws its samples from the standard library's generator
    script = (
        "import sys\n"
        "from pillowcase import cli\n"
        "cli.main(['verify', '--variant', 'bypass', '--out', "
        f"{str(tmp_path)!r}])\n"
        "print('numpy.random' in sys.modules)\n")
    assert _run_fresh(script).splitlines()[-1] == "False"
    assert (tmp_path / "verify.json").exists()


@pytest.mark.parametrize("variant", ["earring", "bypass"])
@pytest.mark.parametrize("seed", range(5))
def test_every_verify_row_passes_on_the_first_seeds(variant, seed):
    rows = cli.verification_suite(variant, 0.05, seed=seed)
    assert len(rows) == 11
    assert [(n, d) for n, ok, d in rows if not ok] == []


def test_trace_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma; fold_locus takes its median by hand
    script = (
        "import sys\n"
        "from pillowcase import cli\n"
        f"assert cli.main(['trace', '--grid', '4', '--out', {str(tmp_path)!r}])"
        " == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    assert _run_fresh(script).splitlines()[-1] == "False"


def test_verify_calls_no_lapack(monkeypatch):
    # the fold rank data are closed form: the battery runs with every
    # small-matrix routine of numpy replaced by one that raises
    def refused(*args, **kwargs):
        raise AssertionError("verify called a numpy matrix routine")

    for name in ("svd", "solve", "det", "eig", "qr", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refused)
    for name in ("dot", "matmul", "inner", "vdot"):
        monkeypatch.setattr(np, name, refused)
    rows = cli.verification_suite("bypass", 0.05)
    assert [(n, d) for n, ok, d in rows if not ok] == []
