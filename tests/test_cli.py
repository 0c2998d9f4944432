import json

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


def test_verify_json_and_fault(tmp_path):
    code = run(["verify", "--variant", "bypass", "--s", "0.05",
                "--out", str(tmp_path), "--json"])
    assert code == 0
    code = run(["verify", "--variant", "bypass", "--s", "0.05",
                "--out", str(tmp_path), "--inject-fault", "g-bias"])
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


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

    monkeypatch.setattr(cli, "solve_fiber", lambda variant, s, g, t:
                        FiberSolutions(variant, s, g, t, [], "empty"))
    with pytest.raises(ContinuationError, match="earring at s=0.05 in 300 "
                                                "attempts"):
        cli._variety_points(np.random.default_rng(0), "earring", 0.05, 3)
