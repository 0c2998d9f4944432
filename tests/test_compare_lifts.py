"""``scripts/compare_lifts.py`` on two synthetic run trees."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_lifts.py"
spec = importlib.util.spec_from_file_location("compare_lifts", SCRIPT)
compare_lifts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_lifts)

FOLD_HEAD = ("# fold circle samples\n# variant=bypass s=0.05\n"
             "eps_gamma,eps_theta,tau,gamma,theta,nu,sin_gamma,sin_theta\n")


def _write_run(root, run, files):
    out = root / run / "out"
    out.mkdir(parents=True)
    (root / run / "stdout").write_text("4 fold circles\n")
    (root / run / "exit").write_text("0\n")
    for name, text in files.items():
        (out / name).write_text(text)


def _differences(tmp_path, capsys, run_files):
    """The largest difference printed per (run, file), running the script
    on trees built from ``run_files``: run -> (files A, files B)."""
    for side in (0, 1):
        for run, files in run_files.items():
            _write_run(tmp_path / "ab"[side], run, files[side])
    assert compare_lifts.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    found = re.findall(r"^(\S+) (\S+): largest difference (\S+)$",
                       capsys.readouterr().out, re.M)
    return {(run, name): float(x) for run, name, x in found}


def test_seam_flips_read_as_rounding_and_real_changes_as_their_size(
        tmp_path, capsys):
    row = "1,-1,{tau},{gamma},{theta},0.01,0.0,0.5\n"
    seam = (FOLD_HEAD + row.format(tau=1.5, gamma=6.28318530718, theta=3.0),
            FOLD_HEAD + row.format(tau=1.5, gamma=1.2e-15, theta=3.0))
    moved = (FOLD_HEAD + row.format(tau=6.28318530718, gamma=0.5, theta=3.0),
             FOLD_HEAD + row.format(tau=0.0, gamma=0.5, theta=3.25))
    fibers = ("# fiber classification\ngamma,theta,status\n"
              "0.1,0.2,two_sheets\n",
              "# fiber classification\ngamma,theta,status\n"
              "0.1,0.2000003,two_sheets\n")
    verify = ('[{"check": "identities", "detail": "max residual 5.55e-16"}]',
              '[{"check": "identities", "detail": "max residual 7.77e-16"}]')
    same = '{"fold_circles": 4}\n'
    got = _differences(tmp_path, capsys, {
        "trace-seam": ({"fold_circles.csv": seam[0], "topology.json": same},
                       {"fold_circles.csv": seam[1], "topology.json": same}),
        "trace-moved": ({"fold_circles.csv": moved[0],
                         "fibers.csv": fibers[0]},
                        {"fold_circles.csv": moved[1],
                         "fibers.csv": fibers[1]}),
        "verify": ({"verify.json": verify[0]}, {"verify.json": verify[1]}),
    })
    # an identical file prints nothing
    assert set(got) == {("trace-seam", "fold_circles.csv"),
                        ("trace-moved", "fold_circles.csv"),
                        ("trace-moved", "fibers.csv"),
                        ("verify", "verify.json")}
    assert got["trace-seam", "fold_circles.csv"] < 1e-11
    assert abs(got["trace-moved", "fold_circles.csv"] - 0.25) < 1e-3
    assert abs(got["trace-moved", "fibers.csv"] - 3e-7) < 1e-9
    assert abs(got["verify", "verify.json"] - 2.22e-16) < 1e-18


def test_a_file_with_more_numbers_prints_both_counts(tmp_path, capsys):
    for side, n in (("a", 1), ("b", 2)):
        _write_run(tmp_path / side, "trace",
                   {"fibers.csv": "gamma,theta,status\n"
                                  + "0.1,0.2,empty\n" * n})
    compare_lifts.main([str(tmp_path / "a"), str(tmp_path / "b")])
    assert "trace fibers.csv: 2 numbers -> 4" in capsys.readouterr().out
