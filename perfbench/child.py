"""One measured pillowcase process: import the CLI, optionally run it.

    python3 perfbench/child.py --result FILE [--trace] [-- CLI ARGS...]

Runs in a fresh interpreter for every repetition, so nothing cached in one
process can carry over to the next.  It times the import of
``pillowcase.cli`` (the set-up every command pays), then, given CLI
arguments, calls ``pillowcase.cli.main(argv)`` as a user's command does;
the CLI's own standard output passes through unchanged.  Without arguments
it only imports.  The measurements and the machine facts go to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _facts() -> dict:
    import numpy
    import scipy

    from pillowcase import _kernels

    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba_importable": have_numba,
            "numba_enabled": bool(_kernels.NUMBA_ENABLED),
            "nproc": len(os.sched_getaffinity(0))}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("argv", nargs="*")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import pillowcase.cli
    setup_s = time.perf_counter() - t0
    package = os.path.dirname(os.path.abspath(pillowcase.cli.__file__))
    out = {"setup_s": setup_s, "package": package}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
        t0, c0 = time.perf_counter(), _cpu_s()
        out["rc"] = tracer.span("cli.main", pillowcase.cli.main, args.argv)
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = _cpu_s() - c0
        tracer.uninstall()
        out["layers"] = tracer.summary()
    elif args.argv:
        t0, c0 = time.perf_counter(), _cpu_s()
        out["rc"] = pillowcase.cli.main(args.argv)
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = _cpu_s() - c0
    sys.stdout.flush()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = rss_kib / 1024
    out["facts"] = _facts()
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
