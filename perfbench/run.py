"""Benchmark entry point.

    python3 perfbench/run.py --workload {sweep,bank,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/`` of
this checkout; ``REPRO_*`` variables are ignored, so nothing leaks in
from the caller's environment.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics, or with ``--trace 1`` the per-layer ones.  The
exit code is 0 only when every check passed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "bank", "serve")
#: A run must end within 180 s; past this, stop and print no result.
WATCHDOG_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class _Overtime(Exception):
    pass


def _overtime(signum, frame):
    raise _Overtime(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common
    clock = common.SetupClock(_T0)

    import importlib

    from perfbench import layers, tracer

    workload = importlib.import_module(f"perfbench.{args.workload}")
    signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(WATCHDOG_S)
    try:
        report = workload.run(args, clock,
                              tracer.Session(args.trace, args.workload))
    except _Overtime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    checks = report["checks"]
    for line in report.get("failures", []):
        print(f"operation failed: {line}")
    for line in checks.failures:
        print(f"CHECK FAILED: {line}")
    summary = "  ".join(f"{k}={v:.6g}" if isinstance(v, float)
                        else f"{k}={v}"
                        for k, v in report["summary"].items())
    print(f"{args.workload} seed={args.seed}: {summary}")
    if args.trace:
        metrics = report["per_layer"]
    else:
        metrics = layers.with_units(report["metrics"])
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34s} {value:>14.6g} {unit}")
    line = common.result_line(checks.ok, report["attempted"],
                              report["failed"], metrics)
    common.OUT.mkdir(parents=True, exist_ok=True)
    (common.OUT / f"result-{args.workload}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
