"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_server.py TRACE_DIR serve STORE ...``
(the arguments after TRACE_DIR are ``repro``'s own).  The wrappers go in
before the CLI runs, so the fleet workers, forked from this process,
inherit them.  Each process writes its spans to
``TRACE_DIR/spans-<pid>.jsonl`` when it ends; a worker ends when the
fleet closes, which SIGINT to this process triggers.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracer  # noqa: E402

_recorder = tracer.Recorder()
_trace_dir = None
_worker_main = None


def _traced_worker_main(*args, **kwargs):
    """A fleet worker's entry point, writing its spans when it returns."""
    _recorder.reset()  # the fork copied the parent's spans
    try:
        return _worker_main(*args, **kwargs)
    finally:
        _recorder.dump(_trace_dir / f"spans-{os.getpid()}.jsonl")


def main(argv) -> int:
    global _trace_dir, _worker_main
    from repro import cli
    from repro.serving.fleet import supervisor

    _trace_dir = Path(argv[0])
    tracer.install(_recorder)
    _worker_main = supervisor.worker_main
    supervisor.worker_main = _traced_worker_main
    try:
        return cli.main(argv[1:])
    finally:
        _recorder.dump(_trace_dir / f"spans-{os.getpid()}.jsonl")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
