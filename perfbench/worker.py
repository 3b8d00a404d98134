"""Executes the benchmark's operations in a process of their own.

Usage: ``python3 perfbench/worker.py <src-dir>``.  Reads one JSON operation
per line on stdin and answers each with one JSON line on stdout:

- ``{"kind": "solve", "config": {...}, "out_dir": ..., "trace": bool}`` runs
  ``khessian.cli.run_solve`` and reports its wall time and status;
- ``{"kind": "verify", "argv": [...], "trace": bool}`` runs
  ``khessian.cli.main`` (the ``khessian verify`` command) and reports its
  wall time, exit code and the JSON it printed (``stdout``);
- ``{"kind": "exit", "spans_path": ...}`` writes the recorded spans (when
  any operation was traced) and reports the process's peak resident set.

The process runs nothing but these operations, so its peak resident set is
the workload's.  Tracing is switched on at the first traced operation and
stays on.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import khessian.cli as cli
    from khessian.config import ProblemConfig

    from spans import Tracer

    tracer = None
    for line in sys.stdin:
        op = json.loads(line)
        if op["kind"] == "exit":
            if tracer is not None:
                tracer.dump(op["spans_path"])
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(json.dumps({"peak_rss_kb": peak_kb}), flush=True)
            return 0
        if op.get("trace") and tracer is None:
            tracer = Tracer()
            tracer.install()
        if op["kind"] == "solve":
            config = ProblemConfig.from_dict(op["config"])
            call = functools.partial(cli.run_solve, config, out_dir=op["out_dir"])
        elif op["kind"] == "verify":
            call = functools.partial(cli.main, op["argv"])
        else:
            raise ValueError(f"unknown operation {op['kind']!r}")
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                result = call()
        except Exception as err:  # a failed operation is counted, not fatal
            reply = {"ok": False, "error": f"{type(err).__name__}: {err}"}
        else:
            if op["kind"] == "solve":
                ok = result.report.converged
                reply = {"ok": ok, "error": None if ok else result.report.status}
            else:
                reply = {"ok": result == 0,
                         "error": None if result == 0 else f"exit code {result}"}
        reply["seconds"] = time.perf_counter() - start
        reply["stdout"] = out.getvalue()
        print(json.dumps(reply), flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main())
