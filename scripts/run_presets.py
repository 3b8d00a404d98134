#!/usr/bin/env python3
"""Run every built-in preset and print a one-line summary per run.

The decisions (status, iterations, eps, each refused eps as ``eps@m`` with
the grid that refused it, convexity flags) and the sha256 of every file a
run writes go to stdout, so two trees that decide alike and write the same
bytes print the same stdout, and one ``diff`` of it compares them, tuning's
decisions included; each preset's wall time goes to stderr.
"""

import hashlib
import os
import sys
import time

from khessian.cli import run_solve
from khessian.presets import PRESETS, preset_config


def main() -> int:
    failures = 0
    for name in PRESETS:
        config, out_dir = preset_config(name), f"out/{name}"
        t0 = time.perf_counter()
        report = run_solve(config, out_dir=out_dir).report
        elapsed = time.perf_counter() - t0
        flags = report.convexity["flags"] if report.convexity else {}
        refused = ",".join(f"{a['eps']:.4g}@{a['m']}" for a in report.aborted_attempts)
        print(
            f"{name:14s} {report.status:12s} iters={len(report.iterations):2d} "
            f"eps={report.seed['eps']:.4g} refused=[{refused}] flags={flags}"
        )
        for file in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, file), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{name:14s} {file:11s} sha256 {digest}")
        print(f"{name:14s} {elapsed:.2f}s", file=sys.stderr)
        failures += 0 if report.converged else 1
    return failures


if __name__ == "__main__":
    sys.exit(main())
