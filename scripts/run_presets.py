#!/usr/bin/env python3
"""Run every built-in preset and print a one-line summary per run.

The decisions (status, iterations, eps, convexity flags) go to stdout, so
two trees that decide alike print the same stdout; each preset's wall time
goes to stderr.
"""

import sys
import time

from khessian.cli import run_solve
from khessian.presets import PRESETS, preset_config


def main() -> int:
    failures = 0
    for name in PRESETS:
        config = preset_config(name)
        t0 = time.perf_counter()
        artifacts = run_solve(config, out_dir=f"out/{name}")
        elapsed = time.perf_counter() - t0
        report = artifacts.report
        flags = report.convexity["flags"] if report.convexity else {}
        print(
            f"{name:14s} {report.status:12s} iters={len(report.iterations):2d} "
            f"eps={report.seed['eps']:.4g} flags={flags}"
        )
        print(f"{name:14s} {elapsed:.2f}s", file=sys.stderr)
        failures += 0 if report.converged else 1
    return failures


if __name__ == "__main__":
    sys.exit(main())
