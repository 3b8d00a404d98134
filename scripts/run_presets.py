#!/usr/bin/env python3
"""Run every built-in preset and print a one-line summary per run."""

import sys
import time

from khessian.cli import run_solve
from khessian.presets import PRESETS, preset_config


def main() -> int:
    failures = 0
    for name in PRESETS:
        config = preset_config(name)
        t0 = time.time()
        artifacts = run_solve(config, out_dir=f"out/{name}")
        report = artifacts.report
        flags = report.convexity["flags"] if report.convexity else {}
        print(
            f"{name:14s} {report.status:12s} iters={len(report.iterations):2d} "
            f"eps={report.seed['eps']:.4g} flags={flags} "
            f"({time.time() - t0:.1f}s)"
        )
        failures += 0 if report.converged else 1
    return failures


if __name__ == "__main__":
    sys.exit(main())
