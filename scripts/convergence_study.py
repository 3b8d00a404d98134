#!/usr/bin/env python3
"""Manufactured-solution grid refinement study.

Prescribes a smooth target iterate, tabulates the matching right-hand side
from its analytic Hessian, and reports the sup-norm error of the recovered
iterate across grid resolutions together with the observed convergence order.
Exits 1 when any resolution does not converge.
"""

import sys
import time

import numpy as np

from khessian import iterate, seeds
from khessian.rhs import manufactured_field, tabulated_rhs_from_hessian


def main() -> int:
    n, k, alpha, beta = 3, 2, 0.5, 0.05
    # the tabulated f is built for this eps', so the loop runs at it untuned
    seed = seeds.seed_for_zero(k, n, alpha).with_eps(1 / 16)
    errors = {}
    converged = True
    for m in (9, 17, 33):
        t0 = time.time()
        w_star, hess = manufactured_field(n, m, beta)
        f = tabulated_rhs_from_hessian(seed, hess)
        w, report = iterate.newton_loop(seed, f, m)
        err = float(np.max(np.abs(w.values - w_star)))
        errors[m] = err
        converged &= report.converged
        print(
            f"m={m:3d}  status={report.status:10s} iters={len(report.iterations)} "
            f"err={err:.4e}  ({time.time() - t0:.1f}s)"
        )
    ms = sorted(errors)
    for lo, hi in zip(ms, ms[1:]):
        order = np.log2(errors[lo] / errors[hi])
        print(f"observed order {lo} -> {hi}: {order:.2f}")
    return 0 if converged else 1


if __name__ == "__main__":
    sys.exit(main())
