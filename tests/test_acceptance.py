"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The expensive solve runs are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from khessian.cli import run_solve
from khessian.iterate import newton_loop
from khessian.pde import sk_gradient
from khessian.presets import preset_config
from khessian.rhs import manufactured_field, tabulated_rhs_from_hessian
from khessian.seeds import p2_example, sample_p2_points, seed_for_zero
from khessian.symfun import sigma_all, sigma_km1_row
from khessian.verify import (
    cone_equivalence_sweep,
    garding_inequality_sweep,
    identities_sweep,
)
from oracles import boundary_mask, fd_sk_gradient


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def manufactured_runs():
    """Shared manufactured-solution runs at m = 17 and m = 33.  The tabulated
    f is built for one eps', so the loop runs at it untuned."""
    seed = seed_for_zero(2, 3, 0.5).with_eps(1 / 16)
    out = {}
    for m in (17, 33):
        t0 = time.time()
        w_star, hess = manufactured_field(3, m, 0.05)
        f = tabulated_rhs_from_hessian(seed, hess)
        w, rep = newton_loop(seed, f, m)
        out[m] = {
            "w": w,
            "w_star": w_star,
            "report": rep,
            "seed": seed,
            "elapsed": time.time() - t0,
        }
    return out


@pytest.fixture(scope="module")
def preset_runs(tmp_path_factory):
    """Shared preset solves for the certificate / monitor / determinism checks."""
    runs = {}
    for name in ("fzero-linear", "fconst-neg", "fconst-pos"):
        t0 = time.time()
        out_dir = tmp_path_factory.mktemp(name)
        artifacts = run_solve(preset_config(name), out_dir=str(out_dir))
        runs[name] = {
            "artifacts": artifacts,
            "elapsed": time.time() - t0,
            "out_dir": out_dir,
        }
    return runs


def test_criterion_01_p2_example_exactness():
    t0 = time.time()
    ok = True
    for n in range(3, 7):
        for k in range(2, n):
            sig = sigma_all(p2_example(k, n), k + 1)
            ok &= abs(sig[k]) <= 1e-10
            ok &= abs(sig[k + 1] + 1.0) <= 1e-10
            ok &= bool(np.all(sig[1:k] > 0))
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"boundary example exact for 2 <= k < n <= 6 ({elapsed:.2f}s)")
    assert ok


def test_criterion_02_cone_definition_equivalence():
    t0 = time.time()
    res = cone_equivalence_sweep(samples=10000, seed=7)
    elapsed = time.time() - t0
    ok = res.failures == 0 and elapsed < 30.0
    report(2, ok, f"{res.checked} samples, {res.excluded} excluded, "
                  f"{res.failures} disagreements ({elapsed:.1f}s)")
    assert ok


def test_criterion_03_p2_ellipticity_sweep():
    t0 = time.time()
    rng = np.random.default_rng(7)
    total = 0
    positive = 0
    for k, n in ((2, 3), (2, 4), (3, 4), (3, 5)):
        pts = sample_p2_points(k, n, 250, rng)
        rows = sigma_km1_row(pts, k)
        total += pts.shape[0]
        positive += int(np.sum(np.min(rows, axis=1) > 0.0))
    elapsed = time.time() - t0
    ok = positive == total and elapsed < 10.0
    report(3, ok, f"{positive}/{total} constructed boundary points with a "
                  f"strictly positive row ({elapsed:.1f}s)")
    assert ok


def test_criterion_04_garding_inequality_sweep():
    t0 = time.time()
    res = garding_inequality_sweep(samples=10000, seed=11)
    elapsed = time.time() - t0
    ok = res.failures == 0 and elapsed < 30.0
    report(4, ok, f"{res.checked} pair/equality checks, {res.failures} "
                  f"violations ({elapsed:.1f}s)")
    assert ok


def test_criterion_05_algebraic_identities():
    t0 = time.time()
    res = identities_sweep(samples=1000, seed=17)
    elapsed = time.time() - t0
    ok = res.failures == 0
    report(5, ok, f"{res.checked} spectra through recursion/row-sum/shift/"
                  f"homogeneity at 1e-12 ({elapsed:.1f}s)")
    assert ok


def test_criterion_06_minor_gradient_vs_finite_differences():
    rng = np.random.default_rng(19)
    worst = 0.0
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            for _ in range(100):
                a = rng.normal(size=(n, n))
                r = (a + a.T) / 2
                grad = sk_gradient(r, k)
                fd = fd_sk_gradient(r, k)
                scale = max(1.0, float(np.max(np.abs(grad))))
                worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
    ok = worst <= 1e-6
    report(6, ok, f"max relative deviation {worst:.2e} over all (n, k)")
    assert ok


def test_criterion_07_linearization_consistency():
    from khessian.grids import ScalarGrid, grid_coords
    from khessian.pde import assemble_linearized, eval_G
    from khessian.rhs import RhsSpec, RhsTerm

    seed = seed_for_zero(2, 3, 0.5)
    m = 17
    f = RhsSpec(
        n=3,
        terms=[
            RhsTerm(1.0, (1, 0, 0)),
            RhsTerm(0.3, (0, 0, 0), 1),
            RhsTerm(-0.2, (0, 0, 0), 0, (1, 0, 0)),
        ],
    )
    x = grid_coords(3, m)
    bump = np.prod(np.cos(np.pi * x / 2), axis=-1)
    w = ScalarGrid(3, m, 0.02 * bump)
    g = eval_G(w, seed, f)
    sys = assemble_linearized(g, seed, f)
    applied = sys.matrix(bump[~boundary_mask(3, m)])
    g0 = g.values
    deltas = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
    errs = []
    for d in deltas:
        g1 = eval_G(ScalarGrid(3, m, w.values + d * bump), seed, f).values
        fd = (g1 - g0)[~boundary_mask(3, m)] / d
        errs.append(float(np.max(np.abs(fd - applied))))
    slope = float(np.polyfit(np.log(deltas), np.log(errs), 1)[0])
    ok = slope >= 0.9
    report(7, ok, f"observed consistency order {slope:.3f} (want >= 0.9)")
    assert ok


def test_criterion_08_manufactured_convergence(manufactured_runs):
    errs = {}
    ok = True
    for m in (17, 33):
        run = manufactured_runs[m]
        rep = run["report"]
        ok &= rep.converged
        ok &= len(rep.iterations) - 1 <= 6
        errs[m] = float(np.max(np.abs(run["w"].values - run["w_star"])))
    ratio = errs[17] / errs[33]
    ok &= ratio >= 3.0
    ok &= manufactured_runs[33]["elapsed"] < 300.0
    report(8, ok, f"errors {errs[17]:.2e} -> {errs[33]:.2e}, ratio {ratio:.2f}, "
                  f"m=33 run {manufactured_runs[33]['elapsed']:.0f}s")
    assert ok


def test_criterion_09_quadratic_residual_decay(manufactured_runs):
    ok = True
    details = []
    for m in (17, 33):
        rep = manufactured_runs[m]["report"]
        floor = 10.0 * rep.floor_estimate
        usable = [
            q for q, rec in zip(rep.quadratic_ratios, rep.iterations[1:])
            if rec.g_inf > floor
        ]
        med = float(np.median(usable))
        spread = max(max(q / med for q in usable), max(med / q for q in usable))
        ok &= spread <= 10.0
        details.append(f"m={m}: spread {spread:.1f}x about median {med:.2g}")
    report(9, ok, "; ".join(details))
    assert ok


def test_criterion_10_convexity_certificates(preset_runs):
    ok = True
    flags = {}
    for name in preset_runs:
        run = preset_runs[name]
        rep = run["artifacts"].report
        ok &= rep.converged
        ok &= run["elapsed"] < 120.0
        flags[name] = rep.convexity["flags"]
    ok &= flags["fzero-linear"]["1"] is True
    ok &= flags["fzero-linear"]["3"] is False
    ok &= flags["fconst-neg"]["2"] is False
    ok &= all(flags["fconst-pos"][j] for j in ("1", "2", "3"))
    report(10, ok, f"certificates {flags}")
    assert ok


def test_criterion_11_ellipticity_monitor(manufactured_runs, preset_runs):
    reports = [manufactured_runs[m]["report"] for m in (17, 33)]
    reports += [preset_runs[n]["artifacts"].report for n in preset_runs]
    ok = True
    checked = 0
    for rep in reports:
        seed = rep.seed
        threshold = 0.5 * float(
            np.min(sigma_km1_row(np.array(seed["tau"]), seed["k"]))
        )
        for rec in rep.iterations:
            if rec.min_margin is not None:
                checked += 1
                ok &= rec.min_margin >= threshold
    report(11, ok, f"{checked} recorded margins all above half the seed row")
    assert ok


def test_criterion_12_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        run_solve(preset_config("fzero-linear"), out_dir=str(out_dir))
        outs.append(out_dir)
    u_same = (outs[0] / "u.csv").read_bytes() == (outs[1] / "u.csv").read_bytes()
    r_same = (
        (outs[0] / "report.json").read_bytes()
        == (outs[1] / "report.json").read_bytes()
    )
    ok = u_same and r_same
    report(12, ok, f"byte-identical u.csv: {u_same}, report.json: {r_same}")
    assert ok
