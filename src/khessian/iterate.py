"""Newton-type iteration on the rescaled problem, with epsilon tuning.

The scheme starts from w = 0, repeatedly solves the linearized homogeneous
Dirichlet problem for the correction, and stops when the sup norm of the
residual falls below the Newton tolerance (or below ten times the estimated
roundoff floor of the residual evaluation).  The residual is expected to
decay quadratically; the ratio ||g_{m+1}|| / ||g_m||^2 is recorded as a
diagnostic.  When diagonal dominance of the coefficient matrix drops below
half its seed-level value, or the iterate's norm surrogate leaves the unit
ball, eps is halved and the loop restarts (at most three times).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EllipticityError, TuningError
from .grids import ScalarGrid, c2alpha_surrogate, calpha_surrogate, grid_coords, hessian_of
from .pde import assemble_linearized, eval_G, minor_sums, solve_dirichlet_info
from .seeds import SeedQuadratic
from .symfun import sigma_km1_row

STATUS_CONVERGED = "Converged"
STATUS_RETUNED = "EpsilonRetuned"
STATUS_ELLIPTICITY_LOST = "EllipticityLost"
STATUS_MAX_ITER = "MaxIter"


@dataclass
class IterationRecord:
    iteration: int
    g_inf: float
    g_holder: float
    w_c2alpha: float
    rho_inf: float | None = None
    rho_c2alpha: float | None = None
    min_margin: float | None = None
    lin_residual: float | None = None

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "g_inf": self.g_inf,
            "g_holder": self.g_holder,
            "w_c2alpha": self.w_c2alpha,
            "rho_inf": self.rho_inf,
            "rho_c2alpha": self.rho_c2alpha,
            "min_margin": self.min_margin,
            "lin_residual": self.lin_residual,
        }


@dataclass
class IterationReport:
    status: str
    stop_reason: str
    iterations: list[IterationRecord]
    eps_history: list[float]
    floor_estimate: float
    quadratic_ratios: list[float] = field(default_factory=list)
    aborted_attempts: list[dict] = field(default_factory=list)
    seed: dict | None = None
    convexity: dict | None = None

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "stop_reason": self.stop_reason,
            "iterations": [r.to_dict() for r in self.iterations],
            "eps_history": self.eps_history,
            "floor_estimate": self.floor_estimate,
            "quadratic_ratios": self.quadratic_ratios,
            "aborted_attempts": self.aborted_attempts,
            "seed": self.seed,
            "convexity": self.convexity,
        }


@dataclass
class PhysicalSolution:
    """Solution assembled in the original variables on the cube of side
    2*eps^2, plus its discrete Hessian."""

    u_values: np.ndarray
    hessian: np.ndarray
    axes: list[np.ndarray]
    n: int
    m: int
    h_physical: float
    affine_offset: float
    affine_gradient: list[float]
    seed: SeedQuadratic


@dataclass
class ConvexityCertificate:
    flags: dict[int, bool]
    min_values: dict[int, float]
    tol: float

    def to_dict(self) -> dict:
        return {
            "flags": {str(j): bool(v) for j, v in self.flags.items()},
            "min_values": {str(j): float(v) for j, v in self.min_values.items()},
            "tol": self.tol,
        }


def residual_floor(seed: SeedQuadratic, m: int, w_sup: float = 1.0) -> float:
    """Roundoff floor of the residual evaluation.

    Second differences amplify rounding by ~4/h^2 per entry; the k-Hessian
    contracts them against coefficients of size sigma_{k-1,i}(tau).
    """
    h = 2.0 / (m - 1)
    row_max = float(np.max(sigma_km1_row(seed.tau, seed.k)))
    eps_mach = float(np.finfo(float).eps)
    return eps_mach * 4.0 * seed.n * row_max * max(1.0, w_sup) / h**2


def _interior_sup(grid: ScalarGrid) -> float:
    return float(np.max(np.abs(grid.values[grid.interior_mask])))


@dataclass
class FirstStep:
    """Iteration 0 of the Newton loop as the accepted tuning trial computed it.

    The trial runs at the accepted eps from w = 0 with the loop's tol_lin, so
    its residual, linear solve and norm surrogates are exactly the ones
    iteration 0 would recompute.  It carries no matrix: the trial accepted
    every dominance margin, so iteration 0 needs only ``min_margin``.
    """

    eps: float
    tol_lin: float
    g_grid: ScalarGrid
    g_holder: float
    rho: ScalarGrid
    lin_residual: float
    rho_c2alpha: float
    min_margin: float


def tune_epsilon(seed: SeedQuadratic, f, m: int, tol_lin: float = 1e-10,
                 eps_start: float = 0.5, eps_min: float = 1e-4
                 ) -> tuple[SeedQuadratic, FirstStep | None]:
    """Halve eps from eps_start until the initial residual is provably small.

    Acceptance needs (a) C_hat * ||g0||_holder <= 1/4, where C_hat is the
    ratio of the correction norm to the residual norm observed in one trial
    linear solve, and (b) every dominance margin at w = 0 above half the
    seed's deleted-variable row.  Since C_hat = c2alpha(rho) / ||g0||_holder,
    test (a) is c2alpha(rho) <= 1/4 up to rounding; ``bound`` is still formed
    as the product, and ||g0||_holder is a diagnostic, computed once and handed
    on to iteration 0.  A residual that is zero to roundoff accepts
    immediately.  A candidate whose (u, p) arguments leave the right-hand
    side's box is rejected.

    Returns the accepted seed and the trial as iteration 0 of ``newton_loop``
    (None when the residual was already at the roundoff floor).
    """
    diagnostics = []
    eps = eps_start
    while eps >= eps_min:
        candidate = seed.with_eps(eps)
        w0 = ScalarGrid.zeros(seed.n, m)
        try:
            g_grid = eval_G(w0, candidate, f)
        except DomainError as err:
            diagnostics.append({"eps": eps, "error": str(err)})
            eps *= 0.5
            continue
        g_inf = _interior_sup(g_grid)
        if g_inf <= 10.0 * residual_floor(candidate, m):
            return candidate, None
        sys = assemble_linearized(w0, candidate, f, g_values=-g_grid.values)
        thresh = 0.5 * sigma_km1_row(candidate.tau, candidate.k)
        margins_ok = bool(np.all(sys.margins > thresh[None, :]))
        g_norm = calpha_surrogate(g_grid.values, w0.h, candidate.alpha)
        rho, lin_res = solve_dirichlet_info(sys, tol_lin)
        min_margin = sys.min_margin
        del sys  # free the matrix before the next candidate assembles its own
        rho_norm = c2alpha_surrogate(rho, candidate.alpha)
        c_hat = rho_norm / g_norm
        bound = c_hat * g_norm
        diagnostics.append(
            {"eps": eps, "g_holder": g_norm, "c_hat": c_hat,
             "bound": bound, "margins_ok": margins_ok}
        )
        if bound <= 0.25 and margins_ok:
            return candidate, FirstStep(
                eps=eps, tol_lin=tol_lin, g_grid=g_grid, g_holder=g_norm,
                rho=rho, lin_residual=lin_res, rho_c2alpha=rho_norm,
                min_margin=min_margin,
            )
        eps *= 0.5
    raise TuningError(
        f"no admissible eps above {eps_min}", diagnostics=diagnostics
    )


def newton_loop(seed: SeedQuadratic, f, m: int, tol_newton: float = 1e-9,
                max_iter: int = 12, tol_lin: float = 1e-10,
                max_retunes: int = 3, first_step: FirstStep | None = None
                ) -> tuple[ScalarGrid, IterationReport]:
    """Run the correction scheme from w = 0 until the residual is small.

    ``first_step``, the accepted trial from ``tune_epsilon`` at the same eps
    and tol_lin, stands in for iteration 0 of the first attempt.  Returns the
    final iterate together with the full per-iteration report; the caller
    decides what to do with non-converged statuses.
    """
    if first_step is not None and (
            (first_step.eps, first_step.tol_lin) != (seed.eps, tol_lin)):
        raise ValueError(
            f"first step was computed at eps={first_step.eps}, "
            f"tol_lin={first_step.tol_lin}, not eps={seed.eps}, tol_lin={tol_lin}"
        )
    eps_history = [seed.eps]
    aborted: list[dict] = []
    retunes = 0

    while True:
        w = ScalarGrid.zeros(seed.n, m)
        thresh = 0.5 * sigma_km1_row(seed.tau, seed.k)
        records: list[IterationRecord] = []
        ratios: list[float] = []
        status = STATUS_MAX_ITER
        reason = "max_iter"
        retune_reason = None

        for it in range(max_iter + 1):
            step, first_step = first_step, None
            if step is not None:
                g_grid, g_holder = step.g_grid, step.g_holder
            else:
                g_grid = eval_G(w, seed, f)
                g_holder = calpha_surrogate(g_grid.values, w.h, seed.alpha)
            g_inf = _interior_sup(g_grid)
            # w_1 = 0 + rho_0, so its surrogate is iteration 0's rho_c2alpha
            if it == 0:
                w_norm = 0.0
            elif it == 1:
                w_norm = records[0].rho_c2alpha
            else:
                w_norm = c2alpha_surrogate(w, seed.alpha)
            if records:
                prev = records[-1].g_inf
                if prev > 0.0:
                    ratios.append(g_inf / prev**2)
            record = IterationRecord(
                iteration=it, g_inf=g_inf, g_holder=g_holder, w_c2alpha=w_norm
            )
            floor = residual_floor(seed, m, max(1.0, w_norm))
            if g_inf <= tol_newton:
                records.append(record)
                status, reason = STATUS_CONVERGED, "residual_tolerance"
                break
            if g_inf <= 10.0 * floor:
                records.append(record)
                status, reason = STATUS_CONVERGED, "residual_floor"
                break
            if it == max_iter:
                records.append(record)
                status, reason = STATUS_MAX_ITER, "max_iter"
                break
            if w_norm > 1.0:
                retune_reason = f"iterate norm surrogate {w_norm:.3f} > 1"
                break
            if step is not None:
                rho, lin_res = step.rho, step.lin_residual
                record.rho_c2alpha = step.rho_c2alpha
                record.min_margin = step.min_margin
            else:
                try:
                    sys = assemble_linearized(w, seed, f, g_values=-g_grid.values)
                except EllipticityError as err:
                    retune_reason = f"ellipticity failure: {err}"
                    break
                if np.any(sys.margins < thresh[None, :]):
                    worst = float(np.min(sys.margins - thresh[None, :]))
                    retune_reason = (
                        f"dominance margin dropped {worst:.3e} below half the "
                        "seed row"
                    )
                    break
                rho, lin_res = solve_dirichlet_info(sys, tol_lin)
                record.min_margin = sys.min_margin
                del sys  # likewise before the next iteration's assembly
                record.rho_c2alpha = c2alpha_surrogate(rho, seed.alpha)
            record.rho_inf = float(np.max(np.abs(rho.values)))
            record.lin_residual = lin_res
            records.append(record)
            w = ScalarGrid(w.n, w.m, w.values + rho.values)

        if retune_reason is None:
            report = IterationReport(
                status=status,
                stop_reason=reason,
                iterations=records,
                eps_history=eps_history,
                floor_estimate=residual_floor(seed, m),
                quadratic_ratios=ratios,
                aborted_attempts=aborted,
                seed=seed.to_dict(),
            )
            return w, report

        aborted.append(
            {
                "status": STATUS_RETUNED,
                "reason": retune_reason,
                "eps": seed.eps,
                "iterations": [r.to_dict() for r in records],
            }
        )
        if retunes >= max_retunes:
            report = IterationReport(
                status=STATUS_ELLIPTICITY_LOST,
                stop_reason=retune_reason,
                iterations=records,
                eps_history=eps_history,
                floor_estimate=residual_floor(seed, m),
                quadratic_ratios=ratios,
                aborted_attempts=aborted,
                seed=seed.to_dict(),
            )
            return w, report
        retunes += 1
        seed = seed.with_eps(seed.eps * 0.5)
        eps_history.append(seed.eps)


def assemble_solution(w: ScalarGrid, seed: SeedQuadratic) -> PhysicalSolution:
    """Assemble u(y) = 1/2 sum tau_i y_i^2 + eps' eps^4 w(y / eps^2).

    The affine part w(0) + x . Dw(0) is subtracted first (it shifts u by an
    affine function, invisible to second derivatives), so the reported w
    vanishes to second order at the origin.
    """
    n, m = w.n, w.m
    center = (m // 2,) * n
    hess_w, grad_w = hessian_of(w)
    w0 = float(w.values[center])
    g0 = grad_w[center].copy()
    x = grid_coords(n, m)
    w_norm = w.values - w0 - x @ g0

    normalized = ScalarGrid(n, m, w_norm)
    _, grad_check = hessian_of(normalized)
    if abs(w_norm[center]) > 1e-8 or float(np.max(np.abs(grad_check[center]))) > 1e-8:
        raise AssertionError("affine normalization failed to vanish at the origin")

    eps, epsp = seed.eps, seed.eps_prime
    psi = 0.5 * np.sum(seed.tau * x**2, axis=-1)
    u = eps**4 * (psi + epsp * w_norm)
    hess_u = seed.perturbed_hessian(hess_w)
    axes = [eps**2 * np.linspace(-1.0, 1.0, m) for _ in range(n)]
    return PhysicalSolution(
        u_values=u,
        hessian=hess_u,
        axes=axes,
        n=n,
        m=m,
        h_physical=eps**2 * 2.0 / (m - 1),
        affine_offset=w0,
        affine_gradient=[float(v) for v in g0],
        seed=seed,
    )


def certify_convexity(hessian: np.ndarray, k: int, interior_mask: np.ndarray,
                      tol: float = 1e-9, j_max: int | None = None) -> ConvexityCertificate:
    """Flag j-convexity of the assembled solution for j = 1..j_max.

    The flag for level j is set when the j-th minor sum of the discrete
    Hessian stays above -tol at every interior point.
    """
    if j_max is None:
        j_max = k + 1
    sums, _ = minor_sums(hessian[interior_mask], j_max)
    mins = {j: float(np.min(vals)) for j, vals in enumerate(sums, start=1)}
    flags = {j: bool(v >= -tol) for j, v in mins.items()}
    return ConvexityCertificate(flags=flags, min_values=mins, tol=tol)
