"""Newton-type iteration on the rescaled problem, with epsilon tuning.

This module alone decides eps and runs the Newton step.  ``tune_epsilon``
halves eps from the seed's eps (1/2) until one step from w = 0 gives a
correction with c2alpha(rho) <= 1/4, and records every refused eps.
``newton_loop`` then starts from w = 0 at the eps it is given.  The loop
repeatedly solves the linearized homogeneous Dirichlet problem for the
correction, and stops when the sup norm of the residual falls below the
Newton tolerance (or below ten times the estimated roundoff floor of the
residual evaluation).  The residual is expected to decay quadratically; the
ratio ||g_{m+1}|| / ||g_m||^2 is recorded as a diagnostic.  When the
iterate's norm surrogate leaves the unit ball, diagonal dominance of the
coefficient matrix drops below half its seed-level value, or the linear
solve fails, the loop stops: a manufactured right-hand side is built for one
eps', so the loop never changes eps itself.

Each iterate is evaluated once: the ``Residual`` that ``eval_G`` returns
carries the Hessian, the Newton tensor and the physical arguments, the step
assembles the linearization from them, and the iterate's C^{2,alpha}
surrogate reads the same Hessian.  A residual's pointwise data is freed as
soon as its step is assembled or the loop stops.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, EllipticityError, SolverError, TuningError
from .grids import ScalarGrid, c2alpha_surrogate, calpha_surrogate, grid_coords, hessian_of
from .pde import Residual, assemble_linearized, eval_G, minor_sums, solve_dirichlet_info
from .seeds import SeedQuadratic
from .symfun import sigma_km1_row

STATUS_CONVERGED = "Converged"
STATUS_ELLIPTICITY_LOST = "EllipticityLost"
STATUS_MAX_ITER = "MaxIter"

EPS_MIN = 1e-4  # smallest eps tune_epsilon tries
CONVEXITY_TOL = 1e-9  # slack of the j-convexity flags


@dataclass
class IterationRecord:
    iteration: int
    g_inf: float
    w_c2alpha: float
    g_holder: float | None = None
    rho_inf: float | None = None
    rho_c2alpha: float | None = None
    min_margin: float | None = None
    lin_residual: float | None = None
    krylov_steps: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class IterationReport:
    """What a solve did: the Newton loop's records, and in
    ``aborted_attempts`` tuning's record of each refused eps."""

    status: str
    stop_reason: str
    iterations: list[IterationRecord]
    floor_estimate: float
    quadratic_ratios: list[float] = field(default_factory=list)
    aborted_attempts: list[dict] = field(default_factory=list)
    seed: dict | None = None
    convexity: dict | None = None

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PhysicalSolution:
    """Solution assembled in the original variables on the cube of side
    2*eps^2, plus its discrete Hessian."""

    u_values: np.ndarray
    hessian: np.ndarray
    axes: list[np.ndarray]
    h_physical: float
    affine_offset: float
    affine_gradient: list[float]


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


def _newton_step(w: ScalarGrid, g_grid: Residual, seed: SeedQuadratic, f,
                 tol_lin: float, record: IterationRecord
                 ) -> tuple[ScalarGrid | None, str | None]:
    """One linearized solve at w for the residual ``g_grid``.

    Fills the record's ``rho_inf``, ``rho_c2alpha``, ``min_margin``,
    ``lin_residual`` and ``krylov_steps`` and returns ``(rho, None)``.
    Returns ``(None, reason)`` when the coefficient matrix loses diagonal
    dominance, a dominance margin drops below half the seed's deleted-variable
    row, or the linear solve fails (breaks down or reaches its step limit);
    a failed solve still records its step count.
    """
    try:
        sys = assemble_linearized(w, seed, f, g_grid)
    except EllipticityError as err:
        return None, f"ellipticity failure: {err}"
    finally:
        g_grid.drop_pointwise()  # free them before the solve
    gap = sys.margins - 0.5 * sigma_km1_row(seed.tau, seed.k)
    if np.any(gap < 0.0):
        return None, (f"dominance margin dropped {float(np.min(gap)):.3e} below "
                      "half the seed row")
    try:
        rho, record.lin_residual, record.krylov_steps = solve_dirichlet_info(sys, tol_lin)
    except SolverError as err:
        record.krylov_steps = err.steps
        return None, f"linear solve failed: {err}"
    record.min_margin = sys.min_margin
    del sys  # free the coefficient fields before the next assembly
    record.rho_inf = float(np.max(np.abs(rho.values)))
    record.rho_c2alpha = c2alpha_surrogate(rho, seed.alpha)
    return rho, None


def tune_epsilon(seed: SeedQuadratic, f, m: int, tol_lin: float = 1e-10
                 ) -> tuple[SeedQuadratic, list[dict]]:
    """Halve eps from the seed's eps until the first Newton correction is small.

    Each candidate runs the Newton loop's own step from w = 0 and is accepted
    when the correction satisfies c2alpha(rho) <= 1/4.  At w = 0 the Hessian
    is diag(tau) exactly, so every dominance margin is the seed row
    sigma_{k-1,i}(tau) up to rounding and the step's margin test cannot
    refuse the candidate.  A residual that is zero to roundoff accepts
    immediately; a candidate whose (u, p) arguments leave the right-hand
    side's box, or whose step is refused (a failed linear solve), is
    rejected.

    Returns the accepted seed and one record {"eps", "reason", "iterations"}
    per refused eps, ``iterations`` holding the candidate's iteration-0
    record (empty after a box exit).  When no candidate is accepted, the
    TuningError carries these records and names the last one's reason.
    """
    refused: list[dict] = []
    w0 = ScalarGrid.zeros(seed.n, m)
    eps = seed.eps
    while eps >= EPS_MIN:
        candidate = seed.with_eps(eps)
        try:
            g_grid = eval_G(w0, candidate, f)
        except DomainError as err:
            refused.append({"eps": eps, "reason": str(err), "iterations": []})
            eps *= 0.5
            continue
        record = IterationRecord(iteration=0, g_inf=_interior_sup(g_grid), w_c2alpha=0.0)
        if record.g_inf <= 10.0 * residual_floor(candidate, m):
            return candidate, refused
        _, reason = _newton_step(w0, g_grid, candidate, f, tol_lin, record)
        if reason is None and record.rho_c2alpha <= 0.25:
            return candidate, refused
        refused.append({"eps": eps,
                        "reason": reason or f"c2alpha(rho) {record.rho_c2alpha:.3g} > 0.25",
                        "iterations": [record.to_dict()]})
        eps *= 0.5
    message = f"no admissible eps above {EPS_MIN}"
    if refused:
        message += f"; eps {refused[-1]['eps']:.3g} refused: {refused[-1]['reason']}"
    raise TuningError(message, diagnostics=refused)


def newton_loop(seed: SeedQuadratic, f, m: int, tol_newton: float = 1e-9,
                max_iter: int = 12, tol_lin: float = 1e-10
                ) -> tuple[ScalarGrid, IterationReport]:
    """Run the correction scheme from w = 0 at the seed's eps until the
    residual is small.

    The first refused step stops the loop with status EllipticityLost and the
    refusal as ``stop_reason``; its record is the last of ``iterations``.
    Returns the final iterate together with the full per-iteration report;
    the caller decides what to do with non-converged statuses.
    """
    w = ScalarGrid.zeros(seed.n, m)
    records: list[IterationRecord] = []
    ratios: list[float] = []
    for it in range(max_iter + 1):
        g_grid = eval_G(w, seed, f)
        g_inf = _interior_sup(g_grid)
        g_holder = calpha_surrogate(g_grid.values, w.h, seed.alpha)
        # w_1 = 0 + rho_0, so its surrogate is iteration 0's rho_c2alpha
        if it == 0:
            w_norm = 0.0
        elif it == 1:
            w_norm = records[0].rho_c2alpha
        else:
            w_norm = c2alpha_surrogate(w, seed.alpha, (g_grid.second, g_grid.grad))
        if records:
            prev = records[-1].g_inf
            if prev > 0.0:
                ratios.append(g_inf / prev**2)
        record = IterationRecord(
            iteration=it, g_inf=g_inf, w_c2alpha=w_norm, g_holder=g_holder
        )
        records.append(record)
        if g_inf <= tol_newton:
            status, reason = STATUS_CONVERGED, "residual_tolerance"
        elif g_inf <= 10.0 * residual_floor(seed, m, max(1.0, w_norm)):
            status, reason = STATUS_CONVERGED, "residual_floor"
        elif it == max_iter:
            status, reason = STATUS_MAX_ITER, "max_iter"
        elif w_norm > 1.0:
            status = STATUS_ELLIPTICITY_LOST
            reason = f"iterate norm surrogate {w_norm:.3f} > 1"
        else:
            rho, reason = _newton_step(w, g_grid, seed, f, tol_lin, record)
            if reason is None:
                w = ScalarGrid(w.n, w.m, w.values + rho.values)
                continue
            status = STATUS_ELLIPTICITY_LOST
        break
    return w, IterationReport(
        status=status,
        stop_reason=reason,
        iterations=records,
        floor_estimate=residual_floor(seed, m),
        quadratic_ratios=ratios,
        seed=seed.to_dict(),
    )


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

    grad_check = np.gradient(w_norm, w.h, edge_order=2)
    if abs(w_norm[center]) > 1e-8 or max(abs(float(d[center])) for d in grad_check) > 1e-8:
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
        h_physical=eps**2 * 2.0 / (m - 1),
        affine_offset=w0,
        affine_gradient=[float(v) for v in g0],
    )


def certify_convexity(hessian: np.ndarray, k: int,
                      interior_mask: np.ndarray) -> ConvexityCertificate:
    """Flag j-convexity of the assembled solution for j = 1..k+1.

    The flag for level j is set when the j-th minor sum of the discrete
    Hessian stays above -CONVEXITY_TOL at every interior point.
    """
    sums, _ = minor_sums(hessian[interior_mask], k + 1)
    mins = {j: float(np.min(vals)) for j, vals in enumerate(sums, start=1)}
    flags = {j: bool(v >= -CONVEXITY_TOL) for j, v in mins.items()}
    return ConvexityCertificate(flags=flags, min_values=mins, tol=CONVEXITY_TOL)
