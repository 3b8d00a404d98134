"""Newton-type iteration on the rescaled problem, with epsilon tuning.

This module alone decides eps and how each Newton step ends.
``tune_epsilon`` halves eps from the seed's eps (1/2) until one step from
w = 0 gives a correction with c2alpha(rho) <= 1/4, and records every
refused eps with the grid that refused it.  On a grid finer than the
coarsest (m = ``grids.M_MIN`` = 9) it halves on the coarsest grid first,
which only chooses where the halving on the solve's grid starts; every
accept or refuse that sets eps is made on the solve's grid, and when that
grid accepts the start at once, twice the start is run there too and must
be refused.
``newton_loop`` then starts from w = 0 at the eps it is
given.  Its iteration 0 comes from tuning: the accepted candidate's record
and correction, computed once by ``_iteration_zero``, the one
implementation of that iteration (the loop runs it itself when called
without tuning).  The loop repeatedly solves the linearized homogeneous
Dirichlet problem for the correction.  One stopping test, ``_stop_reason``,
decides at every iteration, iteration 0 included, whether a step is needed:
none is once the sup norm of the residual falls below the Newton tolerance
(or below ten times the estimated roundoff floor of the residual
evaluation).  The residual is expected to decay quadratically; the ratio
||g_{m+1}|| / ||g_m||^2 is recorded as a diagnostic.  The loop stops only
on measured outcomes: that test, ``max_iter``, a box exit, or a refused
step, when a diagonal-dominance margin of the coefficient matrix drops
below half its seed-level value (the one uniform-ellipticity test) or the
linear solve fails.  A manufactured right-hand side is built for one eps',
so the loop never changes eps itself.

Norm surrogates are measured in two places: iteration 0's correction's,
which tuning's test reads, and the returned iterate's, once, for the
report (0 for w_0 = 0, iteration 0's correction's for w_1 = rho_0).  No
decision of the loop reads one.

Each iterate is evaluated once: the step assembles the linearization from
the ``Residual`` that ``eval_G`` returns alone, which keeps the stencil's
entries of the Newton tensor and the reduced dominance margins, and the
assembly turns the entries into its fields, forming (y, u, p) again one
slab at a time from the iterate and its gradient.  The returned
iterate's C^{2,alpha} surrogate forms its own second differences, one
component at a time on the whole grid, after the last residual is freed.
A converged loop certifies its last iterate itself: ``certify_convexity``
is handed w's values, differences them and forms the Hessian as G does
(``pde.total_hessian``) one interior slab at a time, and recurses each
slab, so no difference or Hessian of the whole grid is kept.  ``assemble_solution`` forms u from w alone and reads w(0)
and Dw(0) at the centre.  w = 0 is never differenced: its Hessian is one
matrix, diag(tau), for G and the certificate alike, so each tuning
candidate, and the certificate of a solve that stops at iteration 0,
recurses that one matrix instead of every interior point.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, SolverError, TuningError
from .grids import (
    M_MIN,
    ScalarGrid,
    c2alpha_surrogate,
    interior_differences,
    interior_slabs,
    slab_coords,
    slabs,
    sup_norm,
)
from .pde import (
    Residual,
    assemble_linearized,
    eval_G,
    minor_sums,
    solve_dirichlet_info,
    total_hessian,
)
from .seeds import SeedQuadratic
from .symfun import sigma_km1_row

STATUS_CONVERGED = "Converged"
STATUS_ELLIPTICITY_LOST = "EllipticityLost"
STATUS_MAX_ITER = "MaxIter"

EPS_MIN = 1e-4  # smallest eps tune_epsilon tries
CONVEXITY_TOL = 1e-9  # slack of the j-convexity flags


@dataclass
class IterationRecord:
    """One iteration's measurements.  ``lin_steps`` counts the iterations
    of the step's linear solve, and ``contraction`` is the largest ratio
    ||r_{i+1}|| / ||r_i|| of its successive residuals; both are None when no
    solve ran.  ``rho_c2alpha`` is measured at iteration 0 alone, and
    ``w_c2alpha`` on the first record and the last, the returned iterate's;
    it is None on the loop's records in between."""

    iteration: int
    g_inf: float
    w_c2alpha: float | None = None
    rho_inf: float | None = None
    rho_c2alpha: float | None = None
    min_margin: float | None = None
    lin_residual: float | None = None
    lin_steps: int | None = None
    contraction: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class IterationReport:
    """What a solve did: the Newton loop's records, in ``convexity`` the
    certificate of a converged loop's solution (None otherwise), and in
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


def residual_floor(seed: SeedQuadratic, m: int) -> float:
    """Roundoff floor of the residual evaluation, the report's
    ``floor_estimate``.

    Second differences amplify rounding by ~4/h^2 per entry; the k-Hessian
    contracts them against coefficients of size sigma_{k-1,i}(tau).
    """
    h = 2.0 / (m - 1)
    row_max = float(np.max(sigma_km1_row(seed.tau, seed.k)))
    eps_mach = float(np.finfo(float).eps)
    return eps_mach * 4.0 * seed.n * row_max / h**2


def _center_gradient(values: np.ndarray, h: float) -> np.ndarray:
    """``np.gradient`` at the centre, from its 3^n block: the centred formula,
    and so the bits of ``second_differences``' gradient there."""
    c = len(values) // 2
    block = values[(slice(c - 1, c + 2),) * values.ndim]
    return np.stack(np.gradient(block, h), axis=-1)[(1,) * values.ndim]


def _newton_step(g_grid: Residual, seed: SeedQuadratic, f, tol_lin: float,
                 record: IterationRecord) -> tuple[ScalarGrid | None, str | None]:
    """One linearized solve at the iterate of the residual ``g_grid``.

    Fills the record's ``rho_inf``, ``min_margin``, ``lin_residual``,
    ``lin_steps`` and ``contraction`` and returns ``(rho, None)``.  Returns
    ``(None, reason)`` when a dominance margin drops below half the seed's
    deleted-variable row, or when the linear solve fails (its residual
    stops shrinking or it reaches its step limit); a failed solve still
    records its count of operator applications and its contraction, from
    its SolverError.  The half-row test is the one test of uniform
    ellipticity: the seed row is positive (``seeds._finalize``), so it
    refuses every nonpositive margin too.  It reads the residual's margins
    (``pde.Margins``) before anything is assembled: the reason names the
    first least gap in C order, its margin, its grid point (indices on the
    full grid) and its row.  The assembly takes the residual's stencil
    entries over as its fields, which are freed when the solve returns.
    """
    margins = g_grid.margins
    if margins.below:
        return None, (f"dominance margin dropped {margins.gap:.3e} below half the seed "
                      f"row: margin {margins.margin:.3e} at grid point {margins.point}, "
                      f"row {margins.row}")
    try:
        rho, record.lin_residual, record.lin_steps, record.contraction = solve_dirichlet_info(
            assemble_linearized(g_grid, seed, f), tol_lin)
    except SolverError as err:
        record.lin_steps, record.contraction = err.steps, err.contraction
        return None, f"linear solve failed: {err}"
    record.min_margin = margins.least
    record.rho_inf = sup_norm(rho.values)
    return rho, None


def _stop_reason(record: IterationRecord, seed: SeedQuadratic, m: int,
                 tol_newton: float) -> str | None:
    """Why no step follows the iterate of ``record``: "residual_tolerance"
    when its residual meets the Newton tolerance, "residual_floor" when it
    lies within ten times the roundoff floor of the evaluation
    (``residual_floor``), None when a step is needed."""
    if record.g_inf <= tol_newton:
        return "residual_tolerance"
    if record.g_inf <= 10.0 * residual_floor(seed, m):
        return "residual_floor"
    return None


def _iteration_zero(seed: SeedQuadratic, f, m: int, tol_newton: float, tol_lin: float
                    ) -> tuple[IterationRecord, ScalarGrid | None, str | None]:
    """Iteration 0 at the seed's eps, the same for tuning and the loop: G at
    w = 0 and, unless G meets the loop's stopping test (``_stop_reason``),
    the Newton step from w = 0.

    Returns ``(record, rho, reason)``: the iteration-0 record, with a
    correction's ``rho_c2alpha``, and the correction and refusal as
    ``_newton_step`` gives them (both None when no step is needed).  Raises
    DomainError when the (u, p) arguments leave the right-hand side's box.
    """
    g = eval_G(ScalarGrid.zeros(seed.n, m), seed, f)
    # G is zero on the boundary, so its sup over the grid is the interior's
    record = IterationRecord(iteration=0, g_inf=sup_norm(g.values), w_c2alpha=0.0)
    if _stop_reason(record, seed, m, tol_newton) is not None:
        return record, None, None
    rho, reason = _newton_step(g, seed, f, tol_lin, record)
    del g  # the residual goes before the surrogate's buffers come
    if rho is not None:
        record.rho_c2alpha = c2alpha_surrogate(rho, seed.alpha)
    return record, rho, reason


def _try_eps(seed: SeedQuadratic, f, m: int, eps: float, tol_newton: float,
             tol_lin: float) -> tuple[tuple | None, dict | None]:
    """Tuning's test of one eps on grid m: runs the loop's iteration 0
    (``_iteration_zero``) at that eps.  Returns ``((candidate, record,
    rho), None)`` when it is accepted and ``(None, refusal)`` otherwise, the
    refusal record {"eps", "m", "reason", "iterations"}."""
    candidate = seed.with_eps(eps)
    try:
        record, rho, reason = _iteration_zero(candidate, f, m, tol_newton, tol_lin)
    except DomainError as err:
        return None, {"eps": eps, "m": m, "reason": str(err), "iterations": []}
    if reason is None and (rho is None or record.rho_c2alpha <= 0.25):
        return (candidate, record, rho), None
    return None, {"eps": eps, "m": m,
                  "reason": reason or f"c2alpha(rho) {record.rho_c2alpha:.3g} > 0.25",
                  "iterations": [record.to_dict()]}


def _halve(seed: SeedQuadratic, f, m: int, eps: float, tol_newton: float, tol_lin: float,
           refused: list[dict]) -> tuple:
    """Halve eps on grid m, from ``eps``, until ``_try_eps`` accepts one, and
    return its ``(candidate, record, rho)``; each refusal is appended to
    ``refused``.  Raises TuningError, carrying ``refused``, below EPS_MIN."""
    while eps >= EPS_MIN:
        accepted, refusal = _try_eps(seed, f, m, eps, tol_newton, tol_lin)
        if accepted is not None:
            return accepted
        refused.append(refusal)
        eps *= 0.5
    message = f"no admissible eps above {EPS_MIN}"
    if refused:
        message += f"; eps {refused[-1]['eps']:.3g} refused: {refused[-1]['reason']}"
    raise TuningError(message, diagnostics=refused)


def tune_epsilon(seed: SeedQuadratic, f, m: int, tol_newton: float = 1e-9,
                 tol_lin: float = 1e-10) -> tuple[SeedQuadratic, list[dict], list]:
    """Halve eps from the seed's eps until the first Newton correction is small.

    Each candidate runs the loop's iteration 0 (``_iteration_zero``) and is
    accepted when the correction satisfies c2alpha(rho) <= 1/4.  At w = 0 the
    Hessian is diag(tau) exactly, so every dominance margin is the seed row
    sigma_{k-1,i}(tau) up to rounding and the step's margin test cannot
    refuse the candidate.  A residual that meets the loop's stopping test
    (``tol_newton`` or the roundoff floor) accepts without a step; a
    candidate whose (u, p) arguments leave the right-hand side's box, or
    whose step is refused (a failed linear solve), is rejected.

    On a grid finer than the coarsest (m > M_MIN) the halving runs on the
    coarsest grid first, where a candidate costs a fraction of one on grid
    m, and only chooses where the halving on grid m starts: at the eps e
    it accepted.  Every accept or refuse that sets eps is made on grid m.
    When grid m accepts e at once and e is below the seed's eps, 2e is run
    on grid m as well and must be refused.  Acceptance on one grid is
    monotone in eps (a refused eps refuses every larger one), so then the
    result is the one plain halving on grid m from the seed's eps gives.
    If grid m accepts 2e, or the coarsest grid accepts no eps, plain halving
    on grid m from the seed's eps decides instead.

    Returns the accepted seed, one record {"eps", "m", "reason",
    "iterations"} per refused eps, ``m`` the grid that refused it and
    ``iterations`` the candidate's iteration-0 record (empty after a box
    exit), the coarsest grid's refusals first and then grid m's, each in
    the order tried; and the accepted candidate's iteration 0 on grid m as
    ``[record, rho]`` for ``newton_loop``'s ``start``: its record and its
    correction (None when no step is needed).  When no candidate is
    accepted, the TuningError carries the refusal records and names the
    last one's reason.
    """
    refused: list[dict] = []
    eps = seed.eps
    if m > M_MIN:
        try:
            eps = _halve(seed, f, M_MIN, eps, tol_newton, tol_lin, refused)[0].eps
        except TuningError:
            pass  # plain halving on grid m, after the coarsest grid's refusals
    candidate, record, rho = _halve(seed, f, m, eps, tol_newton, tol_lin, refused)
    if candidate.eps == eps < seed.eps:  # grid m accepted e at once: 2e must be refused
        above, refusal = _try_eps(seed, f, m, 2.0 * eps, tol_newton, tol_lin)
        if above is None:
            refused.append(refusal)
        else:
            del above, record, rho  # free them before the fallback
            candidate, record, rho = _halve(seed, f, m, seed.eps, tol_newton, tol_lin, refused)
    return candidate, refused, [record, rho]


def newton_loop(seed: SeedQuadratic, f, m: int, tol_newton: float = 1e-9,
                max_iter: int = 12, tol_lin: float = 1e-10, start: list | None = None
                ) -> tuple[ScalarGrid, IterationReport]:
    """Run the correction scheme from w = 0 at the seed's eps until the
    residual is small.

    Iteration 0 is ``start`` when given, the ``[record, rho]`` that
    ``tune_epsilon`` returned for this seed's eps and ``tol_newton``; the
    loop empties the list, so that rho is freed once it has been added to
    w.  A ``start`` without a step whose residual misses ``tol_newton``
    (tuned with a larger tolerance) raises DomainError.  Without ``start``
    the loop runs ``_iteration_zero`` itself.
    Every iteration, iteration 0 included, stops by ``_stop_reason``, so
    iteration 0 has a step exactly when the loop goes on.

    The loop stops on measured outcomes alone: ``_stop_reason``,
    ``max_iter``, a box exit or a refused step.  The first refused step
    stops the loop with status EllipticityLost and the refusal as
    ``stop_reason``; its record is the last of ``iterations``.
    An iterate whose (u, p) arguments leave the right-hand side's box raises
    DomainError, with the records so far, as ``to_dict`` gives them, in its
    ``iterations``.  The returned iterate's norm surrogate goes into the
    last record's ``w_c2alpha``; the records between the first and the
    last hold None.  A converged loop certifies its final iterate
    (``certify_convexity``) from its values, or from None at iteration 0,
    into the report's ``convexity``.  Returns the final iterate together
    with the full per-iteration report; the caller decides what to do with
    non-converged statuses.
    """
    if start is None:
        first, rho, reason = _iteration_zero(seed, f, m, tol_newton, tol_lin)
    else:
        (first, rho), reason = start, None
        start.clear()
        if rho is None and _stop_reason(first, seed, m, tol_newton) is None:
            raise DomainError("start has no step, but its residual misses this tol_newton")
    w = ScalarGrid.zeros(seed.n, m)
    records = [first]
    ratios: list[float] = []
    for it in range(max_iter + 1):
        if it > 0:
            try:
                g_grid = eval_G(w, seed, f)
            except DomainError as err:  # (u, p) left the box
                err.iterations = [r.to_dict() for r in records]
                raise
            record = IterationRecord(iteration=it, g_inf=sup_norm(g_grid.values))
            if records[-1].g_inf > 0.0:
                ratios.append(record.g_inf / records[-1].g_inf**2)
            records.append(record)
        record = records[-1]
        stop = _stop_reason(record, seed, m, tol_newton)
        if stop is not None:
            status, reason = STATUS_CONVERGED, stop
        elif it == max_iter:
            status, reason = STATUS_MAX_ITER, "max_iter"
        else:
            if it > 0:
                rho, reason = _newton_step(g_grid, seed, f, tol_lin, record)
            if reason is None:
                w = ScalarGrid(w.n, w.m, w.values + rho.values)
                rho = None
                continue
            status = STATUS_ELLIPTICITY_LOST
        break
    g_grid = None  # the residual goes before the surrogate's buffers come
    if it > 0:  # w_0 = 0 has 0.0 already, and w_1 = 0 + rho_0 iteration 0's surrogate
        record.w_c2alpha = first.rho_c2alpha if it == 1 else c2alpha_surrogate(w, seed.alpha)
    convexity = None
    if status == STATUS_CONVERGED:
        convexity = certify_convexity(None if it == 0 else w.values, seed).to_dict()
    return w, IterationReport(
        status=status,
        stop_reason=reason,
        iterations=records,
        floor_estimate=residual_floor(seed, m),
        quadratic_ratios=ratios,
        seed=seed.to_dict(),
        convexity=convexity,
    )


def assemble_solution(w: ScalarGrid, seed: SeedQuadratic) -> np.ndarray:
    """u(y) = 1/2 sum tau_i y_i^2 + eps' eps^4 w(y / eps^2) at every grid
    point, in the original variables on the cube of side 2*eps^2.

    The affine part w(0) + x . Dw(0) is subtracted first (it shifts u by an
    affine function, invisible to second derivatives), so the reported w
    vanishes to second order at the origin; w(0) and Dw(0) are read at the
    centre.  u is formed one slab along the first axis at a time, each slab
    from its own coordinates (``slab_coords``).  w is never differenced: its
    Hessian is ``certify_convexity``'s.
    """
    n, m = w.n, w.m
    center = (m // 2,) * n
    w0 = float(w.values[center])
    g0 = _center_gradient(w.values, w.h)
    eps, epsp = seed.eps, seed.eps_prime
    w_norm, u = np.empty(w.values.shape), np.empty(w.values.shape)
    parts = slabs(m, m ** (n - 1) * n * 8)  # x holds n doubles per point
    for rows, x in zip(parts, slab_coords(n, m, [(rows,) for rows in parts])):
        w_norm[rows] = w.values[rows] - w0 - x @ g0
        u[rows] = eps**4 * (seed.psi(x) + epsp * w_norm[rows])
    if abs(w_norm[center]) > 1e-8 or sup_norm(_center_gradient(w_norm, w.h)) > 1e-8:
        raise AssertionError("affine normalization failed to vanish at the origin")
    return u


def certify_convexity(values: np.ndarray | None, seed: SeedQuadratic) -> ConvexityCertificate:
    """Flag j-convexity of the solution for j = 1..k+1, from the grid values
    of its w, or None for w = 0.

    The solution's Hessian is diag(tau) + eps' D^2 w (``total_hessian``),
    and the flag for level j is set when its j-th minor sum stays above
    -CONVEXITY_TOL at every interior point.  w is differenced, and the
    Hessian formed and recursed, one slab along the first axis at a time
    (``interior_differences``, the floats of whole-grid differences), and
    each level's minimum is the least of the slabs' minima, the same float
    as one recursion of every point gives.  At w = 0 the Hessian is the one
    matrix diag(tau), recursed once.
    """
    if values is None:
        hessians = [total_hessian(None, seed)]
    else:
        n, m = seed.n, len(values)
        hessians = (total_hessian(interior_differences(values, 2.0 / (m - 1), rows)[0], seed)
                    for rows, _ in interior_slabs(n, m, n * n))
    lows = [[np.min(vals) for vals in minor_sums(r, seed.k + 1)[0]] for r in hessians]
    mins = {j: float(np.min(col)) for j, col in enumerate(zip(*lows), start=1)}
    flags = {j: bool(v >= -CONVEXITY_TOL) for j, v in mins.items()}
    return ConvexityCertificate(flags=flags, min_values=mins, tol=CONVEXITY_TOL)
