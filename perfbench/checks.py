"""Output checks computed apart from the program.

Nothing here calls the program's minor-sum, symmetric-function or cone
routines, nor the test suite's oracles: minor sums come from
``np.linalg.det`` over principal subsets, elementary symmetric functions from
products over index subsets, and the right-hand side from this file's own
table of polynomials.  Every check returns a list of error strings; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from itertools import combinations

import numpy as np

EPS_MACH = float(np.finfo(float).eps)

# f(y) for the named right-hand sides the workloads use (none depends on u
# or Du, so the residual can be evaluated from the written grid alone).
RHS_OF_Y = {
    "zero": lambda y: np.zeros(y.shape[:-1]),
    "const-three": lambda y: np.full(y.shape[:-1], 3.0),
    "const-neg-one": lambda y: np.full(y.shape[:-1], -1.0),
    "linear-y1-plus-y2": lambda y: y[..., 0] + y[..., 1],
}

# Factor on the stopping bound eps' * max(tol_newton, 10 * floor) in check
# (b).  The recomputation rounds the written u once more and differences it
# over a cell of width eps^2 h, which adds an error of the same form as the
# program's own floor estimate (a few ulps times 4 n max|sigma_{k-1}| / h^2);
# allowing for up to twice that floor on top of the bound gives 3.
RESIDUAL_SAFETY = 3.0


def sigma_by_subsets(lam: np.ndarray, k: int) -> np.ndarray:
    """sigma_k over the last axis as a sum of products over k-subsets."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.zeros(lam.shape[:-1])
    if k == 0:
        return out + 1.0
    for subset in combinations(range(n), k):
        out = out + np.prod(lam[..., list(subset)], axis=-1)
    return out


def minor_sum_by_det(mats: np.ndarray, k: int) -> np.ndarray:
    """Sum of the k-by-k principal minors of (..., n, n) arrays."""
    n = mats.shape[-1]
    out = np.zeros(mats.shape[:-2])
    for subset in combinations(range(n), k):
        idx = list(subset)
        out = out + np.linalg.det(mats[..., idx, :][..., :, idx])
    return out


def in_cone_by_subsets(lam: np.ndarray, k: int, rel: float = 1e-9):
    """Membership in the open level-k cone as sigma_1..sigma_k > 0.

    Returns (inside, decided): ``decided`` is False where some sigma_j lies
    within ``rel`` of the size of its summed terms, so rounding could flip
    the verdict and the point is not used.
    """
    lam = np.asarray(lam, dtype=float)
    inside = np.ones(lam.shape[:-1], dtype=bool)
    decided = np.ones(lam.shape[:-1], dtype=bool)
    for j in range(1, k + 1):
        s = sigma_by_subsets(lam, j)
        scale = sigma_by_subsets(np.abs(lam), j)
        inside &= s > 0.0
        decided &= np.abs(s) > rel * scale
    return inside, decided


# -- solve outputs -----------------------------------------------------------


class SolveOutput:
    """``u.csv`` and ``report.json`` of one solve, parsed."""

    def __init__(self, out_dir: str):
        with open(os.path.join(out_dir, "report.json"), encoding="ascii") as fh:
            self.report = json.load(fh)
        with open(os.path.join(out_dir, "u.csv"), encoding="ascii") as fh:
            self.lines = fh.read().split("\n")
        cfg = self.report["config"]
        self.n = int(cfg["n"])
        self.m = int(cfg["grid"]["m"])
        self.k = int(cfg["k"])
        self.seed = self.report["seed"]


def check_csv(out: SolveOutput) -> tuple[list[str], np.ndarray | None]:
    """(a): frozen header, m^n rows in lexicographic order, coordinates equal
    to eps^2 * linspace(-1, 1, m).  Returns the errors and the value grid."""
    n, m = out.n, out.m
    header = ",".join(f"x{i + 1}" for i in range(n)) + ",value"
    lines = out.lines
    if lines[-1] != "":
        return ["u.csv does not end with a newline"], None
    lines = lines[:-1]
    if lines[0] != header:
        return [f"u.csv header {lines[0]!r} != {header!r}"], None
    rows = lines[1:]
    if len(rows) != m**n:
        return [f"u.csv has {len(rows)} rows, expected {m**n}"], None
    if any(r.count(",") != n for r in rows):
        return [f"u.csv has a row without exactly {n + 1} fields"], None
    table = np.array(",".join(rows).split(","), dtype=float).reshape(-1, n + 1)
    eps = float(out.seed["eps"])
    axis = eps**2 * np.linspace(-1.0, 1.0, m)
    expect = np.stack(
        [g.ravel() for g in np.meshgrid(*[axis] * n, indexing="ij")], axis=-1
    )
    off = np.abs(table[:, :n] - expect)
    if float(off.max()) > 4.0 * EPS_MACH * eps**2:
        bad = int(np.argmax(off.max(axis=1)))
        return [f"u.csv row {bad + 1} coordinates {table[bad, :n].tolist()} "
                f"are not the lexicographic grid point {expect[bad].tolist()}"], None
    values = table[:, n].reshape((m,) * n)
    if not np.all(np.isfinite(values)):
        return ["u.csv holds non-finite values"], None
    return [], values


def hessian_centred(u: np.ndarray, step: float) -> np.ndarray:
    """Centred second differences at interior points, shape (m-2,)*n + (n, n)."""
    n = u.ndim
    inner = tuple(slice(1, -1) for _ in range(n))

    def shifted(shift):
        return u[tuple(slice(1 + s, u.shape[a] - 1 + s) for a, s in enumerate(shift))]

    hess = np.empty(u[inner].shape + (n, n))
    for a in range(n):
        e = [0] * n
        e[a] = 1
        minus = [-v for v in e]
        hess[..., a, a] = (shifted(e) - 2.0 * u[inner] + shifted(minus)) / step**2
        for b in range(a + 1, n):
            def corner(sa, sb):
                s = [0] * n
                s[a], s[b] = sa, sb
                return shifted(s)
            mixed = (corner(1, 1) - corner(1, -1) - corner(-1, 1)
                     + corner(-1, -1)) / (4.0 * step**2)
            hess[..., a, b] = mixed
            hess[..., b, a] = mixed
    return hess


def residual_bound(out: SolveOutput) -> float:
    """eps' * max(tol_newton, 10 * floor) * RESIDUAL_SAFETY, where floor is
    the report's estimate scaled by the last iterate's norm when above 1."""
    rep = out.report
    tol = float(rep["config"]["solver"]["tol_newton"])
    w_norm = float(rep["iterations"][-1]["w_c2alpha"])
    floor = float(rep["floor_estimate"]) * max(1.0, w_norm)
    return float(out.seed["eps_prime"]) * max(tol, 10.0 * floor) * RESIDUAL_SAFETY


def check_residual(out: SolveOutput, values: np.ndarray) -> tuple[list[str], float]:
    """(b): max |S_k[u] - f| over interior points against the stopping bound.
    Returns the errors and the bound's margin (bound / observed)."""
    rhs = out.report["config"]["rhs"]
    if not isinstance(rhs, str) or rhs not in RHS_OF_Y:
        return [f"no independent f for right-hand side {rhs!r}"], 0.0
    n, m = out.n, out.m
    eps = float(out.seed["eps"])
    step = eps**2 * 2.0 / (m - 1)
    hess = hessian_centred(values, step)
    axis = eps**2 * np.linspace(-1.0, 1.0, m)[1:-1]
    y = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1)
    resid = float(np.max(np.abs(minor_sum_by_det(hess, out.k) - RHS_OF_Y[rhs](y))))
    bound = residual_bound(out)
    margin = bound / resid if resid > 0.0 else math.inf
    if not resid <= bound:
        return [f"max |S_{out.k}[u] - f| = {resid:.3e} exceeds the bound "
                f"{bound:.3e}"], margin
    return [], margin


def expected_flags(k: int, c: float, l) -> dict[int, bool]:
    """Certificate flags the regime fixes (j-convexity, j = 1..k+1)."""
    if c > 0.0 and l == "full":
        return {j: True for j in range(1, k + 2)}
    if c > 0.0:
        level = k + (1 if l is None else int(l))
        top, fails = level - 1, level
    else:
        top, fails = k - 1, (k + 1 if c == 0.0 else k)
    out = {j: True for j in range(1, min(top, k + 1) + 1)}
    if fails <= k + 1:
        out[fails] = False
    return out


def check_certificate(out: SolveOutput) -> list[str]:
    """(c): convexity flags against the paper's table for the regime."""
    conv = out.report.get("convexity") or {}
    flags = conv.get("flags", {})
    c = float(out.seed["c"])
    errors = []
    for j, want in expected_flags(out.k, c, out.report["config"]["l"]).items():
        got = flags.get(str(j))
        if got is not want:
            errors.append(f"certificate flag {j} is {got}, the c={c:g} regime "
                          f"requires {want}")
    return errors


def check_iteration_zero(out: SolveOutput, values: np.ndarray) -> list[str]:
    """(d): sigma_k(tau) = c by subset products, and u = 1/2 sum tau_i y_i^2."""
    tau = np.asarray(out.seed["tau"], dtype=float)
    c = float(out.seed["c"])
    errors = []
    sk = float(sigma_by_subsets(tau, out.k))
    scale = float(sigma_by_subsets(np.abs(tau), out.k))
    if abs(sk - c) > 1e-12 * max(1.0, scale):
        errors.append(f"sigma_{out.k}(tau) = {sk!r} by subset products, c = {c!r}")
    eps = float(out.seed["eps"])
    axis = eps**2 * np.linspace(-1.0, 1.0, out.m)
    y = np.stack(np.meshgrid(*[axis] * out.n, indexing="ij"), axis=-1)
    psi = 0.5 * np.sum(tau * y**2, axis=-1)
    mag = 0.5 * np.sum(np.abs(tau) * y**2, axis=-1)
    off = np.abs(values - psi)
    if np.any(off > 16.0 * EPS_MACH * mag):
        bad = np.unravel_index(int(np.argmax(off - 16.0 * EPS_MACH * mag)), off.shape)
        errors.append(f"u at grid index {tuple(int(v) for v in bad)} is "
                      f"{values[bad]!r}, the seed quadratic gives {psi[bad]!r}")
    return errors


def check_solve(out_dir: str, iteration_zero: bool) -> tuple[list[str], float]:
    """All solve checks on one output directory; returns errors and the
    residual margin of check (b)."""
    out = SolveOutput(out_dir)
    errors, values = check_csv(out)
    if values is None:
        return errors, 0.0
    res_errors, margin = check_residual(out, values)
    errors += res_errors + check_certificate(out)
    if iteration_zero:
        if len(out.report["iterations"]) != 1:
            errors.append(f"expected convergence at iteration 0, took "
                          f"{len(out.report['iterations'])} iterations")
        errors += check_iteration_zero(out, values)
    return errors, margin


def self_test(out_dir: str, scratch: str, iteration_zero: bool) -> list[str]:
    """Show that the solve checks can fail: the centre value of u.csv moved
    by 1e-9 times max |u| must fail check (b), and one flipped certificate
    flag must fail check (c).
    Returns a list of problems (empty when both are rejected)."""
    problems = []
    base = SolveOutput(out_dir)

    bad_u = os.path.join(scratch, "selftest-u")
    shutil.copytree(out_dir, bad_u)
    _, values = check_csv(base)
    lines = list(base.lines)
    centre = 1 + sum(base.m // 2 * base.m**p for p in range(base.n))
    head, value = lines[centre].rsplit(",", 1)
    moved = float(value) + 1e-9 * float(np.max(np.abs(values)))
    lines[centre] = f"{head},{moved!r}"
    with open(os.path.join(bad_u, "u.csv"), "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))
    errors, _ = check_solve(bad_u, iteration_zero)
    if not any("exceeds the bound" in e for e in errors):
        problems.append("a u.csv value moved by 1e-9 max|u| passed the residual check")

    bad_flag = os.path.join(scratch, "selftest-flag")
    shutil.copytree(out_dir, bad_flag)
    report = dict(base.report)
    flags = dict(report["convexity"]["flags"])
    c = float(base.seed["c"])
    j = max(expected_flags(base.k, c, report["config"]["l"]))
    flags[str(j)] = not flags[str(j)]
    report["convexity"] = dict(report["convexity"], flags=flags)
    with open(os.path.join(bad_flag, "report.json"), "w", encoding="ascii") as fh:
        json.dump(report, fh)
    errors, _ = check_solve(bad_flag, iteration_zero)
    if not any(e.startswith(f"certificate flag {j} ") for e in errors):
        problems.append(f"a flipped certificate flag {j} passed the certificate check")

    shutil.rmtree(bad_u)
    shutil.rmtree(bad_flag)
    return problems


# -- verify sweeps -----------------------------------------------------------

# Names the sweeps look up in khessian.verify whose results are spot-checked.
# For each: how many leading positional arguments carry the batch of vectors.
TAPPED = {
    "sigma_all": 1, "elem_sym": 1, "elem_sym_deleted": 1, "sigma_km1_row": 1,
    "shift_expand": 1, "in_gamma_k": 1, "in_gamma_tilde": 1,
    "in_garding_cone_sampled": 1, "garding_slack": 2, "sample_p2_points": 0,
}
CALLS_KEPT = 40   # calls kept per (suite, name), by reservoir sampling
ROWS_KEPT = 25    # vectors kept per batched call


class SweepTap:
    """Keeps a seeded subsample of the calls the sweeps make through the
    names above, with their results, so they can be recomputed apart."""

    def __init__(self, verify_module, seed: int):
        self.rng = np.random.default_rng(seed)
        self.suite = None
        self.kept: dict[tuple[str, str], list] = {}
        self.seen: dict[tuple[str, str], int] = {}
        self._undo = []
        for name, batched in TAPPED.items():
            orig = getattr(verify_module, name)
            setattr(verify_module, name, self._wrap(name, orig, batched))
            self._undo.append((verify_module, name, orig))

    def _wrap(self, name, fn, batched):
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            key = (self.suite, name)
            seen = self.seen.get(key, 0)
            self.seen[key] = seen + 1
            slot = seen if seen < CALLS_KEPT else int(self.rng.integers(0, seen + 1))
            if slot < CALLS_KEPT:
                record = self._subsample(args, result, batched)
                kept = self.kept.setdefault(key, [])
                if slot < len(kept):
                    kept[slot] = record
                else:
                    kept.append(record)
            return result
        return tapped

    def _subsample(self, args, result, batched):
        res = np.asarray(result)
        rows = res.shape[0] if (res.ndim >= 1 and (batched == 0 or
                                np.asarray(args[0]).ndim > 1)) else None
        if rows is None:
            return [np.array(a) if isinstance(a, np.ndarray) else a for a in args], res
        idx = self.rng.choice(rows, size=min(rows, ROWS_KEPT), replace=False)
        vecs = [np.asarray(a)[idx] for a in args[:batched]]
        return vecs + list(args[batched:]), res[idx]

    def close(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)


def _close(got, want, scale, rel=1e-11) -> np.ndarray:
    got = np.asarray(got)
    return (np.abs(got - want) <= rel * scale + 1e-300) | (np.isnan(got) & np.isnan(want))


def spot_check(name: str, args: list, result: np.ndarray) -> tuple[int, list[str]]:
    """Recompute one recorded call apart; returns (values checked, errors)."""
    if name == "sample_p2_points":
        k, pts = int(args[0]), np.atleast_2d(result)
        sk = sigma_by_subsets(pts, k)
        ok = (_close(sk, 0.0, sigma_by_subsets(np.abs(pts), k), rel=1e-10)
              & (sigma_by_subsets(pts, k + 1) < 0.0))
        for j in range(1, k):
            ok &= sigma_by_subsets(pts, j) > 0.0
        return pts.shape[0], ([] if ok.all() else
                              [f"sample_p2_points gave {pts[~ok][0].tolist()}, "
                               f"not on the sigma_{k} = 0, sigma_{k + 1} < 0 boundary"])
    lam = np.asarray(args[0], dtype=float)
    lam2 = lam.reshape(-1, lam.shape[-1])
    res = np.asarray(result)
    if name == "garding_slack":
        mu2 = np.asarray(args[1], dtype=float).reshape(lam2.shape)
        k = int(args[2])
        row = np.stack([sigma_by_subsets(np.delete(lam2, i, axis=-1), k - 1)
                        for i in range(lam2.shape[-1])], axis=-1)
        lhs = np.sum(row * mu2, axis=-1)
        with np.errstate(invalid="ignore"):
            rhs = (k * sigma_by_subsets(lam2, k) ** ((k - 1) / k)
                   * sigma_by_subsets(mu2, k) ** (1.0 / k))
        ok = _close(res.reshape(-1), lhs - rhs, np.abs(lhs) + np.abs(rhs), rel=1e-9)
    elif name in ("in_gamma_k", "in_gamma_tilde", "in_garding_cone_sampled"):
        inside, decided = in_cone_by_subsets(lam2, int(args[1]))
        ok = ~decided | (res.reshape(-1) == inside)
    elif name == "sigma_all":
        k_max = int(args[1])
        got = res.reshape(-1, k_max + 1)
        ok = np.ones(lam2.shape[0], dtype=bool)
        for j in range(k_max + 1):
            ok &= _close(got[:, j], sigma_by_subsets(lam2, j),
                         sigma_by_subsets(np.abs(lam2), j))
    elif name == "elem_sym":
        k = int(args[1])
        ok = _close(res.reshape(-1), sigma_by_subsets(lam2, k),
                    sigma_by_subsets(np.abs(lam2), k))
    elif name == "elem_sym_deleted":
        k, rest = int(args[1]), np.delete(lam2, list(args[2]), axis=-1)
        ok = _close(res.reshape(-1), sigma_by_subsets(rest, k),
                    sigma_by_subsets(np.abs(rest), k))
    elif name == "sigma_km1_row":
        k = int(args[1])
        got = res.reshape(lam2.shape)
        ok = np.ones(lam2.shape[0], dtype=bool)
        for i in range(lam2.shape[-1]):
            rest = np.delete(lam2, i, axis=-1)
            ok &= _close(got[:, i], sigma_by_subsets(rest, k - 1),
                         sigma_by_subsets(np.abs(rest), k - 1))
    elif name == "shift_expand":
        k, shift = int(args[1]), float(args[2])
        ok = _close(res.reshape(-1), sigma_by_subsets(lam2 + shift, k),
                    sigma_by_subsets(np.abs(lam2) + abs(shift), k))
    else:
        raise ValueError(f"no spot check for {name}")
    if ok.all():
        return lam2.shape[0], []
    bad = lam2[~np.asarray(ok, dtype=bool).reshape(-1)][0]
    scalars = tuple(a for a in args[1:] if np.ndim(a) == 0)
    return lam2.shape[0], [f"{name}(..., {scalars}) disagrees with subset "
                           f"products at {bad.tolist()}"]


def check_sweeps(tap: SweepTap, suites) -> tuple[dict[str, int], list[str]]:
    """Spot-check every kept call; each suite must have had some checked."""
    checked = {suite: 0 for suite in suites}
    errors = []
    for (suite, name), records in sorted(tap.kept.items()):
        for args, result in records:
            count, errs = spot_check(name, args, result)
            checked[suite] = checked.get(suite, 0) + count
            errors += [f"{suite}: {e}" for e in errs]
    errors += [f"{suite}: no call was spot-checked"
               for suite, count in checked.items() if count == 0]
    return checked, errors


def check_sweep_output(suite: str, stdout: str) -> list[str]:
    """The JSON ``khessian verify`` printed for one suite reports a pass."""
    try:
        doc = json.loads(stdout)[suite]
    except (ValueError, KeyError) as err:
        return [f"{suite}: unreadable verify output ({err})"]
    if not (doc.get("passed") is True and doc.get("failures") == 0
            and doc.get("checked", 0) > 0):
        return [f"{suite}: verify reported {doc}"]
    return []
