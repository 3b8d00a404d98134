"""Quadratic seeds: diagonal Hessians tau with sigma_k(tau) = c and a
strictly positive deleted-variable row.

The seed fixes the quadratic psi(y) = 1/2 sum tau_i y_i^2 around which the
solver perturbs, together with the two scaling parameters (eps, eps_prime)
of the rescaled unknown.  Constructions are provided for c = 0 (a boundary
point of the level-k cone with sigma_{k+1} < 0), c > 0 (either the
fully-convex equal-entry seed or a seed exactly (k+l-1)-convex), and c < 0
(a level-(k-1) interior seed that is not k-convex).

Seeds do not see the right-hand side: every seed carries eps = 1/2, the
first candidate of ``iterate.tune_epsilon``, which halves it until the first
Newton correction is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstructionError, DomainError
from .symfun import as_spectrum, binom, elem_sym, sigma_all, sigma_km1_row

SEED_TOL = 1e-9  # slack of the convexity classification
P2_SCALE = 0.1  # width of the positive perturbation in sample_p2_points
START_EPS = 0.5  # a seed's eps: the first candidate of iterate.tune_epsilon


@dataclass
class SeedQuadratic:
    """Frozen description of a quadratic seed and its scalings.

    ``eps_prime`` is eps**alpha for alpha <= 1/2 and eps otherwise;
    ``convexity_class`` is the largest m with sigma_j(tau) strictly positive
    for all j <= m.
    """

    tau: np.ndarray
    k: int
    n: int
    c: float
    alpha: float
    eps: float
    eps_prime: float
    convexity_class: int

    def to_dict(self) -> dict:
        return {
            "tau": [float(v) for v in self.tau],
            "k": self.k,
            "n": self.n,
            "c": self.c,
            "alpha": self.alpha,
            "eps": self.eps,
            "eps_prime": self.eps_prime,
            "convexity_class": self.convexity_class,
        }

    def with_eps(self, eps: float) -> "SeedQuadratic":
        return replace(self, eps=eps, eps_prime=eps_prime_for(eps, self.alpha))

    def psi(self, x: np.ndarray) -> np.ndarray:
        """psi = 1/2 sum tau_i x_i^2 at the points x, shape (..., n), summed one
        component at a time from +0.0: the floats of ``np.sum`` over a last
        axis of n < 8 entries (a row of -0.0 terms gives +0.0), without its
        (..., n) array of terms."""
        total = np.zeros(x.shape[:-1])
        for i, t in enumerate(self.tau):
            total += t * x[..., i] ** 2
        return 0.5 * total


@dataclass
class SeedCertificate:
    ellipticity_margin: float
    convexity_class: int
    not_class: int | None

    def to_dict(self) -> dict:
        return {
            "ellipticity_margin": self.ellipticity_margin,
            "convexity_class": self.convexity_class,
            "not_class": self.not_class,
        }


def eps_prime_for(eps: float, alpha: float) -> float:
    """Scaling of the perturbation amplitude: eps**alpha below alpha = 1/2."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"need 0 < alpha < 1, got {alpha}")
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    return eps**alpha if alpha <= 0.5 else eps


def p2_example(k: int, n: int) -> np.ndarray:
    """Canonical boundary point with sigma_k = 0 and sigma_{k+1} = -1.

    Entries: k-1 ones, then M and -1/M with M - 1/M = k - 1, padded with
    zeros.  Empty for k = n, hence the k < n requirement.  k = 1 is the
    degenerate variant (M = 1) used internally by the negative-c build.
    """
    if not 1 <= k < n:
        raise DomainError(f"need 1 <= k < n, got k={k}, n={n}")
    m_val = (k - 1 + math.sqrt((k - 1) ** 2 + 4)) / 2.0
    lam = np.zeros(n)
    lam[: k - 1] = 1.0
    lam[k - 1] = m_val
    lam[k] = -1.0 / m_val
    sig = sigma_all(lam, min(k + 1, n))
    if abs(sig[k]) > 1e-10 or abs(sig[k + 1] + 1.0) > 1e-10:
        raise ConstructionError("canonical boundary example failed its checks")
    if k >= 2 and not np.all(sig[1:k] > 0.0):
        raise ConstructionError("canonical boundary example failed positivity")
    return lam


def convexity_split(tau) -> tuple[int, int | None]:
    """(largest m with sigma_1..sigma_m > SEED_TOL * sigma_j(|tau|), smallest
    m with sigma_m < -SEED_TOL * sigma_m(|tau|)).  The slack scales with the
    summed terms, so tau and its rescalings s * tau share their class.

    Raises DomainError when a term sum sigma_j(|tau|) overflows, or when it
    underflows below the normal floats for j up to tau's count of nonzero
    entries.  Beyond that count it is exactly zero at any scale, as for the
    c = 0 seed, and allowed."""
    arr = as_spectrum(tau)
    n = arr.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        sig, terms = sigma_all(np.stack([arr, np.abs(arr)]), n)
    if not np.all(np.isfinite(terms)):
        raise DomainError("tau's minor sums overflow")
    if np.any(terms[1:np.count_nonzero(arr) + 1] < np.finfo(float).tiny):
        raise DomainError("tau's minor sums underflow below the normal floats")
    tol = SEED_TOL * terms
    cls = 0
    for j in range(1, n + 1):
        if sig[j] > tol[j]:
            cls = j
        else:
            break
    not_class = None
    for j in range(1, n + 1):
        if sig[j] < -tol[j]:
            not_class = j
            break
    return cls, not_class


def certify_seed(seed: SeedQuadratic) -> SeedCertificate:
    """Ellipticity margin and convexity classification of a constructed seed."""
    row = sigma_km1_row(seed.tau, seed.k)
    cls, not_class = convexity_split(seed.tau)
    return SeedCertificate(
        ellipticity_margin=float(np.min(row)),
        convexity_class=cls,
        not_class=not_class,
    )


def _finalize(tau: np.ndarray, k: int, n: int, c: float, alpha: float) -> SeedQuadratic:
    tau = np.asarray(tau, dtype=float)
    cls, _ = convexity_split(tau)  # first: it refuses a c that scales tau past the floats
    row = sigma_km1_row(tau, k)
    if np.min(row) <= 0.0:
        raise ConstructionError("seed lost its positive deleted-variable row")
    sk = elem_sym(tau, k)
    if abs(sk - c) > 1e-10 * max(1.0, abs(c)):
        raise ConstructionError(f"seed misses its target: sigma_k={sk}, c={c}")
    return SeedQuadratic(
        tau=tau, k=k, n=n, c=float(c), alpha=float(alpha),
        eps=START_EPS, eps_prime=eps_prime_for(START_EPS, alpha), convexity_class=cls,
    )


def seed_for_zero(k: int, n: int, alpha: float) -> SeedQuadratic:
    """Seed for c = 0: the canonical boundary point, exactly (k-1)-convex."""
    if not 2 <= k <= n - 1:
        raise DomainError(f"need 2 <= k <= n-1, got k={k}, n={n}")
    tau = p2_example(k, n)
    seed = _finalize(tau, k, n, 0.0, alpha)
    if seed.convexity_class != k - 1:
        raise ConstructionError("zero seed is not exactly (k-1)-convex")
    return seed


def _negative_level_core(k: int, n: int) -> np.ndarray:
    """Level-k vector lam' with sigma_j > 0 (j <= k-1) and sigma_k < 0.

    Start from the canonical boundary point of level k-1 in dimension n-1,
    prepend its largest entry plus one, and shift the tail by the largest
    dyadic t in (0,1) that keeps sigma_{k-1} of the tail positive while the
    prepended entry drives sigma_k negative.
    """
    delta = np.sort(p2_example(k - 1, n - 1))[::-1]
    d1 = delta[0] + 1.0
    t = 0.5
    for _ in range(200):
        tail = delta + t
        s_km1 = elem_sym(tail, k - 1)
        s_k = elem_sym(tail, k)
        if s_km1 > 0.0 and d1 * s_km1 + s_k < 0.0:
            return np.concatenate([[d1], tail])
        t *= 0.5
    raise ConstructionError("no admissible tail shift found in 200 halvings")


def seed_for_negative(k: int, n: int, c: float, alpha: float = 0.5) -> SeedQuadratic:
    """Seed for c < 0: level-(k-1) interior, not k-convex, nondecreasing row."""
    if c >= 0.0:
        raise DomainError(f"need c < 0, got {c}")
    if not (n >= 3 and 2 <= k <= n - 1):
        raise DomainError(f"need n >= 3 and 2 <= k <= n-1, got k={k}, n={n}")
    lam = _negative_level_core(k, n)
    s = (c / elem_sym(lam, k)) ** (1.0 / k)
    tau = s * lam
    seed = _finalize(tau, k, n, c, alpha)
    row = sigma_km1_row(tau, k)
    if not np.all(np.diff(row) >= -1e-12 * max(1.0, float(np.max(np.abs(row))))):
        raise ConstructionError("negative-c seed row is not nondecreasing")
    return seed


def seed_for_positive(k: int, n: int, c: float, l: int | str | None = None,
                      alpha: float = 0.5) -> SeedQuadratic:
    """Seed for c > 0.

    ``l = None`` means l = 1, and ``l = "full"`` (or n-k+1) gives the
    equal-entry, fully convex seed.  For 1 <= l <= n-k the seed is exactly
    (k+l-1)-convex with sigma_{k+l} < 0: the negative-c core construction is
    run at level k+l (for k+l = n a direct almost-equal-entry vector is used,
    since the core construction needs a nonempty sign-changing boundary one
    level down) and rescaled so that sigma_k matches c.
    """
    if c <= 0.0:
        raise DomainError(f"need c > 0, got {c}")
    if not 2 <= k <= n - 1:
        raise DomainError(f"need 2 <= k <= n-1, got k={k}, n={n}")
    if l is None:
        l = 1
    if l == "full" or l == n - k + 1:
        tau = np.full(n, (c / binom(n, k)) ** (1.0 / k))
        return _finalize(tau, k, n, c, alpha)
    if not isinstance(l, int) or not 1 <= l <= n - k:
        raise DomainError(f"need 1 <= l <= n-k or 'full', got l={l!r}")
    if k + l < n:
        lam = _negative_level_core(k + l, n)
    else:
        # Level n: all-ones with the last entry pulled slightly negative, at
        # half the amount that would break positivity of sigma_{n-1}.
        lam = np.ones(n)
        lam[-1] = -0.5 / (n - 1)
    s = (c / elem_sym(lam, k)) ** (1.0 / k)
    tau = s * lam
    seed = _finalize(tau, k, n, c, alpha)
    if seed.convexity_class != k + l - 1:
        raise ConstructionError(
            f"positive seed has class {seed.convexity_class}, wanted {k + l - 1}"
        )
    if elem_sym(tau, k + l) >= 0.0:
        raise ConstructionError("positive seed failed sigma_{k+l} < 0")
    return seed


def require_level_applies(c: float, l: int | str | None) -> None:
    """Refuse a convexity level l unless c > 0: the c <= 0 seeds have no
    level to choose, and l is refused rather than dropped."""
    if l is not None and c <= 0.0:
        raise DomainError(f"l applies only when c = f(0,0,0) > 0, got l={l!r} with c={c!r}")


def seed_for_constant(k: int, n: int, c: float, alpha: float = 0.5,
                      l: int | str | None = None) -> SeedQuadratic:
    """Dispatch on the sign of c; used by the solve pipeline."""
    require_level_applies(c, l)
    if c == 0.0:
        return seed_for_zero(k, n, alpha)
    if c > 0.0:
        return seed_for_positive(k, n, c, l, alpha)
    return seed_for_negative(k, n, c, alpha)


def sample_p2_points(k: int, n: int, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Random boundary points with sigma_k = 0 and sigma_{k+1} < 0.

    Each sample perturbs the canonical example by a positive vector and then
    rescales the sign-carrying pair (the M and -1/M positions) by s, the
    positive root of sigma_k = A s^2 + B s + C with A = lam_a lam_b
    sigma_{k-2}(R), B = (lam_a + lam_b) sigma_{k-1}(R), C = sigma_k(R), where R
    is lam without the pair.  While the -1/M entry stays negative, A < 0 <= C
    and that root is unique; it is taken in cancellation-free form.
    """
    if not 2 <= k < n:
        raise DomainError(f"need 2 <= k < n, got k={k}, n={n}")
    lam = p2_example(k, n) + rng.uniform(0.0, P2_SCALE, size=(count, n))
    pair = [k - 1, k]
    rest = lam.copy()
    rest[:, pair] = 0.0
    sig = sigma_all(rest, k)
    a = lam[:, k - 1] * lam[:, k] * sig[:, k - 2]
    b = (lam[:, k - 1] + lam[:, k]) * sig[:, k - 1]
    c = sig[:, k]
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    s_star = np.maximum(q / a, c / q)
    if not np.all((a < 0.0) & np.isfinite(s_star) & (s_star > 0.0)):
        raise ConstructionError("no positive root for the pair scaling")
    lam[:, pair] *= s_star[:, None]
    return lam
