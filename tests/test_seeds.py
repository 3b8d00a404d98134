import math

import numpy as np
import pytest

from khessian.errors import DomainError
from khessian.seeds import (
    certify_seed,
    eps_prime_for,
    p2_example,
    sample_p2_points,
    seed_for_constant,
    seed_for_negative,
    seed_for_positive,
    seed_for_zero,
)
from khessian.symfun import elem_sym, sigma_all, sigma_km1_row


class TestP2Example:
    def test_k2_n3_values(self):
        lam = p2_example(2, 3)
        golden = (1 + math.sqrt(5)) / 2
        assert np.allclose(lam, [1.0, golden, -1.0 / golden])
        assert abs(elem_sym(lam, 2)) < 1e-10
        assert abs(elem_sym(lam, 3) + 1.0) < 1e-10

    def test_k3_n5_values(self):
        lam = p2_example(3, 5)
        assert abs(lam[2] - (2 + math.sqrt(8)) / 2) < 1e-12
        assert abs(elem_sym(lam, 3)) < 1e-10
        assert abs(elem_sym(lam, 4) + 1.0) < 1e-10
        assert abs(elem_sym(lam, 5)) < 1e-14  # last entry is zero

    def test_k_equal_n_rejected(self):
        with pytest.raises(DomainError):
            p2_example(2, 2)

    def test_full_range(self):
        for n in range(3, 7):
            for k in range(2, n):
                sig = sigma_all(p2_example(k, n), k + 1)
                assert np.all(sig[1:k] > 0)
                assert abs(sig[k]) < 1e-10
                assert abs(sig[k + 1] + 1.0) < 1e-10


class TestZeroSeed:
    def test_eps_prime_rule(self):
        s = seed_for_zero(2, 3, alpha=0.5)
        assert s.eps_prime == pytest.approx(math.sqrt(s.eps))
        s = seed_for_zero(3, 4, alpha=0.75)
        assert s.eps_prime == s.eps

    def test_class_and_row(self):
        for k, n in ((2, 3), (2, 4), (3, 4), (3, 5)):
            s = seed_for_zero(k, n, alpha=0.5)
            assert s.convexity_class == k - 1
            assert np.min(sigma_km1_row(s.tau, k)) > 0
            cert = certify_seed(s)
            assert cert.convexity_class == k - 1
            assert cert.not_class == k + 1


class TestNegativeSeed:
    def test_target_and_row(self):
        s = seed_for_negative(2, 3, -1.0)
        assert abs(elem_sym(s.tau, 2) + 1.0) < 1e-10
        assert elem_sym(s.tau, 1) > 0
        row = sigma_km1_row(s.tau, 2)
        assert np.min(row) > 0
        assert np.all(np.diff(row) >= 0)

    def test_not_k_convex(self):
        cert = certify_seed(seed_for_negative(2, 3, -1.0))
        assert cert.not_class == 2
        assert cert.convexity_class == 1

    def test_homogeneity_in_c(self):
        s1 = seed_for_negative(2, 3, -1.0)
        s8 = seed_for_negative(2, 3, -8.0)
        assert np.allclose(s8.tau, math.sqrt(8.0) * s1.tau, rtol=1e-12)

    def test_requires_negative_c(self):
        with pytest.raises(DomainError):
            seed_for_negative(2, 3, 1.0)


class TestPositiveSeed:
    def test_equal_entry(self):
        s = seed_for_positive(2, 3, 3.0, l="full")
        assert np.allclose(s.tau, 1.0)
        assert s.convexity_class == 3
        assert certify_seed(s).not_class is None

    def test_l_one(self):
        s = seed_for_positive(2, 4, 1.0, l=1)
        assert abs(elem_sym(s.tau, 2) - 1.0) < 1e-10
        assert elem_sym(s.tau, 3) < 0
        assert s.convexity_class == 2

    def test_scaling_law(self):
        # the rescale solves sigma_k(s * lam) = s^k sigma_k(lam) = c
        s1 = seed_for_positive(2, 4, 1.0, l=1)
        s9 = seed_for_positive(2, 4, 9.0, l=1)
        assert np.allclose(s9.tau, 3.0 * s1.tau, rtol=1e-12)

    def test_top_level(self):
        # l = n - k reaches the deepest sign change, sigma_n < 0
        s = seed_for_positive(2, 4, 1.0, l=2)
        assert s.convexity_class == 3
        assert elem_sym(s.tau, 4) < 0

    def test_l_out_of_range(self):
        with pytest.raises(DomainError):
            seed_for_positive(2, 4, 1.0, l=5)

    @pytest.mark.parametrize("c, l", [(0.0, 1), (-1.0, "full")])
    def test_level_without_positive_constant_is_refused(self, c, l):
        # the c <= 0 seeds have no level to choose: l is refused, not dropped
        with pytest.raises(DomainError, match="l applies only when c = f\\(0,0,0\\) > 0"):
            seed_for_constant(2, 3, c, l=l)


class TestSeedMatrix:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("c", [-10.0, -1.0, 0.0, 1.0, 10.0])
    def test_row_positive_and_target_met(self, k, n, c):
        if not 2 <= k <= n - 1:
            pytest.skip("inadmissible pair")
        if c == 0.0:
            seed = seed_for_zero(k, n, alpha=0.5)
        elif c > 0.0:
            seed = seed_for_positive(k, n, c, l=1)
        else:
            seed = seed_for_negative(k, n, c)
        assert np.min(sigma_km1_row(seed.tau, k)) > 0
        assert abs(elem_sym(seed.tau, k) - c) <= 1e-10 * max(1.0, abs(c))
        assert seed.eps > 0
        expected = seed.eps**seed.alpha if seed.alpha <= 0.5 else seed.eps
        assert seed.eps_prime == pytest.approx(expected)


def _levels(k, n, c):
    return [None] if c < 0.0 else [None, "full", *range(1, n - k + 1)]


class TestScaleOfC:
    """The convexity classification's slack scales with the summed terms, so
    a seed's class does not depend on the size of c; a c whose seed has
    minor sums beyond the normal floats is refused."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_class_of_unit_c_at_every_scale(self, n, sign):
        scales = np.geomspace(1e-100, 1e100, 81)  # 10^2.5 apart
        for k in range(2, n):
            for l in _levels(k, n, sign):
                unit = certify_seed(seed_for_constant(k, n, sign, l=l))
                for c in sign * scales:
                    cert = certify_seed(seed_for_constant(k, n, float(c), l=l))
                    assert ((cert.convexity_class, cert.not_class)
                            == (unit.convexity_class, unit.not_class)), (k, l, c)

    def test_small_c_keeps_its_sign_change(self):
        # classified against an absolute 1e-9, these lost sigma_4 < 0 or
        # sigma_3 > 0: c = 1e-9 read not_class None, c = 1e-12 failed
        for c in (1e-9, 1e-12, 1e-100):
            cert = certify_seed(seed_for_constant(3, 5, c))
            assert (cert.convexity_class, cert.not_class) == (3, 4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c, word", [(1e300, "overflow"), (-1e300, "overflow"),
                                         (1e200, "overflow"), (1e-320, "underflow"),
                                         (-1e-300, "underflow")])
    def test_unrepresentable_minor_sums_refused(self, c, word):
        for k, n in ((2, 4), (3, 5)):
            for l in _levels(k, n, c):
                with pytest.raises(DomainError, match=f"tau's minor sums {word}"):
                    seed_for_constant(k, n, c, l=l)

    def test_zero_seed_keeps_its_exact_zeros(self):
        # p2_example's padding zeros give sigma_j = 0 exactly for j > k + 1
        for k, n in ((2, 5), (3, 6)):
            cert = certify_seed(seed_for_constant(k, n, 0.0))
            assert (cert.convexity_class, cert.not_class) == (k - 1, k + 1)


class TestSampler:
    def test_samples_sit_on_the_sign_changing_boundary(self):
        rng = np.random.default_rng(8)
        pts = sample_p2_points(3, 5, 40, rng)
        sig = sigma_all(pts, 4)
        assert np.all(np.abs(sig[:, 3]) < 1e-10)
        assert np.all(sig[:, 4] < 0)
        assert np.all(sig[:, 1:3] > 0)

    def test_eps_prime_validation(self):
        with pytest.raises(DomainError):
            eps_prime_for(0.5, 1.5)
        with pytest.raises(DomainError):
            eps_prime_for(-0.1, 0.5)
