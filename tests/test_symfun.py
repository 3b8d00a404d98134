import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from khessian.cone import in_gamma_tilde
from khessian.errors import DomainError
from khessian.symfun import (
    _BLOCK,
    binom,
    elem_sym,
    elem_sym_deleted,
    maclaurin_mean,
    shift_coefficient,
    shift_expand,
    sigma_all,
    sigma_km1_row,
)
from oracles import (
    brute_sigma,
    brute_sigma_zeroed,
    elem_sym_deleted_by_copy,
    in_gamma_tilde_by_copy,
    sigma_all_row_major,
    sigma_km1_row_by_copy,
)

GOLDEN = (1 + math.sqrt(5)) / 2

spectra = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: arrays(
        np.float64,
        (n,),
        elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
)


def rel_close(a, b, tol=1e-12, floor=1e-14, scale=0.0):
    """Closeness at relative tol against the evaluation magnitude.

    ``scale`` carries the intrinsic size of the summed terms (sigma of the
    absolute entries); identities that cancel catastrophically are still
    exact to relative 1e-12 in that measure.
    """
    return abs(a - b) <= max(tol * max(abs(a), abs(b), scale), floor)


def mag(lam, k):
    return elem_sym(np.abs(np.asarray(lam, dtype=float)), k)


class TestElemSym:
    def test_equal_entries(self):
        assert elem_sym([1.0, 1.0, 1.0], 2) == 3.0

    def test_sign_changing_boundary_value(self):
        assert abs(elem_sym([1.0, GOLDEN, -1.0 / GOLDEN], 2)) < 1e-14

    def test_matches_enumeration(self):
        lam = np.array([0.3, -1.2, 2.5, 0.7])
        assert rel_close(elem_sym(lam, 3), brute_sigma(lam, 3))

    def test_sigma_zero_is_one(self):
        assert elem_sym([2.0, 5.0], 0) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            elem_sym([1.0, 2.0], 3)
        with pytest.raises(DomainError):
            elem_sym([1.0, 2.0], -1)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            elem_sym([1.0, np.nan], 1)

    def test_batched_agrees_with_scalar(self):
        rng = np.random.default_rng(3)
        lam = rng.uniform(-3, 3, size=(20, 5))
        batched = elem_sym(lam, 3)
        for i in range(20):
            assert rel_close(batched[i], elem_sym(lam[i], 3))

    @settings(max_examples=150, deadline=None)
    @given(spectra)
    def test_enumeration_equivalence(self, lam):
        for k in range(lam.shape[0] + 1):
            assert rel_close(elem_sym(lam, k), brute_sigma(lam, k),
                             scale=mag(lam, k))

    def test_enumeration_equivalence_sweep(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            lam = rng.uniform(-3.0, 3.0, size=n)
            for k in range(n + 1):
                assert rel_close(elem_sym(lam, k), brute_sigma(lam, k),
                                 scale=mag(lam, k))


class TestDeleted:
    def test_single_deletion(self):
        assert elem_sym_deleted([2.0, 3.0, 4.0], 1, (0,)) == 7.0

    def test_matches_zeroing_oracle(self):
        lam = np.array([0.3, -1.2, 2.5, 0.7])
        got = elem_sym_deleted(lam, 2, (1, 3))
        assert rel_close(got, brute_sigma_zeroed(lam, 2, (1, 3)))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(DomainError):
            elem_sym_deleted([1.0, 2.0, 3.0], 1, (0, 0))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(DomainError):
            elem_sym_deleted([1.0, 2.0, 3.0], 1, (3,))

    @settings(max_examples=150, deadline=None)
    @given(spectra)
    def test_recursion_identity(self, lam):
        # sigma_k = lam_i * (deleted sigma_{k-1}) + (deleted sigma_k), all i, k
        n = lam.shape[0]
        for k in range(1, n + 1):
            sk = elem_sym(lam, k)
            for i in range(n):
                part = lam[i] * elem_sym_deleted(lam, k - 1, (i,))
                if k <= n - 1:
                    part += elem_sym_deleted(lam, k, (i,))
                assert rel_close(sk, part, scale=mag(lam, k))


class TestShift:
    def test_all_zeros_shift_one(self):
        for n in (3, 5, 8):
            for k in range(n + 1):
                assert shift_expand(np.zeros(n), k, 1.0) == binom(n, k)

    def test_j_zero_coefficient_is_one(self):
        for n in range(2, 9):
            for k in range(n + 1):
                assert shift_coefficient(0, k, n) == 1.0

    def test_direct_evaluation(self):
        # oracle: elem_sym((1.5, 2.5, 3.5), 2) = 17.75
        assert rel_close(shift_expand([1.0, 2.0, 3.0], 2, 0.5), 17.75)

    @settings(max_examples=100, deadline=None)
    @given(spectra, st.sampled_from([-1.0, -0.1, 0.1, 1.0]))
    def test_matches_shifted_input(self, lam, eps):
        for k in range(lam.shape[0] + 1):
            assert rel_close(
                shift_expand(lam, k, eps), elem_sym(lam + eps, k),
                scale=mag(np.abs(lam) + abs(eps), k),
            )


class TestMaclaurin:
    def test_constant_vector_is_fixed_point(self):
        for c in (0.5, 2.0, 7.0):
            for l in (1, 2, 3):
                assert rel_close(maclaurin_mean([c] * 4, l), c)

    def test_known_value(self):
        assert rel_close(maclaurin_mean([3.0, 2.0, 1.0], 2), math.sqrt(11.0 / 3.0))

    def test_monotone_in_order_inside_cone(self):
        rng = np.random.default_rng(5)
        found = 0
        while found < 200:
            lam = rng.uniform(-3, 3, size=3)
            sig = sigma_all(lam, 2)
            if np.all(sig[1:] > 0):
                found += 1
                assert maclaurin_mean(lam, 1) >= maclaurin_mean(lam, 2) - 1e-12

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            maclaurin_mean([1.0, -5.0], 2)


class TestRow:
    def test_equal_entries(self):
        row = sigma_km1_row([1.0, 1.0, 1.0], 2)
        assert np.allclose(row, [2.0, 2.0, 2.0])
        assert rel_close(row.sum(), 2 * elem_sym([1.0, 1.0, 1.0], 1))

    def test_positive_on_sign_changing_boundary_point(self):
        lam = np.array([1.0, GOLDEN, -1.0 / GOLDEN])
        assert np.all(sigma_km1_row(lam, 2) > 0)

    def test_matches_zeroing_oracle(self):
        lam = np.array([0.3, -1.2, 2.5, 0.7])
        row = sigma_km1_row(lam, 3)
        for i in range(4):
            assert rel_close(row[i], brute_sigma_zeroed(lam, 2, (i,)))

    @settings(max_examples=150, deadline=None)
    @given(spectra)
    def test_row_sum_and_homogeneity(self, lam):
        n = lam.shape[0]
        for k in range(1, n + 1):
            row = sigma_km1_row(lam, k)
            assert rel_close(row.sum(), (n - k + 1) * elem_sym(lam, k - 1),
                             scale=(n - k + 1) * mag(lam, k - 1))
            assert rel_close(float(row @ lam), k * elem_sym(lam, k),
                             scale=k * mag(lam, k))


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64))


class TestCoefficientMajorKernel:
    """The coefficient-major recurrence, with deleted entries skipped, gives
    the same floats as the row-major one on ``np.delete`` copies."""

    BATCHES = ((), (7,), (3, 4), (0,), (1000,))

    @staticmethod
    def draw(rng, batch, n):
        lam = rng.uniform(-3.0, 3.0, size=batch + (n,))
        # signed zeros and repeated entries, where a changed order would show
        lam[rng.random(lam.shape) < 0.1] = -0.0
        lam[rng.random(lam.shape) < 0.1] = 0.0
        lam[rng.random(lam.shape) < 0.1] = 1.5
        return lam

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bit_identical_to_row_major(self, n):
        rng = np.random.default_rng(100 + n)
        for batch in self.BATCHES:
            lam = self.draw(rng, batch, n)
            for k in range(n + 1):
                assert same_bits(sigma_all(lam, k), sigma_all_row_major(lam, k))
                for l in range(n - k + 1):
                    for idx in combinations(range(n), l):
                        assert same_bits(elem_sym_deleted(lam, k, idx),
                                         elem_sym_deleted_by_copy(lam, k, idx)), (batch, k, idx)
                if k >= 1:
                    assert same_bits(sigma_km1_row(lam, k), sigma_km1_row_by_copy(lam, k))
                    assert np.array_equal(in_gamma_tilde(lam, k),
                                          in_gamma_tilde_by_copy(lam, k))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bit_identical_across_blocks(self, n):
        # batches over several blocks, a partial last block, and input that
        # is not C-contiguous
        rng = np.random.default_rng(200 + n)
        wide = self.draw(rng, (2 * _BLOCK + 5,), n)
        for lam in (wide, self.draw(rng, (3, _BLOCK // 2 + 1), n),
                    np.asfortranarray(wide), wide[::-3]):
            for k in range(n + 1):
                assert same_bits(sigma_all(lam, k), sigma_all_row_major(lam, k))
                if k >= 1:
                    assert same_bits(sigma_km1_row(lam, k), sigma_km1_row_by_copy(lam, k))
            for k in (1, 2):  # every deleted subset of size < k
                assert np.array_equal(in_gamma_tilde(lam, k), in_gamma_tilde_by_copy(lam, k))
            for idx in ((0,), (n - 1,), (0, n - 1)):
                k = n - len(idx)
                assert same_bits(elem_sym_deleted(lam, k, idx),
                                 elem_sym_deleted_by_copy(lam, k, idx))

    def test_rows_are_contiguous_views(self):
        lam = np.random.default_rng(1).uniform(-3.0, 3.0, size=(50, 5))
        sig = sigma_all(lam, 3)
        assert sig.shape == (50, 4)
        for j in range(4):
            assert sig[:, j].flags.c_contiguous
        assert sigma_all(lam[0], 3).shape == (4,)
        assert isinstance(elem_sym_deleted(lam[0], 2, (1,)), float)
