import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khessian import cli, floattext, grids
from khessian.config import ProblemConfig
from khessian.errors import DomainError, SolverError
from khessian.grids import (
    ScalarGrid,
    axis_coords,
    c2alpha_surrogate,
    calpha_surrogate,
    grid_coords,
    hessian_of,
    holder_quotient,
    interior_differences,
    interior_slabs,
    second_differences,
    symmetric_matrix,
    write_grid_csv,
)
from khessian.iterate import IterationRecord, _newton_step
from khessian.pde import (
    Margins,
    _box_extremes,
    _check_box,
    _fold_margins,
    _physical_args,
    _slab_arguments,
    assemble_linearized,
    eval_G,
    minor_sums,
    sk_gradient,
    sk_of_matrix,
    solve_dirichlet_info,
    total_hessian,
)
from khessian.presets import PRESETS
from khessian.rhs import (
    RhsSpec,
    RhsTerm,
    TabulatedRhs,
    manufactured_field,
    tabulated_rhs_from_hessian,
)
from khessian.seeds import SeedQuadratic, seed_for_constant, seed_for_positive, seed_for_zero
from khessian.symfun import elem_sym, sigma_all, sigma_km1_row
from oracles import (
    boundary_mask,
    brute_holder_quotient,
    brute_sk_matrix,
    convexity_minima_at_every_point,
    arguments_at_every_point,
    c2alpha_from_the_stack,
    dense_operator,
    eval_G_at_every_point,
    every_offset_holder_quotient,
    fd_sk_gradient,
    manufactured_hessian_matrices,
    margins_at_every_point,
    read_grid_csv,
    rhs_derivatives_at_every_point,
    stencil_matrix,
    total_hessian_by_matrices,
    write_grid_csv_per_cell,
)


def random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2


class TestHessian:
    def test_quadratic_exactness(self):
        x = grid_coords(3, 9)
        grid = ScalarGrid(3, 9, 0.5 * x[..., 0] ** 2)
        hess, grad = hessian_of(grid)
        assert np.max(np.abs(hess[..., 0, 0] - 1.0)) < 1e-12
        assert np.max(np.abs(hess[..., 1, 1])) < 1e-12
        assert np.max(np.abs(hess[..., 0, 1])) < 1e-12
        assert np.max(np.abs(grad[..., 0] - x[..., 0])) < 1e-12

    def test_cross_term_exact(self):
        x = grid_coords(2, 9)
        grid = ScalarGrid(2, 9, x[..., 0] * x[..., 1])
        hess, _ = hessian_of(grid)
        assert np.max(np.abs(hess[..., 0, 1] - 1.0)) < 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        grid = ScalarGrid(3, 9, rng.normal(size=(9, 9, 9)))
        hess, _ = hessian_of(grid)
        assert np.array_equal(hess[..., 0, 1], hess[..., 1, 0])

    def test_richardson_ratio(self):
        # smooth field: halving h divides the interior error by about 4
        errs = {}
        for m in (17, 33):
            x = grid_coords(2, m)
            grid = ScalarGrid(2, m, np.sin(x[..., 0]) * np.cos(x[..., 1]))
            hess, _ = hessian_of(grid)
            exact = -np.sin(x[..., 0]) * np.cos(x[..., 1])
            inner = ~boundary_mask(2, m)
            errs[m] = np.max(np.abs((hess[..., 0, 0] - exact)[inner]))
        ratio = errs[17] / errs[33]
        assert 3.0 < ratio < 5.0


class TestMinorSums:
    def test_diagonal_matches_symfun(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            lam = rng.uniform(-2, 2, size=n)
            for k in range(1, n + 1):
                assert sk_of_matrix(np.diag(lam), k) == pytest.approx(
                    elem_sym(lam, k), rel=1e-12, abs=1e-14
                )

    def test_identity(self):
        from math import comb

        for n in (2, 3, 4):
            for k in range(1, n + 1):
                assert sk_of_matrix(np.eye(n), k) == pytest.approx(comb(n, k))

    def test_k2_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = random_symmetric(rng, 3)
            expect = 0.5 * (np.trace(r) ** 2 - np.trace(r @ r))
            assert sk_of_matrix(r, 2) == pytest.approx(expect, rel=1e-12)

    def test_matches_determinant_oracle(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5, 6):
            for k in range(1, n + 1):
                r = random_symmetric(rng, n)
                assert sk_of_matrix(r, k) == pytest.approx(
                    brute_sk_matrix(r, k), rel=1e-12, abs=1e-12
                )

    def test_diagonal_matches_symfun_levels_and_rows(self):
        # ties the Newton tensor at diag(lam) to the algebra layer
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5, 6):
            lam = rng.uniform(-2, 2, size=n)
            for k in range(1, n + 1):
                sums, tensor = minor_sums(np.diag(lam), k)
                np.testing.assert_allclose(
                    sums, sigma_all(lam, k)[1:], rtol=1e-12, atol=1e-14
                )
                np.testing.assert_allclose(
                    tensor, np.diag(sigma_km1_row(lam, k)), rtol=1e-12, atol=1e-14
                )


class TestMinorGradient:
    def test_diagonal_case(self):
        lam = np.array([0.4, -1.1, 2.2])
        grad = sk_gradient(np.diag(lam), 2)
        assert np.allclose(np.diag(grad), sigma_km1_row(lam, 2))
        off = grad - np.diag(np.diag(grad))
        assert np.max(np.abs(off)) < 1e-14

    def test_identity_k2(self):
        assert np.allclose(sk_gradient(np.eye(3), 2), 2.0 * np.eye(3))

    def test_batched_shape(self):
        rng = np.random.default_rng(6)
        r = np.stack([random_symmetric(rng, 3) for _ in range(10)]).reshape(2, 5, 3, 3)
        for k in (1, 2, 3):
            grad = sk_gradient(r, k)
            assert grad.shape == r.shape
            np.testing.assert_allclose(grad[1, 3], sk_gradient(r[1, 3], k), rtol=1e-14)

    def test_finite_difference_match(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 5, 6):
            for k in range(1, n + 1):
                # a nonsymmetric matrix pins which index of the tensor is which
                for r in (random_symmetric(rng, n), rng.normal(size=(n, n))):
                    grad = sk_gradient(r, k)
                    fd = fd_sk_gradient(r, k)
                    scale = max(1.0, np.max(np.abs(grad)))
                    assert np.max(np.abs(grad - fd)) / scale < 1e-7


class TestEvalG:
    def test_exact_cancellation(self):
        seed = seed_for_positive(2, 3, 3.0, l="full")
        f = RhsSpec.constant(3, 3.0)
        g = eval_G(ScalarGrid.zeros(3, 9), seed, f)
        assert np.max(np.abs(g.values)) == 0.0

    def test_initial_residual_formula(self):
        # at w = 0 the residual is the scaled mismatch between the seed level
        # and f evaluated along the seed quadratic
        seed = seed_for_zero(2, 3, 0.5)
        f = RhsSpec(n=3, terms=[RhsTerm(1.0, (1, 0, 0)), RhsTerm(1.0, (0, 1, 0))])
        m = 9
        g = eval_G(ScalarGrid.zeros(3, m), seed, f)
        x = grid_coords(3, m)
        expect = -(seed.eps**2 * (x[..., 0] + x[..., 1])) / seed.eps_prime
        inner = ~boundary_mask(3, m)
        assert np.max(np.abs((g.values - expect)[inner])) < 1e-14

    def test_manufactured_discrete_zero(self):
        # f tabulated from the *discrete* Hessian of the target: the residual
        # vanishes identically at the target
        seed = seed_for_zero(2, 3, 0.5)
        m = 9
        w_star, _ = manufactured_field(3, m, 0.05)
        grid = ScalarGrid(3, m, w_star)
        r = total_hessian_by_matrices(hessian_of(grid)[0], seed)
        f = TabulatedRhs(values=sk_of_matrix(r, 2))
        g = eval_G(grid, seed, f)
        assert np.max(np.abs(g.values)) < 1e-10

    def test_box_guard(self):
        seed = seed_for_positive(2, 3, 3.0, l="full")
        f = RhsSpec.constant(3, 3.0)
        f.box = 1e-6
        big = ScalarGrid(3, 9, np.full((9, 9, 9), 5.0))
        with pytest.raises(DomainError):
            eval_G(big, seed, f)

    @staticmethod
    def _boxed(box):
        f = RhsSpec.constant(3, 3.0)
        f.box = box
        return f

    def test_box_holds_p_exactly_at_its_edge(self):
        # |(3, 4, 0) / 8| = 0.625 exactly; the box admits it and nothing past it
        p = np.zeros((5, 5, 5, 3))
        p[1, 2, 3] = [0.375, 0.5, 0.0]
        u = np.zeros((5, 5, 5))
        _check_box(self._boxed(0.625), _box_extremes(u, p))
        with pytest.raises(DomainError, match=r"\|p\|=0\.625, box=0\.625"):
            _check_box(self._boxed(np.nextafter(0.625, 0.0)), _box_extremes(u, p))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_box_decides_as_root_of_summed_squares(self, n):
        # the largest |p| is the float of np.sqrt(np.sum(p**2, axis=-1)) at
        # its point: a box at that float holds, the float below does not
        rng = np.random.default_rng(40 + n)
        u = np.zeros((7,) * 3)
        for _ in range(50):
            p = rng.normal(size=(7,) * 3 + (n,)) * 10.0 ** rng.uniform(-3, 3, size=n)
            pmax = float(np.max(np.sqrt(np.sum(p**2, axis=-1))))
            _check_box(self._boxed(pmax), _box_extremes(u, p))
            with pytest.raises(DomainError, match="declared box"):
                _check_box(self._boxed(np.nextafter(pmax, 0.0)), _box_extremes(u, p))


# (n, k, c, l): c = 0, c > 0 with the equal-entry seed and with l = 1, c < 0
_ZERO_SEEDS = [(n, k, c, l) for n in (3, 4) for k, c, l in [
    (2, 0.0, None), (2, 3.0, "full"), (2, 3.0, 1), (2, -1.0, None),
    (3, 0.0, None), (3, 2.0, "full"), (3, 2.0, 1), (3, -2.0, None)] if k < n]
# n = 5 at m = 9 only: k = 4 first appears there
_FIVE_SEEDS = [(5, k, c, l) for k, c, l in [
    (2, 0.0, None), (3, 2.0, "full"), (4, 0.0, None), (4, 2.0, 1), (4, -2.0, None)]]


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def slab_arguments_gathered(g, seed):
    """(y, u, p) formed from the residual g one slab at a time, as the
    assembly forms them, joined over the interior."""
    parts = [(y, u, p) for _, _, _, y, u, p in
             _slab_arguments(seed, g.m, g.iterate, 3 * g.n + 1, False)]
    return tuple(np.concatenate(a) for a in zip(*parts))


def slab_derivatives_gathered(g, seed, f):
    """-eps^2 f_p and -eps^4 f_u at the (y, u, p) the assembly forms from
    the residual g one slab at a time, joined over the interior."""
    y, u, p = slab_arguments_gathered(g, seed)
    return -seed.eps**2 * f.dp(y, u, p), -seed.eps**4 * f.du(y, u, p)


def assert_residual_matches(g, expect):
    """G, the stencil entries and the reduced margins of the residual g
    carry the bits of the whole-interior reference ``expect``."""
    for name in ("values", "entries"):
        got = getattr(g, name)
        assert got.shape == expect[name].shape, name
        assert np.array_equal(_bits(got), _bits(expect[name])), name
    assert_margins_equal(g.margins, expect["margins"])


def assert_margins_equal(got, expect):
    """Two ``Margins`` alike field by field, floats to the bit (NaN too)."""
    assert (got.below, got.point, got.row) == (expect.below, expect.point, expect.row)
    for name in ("gap", "margin", "least"):
        assert _bits(getattr(got, name)) == _bits(getattr(expect, name)), name


def assert_arguments_match(g, w, seed):
    """The slabs' (y, u, p) carry the bits of the whole-interior ones."""
    got = slab_arguments_gathered(g, seed)
    for name, a, b in zip("yup", got, arguments_at_every_point(w, seed)):
        assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b)), name


class TestZeroIterate:
    """At w = 0, r = diag(tau) at every point: the closed form recurses one
    matrix and gives the bits of the point-by-point evaluation."""

    @staticmethod
    def _problem(n, k, c, l, eps):
        seed = seed_for_constant(k, n, c, l=l).with_eps(eps)
        one, e1 = (0,) * n, (1,) + (0,) * (n - 1)
        f = RhsSpec(n=n, terms=[RhsTerm(c, one), RhsTerm(0.5, e1, 1),
                                RhsTerm(-0.3, one, 0, e1), RhsTerm(0.2, e1, 0, (2,) + one[1:])])
        return seed, f

    @pytest.mark.parametrize("m", [9, 17])
    @pytest.mark.parametrize("n, k, c, l", _ZERO_SEEDS)
    @pytest.mark.parametrize("eps", [0.5, 0.125])
    def test_eval_G_bits_match_every_point(self, n, m, k, c, l, eps):
        seed, f = self._problem(n, k, c, l, eps)
        w = ScalarGrid.zeros(n, m)
        try:
            expect = eval_G_at_every_point(w, seed, f)
        except DomainError as err:  # (u, p) leave the box at this eps
            with pytest.raises(DomainError, match="declared box"):
                eval_G(w, seed, f)
            assert "declared box" in str(err)
            return
        g = eval_G(w, seed, f)
        assert_residual_matches(g, expect)
        assert_arguments_match(g, w, seed)
        assert g.iterate is None and not g.entries.flags.writeable

    @pytest.mark.parametrize("m", [9, 17])
    @pytest.mark.parametrize("n, k, c, l", _ZERO_SEEDS)
    def test_certificate_bits_match_every_point(self, n, m, k, c, l):
        from khessian.iterate import certify_convexity

        seed = seed_for_constant(k, n, c, l=l)
        interior = ~boundary_mask(n, m)
        hessian = total_hessian_by_matrices(hessian_of(ScalarGrid.zeros(n, m))[0], seed)
        got = certify_convexity(None, seed).min_values
        expect = convexity_minima_at_every_point(hessian, k, interior)
        assert list(got) == list(expect)
        assert np.array_equal(_bits(list(got.values())), _bits(list(expect.values())))

    @pytest.mark.parametrize("n, k, c, l", _FIVE_SEEDS)
    @pytest.mark.parametrize("eps", [0.5, 0.125])
    def test_five_dimensions_match_every_point(self, n, k, c, l, eps):
        self.test_eval_G_bits_match_every_point(n, 9, k, c, l, eps)
        self.test_certificate_bits_match_every_point(n, 9, k, c, l)

    def test_nonzero_iterate_matches_every_point(self):
        seed, f, w = _noisy_problem(3)
        expect, g = eval_G_at_every_point(w, seed, f), eval_G(w, seed, f)
        assert_residual_matches(g, expect)
        assert_arguments_match(g, w, seed)

    @pytest.mark.parametrize("n, k, c", [(3, 2, -1.0), (4, 3, -2.0)])
    def test_zero_terms_left_out_give_the_same_bits(self, n, k, c):
        # tau has a negative entry, so tau x holds -0.0 where that
        # coordinate is 0, which the zero w term's +0.0 turns into +0.0; the
        # library adds +0.0 in place of forming that term
        seed, f = self._problem(n, k, c, None, 0.125)
        assert any(any(t.p_pow) for t in f.terms) and np.any(seed.tau < 0)
        m = 9
        w = ScalarGrid.zeros(n, m)
        x = grid_coords(n, m)
        assert np.any(np.signbit(seed.eps**2 * (seed.tau * x)) & (x == 0.0))
        g = eval_G(w, seed, f)
        expect = eval_G_at_every_point(w, seed, f)
        assert np.array_equal(_bits(g.values), _bits(expect["values"]))
        # (y, u, p) are formed per slab: at w = 0 they carry the bits of
        # the whole-interior arguments, and p holds no -0.0
        assert_arguments_match(g, w, seed)
        p = slab_arguments_gathered(g, seed)[2]
        assert not np.any(np.signbit(p) & (p == 0.0))

    def test_zero_is_never_differenced_and_recursed_once(self, monkeypatch):
        import khessian.grids as grids
        import khessian.iterate as iterate
        import khessian.pde as pde

        def no_differences(*args, **kwargs):
            raise AssertionError("w = 0 was differenced")

        recursed = []

        def recorded(module):
            minor = module.minor_sums

            def counted(r, k):
                recursed.append(r.shape)
                return minor(r, k)
            return counted

        monkeypatch.setattr(grids, "second_differences", no_differences)
        for module in (pde, iterate):
            monkeypatch.setattr(module, "interior_differences", no_differences)
            monkeypatch.setattr(module, "minor_sums", recorded(module))
        n, m = 4, 17
        seed = seed_for_constant(3, n, 2.0, l="full")
        g = eval_G(ScalarGrid.zeros(n, m), seed, RhsSpec.constant(n, 2.0))
        iterate.certify_convexity(None, seed)
        u = iterate.assemble_solution(ScalarGrid.zeros(n, m), seed)
        assert [np.prod(shape[:-2]) for shape in recursed] == [1, 1]
        assert g.entries.shape == (n * (n + 1) // 2,) + (m - 2,) * n
        assert u.shape == (m,) * n


class TestOneRouteToTheHessian:
    """diag(tau) + eps' D^2 w is formed by ``total_hessian`` alone, for G,
    the solution and the manufactured table, and gives the bits of scaling
    full Hessian matrices and shifting their diagonal."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_solution_hessian_and_affine_gradient_bits(self, n):
        # the certificate recurses the solution's Hessian one slab at a time
        # and its minima are the bits of recursing every point's matrix; u
        # subtracts an affine part whose gradient has the bits of the
        # differences' gradient at the centre
        from khessian.iterate import _center_gradient, assemble_solution, certify_convexity

        seed, _, noisy = _noisy_problem(n)
        manufactured = ScalarGrid(n, 9, manufactured_field(n, 9, 0.05)[0])
        interior, center = ~boundary_mask(n, 9), (4,) * n
        x = grid_coords(n, 9)
        psi = 0.5 * np.sum(seed.tau * x**2, axis=-1)
        for w in (noisy, manufactured, ScalarGrid.zeros(n, 9)):
            hess, grad = hessian_of(w)
            expect = convexity_minima_at_every_point(
                total_hessian_by_matrices(hess, seed), seed.k, interior)
            assert np.array_equal(_bits(_center_gradient(w.values, w.h)), _bits(grad[center]))
            w_norm = w.values - w.values[center] - x @ grad[center]
            u = seed.eps**4 * (psi + seed.eps_prime * w_norm)
            # w = 0's certificate is given None, and its values give the same bits
            for given in (w.values,) if w.values.any() else (w.values, None):
                got = certify_convexity(given, seed).min_values
                assert list(got) == list(expect)
                assert np.array_equal(_bits(list(got.values())), _bits(list(expect.values())))
            # to rounding: u's x . Dw(0) is a product per slab, not per grid
            err = np.max(np.abs(assemble_solution(w, seed) - u))
            assert err <= 2 * np.finfo(float).eps * np.max(u)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_manufactured_table_bits(self, n):
        seed = seed_for_zero(2, n, 0.5).with_eps(1 / 16)
        _, second = manufactured_field(n, 9, 0.05)
        hess = manufactured_hessian_matrices(n, 9, 0.05)
        assert np.array_equal(_bits(symmetric_matrix(second, n)), _bits(hess))
        table = tabulated_rhs_from_hessian(seed, second).values
        expect = sk_of_matrix(total_hessian_by_matrices(hess, seed), seed.k)
        assert np.array_equal(_bits(table), _bits(expect))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_zero_iterate_is_one_matrix(self, n):
        seed = seed_for_zero(2, n, 0.5)
        r = total_hessian(None, seed)
        assert r.shape == (1,) * n + (n, n)
        assert np.array_equal(_bits(r.reshape(n, n)), _bits(np.diag(seed.tau)))


def _noisy_problem(n, m=9):
    """A varying, noisy iterate and first- and zeroth-order terms that depend
    on (u, p): (seed, f, w)."""
    rng = np.random.default_rng(50 + n)
    if n == 2:
        seed = SeedQuadratic(tau=np.array([1.0, 0.5]), k=2, n=2, c=0.5, alpha=0.5,
                             eps=0.25, eps_prime=0.5, convexity_class=2)
    else:
        seed = seed_for_zero(n - 1, n, 0.5)
    zero, e1, e2 = (0,) * n, np.eye(n, dtype=int)[0], np.eye(n, dtype=int)[1]
    f = RhsSpec(n=n, terms=[RhsTerm(0.5, e1, 1), RhsTerm(0.1, zero, 2),
                            RhsTerm(-0.3, zero, 0, e2), RhsTerm(0.2, zero, 0, 2 * e1)])
    x = grid_coords(n, m)
    w = ScalarGrid(n, m, 0.02 * np.prod(np.cos(np.pi * x / 2), axis=-1)
                   + 1e-4 * rng.normal(size=(m,) * n))
    return seed, f, w


def linearized_at(w, seed, f):
    """The linearization at w, assembled from its residual."""
    return assemble_linearized(eval_G(w, seed, f), seed, f)


def _stencil_fields(sys) -> list[np.ndarray]:
    """The coefficient field of each stencil term of the system's operator,
    in stencil order: the centre, per axis the +e_a and -e_a offsets, then
    the mixed offsets, read from the operator's closure."""
    cells = dict(zip(sys.matrix.__code__.co_freevars, sys.matrix.__closure__))
    return [field for _, field, _ in cells["shifted"].cell_contents]


class TestAssemble:
    def test_constant_coefficients_at_zero(self):
        seed = seed_for_zero(2, 3, 0.5)
        f = RhsSpec.constant(3, 0.0)
        m = 9
        g = eval_G(ScalarGrid.zeros(3, m), seed, f)
        row = sigma_km1_row(seed.tau, 2)
        # every point's margins are the row: the least gap is at the first point
        margins = g.margins
        sys = assemble_linearized(g, seed, f)
        assert margins.point == (1, 1, 1) and not margins.below
        assert np.isclose(margins.margin, row[margins.row])
        assert np.isclose(margins.gap, np.min(0.5 * row))
        assert np.isclose(margins.least, row.min())
        # center entries: -2/h^2 * sum of the row
        h = 2.0 / (m - 1)
        diag = np.diagonal(dense_operator(sys.matrix, sys.size))
        assert np.allclose(diag, -2.0 / h**2 * row.sum())

    @pytest.mark.parametrize("k, n, c, l", [
        (2, 3, 0.0, None), (2, 3, 3.0, "full"), (2, 3, -1.0, None),
        (2, 4, 1.0, 1), (3, 4, 0.0, None), (3, 4, -2.0, None),
    ])
    def test_margins_at_zero_are_the_seed_row(self, k, n, c, l):
        # r = diag(tau) at w = 0, so every margin is the seed row (to the
        # rounding of the Newton recursion) and clears half of it at any eps
        seed = seed_for_constant(k, n, c, l=l)
        f = RhsSpec(n=n, terms=[RhsTerm(0.5, (1,) + (0,) * (n - 1), 1)])
        f.box = None  # at n = 4 and eps = 1/2, (u, p) leave the box; margins ignore it
        row = sigma_km1_row(seed.tau, k)
        for eps in (0.5, 0.0625):
            w = ScalarGrid.zeros(n, 9)
            g = eval_G(w, seed.with_eps(eps), f)
            # the one point's margins, reduced as every point's would be
            coeff = np.swapaxes(eval_G_at_every_point(w, seed.with_eps(eps), f)["tensor"],
                                -1, -2)
            expect = margins_at_every_point(coeff, seed)
            assert_margins_equal(g.margins, expect)
            margins = g.margins
            assert margins.point == (1,) * n
            assert margins.margin == pytest.approx(row[margins.row], rel=1e-14, abs=0.0)
            assert margins.least == pytest.approx(row.min(), rel=1e-14, abs=0.0)
            assert not margins.below and margins.gap > 0.0

    def test_operator_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        seed = seed_for_zero(2, 3, 0.5)
        f = RhsSpec(n=3, terms=[RhsTerm(0.5, (0, 0, 0), 1), RhsTerm(-0.3, (0, 0, 0), 0, (0, 1, 0))])
        m = 9
        x = grid_coords(3, m)
        w = ScalarGrid(3, m, 0.02 * np.prod(np.cos(np.pi * x / 2), axis=-1))
        sys = linearized_at(w, seed, f)
        rho = np.prod(np.cos(np.pi * x / 2), axis=-1)
        rho_int = rho[~boundary_mask(3, m)]
        got = sys.matrix(rho_int)

        # hand-assembled oracle: loop the stencil pointwise
        second, grad_w = second_differences(w)
        r = symmetric_matrix(second, 3, seed.eps_prime, seed.tau)
        coeff = sk_gradient(r, 2)
        y = seed.eps**2 * x
        u = seed.eps**4 * (0.5 * np.sum(seed.tau * x**2, axis=-1)
                           + seed.eps_prime * w.values)
        p = seed.eps**2 * (seed.tau * x) + seed.eps_prime * seed.eps**2 * grad_w
        ai = -seed.eps**2 * f.dp(y, u, p)
        a0 = -seed.eps**4 * f.du(y, u, p)
        h = 2.0 / (m - 1)
        expect = np.zeros_like(rho)
        idx_int = np.argwhere(~boundary_mask(3, m))
        for pt in idx_int:
            i, j, l = pt
            val = a0[i, j, l] * rho[i, j, l]
            for ax in range(3):
                e = np.zeros(3, dtype=int)
                e[ax] = 1
                up = tuple(pt + e)
                dn = tuple(pt - e)
                val += coeff[i, j, l, ax, ax] * (
                    rho[up] - 2 * rho[i, j, l] + rho[dn]
                ) / h**2
                val += ai[i, j, l, ax] * (rho[up] - rho[dn]) / (2 * h)
            for a in range(3):
                for b in range(a + 1, 3):
                    ea = np.zeros(3, dtype=int)
                    eb = np.zeros(3, dtype=int)
                    ea[a] = 1
                    eb[b] = 1
                    cross = (
                        rho[tuple(pt + ea + eb)]
                        - rho[tuple(pt + ea - eb)]
                        - rho[tuple(pt - ea + eb)]
                        + rho[tuple(pt - ea - eb)]
                    ) / (4 * h**2)
                    val += 2.0 * coeff[i, j, l, a, b] * cross
            expect[i, j, l] = val
        expect_int = expect[~boundary_mask(3, m)]
        assert np.max(np.abs(got - expect_int)) < 1e-10 * max(1.0, np.max(np.abs(expect_int)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_stencil_oracle_exactly(self, n):
        # the applied stencil against entry-by-entry placement
        seed, f, w = _noisy_problem(n)
        m = w.m
        sys = linearized_at(w, seed, f)
        second, grad = second_differences(w)
        r = symmetric_matrix(second, n, seed.eps_prime, seed.tau)
        y, u, p = _physical_args(seed, grid_coords(n, m), w.values, grad)
        a_first = -seed.eps**2 * f.dp(y, u, p)
        a_zero = -seed.eps**4 * f.du(y, u, p)
        assert np.all(a_first[..., 0] != 0.0) and np.all(a_zero != 0.0)
        expect = stencil_matrix(sk_gradient(r, seed.k), a_first, a_zero, w.h)
        assert np.array_equal(dense_operator(sys.matrix, sys.size), expect)
        assert np.array_equal(sys.rhs, -eval_G(w, seed, f).values[~boundary_mask(n, m)])

    @pytest.mark.parametrize("zero, p_free", [(True, True), (True, False), (False, True)])
    def test_distinct_fields_match_stencil_oracle_exactly(self, zero, p_free):
        # each distinct field held once, one point's at w = 0, where the
        # mixed offsets are left out: the operator of entry-by-entry
        # placement, bit for bit
        n = 3
        seed, f, w = _noisy_problem(n)
        if p_free:
            f = RhsSpec(n=n, terms=[t for t in f.terms if not any(t.p_pow)])
        if zero:
            w = ScalarGrid.zeros(n, w.m)
        sys = linearized_at(w, seed, f)
        assert sys.matrix.nnz == (1 + 2 * n + (0 if zero else 2 * n * (n - 1))) * 7**n
        second, grad = second_differences(w)
        r = symmetric_matrix(second, n, seed.eps_prime, seed.tau)
        y, u, p = _physical_args(seed, grid_coords(n, w.m), w.values, grad)
        expect = stencil_matrix(sk_gradient(r, seed.k), -seed.eps**2 * f.dp(y, u, p),
                                -seed.eps**4 * f.du(y, u, p), w.h)
        assert np.array_equal(dense_operator(sys.matrix, sys.size), expect)

    def test_p_free_f_shares_the_axis_fields(self):
        # f_p is zero without a term in p: the +e_a field is the -e_a
        # field and f.dp is not evaluated; criterion 7's f, with a term in
        # p, keeps them apart.  At w = 0 only the centre's field covers
        # the interior
        seed, f, w = _noisy_problem(3)
        p_free = RhsSpec(n=3, terms=[t for t in f.terms if not any(t.p_pow)])
        p_free.dp = lambda *args: pytest.fail("f.dp was evaluated")
        assert f.reads_p and not p_free.reads_p and not TabulatedRhs.reads_p
        criterion_7 = RhsSpec(n=3, terms=[RhsTerm(1.0, (1, 0, 0)), RhsTerm(0.3, (0, 0, 0), 1),
                                          RhsTerm(-0.2, (0, 0, 0), 0, (1, 0, 0))])
        for rhs, shared in ((p_free, True), (criterion_7, False)):
            fields = _stencil_fields(linearized_at(w, seed, rhs))
            assert len(fields) == 1 + 2 * 3 + 4 * 3
            assert all(field.shape == (7,) * 3 for field in fields)
            assert all((fields[1 + 2 * a] is fields[2 + 2 * a]) == shared for a in range(3))
            # each mixed pair's field is shared by its four offsets
            assert len({id(field) for field in fields}) == 1 + (2 - shared) * 3 + 3
        fields = _stencil_fields(linearized_at(ScalarGrid.zeros(3, 9), seed, p_free))
        assert [field.shape for field in fields] == [(7,) * 3] + [(1,) * 3] * 6
        assert all(fields[1 + 2 * a] is fields[2 + 2 * a] for a in range(3))

    def test_jacobian_consistency_order(self):
        seed = seed_for_zero(2, 3, 0.5)
        f = RhsSpec(
            n=3,
            terms=[
                RhsTerm(1.0, (1, 0, 0)),
                RhsTerm(0.3, (0, 0, 0), 1),
                RhsTerm(-0.2, (0, 0, 0), 0, (1, 0, 0)),
            ],
        )
        m = 17
        x = grid_coords(3, m)
        w = ScalarGrid(3, m, 0.02 * np.prod(np.cos(np.pi * x / 2), axis=-1))
        direction = np.prod(np.cos(np.pi * x / 2), axis=-1)
        sys = linearized_at(w, seed, f)
        applied = sys.matrix(direction[~boundary_mask(3, m)])
        g0 = eval_G(w, seed, f).values
        deltas = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
        errs = []
        for d in deltas:
            g1 = eval_G(ScalarGrid(3, m, w.values + d * direction), seed, f).values
            fd = (g1 - g0)[~boundary_mask(3, m)] / d
            errs.append(np.max(np.abs(fd - applied)))
        slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
        assert slope >= 0.9

    @staticmethod
    def _refusal_at(amplitude):
        """One Newton step at eps 1/2 from a noisy iterate of the given
        amplitude; returns its margins, located on the full grid, after
        checking that the step is refused at the point and row of the most
        negative gap below half the seed row."""
        seed = seed_for_zero(2, 3, 0.5).with_eps(0.5)
        rng = np.random.default_rng(5)
        w = ScalarGrid(3, 9, amplitude * rng.normal(size=(9, 9, 9)))
        f = RhsSpec.constant(3, 0.0)
        f.box = None  # disable the argument guard to reach assembly
        record = IterationRecord(0, 0.0, 0.0)
        rho, reason = _newton_step(eval_G(w, seed, f), seed, f, 1e-10, record)
        assert rho is None
        assert record.lin_steps is None and record.min_margin is None
        coeff = sk_gradient(symmetric_matrix(second_differences(w)[0], 3, seed.eps_prime,
                                             seed.tau), 2)
        diag = np.diagonal(coeff, axis1=-2, axis2=-1)
        margins = diag - (np.sum(np.abs(coeff), axis=-1) - np.abs(diag))
        margins[boundary_mask(3, 9)] = np.inf
        gap = margins - 0.5 * sigma_km1_row(seed.tau, 2)
        *point, row = (int(v) for v in np.unravel_index(np.argmin(gap), gap.shape))
        assert reason.startswith("dominance margin dropped ")
        assert "below half the seed row: margin " in reason
        assert reason.endswith(f" at grid point {tuple(point)}, row {row}")
        dropped, margin = (float(v) for v in re.findall(r"(-?\d\.\d{3}e[+-]\d+)", reason))
        assert dropped == pytest.approx(float(gap.min()), rel=1e-3)
        assert margin == pytest.approx(float(margins[(*point, row)]), rel=1e-3)
        return margins

    def test_ellipticity_failure_reported(self):
        # a huge iterate: the perturbed coefficients lose dominance outright
        assert self._refusal_at(40.0).min() <= 0.0

    def test_dominance_below_half_row_refused(self):
        # every margin stays positive, but one falls below half its seed row
        margins = self._refusal_at(2e-3)
        assert 0.0 < margins.min()

    def test_refused_step_assembles_nothing(self, monkeypatch):
        # the step reads the residual's margins before it assembles: a
        # refused step builds no stencil field, and its residual keeps its
        # entries; an accepted step assembles once
        import khessian.iterate as iterate

        calls = []

        def counted(*args):
            calls.append(args)
            return assemble_linearized(*args)

        monkeypatch.setattr(iterate, "assemble_linearized", counted)
        seed = seed_for_zero(2, 3, 0.5).with_eps(0.5)
        w = ScalarGrid(3, 9, 40.0 * np.random.default_rng(5).normal(size=(9, 9, 9)))
        f = RhsSpec.constant(3, 0.0)
        f.box = None
        g = eval_G(w, seed, f)
        assert g.margins.below
        rho, reason = _newton_step(g, seed, f, 1e-10, IterationRecord(1, 0.0, 0.0))
        assert rho is None and reason.startswith("dominance margin dropped ")
        assert calls == [] and g.entries is not None
        seed, f, w = _noisy_problem(3)
        rho, reason = _newton_step(eval_G(w, seed, f), seed, f, 1e-10,
                                   IterationRecord(1, 0.0, 0.0))
        assert rho is not None and reason is None and len(calls) == 1


def _box_message(f, u, p) -> str | None:
    """The box refusal of the whole interior's (u, p), or None."""
    try:
        _check_box(f, _box_extremes(u, p))
    except DomainError as err:
        return str(err)
    return None


class TestSlabbedArguments:
    """(y, u, p) are formed one interior slab at a time, by ``eval_G`` and
    again by the assembly, and never kept for the whole interior: the box
    decision and its message, G, f's derivatives, the operator and the
    margins are those of one whole-interior (y, u, p)."""

    @staticmethod
    def _spiked(eps, row, amplitude, n=3, m=9):
        """w = +-amplitude at two points of one grid row, two apart along
        the last axis: its largest |Dw| lies on that row, between them."""
        seed = seed_for_zero(2, n, 0.5).with_eps(eps)
        values = np.zeros((m,) * n)
        values[row, 4, 3], values[row, 4, 5] = amplitude, -amplitude
        return seed, ScalarGrid(n, m, values)

    @pytest.mark.parametrize("rows_per_slab", [1, None])
    @pytest.mark.parametrize("decisive, eps", [("u", 2.0), ("p", 0.25)])
    def test_box_decided_in_last_slab(self, monkeypatch, rows_per_slab, decisive, eps):
        # spikes on the last interior row, the last slab: at eps = 2 they
        # give the largest |u| and at eps = 1/4 the largest |p|
        if rows_per_slab is not None:
            monkeypatch.setattr(grids, "_SLAB_BYTES", 1)
        seed, w = self._spiked(eps, 7, 3.0)
        u, p = arguments_at_every_point(w, seed)[1:]
        umax, square = _box_extremes(u, p)
        top = float(umax) if decisive == "u" else float(np.sqrt(square))
        assert top == max(float(umax), float(np.sqrt(square)))
        where = np.unravel_index(np.argmax(np.abs(u) if decisive == "u"
                                           else np.sum(p**2, axis=-1)), u.shape)
        assert where[0] == u.shape[0] - 1
        f = RhsSpec.constant(3, 0.0)
        f.box = top
        g = eval_G(w, seed, f)
        assert np.array_equal(_bits(g.values), _bits(eval_G_at_every_point(w, seed, f)["values"]))
        f.box = np.nextafter(top, np.inf)
        eval_G(w, seed, f)
        f.box = np.nextafter(top, 0.0)
        message = _box_message(f, u, p)
        assert message is not None and f"|{decisive}|={top:.3g}" in message
        with pytest.raises(DomainError) as err:
            eval_G(w, seed, f)
        assert str(err.value) == message

    @pytest.mark.parametrize("nan_row, big_row", [(7, 1), (1, 7), (4, 4)])
    def test_nan_passes_the_box_as_on_the_whole_interior(self, monkeypatch, nan_row, big_row):
        # a NaN anywhere makes max |u| and max |p| NaN, which no box
        # refuses, also when the slab that exceeds the box comes first or last
        monkeypatch.setattr(grids, "_SLAB_BYTES", 1)
        seed, w = self._spiked(0.25, big_row, 1e6)
        w.values[nan_row, 3, 5] = np.nan
        f = RhsSpec.constant(3, 0.0)
        f.box = 1.0
        u, p = arguments_at_every_point(w, seed)[1:]
        assert _box_message(f, u, p) is None
        assert _box_message(f, np.where(np.isnan(u), 0.0, u),
                            np.where(np.isnan(p), 0.0, p)) is not None
        g = eval_G(w, seed, f)
        assert np.any(np.isnan(g.values))
        assert np.array_equal(_bits(g.values), _bits(eval_G_at_every_point(w, seed, f)["values"]))

    @pytest.mark.parametrize("rows_per_slab", [1, None])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tabulated_rhs_keeps_its_G_bits(self, monkeypatch, rows_per_slab, n):
        # the table is read at each slab's grid index: G, and the solve it
        # drives, are those of reading the whole interior at once
        if rows_per_slab is not None:
            monkeypatch.setattr(grids, "_SLAB_BYTES", 1)
        seed = _noisy_problem(n)[0].with_eps(1 / 16)
        w_star, second = manufactured_field(n, 9, 0.05)
        f = tabulated_rhs_from_hessian(seed, second)
        assert f.value(None, None, None).shape == (7,) * n
        for w in (ScalarGrid.zeros(n, 9), ScalarGrid(n, 9, 0.5 * w_star)):
            g = eval_G(w, seed, f)
            expect = eval_G_at_every_point(w, seed, f)["values"]
            assert np.array_equal(_bits(g.values), _bits(expect))
            a_first, a_zero = slab_derivatives_gathered(g, seed, f)
            assert a_first.shape == (7,) * n + (n,) and a_zero.shape == (7,) * n
            assert not np.any(a_first) and not np.any(a_zero)

    @pytest.mark.parametrize("rows_per_slab", [1, None])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_derivatives_match_whole_interior(self, monkeypatch, rows_per_slab, n):
        if rows_per_slab is not None:
            monkeypatch.setattr(grids, "_SLAB_BYTES", 1)
        # the assembly's f_p and f_u, from the gradient it forms per slab
        seed, f, noisy = _noisy_problem(n)
        for w in (noisy, ScalarGrid.zeros(n, 9)):
            got = slab_derivatives_gathered(eval_G(w, seed, f), seed, f)
            for name, a, b in zip(("f_p", "f_u"), got, rhs_derivatives_at_every_point(w, seed, f)):
                assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b)), name

    @pytest.mark.parametrize("rows_per_slab", [1, None])
    @pytest.mark.parametrize("n", [2, 3])
    def test_operator_and_margins_match_whole_interior(self, monkeypatch, rows_per_slab, n):
        # entry by entry against the stencil placed from whole-interior
        # coefficient fields, and the margins against whole-interior rows
        if rows_per_slab is not None:
            monkeypatch.setattr(grids, "_SLAB_BYTES", 1)
        seed, f, noisy = _noisy_problem(n)
        for w in (noisy, ScalarGrid.zeros(n, 9)):
            g = eval_G(w, seed, f)
            reference = eval_G_at_every_point(w, seed, f)
            assert_residual_matches(g, reference)
            rhs = -g.values[~boundary_mask(n, 9)]
            sys = assemble_linearized(g, seed, f)
            assert g.entries is None  # taken over by the assembly
            a_first, a_zero = np.zeros((9,) * n + (n,)), np.zeros((9,) * n)
            slab = (slice(1, -1),) * n
            a_first[slab], a_zero[slab] = rhs_derivatives_at_every_point(w, seed, f)
            coeff = np.zeros((9,) * n + (n, n))
            coeff[slab] = np.swapaxes(reference["tensor"], -1, -2)
            expect = stencil_matrix(coeff, a_first, a_zero, w.h)
            assert np.array_equal(dense_operator(sys.matrix, sys.size), expect)
            assert np.array_equal(sys.rhs, rhs)
            assert_margins_equal(g.margins, margins_at_every_point(coeff[slab], seed))


class TestSlabDifferences:
    """w is differenced one interior slab at a time, from the slab and one
    halo row on each side, with the floats of the whole-grid
    ``second_differences`` at the interior points; T_{k-1} is kept as the
    stencil's entries and its margins reduced slab by slab, with the
    floats and the choice of one whole-interior pass."""

    @pytest.mark.parametrize("rows_per_slab", [1, None])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_match_whole_grid_differences(self, monkeypatch, rows_per_slab, n):
        if rows_per_slab is not None:
            monkeypatch.setattr(grids, "_SLAB_BYTES", 1)
        m = 9
        _, _, noisy = _noisy_problem(n, m)
        ramp = _surrogate_fields("ramp", n, m, 1, np.random.default_rng(n))[0] ** 3
        ramp = ScalarGrid(n, m, ramp)
        for w in (noisy, ramp):
            second, grad = second_differences(w)
            inner = (slice(1, -1),) * n
            parts = interior_slabs(n, m, n * n)
            assert rows_per_slab is None or all(rows.stop - rows.start == 1 for rows, _ in parts)
            got = [interior_differences(w.values, w.h, rows) for rows, _ in parts]
            joined = np.concatenate([d2 for d2, _ in got], axis=1)
            assert np.array_equal(_bits(joined), _bits(second[(slice(None),) + inner]))
            joined = np.concatenate([g for _, g in got])
            assert np.array_equal(_bits(joined), _bits(grad[inner]))
            for rows, _ in parts:
                d2, g = interior_differences(w.values, w.h, rows, second=False)
                assert d2 is None
                assert np.array_equal(_bits(g), _bits(grad[inner][rows]))

    @staticmethod
    def _tensors(rng, shape, n):
        """Newton tensors near a diagonal one, not symmetric, so that each
        index of the tensor is pinned."""
        return np.eye(n) * rng.uniform(5.0, 6.0, size=n) + 0.1 * rng.normal(size=shape + (n, n))

    @staticmethod
    def _folded(t, seed, rows_per_slab):
        """The ``Margins`` of tensors t (interior + (n, n)) folded slab by
        slab, ``rows_per_slab`` rows of the interior each."""
        half_row = 0.5 * sigma_km1_row(seed.tau, seed.k)
        found = None
        for lo in range(0, len(t), rows_per_slab):
            rows = slice(lo, min(lo + rows_per_slab, len(t)))
            found = _fold_margins(t[rows], half_row, rows, found)
        return found

    @pytest.mark.parametrize("case", ["random", "ties", "nan-first", "nan-last",
                                      "nan-same-slab", "negative-ties"])
    @pytest.mark.parametrize("rows_per_slab", [1, 2, 5])
    def test_margins_fold_as_one_pass(self, case, rows_per_slab):
        # the first least gap in C order, a NaN first wherever it is, ties
        # to the earlier point or row, "below" only for a gap under 0, a
        # NaN least margin: each as one np.argmin / np.any / np.min does
        n = 3
        seed = seed_for_zero(2, n, 0.5)
        rng = np.random.default_rng(80 + rows_per_slab)
        t = self._tensors(rng, (5, 4, 4), n)
        if case in ("ties", "negative-ties"):
            # two points in different slabs, and two rows of one point,
            # share the least gap: a diagonal tensor with equal entries
            scale = -1.0 if case == "negative-ties" else 0.01
            low = np.eye(n) * scale + np.diag(0.5 * sigma_km1_row(seed.tau, 2))
            t[1, 2, 3] = t[4, 0, 0] = low
        if case.startswith("nan"):
            t[3, 1, 2, 0, 0] = -5.0  # a negative gap
            where = {"nan-first": (0, 1, 1), "nan-last": (4, 3, 3), "nan-same-slab": (3, 1, 3)}
            t[where[case] + (1, 2)] = np.nan
        got = self._folded(t, seed, rows_per_slab)
        expect = margins_at_every_point(np.swapaxes(t, -1, -2), seed)
        assert_margins_equal(got, expect)
        if case.startswith("nan"):
            assert got.below and np.isnan(got.gap) and np.isnan(got.least)
        if case == "ties":
            assert got.point == (2, 3, 4) and got.row == 0 and not got.below
        if case == "negative-ties":
            assert got.below and got.point == (2, 3, 4)

    @pytest.mark.parametrize("case", ["negative", "nan-before", "nan-after"])
    def test_refusal_names_the_first_least_gap(self, monkeypatch, case):
        # the step's refusal reads the reduced margins: the message of one
        # whole-interior argmin, also when a NaN gap comes before or after
        # the negative one (a NaN alone refuses nothing)
        monkeypatch.setattr(grids, "_SLAB_BYTES", 1)
        seed, f, w = _noisy_problem(3)
        f.box = None
        g = eval_G(w, seed, f)
        t = eval_G_at_every_point(w, seed, f)["tensor"].copy()
        t[4, 2, 5, 1, 1] = -3.0
        if case != "negative":
            t[(1, 0, 0) if case == "nan-before" else (6, 6, 6)][0, 2] = np.nan
        g.margins = self._folded(t, seed, 1)
        expect = margins_at_every_point(np.swapaxes(t, -1, -2), seed)
        assert_margins_equal(g.margins, expect)
        record = IterationRecord(1, 0.0, 0.0)
        rho, reason = _newton_step(g, seed, f, 1e-10, record)
        assert rho is None and record.lin_steps is None and record.min_margin is None
        assert reason == (f"dominance margin dropped {expect.gap:.3e} below half the seed "
                          f"row: margin {expect.margin:.3e} at grid point {expect.point}, "
                          f"row {expect.row}")
        if case == "negative":
            assert expect.point == (5, 3, 6) and expect.row == 1
        else:
            assert "dropped nan" in reason
        if case == "nan-after":
            # without the negative gap, the NaN alone refuses nothing
            t[4, 2, 5, 1, 1] = 1.0
            g = eval_G(w, seed, f)
            g.margins = self._folded(t, seed, 1)
            assert not g.margins.below and np.isnan(g.margins.gap)


class TestSolve:
    def _system(self, m=9, rhs_values=None):
        seed = seed_for_positive(2, 3, 3.0, l="full")
        f = RhsSpec.constant(3, 3.0)
        sys = linearized_at(ScalarGrid.zeros(3, m), seed, f)
        if rhs_values is not None:
            sys.rhs = rhs_values
        return sys

    def test_zero_rhs_gives_zero(self):
        sys = self._system()
        rho, *rest = solve_dirichlet_info(sys)
        assert np.max(np.abs(rho.values)) == 0.0
        # no iteration ran, so there is no contraction
        assert rest == [0.0, 0, None]

    def test_solve_only_reads_its_system(self):
        # the solve assigns to no attribute of its system, and the
        # contraction it returns is the one the step's record stores
        seed, f, w = _noisy_problem(3)
        sys = linearized_at(w, seed, f)
        before, rhs = dict(vars(sys)), sys.rhs.copy()
        rho, res, steps, contraction = solve_dirichlet_info(sys, 1e-10)
        assert vars(sys).keys() == before.keys()
        assert all(vars(sys)[name] is value for name, value in before.items())
        assert np.array_equal(sys.rhs, rhs)
        record = IterationRecord(1, 0.0, 0.0)
        step, reason = _newton_step(eval_G(w, seed, f), seed, f, 1e-10, record)
        assert reason is None and np.array_equal(step.values, rho.values)
        assert (record.lin_residual, record.lin_steps, record.contraction) == (
            res, steps, contraction)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        sys = self._system(rhs_values=None)
        sys.rhs = rng.normal(size=sys.size)
        rho, res, _, _ = solve_dirichlet_info(sys, 1e-10)
        dense = np.linalg.solve(dense_operator(sys.matrix, sys.size), sys.rhs)
        got = rho.values[~boundary_mask(3, 9)]
        assert np.max(np.abs(got - dense)) < 1e-8
        assert res <= 1e-10

    def test_tiny_rhs_converges(self):
        # late Newton corrections have ||b|| ~ 1e-11; the solve's tolerance is
        # relative, so it converges whatever the size of the right-hand side
        rng = np.random.default_rng(17)
        sys = self._system()
        b = rng.normal(size=sys.size)
        sys.rhs = 1e-11 * b / np.linalg.norm(b)
        rho, res, _, _ = solve_dirichlet_info(sys, 1e-10)
        assert res <= 1e-10
        assert np.max(np.abs(rho.values)) > 0.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_seed_inverse_undoes_the_operator_at_zero(self, n):
        # at w = 0 with f = f(y) the operator is the seed's; its row entries
        # differ, so an inverse with swapped axes would not undo it
        seed = seed_for_zero(2, n, 0.5)
        assert len(set(sigma_km1_row(seed.tau, 2))) == n
        f = RhsSpec(n=n, terms=[RhsTerm(1.0, (1, 2) + (0,) * (n - 2))])
        sys = linearized_at(ScalarGrid.zeros(n, 9), seed, f)
        v = np.random.default_rng(60 + n).normal(size=sys.size)
        back = sys.seed_inverse(sys.matrix(v))
        assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_noisy_iterate_solves_by_contraction(self, n):
        # the noisy iterate's operator is a small perturbation of the seed's:
        # each iteration shrinks the residual at least fivefold
        seed, f, w = _noisy_problem(n)
        sys = linearized_at(w, seed, f)
        rho, res, applied, contraction = solve_dirichlet_info(sys, 1e-10)
        assert res <= 1e-10
        assert applied == {2: 8, 3: 10, 4: 13}[n]
        assert 0.0 < contraction < 0.2
        got = sys.matrix(rho.values[~boundary_mask(n, 9)])
        assert np.linalg.norm(got - sys.rhs) <= 1e-10 * np.linalg.norm(sys.rhs)

    def test_step_limit_raises_with_steps(self, monkeypatch):
        import khessian.pde as pde

        seed, f, w = _noisy_problem(3)
        sys = linearized_at(w, seed, f)
        # one Richardson iteration applies the operator once
        monkeypatch.setattr(pde, "MAX_LIN_STEPS", 1)
        with pytest.raises(SolverError, match="after 1 operator applications") as info:
            solve_dirichlet_info(sys, 1e-10)
        assert info.value.steps == 1
        assert "(step limit reached)" in str(info.value)
        # the ratio of the one iteration's residual to the unit start
        assert 0.0 < info.value.contraction < 0.2
        # the stalled solve's steps and contraction reach the refused step's record
        record = IterationRecord(1, 0.0, 0.0)
        rho, reason = _newton_step(eval_G(w, seed, f), seed, f, 1e-10, record)
        assert rho is None and reason == f"linear solve failed: {info.value}"
        assert record.lin_steps == 1 and record.contraction == info.value.contraction
        assert record.min_margin is None and record.lin_residual is None

    def test_discrete_maximum_principle(self):
        # pure second-order equal-coefficient operator, nonpositive data
        rng = np.random.default_rng(13)
        sys = self._system()
        sys.rhs = -np.abs(rng.normal(size=sys.size))
        rho = solve_dirichlet_info(sys)[0]
        assert np.min(rho.values) >= -1e-12

    def test_boundary_stays_zero(self):
        rng = np.random.default_rng(14)
        sys = self._system()
        sys.rhs = rng.normal(size=sys.size)
        rho = solve_dirichlet_info(sys)[0]
        assert np.max(np.abs(rho.values[boundary_mask(3, 9)])) == 0.0


class TestEllipticityPersistence:
    def test_margins_hold_below_some_eps(self):
        # for a unit-ball iterate there is an eps below which every margin
        # stays above half the seed row, and it keeps holding as eps shrinks
        seed = seed_for_zero(2, 3, 0.5)
        f = RhsSpec.constant(3, 0.0)
        f.box = None
        m = 9
        x = grid_coords(3, m)
        bump = np.prod(np.cos(np.pi * x / 2), axis=-1)
        w = ScalarGrid(3, m, bump)
        w = ScalarGrid(3, m, 0.9 * bump / c2alpha_surrogate(w, 0.5))
        eps = 0.5
        found = None
        while eps >= 1e-4:
            if eval_G(w, seed.with_eps(eps), f).margins.gap > 0.0:
                # the least gap: every margin above half its row
                found = eps
                break
            eps *= 0.5
        assert found is not None
        for _ in range(3):
            eps *= 0.5
            assert eval_G(w, seed.with_eps(eps), f).margins.gap > 0.0


class TestOrderOfAccuracy:
    def test_constant_coefficient_solution_error_quarters(self):
        # equal-entry seed at w = 0: the operator is 2x the Laplacian; solve
        # against the analytic image of a product-of-cosines field and watch
        # the sup error drop ~4x when h halves
        seed = seed_for_positive(2, 3, 3.0, l="full")
        f = RhsSpec.constant(3, 3.0)
        errs = {}
        for m in (9, 17):
            x = grid_coords(3, m)
            rho_star = np.prod(np.cos(np.pi * x / 2), axis=-1)
            g = -6.0 * (np.pi / 2) ** 2 * rho_star
            sys = linearized_at(ScalarGrid.zeros(3, m), seed, f)
            sys.rhs = g[~boundary_mask(3, m)]
            rho = solve_dirichlet_info(sys, 1e-12)[0]
            errs[m] = float(np.max(np.abs(rho.values - rho_star)))
        ratio = errs[9] / errs[17]
        assert 3.0 < ratio < 5.0


def _surrogate_fields(kind, n, m, count, rng):
    """Noise peaks at nearest neighbours; a ramp along x1 under small noise
    peaks at the longest offsets, so both ends of the offset set are hit.  A
    tilt along (1, -1, ..., -1) peaks at the longest diagonal offset of that
    sign pattern."""
    fields = rng.normal(size=(count,) + (m,) * n)
    if kind != "noise":
        fields *= 1e-3
        x = grid_coords(n, m)
        fields[-1] += x[..., 0] if kind == "ramp" else x[..., 0] - x[..., 1:].sum(axis=-1)
    return fields


class TestNormSurrogates:
    # the stacked offset sweep must agree with pair-by-pair enumeration exactly
    @pytest.mark.parametrize("kind", ["noise", "ramp", "tilt"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stacked_quotient_matches_all_pairs(self, n, kind):
        rng = np.random.default_rng(20 + n)
        m = 9 if n < 4 else 5  # the oracle enumerates at most 1000 points
        stack = _surrogate_fields(kind, n, m, 3, rng)
        h = 2.0 / (m - 1)
        expect = max(brute_holder_quotient(v, h, 0.5) for v in stack)
        assert holder_quotient(stack, h, 0.5) == expect
        assert holder_quotient(stack[:1], h, 0.5) == brute_holder_quotient(stack[0], h, 0.5)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("m", [9, 17])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pruned_sweep_is_exact(self, n, m, alpha):
        # the skipped passes must not change the maximum by one bit: a
        # constant (spread 0), a spike, a checkerboard (largest at step 1), a
        # ramp (largest at the longest step) and a smooth field with noise
        rng = np.random.default_rng(70 + 10 * n + m)
        x = grid_coords(n, m)
        idx = np.indices((m,) * n).sum(axis=0)
        spike = np.zeros((m,) * n)
        spike[(m // 3,) * n] = 2.5
        smooth = np.sin(x @ rng.normal(size=n)) + x[..., 0] ** 3
        fields = {
            "constant": np.full((m,) * n, 0.7),
            "spike": spike,
            "checkerboard": np.where(idx % 2 == 0, 1.0, -1.0),
            "ramp": x @ np.linspace(1.0, 0.2, n),
            "noisy": smooth + 1e-3 * rng.normal(size=smooth.shape),
        }
        h = 2.0 / (m - 1)
        small = m**n <= 1000  # the pair oracle's limit
        reference = brute_holder_quotient if small else every_offset_holder_quotient
        expect = {}
        for kind, field in fields.items():
            expect[kind] = reference(field, h, alpha)
            assert holder_quotient(field[None], h, alpha) == expect[kind], kind
            if small:  # the reference for larger grids agrees with the oracle
                assert every_offset_holder_quotient(field, h, alpha) == expect[kind], kind
        # in a stack the running maximum carries over between fields; the
        # gentle ramp has the largest spread, so it is swept first
        extra = [0.2 * fields["checkerboard"], 8.0 * fields["ramp"]]
        stack = np.stack([*extra, *fields.values()])
        assert holder_quotient(stack, h, alpha) == max(
            *(reference(f, h, alpha) for f in extra), *expect.values())

    @pytest.mark.parametrize("n, m", [(2, 33), (3, 17), (4, 9)])
    def test_cached_passes_match_passes_built_anew(self, n, m):
        # the table of passes cached per (shape, h, alpha) is the table built
        # anew for those keys, and the quotient is the same float on a cache
        # hit as after the cache is cleared: on a real stack of second
        # differences and its interior, and on the zero stacks of iteration 0
        rng = np.random.default_rng(60 + n)
        w = ScalarGrid(n, m, _surrogate_fields("ramp", n, m, 1, rng)[0] ** 3)
        second = second_differences(w)[0]
        inner = second[(slice(None),) + (slice(1, -1),) * n]
        for stack in (second, inner, np.zeros_like(second), np.zeros_like(inner[:1])):
            for alpha in (0.25, 0.5):
                grids._holder_passes.cache_clear()
                first = holder_quotient(stack, w.h, alpha)
                for shape in (second.shape[1:], inner.shape[1:]):
                    for a in (0.25, 0.5):
                        assert grids._holder_passes(shape, w.h, a) == \
                            grids._holder_passes.__wrapped__(shape, w.h, a)
                assert holder_quotient(stack, w.h, alpha) == first
        assert holder_quotient(second, w.h, 0.5) > 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_quotient_skips_off_direction_pairs(self, n):
        # the spikes differ by 2 at index offset (1, 2, 0, ...), which lies
        # along no axis or full diagonal; the largest quotient left is a
        # spike against a zero neighbour one step away
        m = 9
        h = 2.0 / (m - 1)
        v = np.zeros((m,) * n)
        v[(4,) * n] = 1.0
        v[(5, 6) + (4,) * (n - 2)] = -1.0
        assert holder_quotient(v[None], h, 0.5) == 1.0 / h**0.5

    @pytest.mark.parametrize("kind", ["noise", "ramp"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_c2alpha_matches_all_pairs(self, n, kind):
        rng = np.random.default_rng(30 + n)
        m = 9
        # a cubic in x1 has a Hessian entry that ramps along x1
        w = ScalarGrid(n, m, _surrogate_fields(kind, n, m, 1, rng)[0] ** 3)
        hess, grad = hessian_of(w)
        sup = max(float(np.max(np.abs(w.values))), float(np.max(np.abs(grad))),
                  float(np.max(np.abs(hess))))
        quot = max(brute_holder_quotient(hess[..., a, b], w.h, 0.5)
                   for a in range(n) for b in range(a, n))
        assert c2alpha_surrogate(w, 0.5) == sup + quot

    @pytest.mark.parametrize("n, m", [(2, 33), (3, 17), (4, 9), (5, 9)])
    def test_c2alpha_matches_the_stack(self, n, m):
        # formed one component at a time, the surrogate is the float the
        # whole second-difference stack gives: smooth and noisy fields, a
        # constant, a quadratic and fields with a NaN or an inf
        rng = np.random.default_rng(90 + n)
        x = grid_coords(n, m)
        smooth = np.sin(x @ rng.normal(size=n)) + x[..., 0] ** 3
        fields = [smooth, smooth + 1e-3 * rng.normal(size=smooth.shape),
                  np.full(smooth.shape, 0.3), 0.5 * np.sum(x**2, axis=-1),
                  _surrogate_fields("tilt", n, m, 1, rng)[0]]
        for bad in (np.nan, np.inf):
            spoiled = smooth.copy()
            spoiled[(m // 2,) * n] = bad
            fields.append(spoiled)
        for values in fields:
            w = ScalarGrid(n, m, values)
            for alpha in (0.25, 0.5):
                got, expect = c2alpha_surrogate(w, alpha), c2alpha_from_the_stack(w, alpha)
                assert _bits(got) == _bits(expect)

    @pytest.mark.parametrize("kind", ["noise", "ramp"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_calpha_interior_slab_matches_masked(self, n, kind):
        rng = np.random.default_rng(40 + n)
        m = 9
        values = _surrogate_fields(kind, n, m, 1, rng)[0]
        h = 2.0 / (m - 1)
        inner = ~boundary_mask(n, m)
        expect = (float(np.max(np.abs(values[inner])))
                  + brute_holder_quotient(values, h, 0.5, mask=inner))
        assert calpha_surrogate(values, h, 0.5) == expect


class TestGridIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        values = rng.normal(size=(9, 9))
        axes = [np.linspace(-1, 1, 9)] * 2
        path = tmp_path / "grid.csv"
        write_grid_csv(path, values, axes)
        coords, flat = read_grid_csv(path)
        assert flat.shape == (81,)
        assert np.array_equal(flat.reshape(9, 9), values)
        assert coords[0, 0] == -1.0

    def test_header_and_order_frozen(self, tmp_path):
        values = np.arange(81.0).reshape(9, 9)
        axes = [np.linspace(-1, 1, 9)] * 2
        path = tmp_path / "grid.csv"
        write_grid_csv(path, values, axes)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,value"
        assert lines[1] == "-1.0,-1.0,0.0"
        assert lines[2] == "-1.0,-0.75,1.0"  # last index varies fastest

    def test_matches_per_cell_writer(self, tmp_path):
        rng = np.random.default_rng(16)
        values = rng.normal(size=(9, 9, 9)) * 10.0 ** rng.integers(-20, 20, size=(9, 9, 9))
        values[0, 0, :3] = [-0.0, 0.0, 1e-300]
        axes = [0.25 * np.linspace(-1, 1, 9)] * 3
        write_grid_csv(tmp_path / "a.csv", values, axes)
        write_grid_csv_per_cell(tmp_path / "b.csv", values, axes)
        text = (tmp_path / "a.csv").read_bytes()
        assert text == (tmp_path / "b.csv").read_bytes()
        assert b"\n-0.25,-0.25,-0.25,-0.0\n" in text

    @staticmethod
    def repeated_value_field(kind, n, m):
        """Fields that repeat values, with the axes their CSV is written on."""
        rng = np.random.default_rng(17 + n)
        axes = [np.linspace(-1, 1, m)] * n
        if kind == "seed-quadratic":
            # u = eps^4 psi, psi = 1/2 sum tau_i x_i^2, as a solve stopped at
            # iteration 0 writes it (n = 2 has no seed: two of n = 3's tau)
            seed = seed_for_constant(2, max(n, 3), 3.0)
            psi = 0.5 * np.sum(seed.tau[:n] * grid_coords(n, m) ** 2, axis=-1)
            return seed.eps**4 * psi, [seed.eps**2 * ax for ax in axes]
        if kind == "zero":
            return np.zeros((m,) * n), axes
        if kind == "zero-boundary":
            values = rng.normal(size=(m,) * n)
            return np.where(boundary_mask(n, m), 0.0, values), axes
        specials = np.array([-0.0, 0.0, 5e-324, 1e-05, 1e16])
        return rng.choice(specials, size=(m,) * n), axes

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["seed-quadratic", "zero", "zero-boundary",
                                      "specials"])
    def test_repeated_values_match_per_cell_writer(self, tmp_path, kind, n):
        values, axes = self.repeated_value_field(kind, n, 9)
        assert len(np.unique(values)) < values.size  # values repeat
        write_grid_csv(tmp_path / "a.csv", values, axes)
        write_grid_csv_per_cell(tmp_path / "b.csv", values, axes)
        text = (tmp_path / "a.csv").read_bytes()
        assert text == (tmp_path / "b.csv").read_bytes()
        if kind == "specials":
            # -0.0 and 0.0 compare equal but keep their own text
            assert b",-0.0\n" in text and b",0.0\n" in text
            assert b",5e-324\n" in text and b",1e+16\n" in text

    @staticmethod
    def block_values(n, m):
        """Values one ``slabs`` block of the writer holds on a grid (m,)*n."""
        row = m ** (n - 1)
        block = grids.slabs(m, row * floattext._FORMAT_BYTES)[0]
        return (block.stop - block.start) * row

    @pytest.mark.parametrize("kind", ["fewer", "more"])
    @pytest.mark.parametrize("n, m", [(2, 129), (3, 33), (4, 9), (5, 9)])
    def test_block_rule_matches_per_cell_writer(self, tmp_path, n, m, kind):
        # fewer distinct patterns than a block holds makes the file one
        # block, more keeps the slabs blocks; rows 2 and 3 repeat row 1
        rng = np.random.default_rng(90 + n)
        block = self.block_values(n, m)
        pool = rng.normal(size=block // 2 if kind == "fewer" else 4 * m**n)
        pool[:2] = [-0.0, 0.0]
        values = rng.choice(pool, size=(m,) * n)
        values[(0,) * n], values[(1,) + (0,) * (n - 1)] = -0.0, 0.0
        values[2] = values[3] = values[1]
        assert (len(np.unique(values.view(np.int64))) > block) == (kind == "more")
        axes = [axis_coords(m)] * n
        write_grid_csv(tmp_path / "a.csv", values, axes)
        write_grid_csv_per_cell(tmp_path / "b.csv", values, axes)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @staticmethod
    def count_formatting(monkeypatch) -> list[int]:
        """Patch ``grids._repr_part`` to record the patterns of each call."""
        sizes = []
        part = grids._repr_part

        def counting(bits, texts):
            sizes.append(len(bits))
            part(bits, texts)

        monkeypatch.setattr(grids, "_repr_part", counting)
        return sizes

    def test_equal_rows_are_formatted_once(self, tmp_path, monkeypatch):
        # one-row blocks: rows 2 and 3 equal row 1, so their blocks are
        # never formatted and the lines reuse row 1's texts
        n, m = 5, 9
        values = np.random.default_rng(91).normal(size=(m,) * n)
        values[2] = values[3] = values[1]
        sizes = self.count_formatting(monkeypatch)
        axes = [axis_coords(m)] * n
        write_grid_csv(tmp_path / "a.csv", values, axes)
        assert sum(sizes) == (m - 2) * m ** (n - 1)
        write_grid_csv_per_cell(tmp_path / "b.csv", values, axes)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @staticmethod
    def seed_quadratic_at_n4_m17():
        """u = eps^4 psi of the const-three, l = full seed at n = 4, m = 17,
        as a solve stopped at iteration 0 writes it, with its axes."""
        seed = seed_for_constant(2, 4, 3.0, l="full")
        return (seed.eps**4 * seed.psi(grid_coords(4, 17)),
                [seed.eps**2 * axis_coords(17)] * 4)

    def test_few_patterns_formatted_once_per_file(self, tmp_path, monkeypatch):
        values, axes = self.seed_quadratic_at_n4_m17()
        distinct = len(np.unique(values.view(np.int64)))
        assert distinct <= self.block_values(4, 17)  # at most one row's worth
        sizes = self.count_formatting(monkeypatch)
        write_grid_csv(tmp_path / "u.csv", values, axes)
        assert sum(sizes) == distinct
        assert len(sizes) == -(-distinct // 4096)  # one call per 4,096 patterns, not per row

    def test_one_pattern_more_keeps_row_blocks(self, tmp_path, monkeypatch):
        # 4,914 distinct patterns, one more than a row holds, in cycles: each
        # row is formatted apart, 4,913 patterns a row
        pool = np.random.default_rng(92).normal(size=self.block_values(4, 17) + 1)
        values = np.resize(pool, (17,) * 4)
        sizes = self.count_formatting(monkeypatch)
        write_grid_csv(tmp_path / "w.csv", values, [axis_coords(17)] * 4)
        assert sum(sizes) == 17 * 17**3

    def test_writer_peak_on_repeated_values(self, tmp_path):
        """tracemalloc peak of writing the seed quadratic at n = 4, m = 17:
        1,125,729 bytes with numpy 2.4 for the writer that formatted each
        row's patterns apart, the bound; about 1,103,000 for one block."""
        values, axes = self.seed_quadratic_at_n4_m17()
        path = tmp_path / "u.csv"
        write_grid_csv(path, values, axes)  # the tables and layouts are cached
        tracemalloc.start()
        try:
            write_grid_csv(path, values, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_125_729

    @staticmethod
    def assert_repr(values):
        """``grids._repr_texts`` gives ``repr``'s text of every value."""
        bits = np.asarray(values, dtype=np.float64).view(np.int64)
        texts = grids._repr_texts(bits)
        assert texts.dtype == object
        assert texts.tolist() == [repr(v) for v in bits.view(np.float64).tolist()]

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(24)
        bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                            size=200_000, dtype=np.int64, endpoint=True)
        self.assert_repr(bits.view(np.float64))

    def test_scaled_normals(self):
        rng = np.random.default_rng(25)
        self.assert_repr(rng.normal(size=200_000) * 10.0 ** rng.uniform(-20, 20, size=200_000))

    # drawn floats padded to _FAST_MIN patterns, so that the fast path runs
    PAD = np.random.default_rng(26).normal(size=floattext._FAST_MIN).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_floats(self, floats):
        self.assert_repr(floats + self.PAD)

    def test_edge_values(self):
        tiny = np.nextafter(0.0, 1.0)
        smallest_normal = np.finfo(np.float64).tiny
        largest = np.finfo(np.float64).max
        tens = [10.0**30, 10.0**-30]
        edges = [0.0, -0.0, np.nan, np.inf, -np.inf, tiny, np.nextafter(smallest_normal, 0.0),
                 smallest_normal, largest, -largest, 1e-4, 1e-5, 1e16, 9999999999999998.0,
                 2.0**53 - 1, 2.0**53, 2.0**53 + 1, 2.0**53 + 2]
        edges += [np.nextafter(t, d) for t in tens for d in (0.0, np.inf)] + tens
        edges += [2.0**e for e in range(-1074, 1024)]
        edges += [float(i) for i in range(-4096, 4097)]
        self.assert_repr(edges + [-v for v in edges])

    def test_fast_path_decides_almost_every_value(self):
        """A fast path that quietly stopped deciding would still give repr's
        texts: under 1 % of a normal field's values may be declined."""
        rng = np.random.default_rng(27)
        patterns = np.unique(rng.normal(size=(17,) * 4).view(np.int64))
        fast, texts = floattext._fast_texts(patterns)
        assert len(fast) == len(texts) > 0.99 * len(patterns)

    def test_fallback_alone_gives_per_cell_bytes(self, tmp_path, monkeypatch):
        declined = []

        def decline_all(bits):
            declined.append(len(bits))
            return np.empty(0, dtype=np.intp), []

        monkeypatch.setattr(floattext, "_fast_texts", decline_all)
        rng = np.random.default_rng(28)
        values = rng.normal(size=(17,) * 3) * 10.0 ** rng.integers(-20, 20, size=(17,) * 3)
        axes = [np.linspace(-1, 1, 17)] * 3
        write_grid_csv(tmp_path / "a.csv", values, axes)
        write_grid_csv_per_cell(tmp_path / "b.csv", values, axes)
        assert sum(declined) == values.size
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("n, m, rhs, l", [(3, 9, "linear-y1-plus-y2", None),
                                              (4, 9, "const-three", "full")])
    def test_solve_files_match_per_cell_writer(self, tmp_path, monkeypatch, n, m, rhs, l):
        # the solve writes each file under a temporary name, w.csv first, so
        # the per-cell copies are numbered in the order of the calls
        cells = []

        def both_writers(path, values, axes):
            write_grid_csv(path, values, axes)
            cells.append(tmp_path / f"{len(cells)}.cell")
            write_grid_csv_per_cell(str(cells[-1]), values, axes)

        monkeypatch.setattr(cli, "write_grid_csv", both_writers)
        doc = PRESETS["fzero-linear"] | {"n": n, "k": 2, "rhs": rhs, "l": l, "grid": {"m": m}}
        cli.run_solve(ProblemConfig.from_dict(doc), out_dir=str(tmp_path))
        assert len(cells) == 2
        for name, cell in zip(("w.csv", "u.csv"), cells):
            text = (tmp_path / name).read_bytes()
            assert text == cell.read_bytes()
            assert text.count(b"\n") == m**n + 1

    def test_writer_peak_at_n4_m17(self, tmp_path):
        """tracemalloc peak of writing 17^4 distinct values: 1,418,378 bytes
        (1.35 MiB) with numpy 2.4, against 1,487,267 (1.42 MiB) for the
        writer that called repr per pattern, the bound."""
        values = np.random.default_rng(24).normal(size=(17,) * 4)
        axes = [axis_coords(17)] * 4
        path = tmp_path / "w.csv"
        write_grid_csv(path, values, axes)  # the tables and layouts are cached
        tracemalloc.start()
        try:
            write_grid_csv(path, values, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_487_267
