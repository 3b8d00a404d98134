import copy
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from khessian.cli import run_solve
from khessian.config import ProblemConfig
from khessian.errors import DomainError, TuningError
from khessian.grids import M_MIN, ScalarGrid, c2alpha_surrogate, grid_coords, hessian_of
from khessian.iterate import (
    STATUS_CONVERGED,
    STATUS_ELLIPTICITY_LOST,
    STATUS_MAX_ITER,
    IterationRecord,
    _newton_step,
    _stop_reason,
    assemble_solution,
    certify_convexity,
    newton_loop,
    residual_floor,
    tune_epsilon,
)
from khessian.pde import assemble_linearized, eval_G, sk_of_matrix
from khessian.presets import PRESETS
from khessian.rhs import RhsSpec, RhsTerm, manufactured_field, tabulated_rhs_from_hessian
from khessian.seeds import (
    seed_for_constant,
    seed_for_negative,
    seed_for_positive,
    seed_for_zero,
)
from oracles import (
    boundary_mask,
    c2alpha_from_the_stack,
    convexity_minima_at_every_point,
    halving_tune,
    total_hessian_by_matrices,
)


class TestTuneEpsilon:
    def test_matching_constant_accepts_first_eps(self, monkeypatch):
        seed = seed_for_positive(2, 3, 3.0, l="full")
        f = RhsSpec.constant(3, 3.0)

        def no_step(*args, **kwargs):
            raise AssertionError("a residual on the roundoff floor needs no step")

        monkeypatch.setattr("khessian.iterate.assemble_linearized", no_step)
        tuned, refused, _ = tune_epsilon(seed, f, 9)
        assert tuned.eps == 0.5
        assert refused == []

    def test_acceptance_is_monotone(self):
        # whenever some eps passes the residual bound, half of it passes too
        seed = seed_for_zero(2, 3, 0.5)
        f = RhsSpec(n=3, terms=[RhsTerm(1.0, (1, 0, 0)), RhsTerm(1.0, (0, 1, 0))])
        tuned, _, _ = tune_epsilon(seed, f, 9)
        assert tuned.eps <= 0.5
        halved, refused, _ = tune_epsilon(seed.with_eps(tuned.eps / 2), f, 9)
        assert halved.eps == tuned.eps / 2
        assert refused == []

    def test_eps_prime_recomputed(self):
        seed = seed_for_zero(2, 3, 0.5)
        f = RhsSpec(n=3, terms=[RhsTerm(1.0, (1, 0, 0))])
        tuned, _, _ = tune_epsilon(seed, f, 9)
        assert tuned.eps_prime == pytest.approx(tuned.eps**0.5)

    def test_box_violation_rejects_candidate(self, tmp_path):
        # at n = 4 the c < 0 seed leaves the rhs box at eps = 0.5 (|p| = 1.02)
        doc = copy.deepcopy(PRESETS["fzero-linear"])
        doc.update(n=4, k=2, rhs="const-neg-one", grid={"m": 9})
        art = run_solve(ProblemConfig.from_dict(doc), out_dir=str(tmp_path))
        assert art.report.converged
        assert art.report.seed["eps"] == 0.25
        assert [a["eps"] for a in art.report.aborted_attempts] == [0.5]
        assert art.report.aborted_attempts[0]["iterations"] == []
        assert art.report.aborted_attempts[0]["reason"].startswith(
            "(u, p) arguments leave the declared box")


# (n, k, rhs) of each problem tuned against plain halving on the solve's grid
_TUNING_CASES = {
    "fzero-n3-k2": (3, 2, "linear-y1-plus-y2"),
    "fzero-n4-k2": (4, 2, "linear-y1-plus-y2"),
    "fzero-n4-k3": (4, 3, "linear-y1-plus-y2"),
    # the coarsest grid accepts 1/2 at k = 3, the box refuses it at m = 17
    "neg-one-n4-k2": (4, 2, "const-neg-one"),
    "neg-one-n4-k3": (4, 3, "const-neg-one"),
    # the linear solve fails at the large eps
    "y1-600p1sq": (3, 2, {"terms": [{"coeff": 1.0, "y": [1, 0, 0]},
                                    {"coeff": 600.0, "p": [2, 0, 0]}]}),
    "three-u-p1": (3, 2, {"terms": [{"coeff": 3.0}, {"coeff": 1.0, "u": 1, "p": [1, 0, 0]}]}),
}


def _tuning_problem(n: int, k: int, rhs):
    doc = copy.deepcopy(PRESETS["fzero-linear"])
    doc.update(n=n, k=k, rhs=rhs)
    f = ProblemConfig.from_dict(doc).f
    return seed_for_constant(k, n, f.value_at_origin()), f


def _assert_tuned_alike(got, expected, m: int) -> None:
    """The same eps, start record and rho bits as plain halving on grid m;
    the coarsest grid's refusals first, and each of grid m's equal to the
    reference's record for its eps."""
    (seed, refused, (record, rho)), (seed0, refused0, (record0, rho0)) = got, expected
    assert seed.to_dict() == seed0.to_dict()
    assert record.to_dict() == record0.to_dict()
    assert (rho is None) == (rho0 is None)
    if rho is not None:
        assert rho.values.tobytes() == rho0.values.tobytes()
    grids_tried = [r["m"] for r in refused]
    assert grids_tried == sorted(grids_tried) and set(grids_tried) <= {M_MIN, m}
    by_eps = {r["eps"]: r for r in refused0}
    assert all(r == by_eps[r["eps"]] for r in refused if r["m"] == m)


def _count_eval_G(monkeypatch) -> list[int]:
    """The m of every grid ``iterate.eval_G`` evaluates on from now on."""
    import khessian.iterate as iterate

    grids_evaluated, eval_G = [], iterate.eval_G

    def counted(w, *args):
        grids_evaluated.append(w.m)
        return eval_G(w, *args)

    monkeypatch.setattr(iterate, "eval_G", counted)
    return grids_evaluated


class TestCoarsestGridFirst:
    @pytest.mark.parametrize("m", [M_MIN, 17])
    @pytest.mark.parametrize("case", sorted(_TUNING_CASES))
    def test_same_result_as_plain_halving(self, case, m):
        seed, f = _tuning_problem(*_TUNING_CASES[case])
        got, expected = tune_epsilon(seed, f, m), halving_tune(seed, f, m)
        _assert_tuned_alike(got, expected, m)
        if m == M_MIN:  # nothing runs before the solve's own grid
            assert got[1] == expected[1]

    @pytest.mark.parametrize("n, k, m, eps", [(3, 2, 33, 1 / 32), (4, 2, 17, 1 / 16)])
    def test_two_candidates_on_the_solve_grid(self, monkeypatch, n, k, m, eps):
        # plain halving runs 5 (n = 3) and 4 (n = 4) candidates on grid m
        grids_evaluated = _count_eval_G(monkeypatch)
        seed, f = _tuning_problem(n, k, "linear-y1-plus-y2")
        tuned, refused, _ = tune_epsilon(seed, f, m)
        assert tuned.eps == eps
        assert grids_evaluated.count(m) == 2
        coarse = [r for r in refused if r["m"] == M_MIN]
        assert grids_evaluated.count(M_MIN) == len(coarse) + 1
        assert [r["eps"] for r in coarse] == [0.5, 0.25, 0.125]

    @pytest.mark.parametrize("how", ["double-accepted", "coarsest-refuses-all"])
    def test_fallback_is_plain_halving(self, monkeypatch, how):
        import khessian.iterate as iterate

        halve = iterate._halve

        def forced(seed, f, m, eps, tol_newton, tol_lin, refused):
            if m != M_MIN:
                return halve(seed, f, m, eps, tol_newton, tol_lin, refused)
            if how == "coarsest-refuses-all":
                refused.append({"eps": eps, "m": m, "reason": "forced", "iterations": []})
                raise TuningError("forced", diagnostics=refused)
            # a start far below the solve grid's eps, so that grid accepts 2e too
            candidate, *rest = halve(seed, f, m, eps, tol_newton, tol_lin, refused)
            return (candidate.with_eps(candidate.eps / 4), *rest)

        monkeypatch.setattr(iterate, "_halve", forced)
        grids_evaluated = _count_eval_G(monkeypatch)
        seed, f = _tuning_problem(3, 2, "linear-y1-plus-y2")
        got = tune_epsilon(seed, f, 17)
        monkeypatch.undo()
        expected = halving_tune(seed, f, 17)
        _assert_tuned_alike(got, expected, 17)
        coarse = [r for r in got[1] if r["m"] == M_MIN]
        assert coarse and got[1] == coarse + expected[1]
        plain = len(expected[1]) + 1
        assert grids_evaluated.count(17) == plain + (2 if how == "double-accepted" else 0)


class TestNewtonLoop:
    def test_trivial_convergence_at_zero(self):
        seed = seed_for_positive(2, 3, 3.0, l="full")
        f = RhsSpec.constant(3, 3.0)
        w, report = newton_loop(seed, f, 9)
        assert report.status == STATUS_CONVERGED
        assert len(report.iterations) == 1
        assert np.max(np.abs(w.values)) == 0.0

    def test_manufactured_recovery(self):
        seed = seed_for_zero(2, 3, 0.5).with_eps(1 / 16)
        m = 17
        w_star, hess = manufactured_field(3, m, 0.05)
        f = tabulated_rhs_from_hessian(seed, hess)
        w, report = newton_loop(seed, f, m)
        assert report.status == STATUS_CONVERGED
        assert len(report.iterations) <= 7
        assert np.max(np.abs(w.values - w_star)) < 5e-4
        assert report.iterations[-1].g_inf <= 1e-9

    def test_residual_monotone_after_first_step(self):
        seed = seed_for_zero(2, 3, 0.5).with_eps(1 / 16)
        m = 17
        _, hess = manufactured_field(3, m, 0.05)
        f = tabulated_rhs_from_hessian(seed, hess)
        _, report = newton_loop(seed, f, m)
        g = [r.g_inf for r in report.iterations]
        assert all(b < a for a, b in zip(g[1:], g[2:]))

    def test_quadratic_ratio_bounded(self):
        seed = seed_for_zero(2, 3, 0.5).with_eps(1 / 16)
        m = 17
        _, hess = manufactured_field(3, m, 0.05)
        f = tabulated_rhs_from_hessian(seed, hess)
        _, report = newton_loop(seed, f, m)
        floor = 10.0 * report.floor_estimate
        usable = [
            q for q, rec in zip(report.quadratic_ratios, report.iterations[1:])
            if rec.g_inf > floor
        ]
        assert usable
        med = float(np.median(usable))
        assert all(q <= 10.0 * med + 1e-30 for q in usable)

    def test_iterate_norm_stays_below_one(self):
        # only the returned iterate's record carries its surrogate; the
        # records between w_0 = 0 and it hold None
        seed = seed_for_zero(2, 3, 0.5).with_eps(1 / 16)
        m = 17
        _, hess = manufactured_field(3, m, 0.05)
        f = tabulated_rhs_from_hessian(seed, hess)
        w, report = newton_loop(seed, f, m)
        first, *between, last = report.iterations
        assert report.converged and between
        assert first.w_c2alpha == 0.0
        assert all(r.w_c2alpha is None for r in between)
        assert last.w_c2alpha == c2alpha_surrogate(w, seed.alpha) <= 1.0

    def test_untuned_eps_stops_at_refused_step(self):
        # at eps 1/2 the first correction leaves the unit ball, and no
        # surrogate stops the loop: w_1's residual fails the margin test, so
        # the loop keeps its eps and stops at iteration 1's refused step
        seed = seed_for_zero(2, 3, 0.5)
        assert seed.eps == 0.5
        f = RhsSpec(n=3, terms=[RhsTerm(1.0, (1, 0, 0)), RhsTerm(1.0, (0, 1, 0))])
        _, report = newton_loop(seed, f, 9)
        assert report.status == STATUS_ELLIPTICITY_LOST
        assert report.stop_reason.startswith("dominance margin dropped")
        assert report.seed["eps"] == 0.5
        assert [r.iteration for r in report.iterations] == [0, 1]
        # w_1 = 0 + rho_0, so the loop reuses iteration 0's surrogate
        first, last = report.iterations
        assert last.w_c2alpha == first.rho_c2alpha > 1.0
        assert last.lin_steps is None
        assert report.aborted_attempts == []

    def test_loop_measures_one_surrogate(self, monkeypatch):
        # a tuned loop of four records measures the surrogate once, on the
        # iterate it returns; the start's iteration 0 measured its own
        import khessian.iterate as iterate

        doc = copy.deepcopy(PRESETS["fzero-linear"])
        doc.update(n=4, k=3, grid={"m": 9})
        f = ProblemConfig.from_dict(doc).f
        seed, _, start = tune_epsilon(seed_for_constant(3, 4, f.value_at_origin()), f, 9)
        surrogate, measured = iterate.c2alpha_surrogate, []

        def counted(grid, alpha):
            measured.append(grid)
            return surrogate(grid, alpha)

        monkeypatch.setattr(iterate, "c2alpha_surrogate", counted)
        w, report = newton_loop(seed, f, 9, start=start)
        assert report.converged and len(report.iterations) == 4
        assert len(measured) == 1 and measured[0] is w
        assert report.iterations[-1].w_c2alpha == surrogate(w, seed.alpha)

    def test_stop_reason_reads_the_reported_floor(self):
        # the floor test is ten times the report's floor_estimate, which no
        # surrogate scales
        seed = seed_for_zero(2, 3, 0.5).with_eps(1 / 16)
        f = RhsSpec(n=3, terms=[RhsTerm(1.0, (1, 0, 0)), RhsTerm(1.0, (0, 1, 0))])
        _, report = newton_loop(seed, f, 9)
        bound = 10.0 * report.floor_estimate
        on = IterationRecord(iteration=2, g_inf=bound)
        above = IterationRecord(iteration=2, g_inf=float(np.nextafter(bound, np.inf)),
                                w_c2alpha=1e6)
        assert _stop_reason(on, seed, 9, 0.0) == "residual_floor"
        assert _stop_reason(above, seed, 9, 0.0) is None

    def test_tuning_halves_through_refused_eps(self, tmp_path):
        # the same f through the pipeline: tuning refuses the large eps and
        # the loop converges at the accepted one
        doc = copy.deepcopy(PRESETS["fzero-linear"])
        doc["grid"]["m"] = 9
        art = run_solve(ProblemConfig.from_dict(doc), out_dir=str(tmp_path))
        report = art.report
        assert report.converged
        refused = [a["eps"] for a in report.aborted_attempts]
        assert refused == [0.5 * 0.5**i for i in range(len(refused))]
        assert refused and report.seed["eps"] == refused[-1] / 2
        for attempt in report.aborted_attempts:
            (record,) = attempt["iterations"]
            assert record["rho_c2alpha"] > 0.25
            assert attempt["reason"] == f"c2alpha(rho) {record['rho_c2alpha']:.3g} > 0.25"
        assert all(r.lin_steps is not None for r in report.iterations[:-1])

    @staticmethod
    def _count_differences(monkeypatch, log):
        """Record each slab differencing of w as (caller module, interior
        rows): ``pde``'s for an evaluation, ``iterate``'s for a
        certificate.  A whole-grid ``second_differences`` is recorded as
        ("grids", None)."""
        import khessian.grids as grids
        import khessian.iterate as iterate
        import khessian.pde as pde

        slab, whole = grids.interior_differences, grids.second_differences

        def counted(module):
            def differences(values, h, rows):
                log.append((module.__name__.rpartition(".")[2], rows.stop - rows.start))
                return slab(values, h, rows)
            return differences

        def counted_whole(grid):
            log.append(("grids", None))
            return whole(grid)

        for module in (pde, iterate):
            monkeypatch.setattr(module, "interior_differences", counted(module))
        monkeypatch.setattr(grids, "second_differences", counted_whole)

    def test_each_iterate_evaluated_once(self, monkeypatch):
        # each evaluated iterate is differenced and each of its interior
        # points recursed once, one slab at a time, and w = 0 is never
        # differenced and recurses one matrix; the assembly differences
        # nothing and recurses nothing
        import khessian.iterate as iterate
        import khessian.pde as pde

        eval_G, minor_sums = pde.eval_G, pde.minor_sums
        assemble = pde.assemble_linearized
        evaluated, recursions, assembled, stage = [], [], [], [None]
        log = []

        def counted_eval_G(w, *args):
            evaluated.append(w)
            stage[0] = "eval_G"
            try:
                return eval_G(w, *args)
            finally:
                stage[0] = None

        def counted_assemble(*args):
            # (slabs differenced, recursions) while the assembly runs
            before = len(log), len(recursions)
            stage[0] = "assembly"
            try:
                return assemble(*args)
            finally:
                stage[0] = None
                assembled.append((len(log) - before[0], len(recursions) - before[1]))

        def counted_minor_sums(r, k):
            # (stage, evaluation, matrices recursed)
            recursions.append((stage[0], len(evaluated) - 1, math.prod(r.shape[:-2])))
            return minor_sums(r, k)

        self._count_differences(monkeypatch, log)
        monkeypatch.setattr(iterate, "eval_G", counted_eval_G)
        monkeypatch.setattr(iterate, "assemble_linearized", counted_assemble)
        monkeypatch.setattr(pde, "minor_sums", counted_minor_sums)
        f = RhsSpec(n=3, terms=[RhsTerm(1.0, (1, 0, 0)), RhsTerm(1.0, (0, 1, 0))])
        seed, _, _ = tune_epsilon(seed_for_zero(2, 3, 0.5), f, 9)
        stage[0] = "loop"  # the differencing and recursions of the loop alone
        log.clear()
        assembled.clear()
        w, report = newton_loop(seed, f, 9)
        assert report.converged and len(report.iterations) == 3
        assert len(evaluated) > 3
        nonzero = [w for w in evaluated if w.values.any()]
        assert 0 < len(nonzero) < len(evaluated)
        recursed = [0] * len(evaluated)
        for where, e, matrices in recursions:
            assert where in ("eval_G", "loop")  # the assembly recurses nothing
            if where == "eval_G":
                recursed[e] += matrices
        assert recursed == [7**3 if w.values.any() else 1 for w in evaluated]
        # in the loop: each nonzero iterate's 7 interior rows differenced
        # once by its evaluation and the converged w once more by its
        # certificate; each step's assembly differences nothing and
        # recurses nothing
        steps = sum(r.lin_steps is not None for r in report.iterations)
        rows = {key: sum(n for where, n in log if where == key) for key, _ in log}
        assert rows == {"pde": 7 * (len(report.iterations) - 1), "iterate": 7}
        assert assembled == [(0, 0)] * steps

    def test_iteration_zero_runs_once(self, tmp_path, monkeypatch):
        # the loop starts from tuning's iteration 0, and the solution is
        # certified from its own slab differences
        import khessian.iterate as iterate

        eval_G, tune = iterate.eval_G, iterate.tune_epsilon
        calls = {"eval_G": 0, "tuning": 0}
        log = []

        def counted_eval_G(*args):
            calls["eval_G"] += 1
            return eval_G(*args)

        def counted_tune(*args, **kwargs):
            before = calls["eval_G"]
            try:
                return tune(*args, **kwargs)
            finally:
                calls["tuning"] = calls["eval_G"] - before
                log.clear()

        monkeypatch.setattr(iterate, "eval_G", counted_eval_G)
        monkeypatch.setattr("khessian.cli.tune_epsilon", counted_tune)
        self._count_differences(monkeypatch, log)
        doc = copy.deepcopy(PRESETS["fzero-linear"])
        doc["grid"]["m"] = 9
        config = ProblemConfig.from_dict(doc)
        report = run_solve(config, out_dir=str(tmp_path)).report
        assert report.converged and len(report.iterations) > 1
        assert calls["tuning"] == len(report.aborted_attempts) + 1
        assert calls["eval_G"] == calls["tuning"] + len(report.iterations) - 1
        # after tuning, each iterate past iteration 0 is differenced once by
        # its evaluation, and the converged one once by its certificate;
        # nothing is differenced on the whole grid
        assert sum(n for where, n in log if where == "pde") == 7 * (len(report.iterations) - 1)
        assert sum(n for where, n in log if where == "iterate") == 7
        assert ("grids", None) not in log

        monkeypatch.undo()
        seed = seed_for_zero(2, 3, 0.5).with_eps(report.seed["eps"])
        w, alone = newton_loop(seed, config.f, 9)
        assert [r.to_dict() for r in alone.iterations] == [
            r.to_dict() for r in report.iterations]
        assert "g_holder" not in alone.iterations[0].to_dict()
        assert alone.convexity == report.convexity
        assert alone.convexity == certify_convexity(w.values, seed).to_dict()

    def test_iteration_zero_hands_its_derivatives_over(self, tmp_path, monkeypatch):
        # a constant f is solved by the seed: G(0) lies on the roundoff floor
        # and the loop stops at iteration 0.  w = 0 is never differenced, and
        # its certificate is handed None
        import khessian.iterate as iterate

        eval_G = iterate.eval_G
        certify = iterate.certify_convexity
        calls = {"eval_G": 0}
        handed, log = [], []

        def counted_eval_G(*args):
            calls["eval_G"] += 1
            return eval_G(*args)

        def recorded_certify(values, seed):
            handed.append(values)
            return certify(values, seed)

        monkeypatch.setattr(iterate, "eval_G", counted_eval_G)
        self._count_differences(monkeypatch, log)
        monkeypatch.setattr(iterate, "certify_convexity", recorded_certify)
        doc = copy.deepcopy(PRESETS["fconst-pos"])
        doc["grid"]["m"] = 9
        assert doc["rhs"] == "const-three"
        report = run_solve(ProblemConfig.from_dict(doc), out_dir=str(tmp_path)).report
        assert report.converged and len(report.iterations) == 1
        assert calls["eval_G"] == len(report.aborted_attempts) + 1
        assert log == []
        (values,) = handed
        assert values is None

    def test_iteration_zero_stops_at_tol_newton(self, tmp_path, monkeypatch):
        # f = 1e-10 (y1 + y2): G(0) lies between ten times the roundoff floor
        # and tol_newton, so iteration 0 meets the loop's stopping test and
        # neither tuning nor the loop assembles or solves a step
        import khessian.iterate as iterate

        calls = {"assemble": 0, "solve": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(iterate, "assemble_linearized",
                            counted("assemble", iterate.assemble_linearized))
        monkeypatch.setattr(iterate, "solve_dirichlet_info",
                            counted("solve", iterate.solve_dirichlet_info))
        doc = copy.deepcopy(PRESETS["fzero-linear"])
        doc["rhs"] = {"terms": [{"coeff": 1e-10, "y": [1, 0, 0]},
                                {"coeff": 1e-10, "y": [0, 1, 0]}]}
        doc["grid"]["m"] = 17
        config = ProblemConfig.from_dict(doc)
        report = run_solve(config, out_dir=str(tmp_path)).report
        assert calls == {"assemble": 0, "solve": 0}
        assert report.converged and report.stop_reason == "residual_tolerance"
        assert report.seed["eps"] == 0.5 and report.aborted_attempts == []
        (first,) = report.iterations
        assert 10.0 * report.floor_estimate < first.g_inf <= config.tol_newton
        assert first.lin_steps is None and first.rho_c2alpha is None

        _, alone = newton_loop(seed_for_zero(2, 3, 0.5), config.f, 17)
        assert calls == {"assemble": 0, "solve": 0}
        assert [r.to_dict() for r in alone.iterations] == [first.to_dict()]
        assert alone.stop_reason == "residual_tolerance"
        # tuning's step-free iteration 0 cannot start a loop that needs a step
        seed, _, start = tune_epsilon(seed_for_zero(2, 3, 0.5), config.f, 17)
        with pytest.raises(DomainError, match="misses this tol_newton"):
            newton_loop(seed, config.f, 17, tol_newton=1e-12, start=start)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_linear_solve_contracts(self, tmp_path, name):
        # each preset's linearizations are small perturbations of the seed's
        # operator: every solve, refused candidates' included, shrinks its
        # residual at each iteration; a record without a solve has none
        report = run_solve(ProblemConfig.from_dict(PRESETS[name]), out_dir=str(tmp_path)).report
        assert report.converged
        records = [r.to_dict() for r in report.iterations] + [
            r for a in report.aborted_attempts for r in a["iterations"]]
        solved = [r for r in records if r["lin_steps"] is not None]
        for r in records:
            if r["lin_steps"] is None:
                assert r["contraction"] is None
            else:
                assert 0.0 <= r["contraction"] < 1.0
        assert (len(solved) > 0) == (name == "fzero-linear")

    def test_floor_estimate_scales_like_inverse_h_squared(self):
        seed = seed_for_zero(2, 3, 0.5)
        assert residual_floor(seed, 17) / residual_floor(seed, 9) == pytest.approx(4.0)

    def test_surrogates_only_where_read(self, tmp_path, monkeypatch):
        # tuning's acceptance test reads each candidate correction's
        # surrogate, and w_1's is iteration 0's; the loop measures the
        # returned iterate's alone, once it is w_2 or later.  No residual's
        # Hoelder norm is measured
        import sys

        import khessian.iterate as iterate

        surrogate, step, tune = (iterate.c2alpha_surrogate, iterate._newton_step,
                                 iterate.tune_epsilon)
        phase, counts, starts, hoelder = ["loop"], {"tuning": 0, "loop": 0, "steps": 0}, [], []

        def counted_surrogate(grid, alpha):
            counts[phase[0]] += 1
            return surrogate(grid, alpha)

        def counted_step(*args):
            rho, reason = step(*args)
            counts["steps"] += phase[0] == "tuning" and rho is not None
            return rho, reason

        def tuning(*args, **kwargs):
            phase[0] = "tuning"
            try:
                result = tune(*args, **kwargs)
            finally:
                phase[0] = "loop"
            starts.append(result[2][1])  # the loop empties the start list
            return result

        def recorded(name):
            return lambda *args: hoelder.append(name)

        monkeypatch.setattr(iterate, "c2alpha_surrogate", counted_surrogate)
        monkeypatch.setattr(iterate, "_newton_step", counted_step)
        monkeypatch.setattr("khessian.cli.tune_epsilon", tuning)
        for mod in [m for key, m in sys.modules.items() if key.startswith("khessian")]:
            for name in ("calpha_surrogate", "holder_quotient"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, recorded(name))
        config = ProblemConfig.from_dict(PRESETS["fzero-linear"])
        report = run_solve(config, out_dir=str(tmp_path)).report
        assert report.converged and len(report.iterations) >= 3
        assert counts["tuning"] == counts["steps"] > 1  # the coarsest grid's and grid m's
        assert counts["loop"] == (len(report.iterations) > 2)
        assert hoelder == []
        records = [r.to_dict() for r in report.iterations] + [
            r for a in report.aborted_attempts for r in a["iterations"]]
        assert all("g_holder" not in r for r in records)
        first, *later = report.iterations
        (rho,) = starts
        assert first.rho_c2alpha == surrogate(rho, report.seed["alpha"])
        assert all(r.rho_c2alpha is None for r in later)
        assert math.isfinite(report.iterations[-1].w_c2alpha)


def _physical_hessian(u: np.ndarray, seed) -> np.ndarray:
    """The Hessian of u in y = eps^2 x from u's second differences: those of
    the grid over [-1,1]^n divided by eps^4."""
    return hessian_of(ScalarGrid(u.ndim, len(u), u))[0] / seed.eps**4


class TestAssembleSolution:
    def test_zero_iterate_gives_seed_quadratic(self):
        seed = seed_for_positive(2, 3, 3.0, l="full")
        u = assemble_solution(ScalarGrid.zeros(3, 9), seed)
        x = grid_coords(3, 9)
        y = seed.eps**2 * x
        psi = 0.5 * np.sum(seed.tau * y**2, axis=-1)
        assert np.max(np.abs(u - psi)) < 1e-15
        assert np.allclose(_physical_hessian(u, seed)[4, 4, 4], np.diag(seed.tau))

    def test_affine_normalization(self):
        # u = eps^4 (psi + eps' (w - w(0) - x . Dw(0))) with w(0) = 0.3 + 0.05
        # and Dw(0) = 0.1 e_2: an error of 1e-12 in w(0) and of 1e-8 in Dw(0)
        # moves u by at most eps^4 eps' (1e-12 + 1e-8); at the centre the
        # gradient term vanishes, so there u pins w(0) alone to 1e-12
        seed = seed_for_zero(2, 3, 0.5)
        x = grid_coords(3, 9)
        w = ScalarGrid(
            3, 9,
            0.05 * np.prod(np.cos(np.pi * x / 2), axis=-1) + 0.3 + 0.1 * x[..., 1],
        )
        u = assemble_solution(w, seed)
        psi = 0.5 * np.sum(seed.tau * x**2, axis=-1)
        expect = seed.eps**4 * (psi + seed.eps_prime * (w.values - (0.3 + 0.05) - 0.1 * x[..., 1]))
        assert np.max(np.abs(u - expect)) <= seed.eps**4 * seed.eps_prime * (1e-12 + 1e-8)
        c = (4,) * 3
        assert abs(u[c] - expect[c]) <= seed.eps**4 * seed.eps_prime * 1e-12

    def test_center_hessian_identity(self):
        # second derivatives at the origin: seed diagonal plus scaled iterate
        seed = seed_for_zero(2, 3, 0.5)
        x = grid_coords(3, 9)
        w = ScalarGrid(3, 9, 0.05 * np.prod(np.cos(np.pi * x / 2), axis=-1))
        u = assemble_solution(w, seed)
        hw, _ = hessian_of(w)
        expect = np.diag(seed.tau) + seed.eps_prime * hw[4, 4, 4]
        assert np.allclose(_physical_hessian(u, seed)[4, 4, 4], expect)

    def test_physical_residual(self):
        # S_k of the assembled solution's Hessian minus f equals eps' times
        # the rescaled residual, pointwise
        seed = seed_for_zero(2, 3, 0.5).with_eps(1 / 16)
        m = 17
        _, hess = manufactured_field(3, m, 0.05)
        f = tabulated_rhs_from_hessian(seed, hess)
        w, report = newton_loop(seed, f, m)
        u = assemble_solution(w, seed)
        sk = sk_of_matrix(_physical_hessian(u, seed)[1:-1, 1:-1, 1:-1], 2)
        fvals = f.values[1:-1, 1:-1, 1:-1]
        resid = np.max(np.abs(sk - fvals))
        assert resid <= seed.eps_prime * max(report.iterations[-1].g_inf, 1e-9) * 1.01


class TestCertify:
    def test_zero_seed_certificate(self):
        seed = seed_for_zero(2, 3, 0.5)
        cert = certify_convexity(None, seed)
        assert cert.flags[1] is True
        assert cert.flags[3] is False

    def test_negative_seed_certificate(self):
        seed = seed_for_negative(2, 3, -1.0)
        cert = certify_convexity(None, seed)
        assert cert.flags[2] is False

    def test_equal_entry_all_flags(self):
        seed = seed_for_positive(2, 3, 3.0, l="full")
        cert = certify_convexity(None, seed)
        assert all(cert.flags[j] for j in (1, 2, 3))


class TestLoopCertifies:
    """The loop certifies a converged iterate itself, once, from its values
    (None at iteration 0), and no other stop is certified."""

    @staticmethod
    def _counted(monkeypatch):
        import khessian.iterate as iterate

        certify, given = iterate.certify_convexity, []

        def recorded(values, seed):
            given.append(values)
            return certify(values, seed)

        monkeypatch.setattr(iterate, "certify_convexity", recorded)
        return given

    @staticmethod
    def _tuned(n, k):
        """``fzero-linear`` at m = 9: its f, tuned seed and iteration 0."""
        f = _fzero_config(n, 9, k).f
        seed, _, start = tune_epsilon(seed_for_constant(k, n, f.value_at_origin()), f, 9)
        return f, seed, start

    def test_converged_loop_certifies_once(self, monkeypatch):
        f, seed, start = self._tuned(3, 2)
        given = self._counted(monkeypatch)
        w, report = newton_loop(seed, f, 9, start=start)
        assert report.converged and len(report.iterations) > 1
        (values,) = given
        assert values is w.values
        assert report.convexity == certify_convexity(w.values, seed).to_dict()

    def test_iteration_zero_stop_certifies_once_with_none(self, monkeypatch):
        config = ProblemConfig.from_dict(PRESETS["fconst-match"])
        f = config.f
        seed = seed_for_constant(config.k, config.n, f.value_at_origin(), l=config.l)
        given = self._counted(monkeypatch)
        _, report = newton_loop(seed, f, 9)
        assert report.converged and len(report.iterations) == 1
        assert given == [None]
        assert report.convexity == certify_convexity(None, seed).to_dict()

    def test_unconverged_stops_are_not_certified(self, monkeypatch):
        f, seed, _ = self._tuned(3, 2)
        given = self._counted(monkeypatch)
        _, capped = newton_loop(seed, f, 9, max_iter=1)
        assert capped.status == STATUS_MAX_ITER
        _, lost = newton_loop(seed_for_zero(2, 3, 0.5), f, 9)
        assert lost.status == STATUS_ELLIPTICITY_LOST
        assert given == []
        assert capped.convexity is None and lost.convexity is None

    @pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (4, 3)])
    def test_minima_match_every_point(self, n, k):
        f, seed, start = self._tuned(n, k)
        w, report = newton_loop(seed, f, 9, start=start)
        assert report.converged and w.values.any()
        hessian = total_hessian_by_matrices(hessian_of(w)[0], seed)
        expect = convexity_minima_at_every_point(hessian, k, ~boundary_mask(n, 9))
        got = report.convexity["min_values"]
        assert list(got) == [str(j) for j in expect]
        bits = np.array(list(got.values())).view(np.uint64)
        assert np.array_equal(bits, np.array(list(expect.values())).view(np.uint64))


def _fzero_config(n, m, k):
    doc = copy.deepcopy(PRESETS["fzero-linear"])
    doc.update(n=n, k=k)
    doc["grid"]["m"] = m
    return ProblemConfig.from_dict(doc)


class TestFiveDimensions:
    # n = 5 is the first dimension with k = 4; each solve takes about 1 s
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_fzero_linear_solves_and_certifies(self, tmp_path, k):
        report = run_solve(_fzero_config(5, 9, k), out_dir=str(tmp_path)).report
        assert report.converged and len(report.iterations) > 1
        # the certificate of f = y1 + y2: (k-1)-convex, not k-convex
        flags = report.convexity["flags"]
        assert all(flags[str(j)] for j in range(1, k))
        assert not flags[str(k)] and not flags[str(k + 1)]


class TestNonNegativeRhs:
    def test_sum_of_squares_is_k_convex_not_k_plus_one(self, tmp_path):
        # f = |y|^2 >= 0 with f(0) = 0, the regime between c = 0 and c > 0:
        # the c = 0 seed, and S_2 of the solution stays at f's minimum 0 to
        # rounding, so the certificate reads 2-convex, not 3-convex
        doc = copy.deepcopy(PRESETS["fzero-linear"])
        doc["rhs"] = {"terms": [{"coeff": 1.0, "y": [2, 0, 0]}, {"coeff": 1.0, "y": [0, 2, 0]},
                                {"coeff": 1.0, "y": [0, 0, 2]}]}
        doc["grid"]["m"] = 9
        report = run_solve(ProblemConfig.from_dict(doc), out_dir=str(tmp_path)).report
        assert report.converged and len(report.iterations) == 3
        assert report.seed["eps"] == 0.25
        assert [a["eps"] for a in report.aborted_attempts] == [0.5]
        cert = report.convexity
        assert cert["flags"] == {"1": True, "2": True, "3": False}
        assert abs(cert["min_values"]["2"]) <= cert["tol"]


class TestUPDependentRhs:
    """Right-hand sides with terms in u and in Du, solved end to end: the
    step's zeroth- and first-order fields enter every Newton step."""

    # (n, k, terms, c = f(0, 0, 0)); the README's row for c states the
    # certificate: c = 0 is (k-1)-convex, not (k+1)-convex, and c > 0 with
    # l = 1 is k-convex, not (k+1)-convex
    CASES = {
        "y1 + y2 + u": (3, 2, [{"coeff": 1.0, "y": [1, 0, 0]}, {"coeff": 1.0, "y": [0, 1, 0]},
                               {"coeff": 1.0, "u": 1}], 0.0),
        "3 + u p1": (3, 2, [{"coeff": 3.0}, {"coeff": 1.0, "u": 1, "p": [1, 0, 0]}], 3.0),
        "y1 + 0.2 u p2": (4, 3, [{"coeff": 1.0, "y": [1, 0, 0, 0]},
                                 {"coeff": 0.2, "u": 1, "p": [0, 1, 0, 0]}], 0.0),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_solves_certify_and_repeat(self, tmp_path, name):
        n, k, terms, c = self.CASES[name]
        doc = copy.deepcopy(PRESETS["fzero-linear"])
        doc.update(n=n, k=k, rhs={"terms": terms})
        doc["grid"]["m"] = 9
        config = ProblemConfig.from_dict(doc)
        f = config.f
        assert f.reads_u and f.value_at_origin() == c
        runs = [tmp_path / "first", tmp_path / "second"]
        reports = [run_solve(config, out_dir=str(out)).report for out in runs]
        assert all(report.converged for report in reports)
        convex, not_convex = (k - 1, k + 1) if c == 0.0 else (k, k + 1)
        flags = reports[0].convexity["flags"]
        assert all(flags[str(j)] for j in range(1, convex + 1))
        assert not flags[str(not_convex)]
        names = sorted(path.name for path in runs[0].iterdir())
        assert names == ["report.json", "u.csv", "u.json", "w.csv", "w.json"]
        assert names == sorted(path.name for path in runs[1].iterdir())
        for file in names:
            assert (runs[0] / file).read_bytes() == (runs[1] / file).read_bytes(), file


class TestMemory:
    """Traced peaks at n = 4, m = 17, k = 3: ``fzero-linear``'s f at
    eps = 1/16 and the manufactured iterate w of amplitude 1e-3, and a whole
    ``fzero-linear`` solve.  Full-grid pointwise data (n-by-n tensors at
    every grid point) would exceed the first two bounds, and an n-by-n
    stack of the whole interior with its transposed copy the third.  The
    bounds on ``eval_G``, the assembly, the certificate and the surrogate
    are below their peaks with a whole-grid second-difference stack and a
    whole-interior Newton tensor: 17.8, 20.8, 11.5 and 11.5 MiB with
    numpy 2.4."""

    MB = 2**20

    @staticmethod
    def _problem():
        f = _fzero_config(4, 17, 3).f
        seed = seed_for_constant(3, 4, f.value_at_origin()).with_eps(1 / 16)
        return seed, f, ScalarGrid(4, 17, manufactured_field(4, 17, 1e-3)[0])

    @classmethod
    def _peak(cls, fn):
        """fn's result and its traced peak in MiB."""
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] / cls.MB
        finally:
            tracemalloc.stop()

    def test_newton_step_keeps_interior_data(self, monkeypatch):
        # the residual keeps the stencil's entries of the interior and the
        # reduced margins, not the tensor and not w; f has no term in u or
        # p, so it keeps no derivative field; the assembly turns the
        # entries into fields in place (6.8 MiB traced for the residual,
        # 7.5 MiB at the assembly)
        import khessian.iterate as iterate

        seed, f, w = self._problem()
        assemble, seen = iterate.assemble_linearized, {}

        def traced_assemble(g, seed):
            sys = assemble(g, seed)
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            seen["entries"] = g.entries
            return sys

        monkeypatch.setattr(iterate, "assemble_linearized", traced_assemble)
        tracemalloc.start()
        try:
            g = eval_G(w, seed, f)
            assert g.entries.shape == (10,) + (15,) * 4
            assert not any(hasattr(g, name) for name in
                           ("tensor", "second", "grad", "iterate", *"yup"))
            assert g.zeroth is None and g.first is None
            rho, reason = _newton_step(g, seed, 1e-10, IterationRecord(0, 0.0, 0.0))
        finally:
            tracemalloc.stop()
        assert reason is None and rho is not None
        assert seen["entries"] is None
        assert seen["peak"] < 11 * self.MB

    @pytest.mark.parametrize("zero, bound", [(True, 4), (False, 9)])
    def test_eval_G_peak(self, zero, bound):
        # w, its differences and (y, u, p) live one slab at a time: at w = 0
        # the peak is G, f's interior values and a slab (3.4 MiB), at the
        # manufactured w G, the entries and a slab's tensors (6.8 MiB); the
        # whole-grid stack and interior tensor took 17.8 MiB
        seed, f, w = self._problem()
        if zero:
            w = ScalarGrid.zeros(4, 17)
        g, peak = self._peak(lambda: eval_G(w, seed, f))
        assert g.values.shape == (17,) * 4
        assert peak < bound

    def test_solution_and_certificate_peak(self):
        # the certificate differences w slab by slab: 2.1 MiB with u, where
        # a whole-grid stack took 11.5 MiB
        seed, _, w = self._problem()
        (cert, u), peak = self._peak(
            lambda: (certify_convexity(w.values, seed), assemble_solution(w, seed)))
        assert u.shape == (17,) * 4
        assert cert.flags[1] and not cert.flags[4]
        assert peak < 4

    def test_certificate_reads_the_hand_over(self, monkeypatch):
        # the certificate is handed w's values alone and differences them
        # itself, each interior row once, one slab at a time: no stack of
        # the whole grid and no Hessian of the whole interior is formed
        import khessian.grids as grids
        import khessian.iterate as iterate

        seed, _, w = self._problem()
        slab, hessian, log = grids.interior_differences, iterate.total_hessian, []

        def counted(values, h, rows):
            assert values is w.values
            log.append(rows.stop - rows.start)
            return slab(values, h, rows)

        def whole(grid):
            raise AssertionError("the grid was differenced whole")

        def shaped(second, seed):
            r = hessian(second, seed)
            log.append(r.shape)
            return r

        monkeypatch.setattr(iterate, "interior_differences", counted)
        monkeypatch.setattr(grids, "second_differences", whole)
        monkeypatch.setattr(iterate, "total_hessian", shaped)
        cert, peak = self._peak(lambda: certify_convexity(w.values, seed))
        assert cert.flags[1] and not cert.flags[4]
        rows = log[0::2]
        assert sum(rows) == 15 and len(rows) > 1
        assert all(shape == (n,) + (15,) * 3 + (4, 4) for n, shape in zip(rows, log[1::2]))
        assert peak < 3

    def test_assembly_and_surrogate_peaks(self):
        # beyond the residual, the assembly holds its fields and forms no
        # slab (3.0 MiB), where the tensor, the fields and whole-interior
        # margins took 14.0 MiB; the surrogate holds w's first differences
        # and one component (4.0 MiB, 11.5 MiB with the whole stack)
        seed, f, w = self._problem()
        g = eval_G(w, seed, f)
        sys, peak = self._peak(lambda: assemble_linearized(g, seed))
        assert sys.size == 15**4 and peak < 6
        norm, peak = self._peak(lambda: c2alpha_surrogate(w, seed.alpha))
        assert norm == c2alpha_from_the_stack(w, seed.alpha)
        assert peak < 6

    def test_zero_assembly_holds_no_entry_field(self):
        # at w = 0 with f free of u and p, every field is one point's: the
        # assembly holds the right-hand side, the operator's product and
        # padded grid, and the preconditioner's eigenvalues and two buffers
        # (2.58 MiB), where a copy of the entries and the +e_a fields took
        # 7.8 MiB and an interior centre field 2.97 MiB; one more interior
        # field would add 0.39 MiB
        seed, f, _ = self._problem()
        assert not f.reads_u and not f.reads_p
        g = eval_G(ScalarGrid.zeros(4, 17), seed, f)
        sys, peak = self._peak(lambda: assemble_linearized(g, seed))
        assert sys.matrix.nnz == (1 + 2 * 4) * 15**4  # no mixed offsets
        assert peak < 2.9

    def test_whole_solve_peak(self, tmp_path):
        config = _fzero_config(4, 17, 3)
        tracemalloc.start()
        try:
            report = run_solve(config, out_dir=str(tmp_path)).report
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak < 15 * self.MB  # 21.6 MiB with the stack and the tensor
        # 8.7 MiB, where a step that held 15 interior fields, copies of the
        # right-hand side and G's grid through the solve took 11.5 MiB
        assert peak < 10 * self.MB
        # nothing the size of the grid's coordinates (n m^n doubles) outlives
        # the solve
        assert retained < 4 * 17**4 * 8
