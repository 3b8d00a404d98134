import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from khessian import cone, verify
from khessian.cli import main
from khessian.cone import (
    Region,
    classify_boundaries,
    classify_boundary,
    garding_slack,
    in_gamma_k,
    in_gamma_tilde,
    in_garding_cone_sampled,
)
from khessian.errors import CapacityError, DomainError
from khessian.seeds import p2_example, sample_p2_points
from khessian.symfun import elem_sym, sigma_all, sigma_km1_row
import oracles
from oracles import (
    classify_boundary_per_point,
    cone_equivalence_sweep_whole_batch,
    descending_order_facts,
    garding_inequality_check,
    garding_inequality_sweep_whole_batch,
    identities_sweep_whole_batch,
    in_gamma_k_over_the_sigma_axis,
    in_garding_cone_sampled_every_row,
    maclaurin_sweep_whole_batch,
    p2_ellipticity_sweep_per_point,
    sample_in_cone_every_row,
)

GOLDEN = (1 + math.sqrt(5)) / 2

spectra4 = arrays(
    np.float64, (4,),
    elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


class TestMembership:
    def test_all_ones_inside(self):
        for n in (2, 3, 5):
            for k in range(1, n + 1):
                assert in_gamma_k(np.ones(n), k)
                assert in_garding_cone_sampled(np.ones(n), k)
                assert in_gamma_tilde(np.ones(n), k)

    def test_boundary_point_not_inside(self):
        # sigma_2 vanishes here; in floats it lands within a couple of ulps of
        # zero, so membership is tested with a roundoff-absorbing tolerance
        lam = [1.0, GOLDEN, -1.0 / GOLDEN]
        assert abs(elem_sym(lam, 2)) < 1e-14
        assert not in_gamma_k(lam, 2, tol=1e-12)

    def test_dominant_negative_entry_outside(self):
        assert not in_gamma_k([-10.0, 1.0, 1.0], 2)
        assert not in_garding_cone_sampled([-1.0, 0.0, 0.0], 1)

    def test_nesting(self):
        rng = np.random.default_rng(2)
        lam = rng.uniform(-3, 3, size=(4000, 4))
        for k in (3, 2):
            inside = in_gamma_k(lam, k)
            below = in_gamma_k(lam, k - 1)
            assert np.all(below[inside])

    def test_three_definitions_agree(self):
        rng = np.random.default_rng(9)
        for n, k in ((3, 2), (4, 3)):
            lam = rng.uniform(-3, 3, size=(3000, n))
            sig = sigma_all(lam, k)
            keep = np.all(np.abs(sig[:, 1:]) > 1e-9, axis=1)
            lam = lam[keep]
            a = in_gamma_k(lam, k)
            b = in_garding_cone_sampled(lam, k)
            c = in_gamma_tilde(lam, k)
            assert np.array_equal(a, b)
            assert np.array_equal(b, c)

    def test_tilde_guard(self):
        with pytest.raises(CapacityError):
            # artificially low guard by monkeypatching is avoided; instead use
            # the documented bound: C(n, l) sums stay tiny for n <= 4, so
            # exercise the error path via the module constant.
            from khessian import cone as cone_mod

            old = cone_mod._TILDE_GUARD
            cone_mod._TILDE_GUARD = 2
            try:
                in_gamma_tilde(np.ones(4), 3)
            finally:
                cone_mod._TILDE_GUARD = old

    @settings(max_examples=150, deadline=None)
    @given(spectra4)
    def test_gamma_tilde_never_wider(self, lam):
        # deleted-variable positivity implies plain membership by definition
        if in_gamma_tilde(lam, 2):
            assert in_gamma_k(lam, 2)


class TestClassify:
    def test_p2_example_values(self):
        verdict = classify_boundary([1.0, GOLDEN, -1.0 / GOLDEN], 2)
        assert verdict.kind is Region.BOUNDARY_P2
        assert abs(verdict.sigmas[3] + 1.0) < 1e-12
        assert verdict.ellipticity_row is not None
        assert min(verdict.ellipticity_row) > 0

    def test_p1_padded_zeros(self):
        verdict = classify_boundary([1.0, 1.0, 0.0, 0.0], 3)
        assert verdict.kind is Region.BOUNDARY_P1
        assert verdict.sigmas[2] == 1.0  # sigma_2 of two ones
        # deleted-variable row: zero on the positive slots, product elsewhere
        row = sigma_km1_row([1.0, 1.0, 0.0, 0.0], 3)
        assert np.allclose(row[:2], 0.0)
        assert np.allclose(row[2:], 1.0)

    def test_interior(self):
        assert classify_boundary([1.0, 1.0, 1.0], 2).kind is Region.INTERIOR

    def test_outside(self):
        verdict = classify_boundary([-1.0, -1.0, -1.0], 2)
        assert verdict.kind is Region.OUTSIDE
        assert verdict.margin < 0

    def test_k_equal_n_rejected(self):
        with pytest.raises(DomainError):
            classify_boundary([1.0, 1.0], 2)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
    def test_bad_tol_rejected(self, tol):
        # NaN compares false against every threshold, so it used to read an
        # interior point as Outside
        with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
            classify_boundary([1.0, 2.0, 3.0], 2, tol)
        with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
            in_gamma_k([1.0, 2.0, 3.0], 2, tol)

    def test_ambiguous_band(self):
        tol = 1e-9
        # sigma_k a bit above tol but within half a band of the threshold
        lam = np.array([1.0, GOLDEN, -1.0 / GOLDEN])
        nudged = classify_boundary(lam + np.array([0, 0, 0.7e-9 / GOLDEN]), 2, tol)
        assert nudged.ambiguous

    def test_constructed_p1_family(self):
        # k-1 positive entries padded with zeros: every sigma_j with j >= k
        # vanishes identically
        rng = np.random.default_rng(11)
        for n, k in ((4, 3), (5, 3), (5, 4)):
            for _ in range(50):
                lam = np.zeros(n)
                lam[: k - 1] = rng.uniform(0.2, 3.0, size=k - 1)
                sig = sigma_all(lam, n)
                assert np.all(np.abs(sig[k:]) < 1e-12)
                assert classify_boundary(lam, k).kind is Region.BOUNDARY_P1

    def test_sampled_p2_all_elliptic(self):
        rng = np.random.default_rng(4)
        pts = sample_p2_points(2, 4, 50, rng)
        for lam in pts:
            verdict = classify_boundary(lam, 2)
            assert verdict.kind is Region.BOUNDARY_P2
            assert min(verdict.ellipticity_row) > 0


def _classifier_cases(rng):
    """(lam batch, k, tol): random vectors, P1, P2 and Outside families and
    P2 points nudged into the ambiguous band, at n = 3..6."""
    cases = []
    for n in (3, 4, 5, 6):
        for k in range(1, n):
            cases.append((rng.uniform(-3.0, 3.0, size=(200, n)), k, 1e-9))
            p1 = np.zeros((40, n))
            p1[:, : k - 1] = rng.uniform(0.2, 3.0, size=(40, k - 1))
            cases.append((p1, k, 1e-9))
            cases.append((-rng.uniform(0.1, 3.0, size=(40, n)), k, 1e-9))
            if k >= 2:
                p2 = sample_p2_points(k, n, 40, rng)
                nudged = p2.copy()
                nudged[:, k] += rng.uniform(-1.0, 1.0, size=40) * 1e-9
                cases += [(p2, k, 1e-9), (nudged, k, 1e-9), (nudged, k, 1e-3), (p2, k, 0.0)]
    return cases


class TestBatchedClassifier:
    """``classify_boundaries`` gives every row the per-point verdict, field
    by field, and the P2 sweep classifies a block at a time with the
    reports, counterexamples and generator state of the per-point loop."""

    def test_rows_match_per_point_reference(self):
        kinds = set()
        ambiguous = 0
        for lam, k, tol in _classifier_cases(np.random.default_rng(12)):
            got = classify_boundaries(lam, k, tol)
            for i, row in enumerate(lam):
                want = classify_boundary_per_point(row, k, tol)
                assert got.verdict(i).to_dict() == want
                assert classify_boundary(row, k, tol).to_dict() == want
                kinds.add(want["kind"])
                ambiguous += want["ambiguous"]
        assert kinds == {region.value for region in Region} and ambiguous > 0

    @pytest.mark.parametrize("lam, k", [([1e200, -1e200, 0.0, 1.0], 2),
                                        ([1.0, 1e300, -1e300, -1.0], 2),
                                        ([1e300, -1.0, -1e300, 1.0], 3)])
    def test_overflowing_minor_sums_refused(self, capsys, lam, k):
        # a sigma overflows to an infinity or NaN: refused with one line and
        # no RuntimeWarning, never classified from a NaN or printed as one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="minor sums sigma_0..sigma_n overflow"):
                classify_boundaries(np.array([lam]), k, 1.0)
            code = main(["cone", "classify", f"--lambda={','.join(map(repr, lam))}",
                         "--k", str(k), "--tol", "1.0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "overflow" in captured.err

    def test_verdict_bits(self):
        rng = np.random.default_rng(13)
        lam = np.concatenate([sample_p2_points(2, 4, 30, rng),
                              rng.uniform(-3.0, 3.0, size=(30, 4))])
        got = classify_boundaries(lam, 2)
        for i, row in enumerate(lam):
            want = classify_boundary_per_point(row, 2)
            for name, field in (("sigmas", got.sigmas[i]), ("margin", got.margins[i])):
                assert np.array_equal(np.asarray(field).view(np.uint64),
                                      np.asarray(want[name]).view(np.uint64)), name
            p2 = want["kind"] == Region.BOUNDARY_P2.value
            assert got.of_kind(Region.BOUNDARY_P2)[i] == p2
            assert np.all(np.isnan(got.rows[i])) != p2

    def test_batch_shape_required(self):
        with pytest.raises(DomainError, match="batch"):
            classify_boundaries([1.0, 1.0, 1.0], 2)
        with pytest.raises(DomainError, match="single vector"):
            classify_boundary([[1.0, 1.0, 1.0]], 2)

    @pytest.mark.parametrize("samples", [1, 4, 37, "block + 1"])
    def test_sweep_matches_per_point_loop(self, monkeypatch, samples):
        monkeypatch.setattr(verify, "_BLOCK", 8)
        if samples == "block + 1":
            samples = 4 * (verify._BLOCK + 1)  # _BLOCK + 1 points per configuration
        drawn = []

        def recorded(k, n, count, rng):
            drawn.append((count, rng))
            return sample_p2_points(k, n, count, rng)

        monkeypatch.setattr(verify, "sample_p2_points", recorded)
        for seed in (1, 23):
            drawn.clear()
            got = verify.p2_ellipticity_sweep(samples, seed).to_dict()
            ref = np.random.default_rng(seed)
            assert got == p2_ellipticity_sweep_per_point(samples, ref).to_dict()
            assert got["passed"] and got["checked"] == 4 * max(1, samples // 4)
            assert max(count for count, _ in drawn) <= verify._BLOCK
            assert drawn[-1][1].bit_generator.state == ref.bit_generator.state

    def test_sweep_counterexamples_across_blocks(self, monkeypatch):
        # a wrong verdict for points whose first entry exceeds 1.09, about
        # one point in ten and several in each configuration: the same
        # failures and counterexamples, in the order of the per-point loop
        true = cone.classify_boundaries

        def wrong(lam, k, tol=cone.DEFAULT_TOL):
            got = true(lam, k, tol)
            got.kinds[lam[:, 0] > 1.09] = cone.REGIONS.index(Region.OUTSIDE)
            return got

        for module in (cone, verify):
            monkeypatch.setattr(module, "classify_boundaries", wrong)
        monkeypatch.setattr(verify, "_BLOCK", 8)
        got = verify.p2_ellipticity_sweep(100, 4).to_dict()
        assert got == p2_ellipticity_sweep_per_point(100, np.random.default_rng(4)).to_dict()
        assert got["failures"] > verify.COUNTEREXAMPLES

    def test_nonpositive_row_raises(self, monkeypatch):
        # a sampled BoundaryP2 point whose deleted-variable row is not
        # positive is a bug, reported by the classifier and the sweep alike
        true = cone.sigma_km1_row

        def broken(lam, k):
            row = true(lam, k)
            row[..., -1] = -row[..., -1]
            return row

        monkeypatch.setattr(cone, "sigma_km1_row", broken)
        pts = sample_p2_points(2, 4, 5, np.random.default_rng(1))
        for call in (lambda: classify_boundaries(pts, 2), lambda: classify_boundary(pts[0], 2),
                     lambda: verify.p2_ellipticity_sweep(8, 3)):
            with pytest.raises(AssertionError, match="nonpositive deleted-variable row"):
                call()


class TestGardingInequality:
    def test_equality_at_identical_arguments(self):
        lam = np.array([1.0, 2.0, 0.5, 1.5])
        assert abs(garding_slack(lam, lam, 2)) < 1e-10

    def test_random_pairs(self):
        rng = np.random.default_rng(21)
        count = 0
        while count < 500:
            lam = rng.uniform(-3, 3, size=4)
            mu = rng.uniform(-3, 3, size=4)
            if in_gamma_k(lam, 2) and in_gamma_k(mu, 2):
                count += 1
                assert garding_inequality_check(lam, mu, 2)

    def test_scaling_slack(self):
        # both sides scale linearly when mu is scaled, so slack doubles
        lam = np.array([2.0, 1.0, 1.5, 0.7, 0.9])
        assert in_gamma_k(lam, 3)
        s1 = garding_slack(lam, lam, 3)
        s2 = garding_slack(lam, 2.0 * lam, 3)
        assert abs(s2 - 2.0 * s1) < 1e-9 * max(1.0, abs(s2))
        assert garding_inequality_check(lam, 2.0 * lam, 3)

    def test_outside_rejected(self):
        with pytest.raises(DomainError):
            garding_inequality_check([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], 2)


class TestDescendingFacts:
    def test_simple(self):
        facts = descending_order_facts([3.0, 2.0, 1.0], 2)
        assert facts.p == 3
        assert facts.row_sorted

    def test_boundary_closure(self):
        lam = np.sort(p2_example(2, 3))[::-1]
        facts = descending_order_facts(lam, 2)
        assert facts.row_sorted

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            descending_order_facts([1.0, 2.0, 3.0], 2)

    def test_positive_count_at_least_k_inside(self):
        rng = np.random.default_rng(33)
        found = 0
        while found < 300:
            lam = rng.uniform(-3, 3, size=5)
            if in_gamma_k(lam, 3):
                found += 1
                facts = descending_order_facts(np.sort(lam)[::-1], 3)
                assert facts.p >= 3
                assert facts.row_sorted

    def test_monotone_row_one_level_down(self):
        # inside the level-(k-1) cone with a nonnegative first row entry the
        # whole row is nondecreasing
        rng = np.random.default_rng(37)
        found = 0
        while found < 200:
            lam = np.sort(rng.uniform(-3, 3, size=5))[::-1]
            if not in_gamma_k(lam, 2):
                continue
            row = sigma_km1_row(lam, 3)
            if row[0] < 0:
                continue
            found += 1
            assert np.all(np.diff(row) >= -1e-12 * max(1.0, np.max(np.abs(row))))


class TestSampledCheck:
    """The hyperbolicity consistency check is built on positive coefficient
    verdicts only, and still fires there."""

    def test_fires_on_in_cone_points(self, monkeypatch):
        # with the s^k coefficient negated, sigma_k(s e + lam) turns negative
        # at the largest sampled s for every point, in the cone included
        true = cone.shift_coefficient
        for module in (cone, oracles):
            monkeypatch.setattr(module, "shift_coefficient",
                                lambda j, k, n: -true(j, k, n) if j == k else true(j, k, n))
        batch = np.array([[1.0, 1.0, 1.0, 1.0], [-3.0, 0.5, 0.5, 0.5]])
        for lam in (batch, np.ones(4), batch[None]):
            with pytest.raises(AssertionError, match="disagree"):
                in_garding_cone_sampled(lam, 2)
            with pytest.raises(AssertionError, match="disagree"):
                in_garding_cone_sampled_every_row(lam, 2)

    def test_outside_points_with_nonpositive_samples_pass(self):
        # sigma_k(lam) <= 0 is the sample at s = 0: those points are outside,
        # and the check neither samples them nor raises
        rng = np.random.default_rng(4)
        for n, k in verify.EQUIV_CONFIGS:
            lam = rng.uniform(-3.0, 3.0, size=(5000, n))
            got = in_garding_cone_sampled(lam, k)
            assert np.array_equal(got, in_garding_cone_sampled_every_row(lam, k))
            assert np.any(sigma_all(lam, k)[:, k] <= 0.0)
            assert 0 < got.sum() < got.size


class TestSameBitsAsReference:
    """The row-wise cone tests and the blocked sampler give the bits of the
    strided, every-row references, and leave the generator where they do."""

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5])
    def test_in_gamma_k(self, tol):
        rng = np.random.default_rng(6)
        for n in (3, 4, 5):
            lam = rng.uniform(-3.0, 3.0, size=(2, 3, 400, n))
            for k in range(1, n + 1):
                got = in_gamma_k(lam, k, tol)
                assert got.shape == lam.shape[:-1]
                assert np.array_equal(got, in_gamma_k_over_the_sigma_axis(lam, k, tol))
                for row in lam[0, 0, :40]:
                    assert in_gamma_k(row, k, tol) is in_gamma_k_over_the_sigma_axis(row, k, tol)

    def test_in_garding_cone_sampled(self):
        rng = np.random.default_rng(8)
        for n in (3, 4, 5):
            lam = rng.uniform(-3.0, 3.0, size=(2, 3, 400, n))
            for k in range(1, n + 1):
                got = in_garding_cone_sampled(lam, k)
                assert got.shape == lam.shape[:-1]
                assert np.array_equal(got, in_garding_cone_sampled_every_row(lam, k))
                for row in lam[0, 0, :40]:
                    assert (in_garding_cone_sampled(row, k)
                            is in_garding_cone_sampled_every_row(row, k))

    @pytest.mark.parametrize("n, k", verify.EQUIV_CONFIGS)
    @pytest.mark.parametrize("count, block", [(1, None), (9000, None), (1, 2),
                                              (37, 8), (1000, 64)])
    def test_sampler(self, monkeypatch, n, k, count, block):
        # at 9000 a 36000-row chunk is 3 blocks of the default size
        if block is not None:
            monkeypatch.setattr(verify, "_BLOCK", block)
        for pull in ("every block", "zipped after _blocks"):
            rng, ref = np.random.default_rng(10 * n + k), np.random.default_rng(10 * n + k)
            blocks = verify._cone_blocks(n, k, count, rng)
            if pull == "zipped after _blocks":
                # zip stops pulling once the slices run out, after the last block
                got = [b.copy() for _, b in zip(verify._blocks(count), blocks)]
            else:
                got = [b.copy() for b in blocks]
            want = sample_in_cone_every_row(n, k, count, ref)
            assert [len(b) for b in got[:-1]] == [verify._BLOCK] * (len(got) - 1)
            assert 0 < len(got[-1]) <= verify._BLOCK
            got = np.concatenate(got)
            assert got.shape == want.shape == (count, n)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_sampler_blocks_are_views(self, monkeypatch):
        monkeypatch.setattr(verify, "_BLOCK", 64)
        rng = np.random.default_rng(4)
        buffers = [b.base for b in verify._cone_blocks(4, 2, 200, rng)]
        assert len(buffers) == 4 and all(b is buffers[0] for b in buffers)

    def test_sampler_tests_positive_sums_until_full(self, monkeypatch):
        # only rows with sigma_1 > 0 reach the cone test, and testing stops
        # before the end of the last chunk
        tested = []

        def recorded(lam, k):
            tested.append(lam)
            return in_gamma_k(lam, k)

        monkeypatch.setattr(verify, "in_gamma_k", recorded)
        monkeypatch.setattr(verify, "_BLOCK", 64)
        count, rng = 1000, np.random.default_rng(3)
        blocks = [len(b) for b in verify._cone_blocks(5, 3, count, rng)]
        assert blocks == [64] * 15 + [40]
        rows = np.concatenate(tested)
        assert np.all(np.sum(rows, axis=1) > 0.0)
        ref, positive, kept = np.random.default_rng(3), 0, 0
        while kept < count:  # the reference's chunks, every row tested
            draw = ref.uniform(-3.0, 3.0, size=(4 * count, 5))
            positive += int(np.sum(np.sum(draw, axis=1) > 0.0))
            kept += int(np.sum(in_gamma_k(draw, 3)))
        assert len(rows) < positive


SWEEPS = {
    "cone-equivalence": (verify.cone_equivalence_sweep, cone_equivalence_sweep_whole_batch),
    "garding-inequality": (verify.garding_inequality_sweep,
                           garding_inequality_sweep_whole_batch),
    "maclaurin": (verify.maclaurin_sweep, maclaurin_sweep_whole_batch),
    "identities": (verify.identities_sweep, identities_sweep_whole_batch),
}


def _same_report(suite, samples, seed):
    blocked, whole = SWEEPS[suite]
    got = blocked(samples, seed).to_dict()
    assert got == whole(samples, seed).to_dict()
    return got


class TestBlockedSweeps:
    """The cone sweeps, run one block of rows at a time, report the counts and
    counterexamples of checking each configuration's whole batch at once."""

    @pytest.mark.parametrize("suite", SWEEPS)
    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("samples", [1, 37, "block + 1"])
    def test_same_report(self, monkeypatch, suite, block, samples):
        if block is not None:
            monkeypatch.setattr(verify, "_BLOCK", block)
        if samples == "block + 1":
            samples = verify._BLOCK + 1
        for seed in (1, 5, 11):
            got = _same_report(suite, samples, seed)
            assert got["passed"] and got["checked"] > 0

    def test_equivalence_failures_across_blocks(self, monkeypatch):
        # a row-wise wrong verdict for rows whose first entry exceeds 2.9,
        # about one row in a 64-row block
        true = verify.in_gamma_tilde
        monkeypatch.setattr(verify, "in_gamma_tilde",
                            lambda lam, k: true(lam, k) ^ (lam[:, 0] > 2.9))
        monkeypatch.setattr(verify, "_BLOCK", 64)
        got = _same_report("cone-equivalence", 1000, 2)
        assert got["failures"] > verify.COUNTEREXAMPLES
        draw = np.random.default_rng(2).uniform(-3.0, 3.0, size=(1000, 3))
        rows = [int(np.flatnonzero(np.all(draw == row, axis=1))[0])
                for row in got["counterexamples"]]
        assert rows == sorted(rows) and rows[-1] // 64 > rows[0] // 64

    def test_garding_failures_keep_pairs_first(self, monkeypatch):
        # the slack fails where the second argument's first entry exceeds
        # 2.95: pair failures follow mu, equality failures follow lam
        true = verify.garding_slack

        def slack(lam, mu, k):
            out = true(lam, mu, k)
            out[mu[:, 0] > 2.95] = -1.0
            return out

        monkeypatch.setattr(verify, "garding_slack", slack)
        monkeypatch.setattr(verify, "_BLOCK", 64)
        got = _same_report("garding-inequality", 300, 22)
        assert got["failures"] > verify.COUNTEREXAMPLES
        # at this seed the first configuration's four pair failures lie in
        # its second to fourth blocks, and the fifth counterexample is its
        # first equality failure, which comes from the first block
        firsts = [row[0] > 2.95 for row in got["counterexamples"]]
        assert firsts == [False] * 4 + [True]

    def test_maclaurin_failures_across_blocks(self, monkeypatch):
        true = verify.sigma_all

        def sigma(lam, k):
            sig = true(lam, k)
            sig[lam[:, 0] > 2.9, k] *= 100.0
            return sig

        monkeypatch.setattr(verify, "sigma_all", sigma)
        monkeypatch.setattr(verify, "_BLOCK", 64)
        got = _same_report("maclaurin", 1000, 6)
        assert got["failures"] > verify.COUNTEREXAMPLES

    def test_identities_failures_across_n_and_blocks(self, monkeypatch):
        # the shift identity fails for samples whose first entry exceeds 2.7,
        # about one in twenty: the counterexamples run through the smallest
        # n's failures, in sample order, into the next n's
        true = verify.shift_expand
        monkeypatch.setattr(verify, "shift_expand", lambda lam, k, eps:
                            true(lam, k, eps) + 1e-3 * (lam[:, 0] > 2.7))
        monkeypatch.setattr(verify, "_BLOCK", 16)
        got = _same_report("identities", 300, 4)
        assert got["failures"] > verify.COUNTEREXAMPLES
        rng = np.random.default_rng(4)
        draws = [rng.uniform(-3.0, 3.0, size=rng.integers(2, verify.N_MAX + 1))
                 for _ in range(300)]
        index = [next(i for i, v in enumerate(draws) if v.tolist() == row)
                 for row in got["counterexamples"]]
        sizes = [len(row) for row in got["counterexamples"]]
        assert sizes == sorted(sizes) and len(set(sizes)) > 1
        for n in set(sizes):
            rows = [i for i, size in zip(index, sizes) if size == n]
            assert rows == sorted(rows)
        assert len({i // 16 for i in index}) > 1


class TestSweepMemory:
    """The cone sweeps and the identities sweep draw and check a block of
    rows at a time.  At 200,000 samples ``maclaurin`` peaks at 2.9 MiB and
    ``cone-equivalence`` at 3.1 MiB, where whole batches peaked at 59.0 and
    37.5 MiB and the sampler's whole sample at 9.5 MiB; ``garding-inequality``
    peaks at 4.1 MiB at 100,000 samples (7.1 MiB with lam whole, 10.2 MiB
    with mu whole too).  Beyond one block, no sweep grows with the sample
    count."""

    MB = 2**20

    @staticmethod
    def _peak(sweep, samples):
        tracemalloc.start()
        try:
            result = sweep(samples, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed and result.checked > 0
        return peak

    @pytest.mark.parametrize("sweep, bound", [(verify.maclaurin_sweep, 4),
                                              (verify.cone_equivalence_sweep, 6)])
    def test_peak_at_200000_samples(self, sweep, bound):
        assert self._peak(sweep, 200000) < bound * self.MB

    def test_garding_peak_at_100000_samples(self):
        assert self._peak(verify.garding_inequality_sweep, 100000) < 5 * self.MB

    @pytest.mark.parametrize("suite, samples, block", [("maclaurin", 50000, None),
                                                       ("cone-equivalence", 50000, None),
                                                       ("garding-inequality", 25000, None),
                                                       ("identities", 4096, 4096)])
    def test_peak_does_not_grow_with_samples(self, monkeypatch, suite, samples, block):
        if block is not None:
            monkeypatch.setattr(verify, "_BLOCK", block)
        sweep = verify.SUITES[suite]
        sweep(50, 5)  # one-time allocations, before either peak is read
        small, large = self._peak(sweep, samples), self._peak(sweep, 4 * samples)
        assert large - small <= 0.5 * self.MB
