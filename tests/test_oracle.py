import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandflow import models, oracle
from bandflow.oracle import brackets_hold, eigenvalues_dense, eigenvalues_tridiag, sturm_count

SQRT3 = 1.7320508075688772
EPS = np.finfo(float).eps


def random_tridiag(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.uniform(-1, 1, n), scale * rng.uniform(-1, 1, n - 1)


class TestTridiag:
    def test_diagonal_input(self):
        res = eigenvalues_tridiag([1.0, 2.0, 3.0], [0.0, 0.0])
        np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=1e-13)

    def test_diagonal_input_is_exact(self):
        # no coupling: the sorted diagonal, exactly, for any k
        diag = [3.0, -1.0, 0.1, -1.0]
        res = eigenvalues_tridiag(diag, [0.0, -0.0, 0.0])
        assert res.eigenvalues.tolist() == [-1.0, -1.0, 0.1, 3.0]
        assert res.residual_bound == 0.0
        assert eigenvalues_tridiag(diag, [0.0] * 3, k=2).eigenvalues.tolist() == [-1.0, -1.0]

    def test_two_level_symmetric(self):
        res = eigenvalues_tridiag([0.0, 0.0], [1.0])
        np.testing.assert_allclose(res.eigenvalues, [-1.0, 1.0], atol=1e-13)

    def test_three_level_closed_form(self):
        # characteristic polynomial (x - 2)(x^2 - 4x + 1)
        res = eigenvalues_tridiag([1.0, 2.0, 3.0], [1.0, 1.0])
        np.testing.assert_allclose(
            res.eigenvalues, [2.0 - SQRT3, 2.0, 2.0 + SQRT3], atol=1e-11
        )

    def test_multiplicity(self):
        # two identical 2x2 blocks: eigenvalues -1, -1, 1, 1
        res = eigenvalues_tridiag([0.0] * 4, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(res.eigenvalues, [-1, -1, 1, 1], atol=1e-12)

    def test_single_entry(self):
        res = eigenvalues_tridiag([4.5], [])
        assert res.eigenvalues.tolist() == [4.5]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eigenvalues_tridiag([np.nan, 0.0], [1.0])

    def test_empty_input(self):
        for res in (eigenvalues_tridiag([], []), eigenvalues_tridiag([], [], k=0),
                    eigenvalues_dense(np.zeros((0, 0)))):
            assert res.eigenvalues.shape == (0,)
            assert res.residual_bound == 0.0

    @pytest.mark.parametrize("k", [-1, 4, 1.5, 2.0, "2", True])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            eigenvalues_tridiag([1.0, 2.0, 3.0], [1.0, 1.0], k=k)

    def test_lowest_k_single_entry(self):
        assert eigenvalues_tridiag([4.5], [], k=1).eigenvalues.tolist() == [4.5]
        assert eigenvalues_tridiag([4.5], [], k=np.int64(0)).eigenvalues.tolist() == []

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_invariants(self, seed):
        d, e = random_tridiag(seed, 30)
        ev = eigenvalues_tridiag(d, e).eigenvalues
        assert np.sum(ev) == pytest.approx(np.sum(d), rel=1e-10, abs=1e-10)
        frob_sq = np.sum(d * d) + 2 * np.sum(e * e)
        assert np.sum(ev * ev) == pytest.approx(frob_sq, rel=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_sturm_count_brackets_eigenvalues(self, seed):
        d, e = random_tridiag(seed, 25)
        ev = eigenvalues_tridiag(d, e).eigenvalues
        mids = 0.5 * (ev[:-1] + ev[1:])
        counts = sturm_count(d, e * e, mids)
        assert counts.tolist() == list(range(1, 25))
        assert sturm_count(d, e * e, np.array([ev[0] - 1.0]))[0] == 0
        assert sturm_count(d, e * e, np.array([ev[-1] + 1.0]))[0] == 25

    def test_zero_coupling_after_zero_pivot(self):
        # the leading block [-2] gives a zero pivot at shift -2; the zero
        # coupling must start the next block at diag - shift, not at 0/0
        res = eigenvalues_tridiag([-2.0, -2.0, -2.0], [0.0, 1.0])
        np.testing.assert_allclose(res.eigenvalues, [-3.0, -2.0, -1.0], atol=1e-12)
        assert sturm_count(np.array([-2.0] * 3), np.array([0.0, 1.0]),
                           np.array([-2.5, -2.0, -1.5])).tolist() == [1, 1, 2]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_small_integer_tridiagonals(self, data, n):
        # a few repeated levels and exact-zero couplings: reducible inputs,
        # zero pivots and multiple eigenvalues
        d = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), float)
        e = np.array(data.draw(st.lists(st.integers(-1, 1), min_size=n - 1,
                                        max_size=n - 1)), float)
        res = eigenvalues_tridiag(d, e)
        exact = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        roundoff = 64 * EPS * max(1.0, float(np.max(np.abs(exact))))
        assert np.all(np.diff(res.eigenvalues) >= 0.0)
        assert np.max(np.abs(res.eigenvalues - exact)) <= res.residual_bound + roundoff
        # counts are exact at shifts strictly between distinct eigenvalues
        gaps = np.nonzero(np.diff(exact) > 1e-6)[0]
        shifts = np.concatenate(([exact[0] - 1.0], 0.5 * (exact[gaps] + exact[gaps + 1]),
                                 [exact[-1] + 1.0]))
        expect = np.concatenate(([0], gaps + 1, [n]))
        assert sturm_count(d, e * e, shifts).tolist() == expect.tolist()
        # the lowest k alone, for every k: sorted, within both bounds of the
        # full solve's first k, within one of eigvalsh; k = N is the full solve
        for k in range(n + 1):
            low = eigenvalues_tridiag(d, e, k=k)
            assert low.eigenvalues.shape == (k,)
            assert np.all(np.diff(low.eigenvalues) >= 0.0)
            assert np.all(np.abs(low.eigenvalues - res.eigenvalues[:k])
                          <= low.residual_bound + res.residual_bound)
            assert np.all(np.abs(low.eigenvalues - exact[:k]) <= low.residual_bound + roundoff)
        assert np.array_equal(low.eigenvalues, res.eigenvalues)
        assert low.residual_bound == res.residual_bound

    def test_pass_budget(self, monkeypatch):
        # each Sturm sweep carries at most max(N, _PASS_SHIFTS) shifts; the
        # fig1 chain at N = 400 needs at most 20 sweeps (bisection: 39) for
        # all levels and at most 5 for the lowest 21, which certification asks
        # for: their brackets start below the Courant-Fischer ceiling
        shifts_per_call = []

        def counting(diag, offdiag_sq, shifts):
            shifts_per_call.append(len(shifts))
            return sturm_count(diag, offdiag_sq, shifts)

        monkeypatch.setattr(oracle, "sturm_count", counting)
        chain = models.build_spinboson(
            models.SpinBosonParams(delta=2.0, lam=4.0, omega=1.0, branch=1, n_trunc=400))
        lipkin, _ = models.build_lipkin_blocks(
            models.LipkinParams(xi0=1.0, v0=0.5 / 4000, two_j=2000))
        assert lipkin.dim == 1001
        for h, k, max_passes in ((chain, None, 20), (chain, 21, 5), (lipkin, None, None)):
            shifts_per_call.clear()
            ev = eigenvalues_tridiag(h.band(0), h.band(1), k=k).eigenvalues
            exact = np.linalg.eigvalsh(h.to_dense())[:k]
            np.testing.assert_allclose(ev, exact, atol=1e-10 * np.max(np.abs(exact)))
            assert max(shifts_per_call) <= max(h.dim, oracle._PASS_SHIFTS)
            if max_passes is not None:
                assert len(shifts_per_call) <= max_passes

    @pytest.mark.parametrize("seed", range(6))
    def test_lowest_k_ceiling_bounds_eigenvalue(self, seed):
        # Courant-Fischer: the top Gershgorin edge of the principal submatrix
        # on the k smallest diagonal entries is at least the k-th eigenvalue
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        d = rng.integers(-3, 4, n).astype(float) if seed % 2 else rng.uniform(-1, 1, n)
        d += np.arange(n) * rng.choice([0.0, 0.3, 2.0])
        e = np.where(rng.uniform(size=n - 1) < 0.2, 0.0, rng.uniform(-1, 1, n - 1))
        exact = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        slack = 8 * EPS * np.max(np.abs(exact))  # eigvalsh's own rounding
        for k in range(1, n):
            assert oracle._lowest_k_ceiling(d, e, k) >= exact[k - 1] - slack


def reference_sturm_count(diag, offdiag_sq, shifts):
    """The plain pivot recurrence over every row, with no early exit."""
    d = diag[0] - shifts
    count = (d < 0.0).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a, b_sq in zip(diag[1:], offdiag_sq):
            d = a - shifts if b_sq == 0.0 else (a - shifts) - b_sq / d
            count += d < 0.0
    return count


class TestSturmEarlyExit:
    def test_floor_alone_does_not_stop(self):
        # row 1's floor 0.1 lies above the shift 0, yet the pivot 0.6 of row
        # 0 is below |b| = 1 and sends row 1's pivot to 1.1 - 1 / 0.6 < 0: the
        # sweep may stop only once every pivot is negative or at least |b|
        d, off_sq, shifts = np.array([0.6, 1.1]), np.array([1.0]), np.array([0.0])
        assert reference_sturm_count(d, off_sq, shifts).tolist() == [1]
        assert sturm_count(d, off_sq, shifts).tolist() == [1]

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 80),
        slope=st.sampled_from([0.0, 0.5, 3.0]),
        j=st.one_of(st.just(0), st.integers(-1000, 1000)),
        where=st.sampled_from(["below", "straddle", "above"]),
    )
    def test_equals_full_sweep(self, data, n, slope, j, where):
        # repeated levels, exact-zero couplings, a diagonal that rises (as
        # fig1's chains do, so the sweep can stop early) and scales 2^j at
        # which b^2 underflows or overflows
        level = st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
        d = np.array(data.draw(st.lists(level, min_size=n, max_size=n))) + slope * np.arange(n)
        e = np.array(data.draw(st.lists(st.one_of(st.just(0.0), level), min_size=n - 1,
                                        max_size=n - 1)))
        d, e = np.ldexp(d, j), np.ldexp(e, j)
        radius = np.zeros(n)
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
        floors = d - radius
        width = max(float(np.max(d + radius) - np.min(floors)), float(np.ldexp(1.0, j)))
        u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)))
        if where == "below":
            shifts = np.min(floors) - (u + 2.0**-20) * width
        elif where == "above":
            shifts = np.max(floors) + (u + 2.0**-20) * width
        else:  # between the floors, floors and diagonal entries included
            step = max(1, n // 5)
            shifts = np.concatenate((np.min(floors) + u * (np.max(floors) - np.min(floors)),
                                     floors[::step], d[::step]))
        with np.errstate(over="ignore", under="ignore"):
            off_sq = e * e
        # b^2 = inf is outside sturm_count's contract and can make NaN pivots
        # (inf / inf); the counts must still agree
        with np.errstate(invalid="ignore"):
            got = sturm_count(d, off_sq, shifts)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_sturm_count(d, off_sq, shifts))


class TestBracketsHold:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        zeros=st.sampled_from([0.0, 0.3, 1.0]),
        twice=st.booleans(),
        j=st.one_of(st.just(0), st.integers(-900, 900)),
    )
    def test_against_eigvalsh(self, seed, n, zeros, twice, j):
        # exactly zero couplings; with twice, the direct sum of two equal
        # blocks, whose every eigenvalue is repeated; at scales 2^j whose
        # b^2 overflows or underflows the answer is that of scale 1
        rng = np.random.default_rng(seed)
        d = rng.integers(-3, 4, n).astype(float) if seed % 2 else rng.uniform(-1, 1, n)
        e = np.where(rng.uniform(size=n - 1) < zeros, 0.0, rng.uniform(-1, 1, n - 1))
        if twice:
            d, e = np.concatenate((d, d)), np.concatenate((e, [0.0], e))
        exact = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        # bracket ends lie between clusters of eigenvalues closer than the
        # solvers' rounding, and below and above the spectrum
        slack = 1e-10 * max(float(np.max(np.abs(exact))), 1.0)
        gap = np.nonzero(np.diff(exact) > 4.0 * slack)[0]
        cuts = np.concatenate(([exact[0] - 1.0], 0.5 * (exact[gap] + exact[gap + 1]),
                               [exact[-1] + 1.0]))
        cluster = np.searchsorted(cuts, exact) - 1  # eigenvalue i lies in [cuts[c], cuts[c+1])
        k = int(rng.integers(0, exact.size + 1))
        # per bracket: its own cluster, one cluster down or up (a miss by one
        # eigenvalue unless the level is repeated across it), or wider
        lo_c = cluster[:k] + rng.integers(-1, 2, k)
        hi_c = lo_c + 1 + (rng.uniform(size=k) < 0.2)
        lo_c, hi_c = np.clip(lo_c, 0, cuts.size - 1), np.clip(hi_c, 0, cuts.size - 1)
        lo, hi = cuts[lo_c], cuts[hi_c]
        expect = (lo <= exact[:k]) & (exact[:k] < hi)
        assert np.array_equal(brackets_hold(d, e, lo, hi), expect)
        got = brackets_hold(np.ldexp(d, j), np.ldexp(e, j), np.ldexp(lo, j), np.ldexp(hi, j))
        assert np.array_equal(got, expect)

    def test_miss_by_one(self):
        # eigenvalues 1, 1, 3 and 5 (a zero coupling splits off the 1 x 1
        # block [1]): a bracket around the next level misses unless it repeats
        d, e = np.array([2.0, 2.0, 1.0, 5.0]), np.array([1.0, 0.0, 0.0])
        assert brackets_hold(d, e, [0.5, 0.5, 2.5, 4.5], [1.5, 1.5, 3.5, 5.5]).tolist() == \
            [True, True, True, True]
        assert brackets_hold(d, e, [0.5, 2.5, 4.5], [1.5, 3.5, 5.5]).tolist() == \
            [True, False, False]
        assert brackets_hold(d, e, [2.5, 0.5], [3.5, 1.5]).tolist() == [False, True]
        # [lo, hi): an eigenvalue at hi is outside, one at lo inside
        assert brackets_hold([1.0], [], [1.0], [2.0]).tolist() == [True]
        assert brackets_hold([1.0], [], [0.0], [1.0]).tolist() == [False]

    def test_one_sweep_through_the_module(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[2].size)
            return sturm_count(*args)

        monkeypatch.setattr(oracle, "sturm_count", counted)
        d, e = random_tridiag(3, 40)
        ev = eigenvalues_tridiag(d, e, k=5).eigenvalues
        calls.clear()
        assert brackets_hold(d, e, ev - 1e-8, ev + 1e-8).all()
        assert calls == [10]

    @pytest.mark.parametrize("args, match", [
        (([1.0, 2.0], [1.0, 0.0], [0.0], [1.0]), "offdiag"),
        (([1.0, 2.0], [1.0], [0.0, 1.0], [1.0]), "equal length"),
        (([1.0, 2.0], [1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), "equal length"),
        (([1.0, 2.0], [1.0], [[0.0]], [[1.0]]), "equal length"),
        (([1.0, math.nan], [1.0], [0.0], [1.0]), "non-finite"),
        (([1.0, 2.0], [1.0], [-math.inf], [1.0]), "non-finite"),
    ])
    def test_rejects_bad_input(self, args, match):
        with pytest.raises(ValueError, match=match):
            brackets_hold(*args)

    def test_no_brackets(self):
        assert brackets_hold([], [], [], []).shape == (0,)
        assert brackets_hold([1.0, 2.0], [1.0], [], []).dtype == bool


class TestExtremeScale:
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_two_level(self, scale):
        # entry squares overflow / underflow unless the oracles rescale
        expect = [(3 - math.sqrt(5.0)) / 2 * scale, (3 + math.sqrt(5.0)) / 2 * scale]
        tri = eigenvalues_tridiag([scale, 2 * scale], [scale])
        dense = eigenvalues_dense([[scale, scale], [scale, 2 * scale]])
        for res in (tri, dense):
            np.testing.assert_allclose(res.eigenvalues, expect, rtol=1e-11)
            assert 0.0 < res.residual_bound < 1e-11 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(-900, 900),
        zeros=st.floats(0.0, 0.7),
        k=st.integers(0, 8),
    )
    def test_power_of_two_covariance(self, n, seed, j, zeros, k):
        # |j| up to 900 takes entry squares out of the float range
        k = min(k, n)
        rng = np.random.default_rng(seed)
        d = rng.uniform(-1, 1, n)
        e = np.where(rng.uniform(size=n - 1) < zeros, 0.0, rng.uniform(-1, 1, n - 1))
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        pairs = [
            (eigenvalues_tridiag(d, e),
             eigenvalues_tridiag(np.ldexp(d, j), np.ldexp(e, j))),
            (eigenvalues_tridiag(d, e, k=k),
             eigenvalues_tridiag(np.ldexp(d, j), np.ldexp(e, j), k=k)),
            (eigenvalues_dense(dense), eigenvalues_dense(np.ldexp(dense, j))),
        ]
        for res, res2 in pairs:
            assert np.array_equal(res2.eigenvalues, np.ldexp(res.eigenvalues, j))
            assert res2.residual_bound == np.ldexp(res.residual_bound, j)


class TestDense:
    def test_identity(self):
        res = eigenvalues_dense(np.eye(4))
        np.testing.assert_allclose(res.eigenvalues, np.ones(4), atol=1e-14)

    def test_two_level(self):
        res = eigenvalues_dense([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(res.eigenvalues, [-1.0, 1.0], atol=1e-13)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues_dense([[0.0, 1.0], [1.0 + 1e-9, 0.0]])

    def test_symmetry_bound_is_relative(self):
        # below unit scale an absolute 1e-12 accepted this and returned [0, 0]
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues_dense([[0.0, 1e-200], [-1e-200, 0.0]])
        res = eigenvalues_dense([[0.0, 1e-200], [1e-200, 0.0]])
        np.testing.assert_allclose(res.eigenvalues, [-1e-200, 1e-200], rtol=1e-13)

    def test_rejects_oversize(self):
        with pytest.raises(ValueError, match="512"):
            eigenvalues_dense(np.eye(513))

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_bisection(self, seed):
        d, e = random_tridiag(seed, 50)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ev_j = eigenvalues_dense(dense).eigenvalues
        ev_b = eigenvalues_tridiag(d, e).eigenvalues
        scale = np.max(np.abs(ev_b))
        np.testing.assert_allclose(ev_j, ev_b, atol=1e-10 * scale)

    def test_degenerate_dense(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        dense = q @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 5.0]) @ q.T
        dense = 0.5 * (dense + dense.T)
        res = eigenvalues_dense(dense)
        np.testing.assert_allclose(res.eigenvalues, [1, 1, 1, 2, 2, 5], atol=1e-10)
