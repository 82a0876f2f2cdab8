import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandflow import ode
from bandflow.band import BandedSymmetricMatrix, make_banded, split_irreducible
from bandflow.flow import (
    FlowConfig,
    FlowStats,
    GeneratorKind,
    StiffFlowError,
    decay_rate_estimate,
    integrate_flow,
    mielke_eta,
    mielke_rhs,
    wegner_eta,
    wegner_rhs,
)
from bandflow.ode import Dop853, StepSizeUnderflow
from bandflow.oracle import eigenvalues_dense

SQRT3 = 1.7320508075688772


def random_banded(seed, n, m, scale=1.0):
    rng = np.random.default_rng(seed)
    return BandedSymmetricMatrix(
        n, m, [scale * rng.uniform(-1, 1, n - k) for k in range(m + 1)]
    )


def tridiag123():
    return make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (0, 1): 1, (1, 2): 1})


class TestTableau:
    """Order conditions on the transcribed DOP853 coefficients."""

    def test_row_sums_are_nodes(self):
        for i, row in enumerate(ode._A):
            assert row.size == i
            assert row.sum() == pytest.approx(ode._C[i], abs=1e-14)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_quadrature_conditions(self, q):
        # sum_i b_i c_i^(q-1) = 1/q: the bushy-tree conditions up to order 8
        assert ode._B @ ode._C ** (q - 1) == pytest.approx(1.0 / q, abs=1e-14)

    def test_error_weights_sum_to_zero(self):
        # both embedded solutions are consistent, so their differences from
        # the 8th-order weights integrate constants exactly
        assert ode._E5.sum() == pytest.approx(0.0, abs=1e-14)
        assert ode._E3.sum() == pytest.approx(0.0, abs=1e-14)

    def test_observed_global_order(self):
        # y' = -y over [0, 8] on a fixed grid: loose tolerances never reject,
        # max_step and the caps pin every step to the grid spacing
        def global_error(spacing):
            stepper = Dop853(lambda t, y: -y, 0.0, np.array([1.0]), rel_tol=1e-3,
                             abs_tol=1e-3, max_step=spacing, first_step=spacing)
            n = round(8.0 / spacing)
            for j in range(1, n + 1):
                stepper.step(j * spacing)
                assert stepper.t == j * spacing
            assert (stepper.n_accepted, stepper.n_rejected) == (n, 0)
            return abs(stepper.y[0] - math.exp(-8.0))

        assert global_error(1.0) / global_error(0.5) >= 2.0**7.5


class TestStepper:
    def test_exponential_decay(self):
        stepper = Dop853(lambda t, y: -y, 0.0, np.array([1.0]), rel_tol=1e-11, abs_tol=1e-13)
        while stepper.t < 5.0:
            stepper.step(5.0)
        assert stepper.t == 5.0  # caps are hit exactly
        assert stepper.y[0] == pytest.approx(np.exp(-5.0), rel=1e-9)

    def test_oscillator_energy(self):
        def rhs(_t, y):
            return np.array([y[1], -y[0]])

        stepper = Dop853(rhs, 0.0, np.array([1.0, 0.0]), rel_tol=1e-12, abs_tol=1e-14)
        while stepper.t < 2 * np.pi:
            stepper.step(2 * np.pi)
        np.testing.assert_allclose(stepper.y, [1.0, 0.0], atol=1e-9)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Dop853(lambda t, y: -y, 0.0, np.array([1.0]), rel_tol=0.0)

    def test_underflow_at_singularity(self):
        # y' = y / (1 - t) blows up at t = 1; the controller must give up
        # with a diagnostic rather than loop forever
        def rhs(t, y):
            return y / (1.0 - t)

        stepper = Dop853(rhs, 0.0, np.array([1.0]))
        with pytest.raises(StepSizeUnderflow) as info:
            for _ in range(100000):
                stepper.step(2.0)
        assert info.value.t == pytest.approx(1.0, abs=1e-6)


class TestGenerators:
    def test_eta_two_level(self):
        eta = mielke_eta(make_banded(2, 1, {(0, 1): 1.0}))
        assert eta[1, 0] == 1.0 and eta[0, 1] == -1.0
        assert eta[0, 0] == eta[1, 1] == 0.0

    def test_eta_diagonal_matrix(self):
        eta = mielke_eta(make_banded(2, 0, {(0, 0): 1.0, (1, 1): 2.0}))
        assert np.all(eta == 0.0)

    def test_eta_signs_on_tridiagonal(self):
        h = make_banded(3, 1, {(0, 1): 2.0, (1, 2): -3.0})
        eta = mielke_eta(h)
        assert eta[1, 0] == 2.0 and eta[2, 1] == -3.0
        assert eta[0, 1] == -2.0 and eta[1, 2] == 3.0

    def test_rhs_diagonal_is_fixed_point(self):
        h = make_banded(4, 2, {(i, i): float(i * i) for i in range(4)})
        r = mielke_rhs(h)
        assert r.frobenius_norm_sq() == 0.0

    def test_rhs_two_level_formulas(self):
        a, b, c = 0.7, -0.4, 2.1
        h = make_banded(2, 1, {(0, 0): a, (1, 1): c, (0, 1): b})
        r = mielke_rhs(h)
        assert r.get(0, 0) == pytest.approx(-2 * b * b, rel=1e-15)
        assert r.get(1, 1) == pytest.approx(+2 * b * b, rel=1e-15)
        assert r.get(0, 1) == pytest.approx((a - c) * b, rel=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_rhs_matches_dense_commutator(self, seed):
        h = random_banded(seed, 8, 2)
        dense = h.to_dense()
        expect = mielke_eta(h) @ dense - dense @ mielke_eta(h)
        got = mielke_rhs(h).to_dense()
        scale = np.max(np.abs(expect)) + 1e-300
        assert np.max(np.abs(got - expect)) <= 1e-13 * scale

    def test_wegner_rhs_diagonal_fixed_point(self):
        assert np.all(wegner_rhs(np.diag([1.0, 3.0, -2.0])) == 0.0)

    def test_wegner_rhs_two_level(self):
        a, b, c = 1.3, 0.6, -0.2
        r = wegner_rhs(np.array([[a, b], [b, c]]))
        assert r[0, 1] == pytest.approx(-((a - c) ** 2) * b, rel=1e-14)

    def test_wegner_eta_definition(self):
        h = tridiag123().to_dense()
        eta = wegner_eta(h)
        assert eta[0, 1] == pytest.approx((h[0, 0] - h[1, 1]) * h[0, 1])
        assert np.allclose(eta, -eta.T)

    def test_wegner_corner_growth_generic_tridiagonal(self):
        # [[eta,H],H]_02 = h01 h12 (h00 - 2 h11 + h22) at a tridiagonal point
        h = make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 4, (0, 1): 1, (1, 2): 1}).to_dense()
        r = wegner_rhs(h)
        assert r[0, 2] == pytest.approx(1.0, rel=1e-14)

    def test_wegner_corner_stays_zero_for_equidistant_diagonal(self):
        # d = (1,2,3): h00 - 2 h11 + h22 = 0, and the reversal symmetry
        # H -> D J (4I - H) J D (J the exchange, D = diag(1,-1,1)) forces
        # h02(ell) = -h02(ell) = 0 for the whole Wegner flow of this matrix.
        r = wegner_rhs(tridiag123().to_dense())
        assert r[0, 2] == 0.0


class TestIntegrateFlow:
    def test_diagonal_input_unchanged(self):
        h = make_banded(3, 1, {(0, 0): 3.0, (1, 1): 1.0, (2, 2): 2.0})
        res = integrate_flow(h)
        assert res.converged and res.ell_final == 0.0
        # reducible: three 1x1 blocks, no reordering across zero couplings
        assert res.final.diagonal().tolist() == [3.0, 1.0, 2.0]

    def test_two_level(self):
        res = integrate_flow(make_banded(2, 1, {(0, 1): 1.0}))
        assert res.converged
        np.testing.assert_allclose(res.final.diagonal(), [-1.0, 1.0], atol=1e-9)

    def test_three_level_closed_form(self):
        res = integrate_flow(tridiag123())
        np.testing.assert_allclose(
            res.final.diagonal(), [2 - SQRT3, 2.0, 2 + SQRT3], atol=1e-9
        )

    def test_band_preserved_structurally(self):
        h = random_banded(3, 20, 2)
        ells = (0.5, 2.0, 10.0)
        res = integrate_flow(h, FlowConfig(snapshot_ells=ells))
        for _ell, snap in res.snapshots:
            assert snap.bandwidth == 2
            dense = snap.to_dense()
            for k in range(3, 20):
                assert np.all(np.diagonal(dense, k) == 0.0)

    def test_snapshots_isospectral(self):
        h = random_banded(11, 12, 2)
        res = integrate_flow(h, FlowConfig(snapshot_ells=(0.0, 0.3, 1.0, 4.0)))
        ev0 = eigenvalues_dense(h.to_dense()).eigenvalues
        scale = np.max(np.abs(ev0))
        assert res.snapshots[0][1].to_dense() == pytest.approx(h.to_dense())
        for _ell, snap in res.snapshots:
            ev = eigenvalues_dense(snap.to_dense()).eigenvalues
            np.testing.assert_allclose(ev, ev0, atol=1e-8 * scale)

    def test_conservation_diagnostics(self):
        h = random_banded(2, 25, 3)
        res = integrate_flow(h)
        d = res.diagnostics
        assert d.trace_drift <= 1e-9 * max(1.0, abs(h.trace()))
        assert d.frobenius_drift <= 1e-9
        assert d.partial_trace_violation <= 1e-9

    def test_ordering_and_spectrum_per_block(self):
        h = random_banded(4, 18, 2)
        res = integrate_flow(h)
        assert res.converged
        ev = eigenvalues_dense(h.to_dense()).eigenvalues
        scale = np.max(np.abs(ev))
        for block in split_irreducible(h):
            d = res.final.diagonal()[block.start : block.end]
            assert np.all(np.diff(d) >= -1e-8 * scale)
        np.testing.assert_allclose(np.sort(res.final.diagonal()), ev, atol=1e-8 * scale)

    def test_degenerate_spectrum_converges(self):
        # two uncoupled two-level systems interleaved: spectrum (-1, -1, 1, 1),
        # irreducible as a bandwidth-2 matrix
        h = make_banded(4, 2, {(0, 2): 1.0, (1, 3): 1.0})
        res = integrate_flow(h, FlowConfig(convergence_tol=1e-11))
        assert res.converged
        assert np.sqrt(res.final.offdiag_norm_sq()) < 1e-10
        np.testing.assert_allclose(res.final.diagonal(), [-1, -1, 1, 1], atol=1e-9)

    def test_ell_max_flags_not_converged(self):
        res = integrate_flow(make_banded(2, 1, {(0, 1): 1.0}), FlowConfig(ell_max=0.1))
        assert not res.converged
        assert res.ell_final == 0.1
        assert res.final.offdiag_norm_sq() > 0.0

    def test_record_steps_trace(self):
        h = tridiag123()
        res = integrate_flow(h, FlowConfig(record_steps=True))
        rows = res.step_trace
        assert len(rows) > 3
        assert rows[0].ell == 0.0 and rows[0].trace == pytest.approx(6.0)
        ells = [r.ell for r in rows]
        assert ells == sorted(ells)
        offs = np.array([r.offdiag_sq for r in rows])
        assert offs[-1] <= 1e-18 * rows[-1].frob_sq * 1e6  # converged well below tol
        traces = np.array([r.trace for r in rows])
        np.testing.assert_allclose(traces, 6.0, atol=1e-10)

    def test_wegner_mode_diagonalizes_dense(self):
        h = tridiag123()
        res = integrate_flow(h, FlowConfig(generator=GeneratorKind.WEGNER))
        assert res.converged
        assert res.final.bandwidth == h.dim - 1
        ev = eigenvalues_dense(h.to_dense()).eigenvalues
        np.testing.assert_allclose(np.sort(res.final.diagonal()), ev, atol=1e-8)

    def test_wegner_converged_meets_contract(self):
        # the off-diagonal norm must be summed, not taken as ||H||^2 -
        # ||diag||^2: that difference bottoms out at roundoff (~1e-15 here),
        # far above the threshold, and reaches it only by chance
        res = integrate_flow(random_banded(0, 5, 3), FlowConfig(generator=GeneratorKind.WEGNER))
        assert res.converged
        h = res.final.to_dense()
        off_sq = float(np.sum((h - np.diag(np.diag(h))) ** 2))
        assert off_sq <= 1e-20 * float(np.sum(h * h))

    def test_wegner_fill_in_outside_band(self):
        h = make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 4, (0, 1): 1, (1, 2): 1})
        fro2 = h.frobenius_norm_sq()
        res = integrate_flow(
            h,
            FlowConfig(generator=GeneratorKind.WEGNER, snapshot_ells=(0.1 / fro2,)),
        )
        _ell, snap = res.snapshots[0]
        assert abs(snap.get(0, 2)) > 1e-3

    def test_wegner_dense_cap(self):
        with pytest.raises(ValueError, match="capped"):
            integrate_flow(
                random_banded(0, 300, 1), FlowConfig(generator=GeneratorKind.WEGNER)
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            FlowConfig(snapshot_ells=(2.0, 1.0))
        with pytest.raises(ValueError):
            FlowConfig(ell_max=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": math.nan}, {"abs_tol": math.inf}, {"convergence_tol": math.inf},
        {"ell_max": math.nan}, {"ell_max": math.inf},
        {"snapshot_ells": (math.nan, 1.0)}, {"snapshot_ells": (1.0, math.inf)},
    ])
    def test_config_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            FlowConfig(**kwargs)

    @pytest.mark.parametrize("gen", list(GeneratorKind))
    def test_step_trace_starts_at_zero(self, gen):
        # also when the input arrives converged and no stepper is built
        h = make_banded(3, 1, {(0, 0): 3.0, (1, 1): 1.0, (2, 2): 2.0})
        res = integrate_flow(h, FlowConfig(generator=gen, record_steps=True))
        assert res.converged and res.stats.n_tasks == 0
        assert len(res.step_trace) == 1
        row = res.step_trace[0]
        assert (row.ell, row.trace, row.frob_sq, row.offdiag_sq) == (0.0, 6.0, 14.0, 0.0)
        assert row.diag.tolist() == [3.0, 1.0, 2.0]


class TestScaleAndStats:
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_two_level_at_extreme_scales(self, scale):
        # squares of these entries overflow / underflow unless the flow
        # runs on a rescaled matrix
        h = make_banded(2, 1, {(0, 0): scale, (1, 1): 2 * scale, (0, 1): scale})
        res = integrate_flow(h)
        assert res.converged and res.ell_final > 0.0
        root5 = math.sqrt(5.0)
        np.testing.assert_allclose(
            res.final.diagonal(), [(3 - root5) / 2 * scale, (3 + root5) / 2 * scale],
            rtol=1e-9,
        )

    def test_ell_max_past_float_range_after_scaling(self):
        # ell_max * 2^(2k) overflows here; the scaled cap saturates instead
        # of failing validation, and the flow converges long before it
        h = make_banded(2, 1, {(0, 0): 1e150, (0, 1): 1e150})
        res = integrate_flow(h, FlowConfig(generator=GeneratorKind.WEGNER, ell_max=1e10))
        assert res.converged

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 8),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(-300, 300),
        wegner=st.booleans(),
    )
    def test_power_of_two_covariance(self, n, m, seed, j, wegner):
        m = min(m, n - 1)
        h = random_banded(seed, n, m)
        h2 = BandedSymmetricMatrix(n, m, [np.ldexp(h.band(k), j) for k in range(m + 1)])
        gen = GeneratorKind.WEGNER if wegner else GeneratorKind.MIELKE
        j_ell = 2 * j if wegner else j
        # ell_max bounds the work: a near-degenerate Wegner flow is slow
        ells, ell_max = (0.25, 1.0), 20.0
        res = integrate_flow(h, FlowConfig(generator=gen, ell_max=ell_max, snapshot_ells=ells))
        res2 = integrate_flow(h2, FlowConfig(
            generator=gen, ell_max=np.ldexp(ell_max, -j_ell),
            snapshot_ells=tuple(np.ldexp(e, -j_ell) for e in ells)))
        assert res2.converged == res.converged
        assert res2.ell_final == np.ldexp(res.ell_final, -j_ell)
        assert np.array_equal(res2.final.to_dense(), np.ldexp(res.final.to_dense(), j))
        for (e1, m1), (e2, m2) in zip(res.snapshots, res2.snapshots):
            assert e2 == np.ldexp(e1, -j_ell)
            assert np.array_equal(m2.to_dense(), np.ldexp(m1.to_dense(), j))
        assert res2.stats == res.stats

    @pytest.mark.parametrize("gen", list(GeneratorKind))
    def test_rhs_count_identity(self, gen):
        # an irreducible input estimates its initial step once; every other
        # evaluation belongs to a stepper's construction or to a step
        h = random_banded(5, 30, 2) if gen is GeneratorKind.MIELKE else tridiag123()
        stats = integrate_flow(h, FlowConfig(generator=gen)).stats
        assert stats.n_tasks >= 1 and stats.n_accepted > 0
        attempts = stats.n_accepted + stats.n_rejected
        assert stats.n_rhs == 12 * attempts + stats.n_tasks + 1
        if gen is GeneratorKind.MIELKE:
            assert stats.n_deflations >= 1
        else:
            assert (stats.n_tasks, stats.n_deflations) == (1, 0)

    def test_stats_repeat_exactly(self):
        h = random_banded(6, 40, 3)
        a, b = integrate_flow(h), integrate_flow(h)
        assert isinstance(a.stats, FlowStats)
        assert a.stats == b.stats

    def test_stiff_error_pickles(self):
        exc = pickle.loads(pickle.dumps(StiffFlowError(1.5, 2.0, 3.0)))
        assert (exc.ell, exc.frob_sq, exc.offdiag_sq) == (1.5, 2.0, 3.0)


@st.composite
def structured_banded(draw, n_max, m_max):
    """Random banded matrices with exact-zero couplings (reducible inputs)
    and diagonal values drawn from a few levels (near-degenerate spectra)."""
    n = draw(st.integers(2, n_max))
    m = draw(st.integers(1, min(m_max, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, n))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.7]))
    diag = rng.integers(0, levels, n) / max(levels - 1, 1)
    bands = [diag] + [
        np.where(rng.random(n - k) < zero_frac, 0.0, rng.uniform(-1, 1, n - k))
        for k in range(1, m + 1)
    ]
    return BandedSymmetricMatrix(n, m, bands)


def coupling_components(h):
    """Index sets connected by nonzero couplings.

    For M >= 2 these can interleave: h_01 = h_12 = 0 with h_02 != 0 leaves
    {0, 2} and {1}, one block for split_irreducible, whose cuts are
    contiguous.  The flow never couples them, so it sorts each set apart.
    """
    root = list(range(h.dim))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for k in range(1, h.bandwidth + 1):
        for i in np.nonzero(h.band(k))[0]:
            root[find(int(i) + k)] = find(int(i))
    groups = {}
    for i in range(h.dim):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


class TestFlowProperties:
    """Invariants over random banded inputs, reducible and near-degenerate."""

    @settings(max_examples=25, deadline=None)
    @given(h=structured_banded(16, 4))
    def test_sign_generator(self, h):
        ells = (0.5, 2.0)
        res = integrate_flow(h, FlowConfig(snapshot_ells=ells))
        assert res.converged
        for mat in [res.final] + [snap for _ell, snap in res.snapshots]:
            assert (mat.dim, mat.bandwidth) == (h.dim, h.bandwidth)
        ev = eigenvalues_dense(h.to_dense()).eigenvalues
        tol = 1e-8 * max(np.max(np.abs(ev)), 1e-300)
        d = res.final.diagonal()
        for idx in coupling_components(h):  # each split_irreducible block is a union
            assert np.all(np.diff(d[idx]) >= -tol)
        np.testing.assert_allclose(np.sort(d), ev, rtol=0.0, atol=tol)
        assert res.diagnostics.partial_trace_violation <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(h=structured_banded(8, 4))
    def test_wegner_agrees_with_oracle_when_converged(self, h):
        # ell_max bounds the work; about 40% of these inputs converge by it
        res = integrate_flow(h, FlowConfig(generator=GeneratorKind.WEGNER, ell_max=200.0))
        assert res.final.bandwidth == h.dim - 1
        if res.converged:
            ev = eigenvalues_dense(h.to_dense()).eigenvalues
            tol = 1e-8 * max(np.max(np.abs(ev)), 1e-300)
            np.testing.assert_allclose(np.sort(res.final.diagonal()), ev, rtol=0.0, atol=tol)


class TestDecayRate:
    def test_two_level_rate_is_final_gap(self):
        h = make_banded(2, 1, {(0, 1): 1.0})
        res = integrate_flow(h, FlowConfig(snapshot_ells=tuple(np.linspace(4, 9, 6))))
        rate = decay_rate_estimate(res.snapshots, 0, 1)
        assert rate == pytest.approx(2.0, rel=0.02)

    def test_three_level_rate(self):
        res = integrate_flow(
            tridiag123(), FlowConfig(snapshot_ells=tuple(np.linspace(5, 10, 6)))
        )
        rate = decay_rate_estimate(res.snapshots, 0, 1)
        assert rate == pytest.approx(SQRT3, rel=0.05)

    def test_faster_pair_decays_at_larger_gap(self):
        res = integrate_flow(
            tridiag123(), FlowConfig(snapshot_ells=tuple(np.linspace(2, 4, 6)))
        )
        rate = decay_rate_estimate(res.snapshots, 1, 2)
        assert rate == pytest.approx(SQRT3, rel=0.05)  # gap (2+sqrt3) - 2

    def test_diagonal_input_rejected(self):
        h = make_banded(2, 1, {(0, 0): 1.0, (1, 1): 2.0})
        res = integrate_flow(h, FlowConfig(snapshot_ells=(0.5, 1.0, 2.0)))
        with pytest.raises(ValueError, match="floor"):
            decay_rate_estimate(res.snapshots, 0, 1)
