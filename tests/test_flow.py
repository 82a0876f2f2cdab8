import gc
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandflow import flow, ode
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
from bandflow.models import LipkinParams, SpinBosonParams, build_lipkin_blocks, build_spinboson
from bandflow.ode import Dop853, StepSizeUnderflow
from bandflow.oracle import eigenvalues_dense, eigenvalues_tridiag

SQRT3 = 1.7320508075688772


def random_banded(seed, n, m, scale=1.0):
    rng = np.random.default_rng(seed)
    return BandedSymmetricMatrix(
        n, m, [scale * rng.uniform(-1, 1, n - k) for k in range(m + 1)]
    )


def tridiag123():
    return make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (0, 1): 1, (1, 2): 1})


def spinboson_chain(n, delta=1.0):
    return build_spinboson(SpinBosonParams(delta=delta, lam=4.0, omega=1.0, n_trunc=n))


@st.composite
def structured_banded(draw, n_max, m_max, n_min=2):
    """Random banded matrices with exact-zero couplings (reducible inputs)
    and diagonal values drawn from a few levels (near-degenerate spectra)."""
    n = draw(st.integers(n_min, n_max))
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


def accumulated_stencil(y, n, m):
    """The sign flow's dH/dl on a flattened row array, summed into a zeroed
    array in the stencil's order: the diagonal's terms are added to 0, each
    off-diagonal band's first term is assigned and later ones added."""
    out = np.zeros(y.size)
    r0 = out[:n]
    for j in range(1, m + 1):
        ej2 = 2.0 * y[j * n : (j + 1) * n - j] ** 2
        r0[j:] += ej2
        r0[: n - j] -= ej2
    for d in range(1, m + 1):
        rd = out[d * n : d * n + n - d]
        rd[:] = (y[: n - d] - y[d:n]) * y[d * n : d * n + n - d]
        for i in range(1, m - d + 1):
            w = n - d - i
            oi, odi = i * n, (d + i) * n
            rd[i:] += 2.0 * (y[oi : oi + w] * y[odi : odi + w])
            rd[:w] -= 2.0 * (y[odi : odi + w] * y[oi + d : oi + n - i])
    return out


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
        # and a first step of the grid spacing, which clipped steps never
        # shrink, runs into every cap, so each step spans the grid spacing
        def global_error(spacing):
            stepper = Dop853(decay, 0.0, np.array([1.0]), rel_tol=1e-3,
                             abs_tol=1e-3, first_step=spacing)
            n = round(8.0 / spacing)
            for j in range(1, n + 1):
                stepper.step(j * spacing)
                assert stepper.t == j * spacing
            assert (stepper.n_accepted, stepper.n_rejected) == (n, 0)
            return abs(stepper.y[0] - math.exp(-8.0))

        assert global_error(1.0) / global_error(0.5) >= 2.0**7.5


class TestStageLayout:
    """The slices a step reads from its stage matrix, built from the tableau."""

    COMBINATIONS = [(i, lo, hi, ode._STAGE_W[i - 1, lo:hi][None], ode._A[i][None])
                    for i, (_, _, lo, hi) in enumerate(ode._STAGE_PLAN, 1)]
    COMBINATIONS.append((ode._STAGES, *ode._FINAL_ROWS,
                         np.stack((ode._B, ode._E5, ode._E3))))

    def test_rows_hold_every_stage_once(self):
        assert sorted(ode._ROW) == list(range(ode._STAGES + 1))
        assert ode._ROW[ode._STAGES] == ode._STAGES  # the FSAL evaluation

    @pytest.mark.parametrize("i, lo, hi, w, weights", COMBINATIONS)
    def test_slice_reads_only_earlier_stages(self, i, lo, hi, w, weights):
        # a row this attempt has not written may hold NaN, and 0 * NaN is NaN
        assert all(ode._ROW.index(r) < i for r in range(lo, hi))

    @pytest.mark.parametrize("i, lo, hi, w, weights", COMBINATIONS)
    def test_slice_holds_every_weighted_row(self, i, lo, hi, w, weights):
        assert w.shape == (len(weights), hi - lo)
        for s in range(weights.shape[1]):
            if np.any(weights[:, s] != 0.0):
                assert lo <= ode._ROW[s] < hi
                np.testing.assert_array_equal(w[:, ode._ROW[s] - lo], weights[:, s])

    @pytest.mark.parametrize("i, lo, hi, w, weights", COMBINATIONS)
    def test_slice_combination_matches_tableau(self, i, lo, hi, w, weights):
        k = np.random.default_rng(i).normal(size=(ode._STAGES + 1, 50))
        stored = np.empty_like(k)
        stored[list(ode._ROW)] = k
        want = weights @ k[:i]
        scale = np.abs(weights) @ np.abs(k[:i])
        assert np.all(np.abs(w @ stored[lo:hi] - want) <= 1e-14 * scale)

    def test_rows_read_per_step(self):
        assert sum(hi - lo for *_, lo, hi in ode._STAGE_PLAN) == 52
        assert ode._FINAL_ROWS[1] - ode._FINAL_ROWS[0] == 10


def decay(_t, y, out):
    """y' = -y, in the stepper's convention: written into out."""
    np.negative(y, out=out)


def textbook_step(fun, t, y, h):
    """One DOP853 step as plain sums over the tableau, stages in order.

    fun(t, y) returns the derivative.  Returns y_new, e5 and e3, each with
    the sum of the magnitudes of the terms it adds up: the scale that
    rounding is relative to.
    """
    k = [fun(t, y)]
    for i in range(1, 12):
        yi = y.copy()
        for j in range(i):
            yi += h * ode._A[i][j] * k[j]
        k.append(fun(t + ode._C[i] * h, yi))
    y_new = y + sum(h * ode._B[j] * k[j] for j in range(12))
    y_scale = np.abs(y) + sum(np.abs(h * ode._B[j] * k[j]) for j in range(12))
    e5 = sum(ode._E5[j] * k[j] for j in range(12))
    e5_scale = sum(np.abs(ode._E5[j] * k[j]) for j in range(12))
    e3 = sum(ode._E3[j] * k[j] for j in range(12))
    e3_scale = sum(np.abs(ode._E3[j] * k[j]) for j in range(12))
    return (y_new, y_scale), (e5, e5_scale), (e3, e3_scale)


class TestStepper:
    def test_exponential_decay(self):
        stepper = Dop853(decay, 0.0, np.array([1.0]), rel_tol=1e-11, abs_tol=1e-13)
        while stepper.t < 5.0:
            stepper.step(5.0)
        assert stepper.t == 5.0  # caps are hit exactly
        assert stepper.y[0] == pytest.approx(np.exp(-5.0), rel=1e-9)

    def test_oscillator_energy(self):
        def rhs(_t, y, out):
            out[:] = y[1], -y[0]

        stepper = Dop853(rhs, 0.0, np.array([1.0, 0.0]), rel_tol=1e-12, abs_tol=1e-14)
        while stepper.t < 2 * np.pi:
            stepper.step(2 * np.pi)
        np.testing.assert_allclose(stepper.y, [1.0, 0.0], atol=1e-9)

    def test_tolerance_validation(self):
        for kwargs in ({"rel_tol": 0.0}, {"rel_tol": math.nan}, {"abs_tol": -1.0},
                       {"abs_tol": math.nan}, {"first_step": 0.0}, {"first_step": math.nan},
                       {"y0": np.array([math.nan])}, {"y0": np.array([1.0, math.inf])}):
            args = {"y0": np.array([1.0])} | kwargs
            with pytest.raises(ValueError):
                Dop853(decay, 0.0, **args)

    def test_nan_rhs_raises_underflow(self):
        # a NaN derivative makes a NaN step size, which must not loop forever
        stepper = Dop853(lambda t, y, out: out.fill(math.nan), 0.0, np.array([1.0]))
        with pytest.raises(StepSizeUnderflow):
            stepper.step(1.0)

    def test_step_allocates_no_stage_arrays(self):
        # within a step only y_new is a new state-sized array; fun writes
        # into the stage matrix, and the stage arguments and the final
        # product use kept buffers
        n = 20000
        a = -np.linspace(0.1, 1.0, n)
        stepper = Dop853(lambda t, y, out: np.multiply(a, y, out=out), 0.0, np.ones(n))
        stepper.step(1.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stepper.step(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stepper.n_rejected == 0
        assert (peak - base) / (8 * n) <= 2.5

    def test_fun_sees_one_argument_and_the_stage_rows(self):
        # every evaluation, the first and the automatic initial step's
        # included, reads the one kept argument buffer and writes one of the
        # 13 stage rows, through accepted and rejected attempts alike
        args, outs = {}, {}

        def rhs(t, y, out):
            args[id(y)], outs[id(out)] = y, out  # kept alive: ids stay unique
            np.divide(y, 1.0 - t, out=out)

        stepper = Dop853(rhs, 0.0, np.array([1.0, 2.0]))
        while stepper.t < 0.999:
            stepper.step(0.999)
        assert stepper.n_rejected >= 3
        assert len(args) == 1 and len(outs) <= 13

    def test_sign_flow_step_allocates_under_two_states(self, monkeypatch):
        # the flow's stencil replays calls on the stepper's own buffers: on
        # a long M = 1 state a step allocates y_new and the stencil
        # allocates nothing, neither a zeroed buffer nor a temporary per
        # RHS evaluation
        class Measured(flow.Dopri54):
            def step(self, t_cap):
                super().step(t_cap)
                rejected = self.n_rejected
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    super().step(t_cap)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                raise Measurement(peak - base, self.y.nbytes, self.n_rejected - rejected)

        class Measurement(Exception):
            pass

        monkeypatch.setattr(flow, "Dopri54", Measured)
        n = 10**5
        rng = np.random.default_rng(0)
        h = BandedSymmetricMatrix(n, 1, [rng.uniform(-1, 1, n), rng.uniform(-1, 1, n - 1)])
        with pytest.raises(Measurement) as info:
            integrate_flow(h)
        new, state, rejected = info.value.args
        assert state == 2 * n * 8 and rejected == 0
        assert new / state <= 2.0

    @pytest.mark.parametrize("n", [1, 7, 20000])
    @pytest.mark.parametrize("h", [0.2, 0.7])
    def test_step_matches_textbook_sums(self, n, h):
        # the stage storage order and the stacked final product change only
        # the order of the sums, so y_new, ||e5|| and ||e3|| agree with the
        # plain tableau sums to rounding, relative to their terms' magnitudes
        rng = np.random.default_rng(n)
        y0, a = rng.uniform(-1.0, 1.0, n), rng.uniform(1.0, 3.0, n)

        def rhs(t, y):
            return np.cos(2.0 * t) - a * y * (1.0 + 0.1 * y)

        def rhs_into(t, y, out):
            out[:] = rhs(t, y)

        stepper = Dop853(rhs_into, 0.25, y0, rel_tol=1e3, abs_tol=1e3, first_step=h)
        stepper.step(10.0)
        assert (stepper.t, stepper.n_rejected) == (0.25 + h, 0)
        (y_new, y_scale), *errors = textbook_step(rhs, 0.25, y0, h)
        assert np.all(np.abs(stepper.y - y_new) <= 1e-14 * y_scale)
        for e, (want, scale) in zip(stepper._dy[1:], errors):
            assert abs(np.linalg.norm(e) - np.linalg.norm(want)) <= 1e-14 * np.linalg.norm(scale)

    def test_underflow_at_singularity(self):
        # y' = y / (1 - t) blows up at t = 1; the controller must give up
        # with a diagnostic rather than loop forever
        def rhs(t, y, out):
            np.divide(y, 1.0 - t, out=out)

        stepper = Dop853(rhs, 0.0, np.array([1.0]))
        with pytest.raises(StepSizeUnderflow) as info:
            for _ in range(100000):
                stepper.step(2.0)
        assert info.value.t == pytest.approx(1.0, abs=1e-6)


def run_controlled(stepper, t_end):
    """Step to t_end.  Returns, per step call, the attempt it started with
    (the controller's plan), the step it accepted, the plan it left, whether
    it rejected an attempt, and err / tol of the accepted step, recomputed
    from the stepper's kept error block as the accept test forms it."""
    calls = []
    while stepper.t < t_end:
        t, plan, rejected = stepper.t, stepper.h, stepper.n_rejected
        stepper.step(t_end)
        h = stepper.t - t
        e5_sq, e3_sq = (float(np.dot(e, e)) for e in stepper._dy[1:])
        err = h * e5_sq / math.sqrt(e5_sq + 0.01 * e3_sq) if e5_sq + e3_sq > 0.0 else 0.0
        tol = stepper.abs_tol + stepper.rel_tol * float(np.linalg.norm(stepper.y))
        calls.append((plan, h, stepper.h, stepper.n_rejected > rejected, err / tol))
    return calls


class TestController:
    """DOP853's I-controller: after an accepted step the factor is
    0.9 (err / tol)^(-1/8), so a smooth flow settles near err / tol = 0.9^8."""

    def test_set_point_on_smooth_decay(self):
        # y' = -a y with rates from 0.1 to 1: the steps settle where the
        # controller aims, not at a fraction of the tolerance
        a = np.linspace(0.1, 1.0, 20)
        stepper = Dop853(lambda t, y, out: np.multiply(-a, y, out=out), 0.0, np.ones(20))
        calls = run_controlled(stepper, 30.0)
        ratios = [c[4] for c in calls]
        assert stepper.n_rejected == 0 and len(ratios) > 20
        assert 0.2 <= float(np.median(ratios)) <= 0.9
        assert max(ratios) <= 1.0

    def test_no_growth_after_a_rejection(self):
        # y' = y / (1 - t) steepens toward t = 1, so attempts get rejected;
        # the step accepted after a rejection is no longer than the attempt
        # rejected, and the step planned after it no longer than itself
        def rhs(t, y, out):
            np.divide(y, 1.0 - t, out=out)

        stepper = Dop853(rhs, 0.0, np.array([1.0]))
        calls = run_controlled(stepper, 0.999)
        rejected = [c for c in calls if c[3]]
        assert len(rejected) >= 3
        for plan, h, next_plan, _r, _ratio in rejected:
            assert h <= plan
            assert next_plan <= h + math.ulp(1.0)  # h is read back from t
        assert all(c[4] <= 1.0 for c in calls)

    def test_first_step_too_long(self):
        # a first attempt of 5 on y' = -y is rejected and the step shrinks;
        # however small its error, the accepted step does not grow the plan
        stepper = Dop853(decay, 0.0, np.array([1.0]), first_step=5.0)
        ((plan, h, next_plan, rejected, ratio),) = run_controlled(stepper, 1e-9 + 5.0)[:1]
        assert rejected and h < plan == 5.0 and ratio <= 1.0
        assert next_plan <= h + math.ulp(5.0)


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

    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (12, 3), (9, 8), (30, 5)])
    def test_stencils_on_row_layout(self, n, m):
        # The stencil reads band k at offset k*n of the flat state and touches
        # no padding slot: NaN there must not reach the output, which must
        # keep its own padding at exactly 0.
        h = random_banded(n + m, n, m)
        expect = mielke_rhs(h).rows()
        pad = np.add.outer(np.arange(m + 1), np.arange(n)) >= n
        y = h.rows().copy()
        y[pad] = np.nan
        out = np.zeros(y.size)
        flow._Stencil(n, m)(0.0, y.ravel(), out)
        got = out.reshape(m + 1, n)
        assert np.all(got[pad] == 0.0)
        assert np.array_equal(got, expect)

    @settings(deadline=None)
    @given(h=structured_banded(40, 4))
    def test_stencil_overwrites_every_valid_slot(self, h):
        # out need not arrive zeroed: a zeroed out and one with NaN in every
        # valid slot both get the bytes of the stencil's sums accumulated
        # into zeros, signed zeros included, and no padding slot is
        # written, whatever it holds
        n, m = h.dim, h.bandwidth
        y = h.rows().ravel()
        want = accumulated_stencil(y, n, m)
        pad = (np.add.outer(np.arange(m + 1), np.arange(n)) >= n).ravel()
        stencil = flow._Stencil(n, m)
        for fill in (0.0, np.nan):
            out = np.where(pad, 0.0, fill)
            stencil(0.0, y, out)
            assert out.tobytes() == want.tobytes()
        marked = np.where(pad, 7.0, np.nan)
        stencil(0.0, y, marked)
        assert np.all(marked[pad] == 7.0)
        assert marked[~pad].tobytes() == want[~pad].tobytes()

    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (12, 3), (30, 5)])
    def test_stencil_replays_each_pair_on_its_own_buffers(self, n, m):
        # one stencil called in turn on two pairs of buffers: each program
        # reads the values its pair holds at the call, and the shared
        # scratch row carries nothing from one call to the next
        stencil = flow._Stencil(n, m)
        pairs = [(np.empty((m + 1) * n), np.zeros((m + 1) * n)) for _ in range(2)]
        for seed in range(6):
            y, out = pairs[seed % 2]
            y[:] = random_banded(seed, n, m).rows().ravel()
            stencil(0.0, y, out)
            assert out.tobytes() == accumulated_stencil(y, n, m).tobytes()
        assert len(stencil._programs) == 2

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
        # the generator is coerced from its value; anything else is refused
        assert FlowConfig(generator="wegner").generator is GeneratorKind.WEGNER
        for generator in ("bogus", None):
            with pytest.raises(ValueError):
                FlowConfig(generator=generator)

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": math.nan}, {"abs_tol": math.inf}, {"convergence_tol": math.inf},
        {"ell_max": math.nan}, {"ell_max": math.inf},
        {"snapshot_ells": (math.nan, 1.0)}, {"snapshot_ells": (1.0, math.inf)},
    ])
    def test_config_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            FlowConfig(**kwargs)


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

    def test_spectrum_past_float_range(self):
        # every entry is finite, but the eigenvalue 2e308 is not
        h = make_banded(2, 1, {(0, 0): 1e308, (1, 1): 1e308, (0, 1): -1e308})
        with pytest.raises(ValueError, match="exceeds the float range"):
            integrate_flow(h)

    def test_ell_max_past_float_range_after_scaling(self):
        # ell_max * 2^(2k) overflows here; the scaled cap saturates instead
        # of failing validation, and the flow converges long before it
        h = make_banded(2, 1, {(0, 0): 1e150, (0, 1): 1e150})
        res = integrate_flow(h, FlowConfig(generator=GeneratorKind.WEGNER, ell_max=1e10))
        assert res.converged

    def test_ell_max_below_float_range_after_scaling(self):
        # ell_max * 2^(2k) underflows here; the scaled cap saturates at the
        # smallest positive float instead of failing validation as 0, the
        # matrix barely moves, and ell_final does not pass the caller's cap
        h = make_banded(2, 1, {(0, 0): 1e-200, (0, 1): 1e-200})
        res = integrate_flow(h, FlowConfig(generator=GeneratorKind.WEGNER, ell_max=1.0))
        assert not res.converged
        assert res.ell_final == 1.0
        assert np.array_equal(res.final.to_dense(), h.to_dense())

    def test_queue_holds_only_blocks_with_work(self, monkeypatch):
        # a converged Lipkin block deflates into single rows, which stand in
        # final at once: every block that is queued has 2 or more rows and
        # is not converged on arrival
        queued = []
        run = flow._Block.run

        def spy(self, tasks):
            nb = self.rows.shape[1]
            queued.append((nb, flow._off_sq(self.rows.ravel(), nb) / self.flow.conv_off_sq))
            return run(self, tasks)

        monkeypatch.setattr(flow._Block, "run", spy)
        for h in build_lipkin_blocks(LipkinParams(xi0=1.0, v0=0.7 / 800.0, two_j=400)):
            queued.clear()
            res = integrate_flow(h)
            assert res.converged and res.stats.n_deflations == h.dim - 1
            assert queued and all(nb >= 2 and ratio > 1.0 for nb, ratio in queued)

    @pytest.mark.parametrize("args,generator,rel_tol,scans", [
        ((0, 60, 3), GeneratorKind.MIELKE, 1e-10, 145),
        ((1, 60, 3), GeneratorKind.MIELKE, 1e-10, 148),
        ((0, 200, 1), GeneratorKind.MIELKE, 1e-10, 1409),
        ((0, 5, 3), GeneratorKind.WEGNER, 1e-11, 0),  # one block: nothing to cut
    ])
    def test_deflation_scans_per_flow(self, monkeypatch, args, generator, rel_tol, scans):
        # a sign-flow block is judged where it starts, at every landing and
        # every _DEFLATE_EVERY steps; a Wegner flow is never scanned
        calls = []
        cuts = flow._BandedFlow._deflation_cuts

        def spy(self, state):
            calls.append(None)
            return cuts(self, state)

        monkeypatch.setattr(flow._BandedFlow, "_deflation_cuts", spy)
        config = FlowConfig(generator=generator, rel_tol=rel_tol)
        res = integrate_flow(random_banded(*args), config)
        assert res.converged
        assert len(calls) == scans

    @pytest.mark.parametrize("args", [
        ([0, 128, 2], 128, 2),  # a block hands over from steps to jumps
        (0, 60, 3), (1, 60, 3), (0, 200, 1),  # the sign flows above
    ])
    def test_no_state_is_scanned_twice(self, monkeypatch, args):
        # a state keeps its scan, so a block that hands over from steps to
        # jumps judges the state its last scan judged without a second scan
        states = []
        cuts = flow._BandedFlow._deflation_cuts

        def spy(self, state):
            states.append(state)  # kept alive, so no later state takes its id
            return cuts(self, state)

        monkeypatch.setattr(flow._BandedFlow, "_deflation_cuts", spy)
        assert integrate_flow(random_banded(*args)).converged
        rescanned = len(states) - len({id(s) for s in states})
        assert states and rescanned == 0

    def test_stencil_compiles_at_most_a_program_per_stage_row(self, monkeypatch):
        # a stepper calls its stencil on one argument buffer and 13 stage
        # rows, so no stencil compiles more than 13 programs
        stencils = []

        class Recorded(flow._Stencil):
            def __init__(self, n, m):
                super().__init__(n, m)
                stencils.append(self)

        monkeypatch.setattr(flow, "_Stencil", Recorded)
        integrate_flow(random_banded(0, 200, 1))  # 8 steppers
        assert len(stencils) == 8
        assert all(0 < len(s._programs) <= 13 for s in stencils)

    def test_flow_leaves_no_reference_cycles(self):
        # a stepper calls back into its block, so the block must let go of
        # it when it stops: a cycle would keep the stepper's stage arrays
        # alive until the next garbage collection
        gc.collect()
        gc.disable()
        try:
            integrate_flow(random_banded(0, 200, 1))  # 8 steppers
            integrate_flow(tridiag123(), FlowConfig(generator=GeneratorKind.WEGNER))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("scale,ells", [
        (1e10, (1e300, 1.7e308)),  # both saturate at the top of the float range
        (1e-300, (1e-10, 1e-10 * (1 + 4e-16))),  # both round to one subnormal
    ])
    def test_snapshot_ells_that_scale_to_one_float(self, scale, ells):
        h = make_banded(2, 1, {(0, 0): scale, (1, 1): -scale, (0, 1): 0.3 * scale})
        res = integrate_flow(h, FlowConfig(snapshot_ells=ells))
        assert ells[0] != ells[1]
        assert [ell for ell, _ in res.snapshots] == list(ells)
        assert np.array_equal(res.snapshots[0][1].rows(), res.snapshots[1][1].rows())

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
        # evaluation belongs to a stepper's construction or to a step.  A
        # sign flow steps only blocks whose state makes steps cheaper than
        # jumps, as in a long spin-boson chain.
        h = spinboson_chain(200) if gen is GeneratorKind.MIELKE else tridiag123()
        stats = integrate_flow(h, FlowConfig(generator=gen)).stats
        assert stats.n_tasks >= 1 and stats.n_accepted > 0
        attempts = stats.n_accepted + stats.n_rejected
        assert stats.n_rhs == 12 * attempts + stats.n_tasks + 1
        if gen is GeneratorKind.MIELKE:
            assert stats.n_deflations >= 1
        else:
            assert (stats.n_tasks, stats.n_deflations) == (1, 0)

    @pytest.mark.parametrize("n,m", [(3, 1), (12, 2), (32, 3)])
    def test_small_block_jumps_without_stepper(self, n, m):
        h = random_banded(n, n, m)
        assert len(split_irreducible(h)) == 1
        res = integrate_flow(h)
        assert res.converged
        assert res.stats.n_rhs == res.stats.n_tasks == res.stats.n_accepted == 0
        assert res.stats.n_jumps >= 1

    def test_large_random_block_jumps_without_stepper(self):
        # a random N = 60, M = 3 block (the ensemble's case) turns its pairs
        # fast against its spread, so jumps pay from the start to the end
        res = integrate_flow(random_banded(0, 60, 3))
        assert res.converged
        assert res.stats.n_rhs == res.stats.n_tasks == res.stats.n_accepted == 0
        assert res.stats.n_jumps >= 1

    def test_long_chain_steps(self):
        # a 200-level spin-boson chain (delta 1, lambda 4, omega 1) is too
        # long for a jump to pay at bandwidth 1, and none of its deflated
        # blocks above 32 rows turns its pairs fast enough against its
        # spread for jumps to pay: they step
        h = spinboson_chain(200)
        res = integrate_flow(h)
        assert res.converged and res.stats.n_tasks >= 1
        ev = eigenvalues_tridiag(h.band(0), h.band(1)).eigenvalues
        np.testing.assert_allclose(res.final.diagonal(), ev, rtol=0.0,
                                   atol=1e-10 * np.max(np.abs(ev)))

    def test_stats_repeat_exactly(self):
        h = random_banded(6, 40, 3)
        a, b = integrate_flow(h), integrate_flow(h)
        assert isinstance(a.stats, FlowStats)
        assert a.stats == b.stats

    def test_stiff_error_pickles(self):
        exc = pickle.loads(pickle.dumps(StiffFlowError(1.5, 2.0, 3.0)))
        assert (exc.ell, exc.frob_sq, exc.offdiag_sq) == (1.5, 2.0, 3.0)

    @staticmethod
    def stall(h, scale):
        h = BandedSymmetricMatrix.from_rows(scale * h.rows())
        with pytest.raises(StiffFlowError) as info:
            integrate_flow(h)
        assert isinstance(info.value.__cause__, StepSizeUnderflow)
        return info.value

    @staticmethod
    def assert_caller_units(h, e1, e2):
        # the flow stalls at the same point at either scale, reported in the
        # caller's units: ell ~ 1/energy, squared norms ~ energy^2
        assert e1.ell > 0.0 and e2.ell == e1.ell / 2.0**10
        assert e2.frob_sq == e1.frob_sq * 2.0**20 and e2.offdiag_sq == e1.offdiag_sq * 2.0**20
        assert e1.frob_sq == pytest.approx(h.frobenius_norm_sq(), rel=1e-9)
        assert 0.0 < e1.offdiag_sq < e1.frob_sq

    def test_stalled_step_reports_caller_units(self, monkeypatch):
        # a 96-level chain jumps first, then steps: the first stepper stalls
        class Stalling(flow.Dopri54):
            def step(self, t_cap):
                raise StepSizeUnderflow(self.t, "stalled")

        monkeypatch.setattr(flow, "Dopri54", Stalling)
        h = spinboson_chain(96)
        e1, e2 = self.stall(h, 1.0), self.stall(h, 2.0**10)
        self.assert_caller_units(h, e1, e2)

    def test_stalled_jump_reports_caller_units(self, monkeypatch):
        # after its first jump, every jump leaves mass in the corner that the
        # tridiagonal flow keeps zero, so it halves until it underflows
        qr_jump = flow._qr_jump
        calls = []

        def leaky(h, dl, sigma, *args):
            g = qr_jump(h, dl, sigma, *args)
            calls.append(dl)
            if len(calls) > 1:
                g[0, 2] = g[2, 0] = 1.0
            return g

        monkeypatch.setattr(flow, "_qr_jump", leaky)
        h = tridiag123()
        e1 = self.stall(h, 1.0)
        calls.clear()
        e2 = self.stall(h, 2.0**10)
        self.assert_caller_units(h, e1, e2)


def pair(a, c, b):
    return make_banded(2, 1, {(0, 0): a, (1, 1): c, (0, 1): b})


def stepped_pair(h, ells):
    """Row arrays of a 2x2 flow at ells by DOP853 on the sign-flow stencil.

    Steps are capped at R h <= 1/10, so a coupling far below the error
    norm's reach is still followed in relative terms.  What limits this
    reference is the rounding of ell summed over the steps: b comes out
    within about 1e-10 relative over the ~700 units of R ell the tests
    span, the diagonal within a few ulp.
    """
    (a, c), (b, _) = h.rows()
    h_max = 0.1 / math.hypot(a - c, 2.0 * b)
    stepper = Dop853(flow._Stencil(2, 1), 0.0, h.rows().ravel(), rel_tol=1e-13, abs_tol=1e-300)
    states = []
    for ell in ells:
        while stepper.t < ell:
            stepper.step(min(ell, stepper.t + h_max))
        states.append(stepper.y.reshape(2, 2).copy())
    return states


def exact_pair(h, ell):
    """Row array of a 2x2 flow at ell from the Toda solution in 400 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(400):
        (a, c), (b, _) = [[mpmath.mpf(float(v)) for v in row] for row in h.rows()]
        r = mpmath.sqrt((a - c) ** 2 + 4 * b * b)
        u = r * mpmath.mpf(ell) + mpmath.atanh((c - a) / r)
        d = -r * mpmath.tanh(u)
        return np.array([[float((a + c + d) / 2), float((a + c - d) / 2)],
                         [float(mpmath.sign(b) * r / 2 * mpmath.sech(u)), 0.0]])


class TestClosedFormPair:
    """2x2 blocks of the sign flow are solved exactly, not stepped."""

    @staticmethod
    def check(h, convergence_tol=1e-10, high_precision=False):
        res = integrate_flow(h, FlowConfig(convergence_tol=convergence_tol))
        assert res.converged
        assert res.stats == FlowStats(n_exact=1)  # no stepper, no RHS evaluation
        end = res.ell_final
        assert end > 0.0
        assert res.final.offdiag_norm_sq() <= convergence_tol**2 * res.final.frobenius_norm_sq()
        # snapshots before the convergence ell are the exact state there,
        # later ones the final state
        ells = (0.25 * end, 0.75 * end, end, 2.0 * end)
        snaps = integrate_flow(h, FlowConfig(convergence_tol=convergence_tol,
                                             snapshot_ells=ells)).snapshots
        assert [e for e, _ in snaps] == list(ells)
        for _e, snap in snaps[2:]:
            assert np.array_equal(snap.rows(), res.final.rows())
        got = [snap.rows() for _e, snap in snaps[:2]] + [res.final.rows()]
        r = math.hypot(h.get(0, 0) - h.get(1, 1), 2.0 * h.get(0, 1))
        refs = [(stepped_pair(h, ells[:3]), 1e-9)]
        if high_precision:
            refs.append(([exact_pair(h, e) for e in ells[:3]], 1e-12))
        for want, b_rtol in refs:
            for g, w in zip(got, want):
                np.testing.assert_allclose(g[0], w[0], rtol=0.0, atol=1e-12 * r)
                np.testing.assert_allclose(g[1, 0], w[1, 0], rtol=b_rtol, atol=0.0)
                assert g[1, 1] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-1.0, 1.0),
        c=st.floats(-1.0, 1.0),
        b=st.floats(1e-3, 1.0),
        b_sign=st.sampled_from([-1.0, 1.0]),
        j=st.integers(-20, 20),
    )
    def test_random_pairs(self, a, c, b, b_sign, j):
        self.check(pair(*np.ldexp([a, c, b_sign * b], j)))

    @pytest.mark.parametrize("a,c,b", [
        (0.5, 0.5, 0.3), (0.5, 0.5, -0.3),  # D0 = 0
        (1.0, -1.0, 0.2), (1.0, -1.0, -0.2),  # D0 > 0: the flow swaps the pair
        (-1.0, 1.0, 0.2), (-1.0, 1.0, -0.2),  # D0 < 0: already ordered
        (-3.0, 5.0, 0.7), (2e-5, -1e-5, 3e-6),
    ])
    def test_fixed_pairs(self, a, c, b):
        self.check(pair(a, c, b), high_precision=True)

    @pytest.mark.parametrize("a,c", [(0.3, -0.4), (-0.4, 0.3)])
    @pytest.mark.parametrize("b", [1e-150, -1e-150])
    def test_tiny_coupling(self, a, c, b):
        # b0^2 is 1e-300: only a tolerance below it keeps the pair flowing
        self.check(pair(a, c, b), convergence_tol=1e-155, high_precision=True)

    @pytest.mark.parametrize("ell_max,converged,ell_final,n_deflations", [
        (1.0, False, 1.0, 0), (2.0, True, 2.0, 1), (3.0, True, None, 0),
    ])
    def test_ell_max_cut_short(self, ell_max, converged, ell_final, n_deflations):
        # The stepped flow deflated this pair by the quadratic rule at
        # ell ~ 1.3, long before 2 b^2 reaches the convergence threshold at
        # ell ~ 2.66, and so reported converged for any ell_max past 1.3.
        # Cut short at ell_max, the exact state is offered to the same rule.
        h = pair(-3.0, 5.0, 0.7)
        res = integrate_flow(h, FlowConfig(ell_max=ell_max, snapshot_ells=(0.5, 3.5)))
        assert res.converged is converged
        assert res.stats == FlowStats(n_deflations=n_deflations, n_exact=1)
        if ell_final is None:
            assert 2.6 < res.ell_final < 2.7
        else:
            assert res.ell_final == ell_final
        if converged:
            r = math.hypot(8.0, 1.4)
            np.testing.assert_allclose(res.final.diagonal(), [1 - r / 2, 1 + r / 2],
                                       rtol=0.0, atol=1e-9)
            assert res.final.offdiag_norm_sq() <= 1e-20 * res.final.frobenius_norm_sq()
            assert res.diagnostics.frobenius_drift <= 1e-9
        else:
            assert res.final.offdiag_norm_sq() > 1e-20 * res.final.frobenius_norm_sq()
        # the snapshot at 0.5 is the exact state there, the one past the end
        # the final state
        np.testing.assert_allclose(res.snapshots[0][1].rows(), exact_pair(h, 0.5),
                                   rtol=1e-12, atol=0.0)
        assert np.array_equal(res.snapshots[1][1].rows(), res.final.rows())

    @pytest.mark.parametrize("seed", [94, 703])
    def test_close_pair_runs_past_automatic_cap(self, seed):
        # A zero-diagonal tridiagonal whose middle eigenvalues lie 7.0e-6
        # (seed 94) or 3.8e-7 (seed 703) apart: their 2x2 block converges
        # at ell 1.7e6 or 2.4e7, past the automatic ell_max (about 5e5 and
        # 6e5).  That cap bounds work, and a pair costs O(1), so the pair
        # runs to its crossing; an ell_max the caller sets still stops it.
        off = np.random.default_rng(seed).uniform(-1, 1, 15)
        h = BandedSymmetricMatrix(16, 1, [np.zeros(16), off])
        rows = h.rows()
        cap = flow._auto_ell_max(rows[0], flow._gershgorin_radii(rows), 1)
        res = integrate_flow(h)
        assert res.converged and res.ell_final > cap
        ev = eigenvalues_dense(h.to_dense()).eigenvalues
        np.testing.assert_allclose(res.final.diagonal(), ev, rtol=0.0, atol=1e-11)
        capped = integrate_flow(h, FlowConfig(ell_max=cap))
        assert not capped.converged and capped.ell_final == cap

    def test_tiny_coupling_converged_on_arrival(self):
        # 1e-170 ** 2 underflows: the pair is irreducible but arrives
        # converged, so the closed form (and its logarithm) never runs
        h = pair(1.0, 0.0, 1e-170)
        res = integrate_flow(h)
        assert res.converged and res.ell_final == 0.0
        assert res.stats == FlowStats()
        assert np.array_equal(res.final.rows(), h.rows())


def coupling_components(h):
    """Index sets connected by nonzero couplings.

    For M >= 2 these can interleave: h_01 = h_12 = 0 with h_02 != 0 leaves
    {0, 2} and {1}, one block for split_irreducible, whose cuts are
    contiguous.  The flow never couples them, so each set flows apart.
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


# Smallest leading principal minor of a component's eigenvector matrix for
# which the sorted order is asserted (see eigenvector_minor).
MINOR_FLOOR = 1e-6


def eigenvector_minor(dense):
    """Smallest |det V^T[:k, :k]| for V the eigenvectors of the symmetric
    matrix dense, in ascending order of their eigenvalues.

    The sign flow of a component is the Toda flow, H(ell) = Q^T H Q with
    e^{-ell H} = QR, i.e. the QR algorithm run on e^{-ell H} (Symes 1982;
    Watkins 1984), whose limit is the ascending diagonal when every such
    minor is nonzero.  A tridiagonal component always qualifies; for M >= 2
    a vanishing minor leaves the limit unsorted (see test_unsorted_limit).
    """
    _w, v = np.linalg.eigh(dense)
    return min((abs(np.linalg.det(v.T[:k, :k])) for k in range(1, len(v))), default=1.0)


class TestFlowProperties:
    """Invariants over random banded inputs, reducible and near-degenerate."""

    @settings(max_examples=25, deadline=None)
    @given(h=structured_banded(16, 4))
    # The close pair (1, 1.0000127) shares a block with rows 6-8, which no
    # coupling joins once deflation zeroes (5, 9); only a cut at those
    # exactly-zero boundaries lets the pair converge under the automatic
    # ell_max.
    @example(h=make_banded(10, 4, {(n, n): 1 for n in (0, 1, 4, 5, 7, 8, 9)} | {
        (0, 2): -0.9666, (0, 3): -0.2974, (1, 5): 0.4148, (2, 4): 0.0121,
        (2, 5): -0.5003, (5, 9): -0.553}))
    # Deflated at ell_max = 8, where its snapshot was never written.
    @example(h=BandedSymmetricMatrix(3, 2, [
        [-0.9319088354444491, -0.141071710722245, 0.3704071797996853],
        [-0.6873067001928272, -0.22868431068489836], [-0.9603317090601262]]))
    # A pair deflated at ell_max = 2, whose snapshot there showed the cut.
    @example(h=make_banded(2, 1, {(0, 0): -3.0, (1, 1): 5.0, (0, 1): 0.7}))
    def test_sign_generator(self, h):
        ells = (0.5, 2.0, 1e6)  # the last far past convergence
        res = integrate_flow(h, FlowConfig(snapshot_ells=ells))
        assert res.converged
        for mat in [res.final] + [snap for _ell, snap in res.snapshots]:
            assert (mat.dim, mat.bandwidth) == (h.dim, h.bandwidth)
        # every block stops by ell_final and writes its rows once, into final
        # and every later snapshot (a snapshot at ell_final itself shows the
        # flow before a cut made there)
        past = [snap for ell, snap in res.snapshots if ell > res.ell_final]
        assert past or res.ell_final >= 1e6
        for snap in past:
            assert np.array_equal(snap.rows(), res.final.rows())
        ev = eigenvalues_dense(h.to_dense()).eigenvalues
        tol = 1e-8 * max(np.max(np.abs(ev)), 1e-300)
        d = res.final.diagonal()
        dense = h.to_dense()
        for idx in coupling_components(h):  # each split_irreducible block is a union
            if eigenvector_minor(dense[np.ix_(idx, idx)]) > MINOR_FLOOR:
                assert np.all(np.diff(d[idx]) >= -tol)
        np.testing.assert_allclose(np.sort(d), ev, rtol=0.0, atol=tol)
        assert res.diagnostics.partial_trace_violation <= 1e-9
        # a snapshot at ell_max shows the flow there before any cut, as a
        # longer flow does
        for e in (0.5, 2.0, 8.0):
            at, past = (integrate_flow(h, FlowConfig(ell_max=c, snapshot_ells=(e,)))
                        .snapshots[0][1].rows() for c in (e, 2.0 * e))
            assert np.array_equal(at, past)

    def test_unsorted_limit(self):
        # Irreducible, but the lowest eigenvector (0, 1, 1, 2)/sqrt(6) has
        # first component 0: the first leading minor vanishes, and the exact
        # flow converges to an unsorted diagonal.
        h = make_banded(4, 2, {(0, 0): 0, (1, 1): 2, (2, 2): 2, (3, 3): 0, (0, 1): -1,
                               (1, 2): -1, (2, 3): -1, (0, 2): 1, (1, 3): -1})
        assert len(coupling_components(h)) == 1
        assert eigenvector_minor(h.to_dense()) < 1e-15
        res = integrate_flow(h)
        assert res.converged
        d = res.final.diagonal()
        ev = eigenvalues_dense(h.to_dense()).eigenvalues
        np.testing.assert_allclose(np.sort(d), ev, rtol=0.0, atol=1e-9)
        r17 = math.sqrt(17.0)
        np.testing.assert_allclose(d, [(3 - r17) / 2, -1.0, (3 + r17) / 2, 2.0],
                                   rtol=0.0, atol=1e-9)
        assert not np.all(np.diff(d) >= 0.0)

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


def stepped_band(h, ells, rel_tol):
    """Row arrays of h's sign flow at ells by DOP853 on the stencil alone:
    one undeflated system, no jump, no closed form."""
    n, m = h.dim, h.bandwidth
    stepper = Dop853(flow._Stencil(n, m), 0.0, h.rows().ravel(), rel_tol=rel_tol, abs_tol=1e-300)
    states = []
    for ell in ells:
        while stepper.t < ell:
            stepper.step(ell)
        states.append(stepper.y.reshape(m + 1, n).copy())
    return states


def default_stepped_band(h, ells, convergence_tol):
    """Row arrays of h's sign flow at ells as one undeflated DOP853 run at
    the default tolerances, stepped as integrate_flow steps a block: on
    h / 2^k (2^k the binary exponent of max|h|) with abs_tol in units of
    2^k and the Frobenius norm, off-diagonals counted twice, as scale.  It
    stops once 2 ||off||^2 <= convergence_tol^2 ||H||_F^2, and later ells
    get that state."""
    n, m = h.dim, h.bandwidth
    k = int(np.frexp(float(np.max(np.abs(h.rows()))))[1])
    y0 = np.ldexp(h.rows(), -k).ravel()

    def off_sq(y):
        return 2.0 * float(np.dot(y[n:], y[n:]))

    def frob_sq(y):
        return float(np.dot(y[:n], y[:n])) + off_sq(y)

    conv_off_sq = convergence_tol**2 * max(frob_sq(y0), 1e-300)
    stepper = Dop853(flow._Stencil(n, m), 0.0, y0, rel_tol=1e-10, abs_tol=1e-12,
                     scale=lambda y: math.sqrt(frob_sq(y)))
    states = []
    for ell in ells:
        cap = float(np.ldexp(ell, k))
        while stepper.t < cap and off_sq(stepper.y) > conv_off_sq:
            stepper.step(cap)
        states.append(np.ldexp(stepper.y.reshape(m + 1, n), k))
    return states


def gershgorin_spread(h):
    d = h.diagonal()
    radii = np.abs(h.to_dense() - np.diag(d)).sum(axis=1)
    return float(np.max(d + radii) - np.min(d - radii))


SPAN = math.log(1e-10 / 2.0**-53)  # one jump at the default rel_tol, times s


def jumps_pay_at_start(rows):
    """The choice of a sign-flow block with rows that has not stepped yet."""
    return flow._jumps_pay(flow._State(rows.ravel(), rows.shape[1]), SPAN)


def assert_jumps_match_stepper(h):
    """Snapshots of h's sign flow at 2/s and 8/s and the final at 64/s, s the
    Gershgorin spread, against DOP853 at rel_tol 1e-13 on the stencil.

    One jump spans ln(rel_tol / u) = 13.7 of these units, so 8 -> 64 takes
    five.  A convergence tolerance of 1e-30 keeps deflation out of the way.
    A fixed bound does not fit: near-degenerate inputs whose flow passes
    close to an unsorted pair amplify every error, and the jump error
    reached 2.8e-9 max|h| on one.  So the flow is held to the error of the
    stepper it replaces (default_stepped_band, at the default rel_tol
    1e-10) times 4, plus 1e-12 max|h|.  On 600 random draws of blocks of 3
    to 32 rows (1,797 snapshots) the jump error was at most 0.05 times
    that.  Returns the flow's stats.
    """
    s = gershgorin_spread(h)
    if s == 0.0:
        return FlowStats()
    ells = (2.0 / s, 8.0 / s, 64.0 / s)
    cfg = dict(convergence_tol=1e-30, ell_max=ells[-1], snapshot_ells=ells[:-1])
    jumped = integrate_flow(h, FlowConfig(**cfg))
    stepped = default_stepped_band(h, ells, cfg["convergence_tol"])
    reference = stepped_band(h, ells, 1e-13)
    floor = 1e-12 * float(np.max(np.abs(h.rows())))
    for j, st_, ref in zip(
        [m.rows() for _e, m in jumped.snapshots] + [jumped.final.rows()],
        stepped,
        reference,
    ):
        # what the exact flow keeps zero stays exactly zero
        assert np.all(j[ref == 0.0] == 0.0)
        assert np.max(np.abs(j - ref)) <= 4.0 * np.max(np.abs(st_ - ref)) + floor
    return jumped.stats


def reference_flow_pattern(h):
    """flow._flow_pattern written out: the coupling graph's components by
    breadth-first search, then h_ab (a <= b) is kept when a and b share a
    component and some a' <= a of it has a nonzero h_a'j with j >= b."""
    n = h.shape[0]
    comp = [-1] * n
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root], queue = root, [root]
        while queue:
            a = queue.pop(0)
            for b in range(n):
                if h[a, b] != 0.0 and comp[b] < 0:
                    comp[b] = root
                    queue.append(b)
    keep = np.eye(n, dtype=bool)
    for a in range(n):
        for b in range(a + 1, n):
            keep[a, b] = keep[b, a] = comp[a] == comp[b] and any(
                comp[p] == comp[a] and np.any(h[p, b:] != 0.0) for p in range(a + 1))
    return keep


@st.composite
def patterned_block(draw, chain):
    """A dense symmetric block of 2 to 40 rows and bandwidth 1 to 4 with
    random zeros in its bands: its first superdiagonal has none if chain,
    else at least one."""
    n = draw(st.integers(2, 40))
    m = min(draw(st.integers(1, 4)), n - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_zero = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    bands = [rng.uniform(-1.0, 1.0, n)]
    for k in range(1, m + 1):
        b = rng.uniform(0.5, 1.0, n - k) * rng.choice([-1.0, 1.0], n - k)
        b[rng.random(n - k) < p_zero] = 0.0
        if k == 1:
            if chain:
                b[b == 0.0] = 0.75
            elif not (b == 0.0).any():
                b[rng.integers(0, n - 1)] = 0.0
        bands.append(b)
    return BandedSymmetricMatrix(n, m, bands).to_dense()


class TestJumpParts:
    """The pieces of a jump against independent references."""

    @settings(max_examples=60, deadline=None)
    @given(h=st.booleans().flatmap(patterned_block))
    def test_flow_pattern_matches_reference(self, h):
        assert np.array_equal(flow._flow_pattern(h), reference_flow_pattern(h))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.1, 0.3, 1.0, 7.0, 50.0]))
    def test_expm_keeps_its_halves(self, n, seed, scale):
        # the inputs of the last two squarings are exp(a / 2) and exp(a / 4)
        # as _expm computes them, bit for bit
        rng = np.random.default_rng(seed)
        a = scale * rng.uniform(-1.0, 1.0, (n, n))
        a += a.T
        e, half, quarter = flow._expm(a)
        norm = np.max(np.abs(a).sum(axis=0))
        assert (half is None, quarter is None) == (norm <= 0.5, norm <= 1.0)
        if half is not None:
            assert np.array_equal(half, flow._expm(a / 2.0)[0])
            assert np.array_equal(e, half @ half)
        if quarter is not None:
            assert np.array_equal(quarter, flow._expm(a / 4.0)[0])

    def test_bisection_reuses_the_landings_exponential(self, monkeypatch):
        # the input of test_deflation_inside_a_jump bisects its deflating
        # landing: halving the landing's step from the same state reads the
        # exponential that the landing kept, so fewer are computed than
        # jumps are made
        expm = flow._expm
        calls = []

        def counting(a):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(flow, "_expm", counting)
        h = make_banded(3, 1, {(0, 0): -0.18618, (1, 1): -0.17698, (2, 2): -0.18857,
                               (0, 1): -5.01917e-12, (1, 2): -5.93522e-4})
        res = integrate_flow(h, FlowConfig(ell_max=3000.0))
        assert res.converged and res.stats.n_deflations == 1
        assert 0 < len(calls) < res.stats.n_jumps

    @staticmethod
    def assert_qr_matches_numpy(h, e, dl):
        # the jump factors e through numpy.linalg.qr's own gufuncs: Q, the
        # signs of R's diagonal and Q^T h Q equal numpy.linalg.qr's, bit for
        # bit (a numpy that moves or changes those gufuncs fails here)
        q_ref, r_ref = np.linalg.qr(e)
        sign_ref = np.where(np.diagonal(r_ref) < 0.0, -1.0, 1.0)
        q_ref = q_ref * sign_ref
        a = e.copy()
        q = flow._qr_reduced(a, flow._qr_r_raw(a))
        sign = np.where(a.diagonal() < 0.0, -1.0, 1.0)
        assert np.array_equal(sign, sign_ref)
        assert np.array_equal(q * sign, q_ref)
        kept = e.copy()
        assert np.array_equal(flow._qr_jump(h, dl, 0.0, {dl: e}), q_ref.T @ h @ q_ref)
        assert np.array_equal(e, kept)  # the kept exponential is not factored in place
        return sign

    def test_qr_matches_numpy_at_every_size(self):
        rng = np.random.default_rng(0)
        for n in range(1, 65):
            h = random_banded(n, n, min(3, n - 1)).to_dense()
            self.assert_qr_matches_numpy(h, rng.standard_normal((n, n)), 1.0)

    def test_qr_matches_numpy_on_ensemble_exponentials(self):
        # the benchmark ensemble's 60-row blocks, factored as a first jump
        # factors them: e^{-dl (H - sigma)} over one span
        for k in range(4):
            rng = np.random.default_rng(k)
            rows = BandedSymmetricMatrix(60, 3, [rng.uniform(-1.0, 1.0, 60 - j)
                                                 for j in range(4)]).rows()
            _, _, lo, hi = flow._State(rows.ravel(), 60).edges()
            dl, sigma = SPAN / (hi - lo), 0.5 * (lo + hi)
            h = BandedSymmetricMatrix.from_rows(rows).to_dense()
            e = flow._expm(-dl * (h - sigma * np.eye(60)))[0]
            self.assert_qr_matches_numpy(h, e, dl)

    def test_qr_flips_negative_diagonal_of_r(self):
        # Householder QR leaves R's diagonal with either sign: here some are
        # negative, and the jump turns those columns of Q over
        e = np.array([[2.0, 1.0, 0.0], [1.0, -3.0, 1.0], [0.0, 1.0, 4.0]])
        sign = self.assert_qr_matches_numpy(tridiag123().to_dense(), e, 1.0)
        assert (sign < 0.0).any() and (sign > 0.0).any()


@st.composite
def extreme_rows(draw):
    """An (M+1) x N row array, M = 0..4 and N = 1..40, whose entries mix
    zeros of both signs, values of order 1 and values near 1e-160 and 1e150,
    whose squares underflow or come near the top of the float range; its
    diagonal is sorted in about half the draws."""
    n = draw(st.integers(1, 40))
    m = min(draw(st.integers(0, 4)), n - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = np.array([0.0, -0.0, 1.0, 1e-160, 1e150])
    weights = draw(st.sampled_from([(0, 0, 1, 0, 0), (1, 1, 2, 0, 0), (1, 1, 1, 1, 1),
                                    (0, 0, 1, 2, 0), (0, 1, 1, 0, 2), (2, 2, 0, 1, 1)]))
    p = np.array(weights, dtype=float) / sum(weights)
    rows = np.zeros((m + 1, n))
    for k in range(m + 1):
        rows[k, : n - k] = rng.uniform(-1.0, 1.0, n - k) * rng.choice(scales, n - k, p=p)
    if draw(st.booleans()):  # a sorted diagonal, as the flow leaves it
        rows[0].sort()
    return rows


def reference_unsorted_pair(rows):
    """flow._has_unsorted_pair entry by entry."""
    d, n = rows[0], rows.shape[1]
    return any(rows[k, j] != 0.0 and d[j] > d[j + k]
               for k in range(1, rows.shape[0]) for j in range(n - k))


def scaled_as_flowed(rows):
    """rows / 2^k with max|h_nm| / 2^k in [0.5, 1), as integrate_flow flows them."""
    return np.ldexp(rows, -int(np.frexp(float(np.max(np.abs(rows))))[1]))


class TestLandingChecks:
    """The checks at a jump's landing on extreme inputs."""

    @settings(max_examples=200, deadline=None)
    @given(rows=extreme_rows())
    def test_unsorted_pair_matches_reference(self, rows):
        assert flow._has_unsorted_pair(rows) is reference_unsorted_pair(rows)

    @settings(max_examples=200, deadline=None)
    @given(rows=extreme_rows(), f=st.floats(0.25, 4.0))
    def test_bound_gives_the_full_choice(self, rows, f):
        # r >= 4 max|h_nm| however it rounds: where jumps pay at the step
        # rate / (4 max|h_nm|), they pay at rate / r, and the shortcut's
        # choice is the full one.  rate is drawn around the rate at which
        # the full choice flips, so that both choices are drawn.  The flow
        # chooses on H / 2^k (see scaled_as_flowed).
        rows = scaled_as_flowed(rows)
        off = np.abs(rows[1:])
        if off.size == 0 or not off.max() > 0.0:
            return  # no coupling: a block like this is never asked
        state = flow._State(rows.ravel(), rows.shape[1])
        r = flow._coupling_rate(rows)
        cost = (rows.shape[1] / flow._JUMP_ROWS) ** 3 * 4.0 / rows.shape[0]
        rate = f * SPAN * r / (state.spread() * cost)
        full = flow._jumps_pay(state, SPAN, step=rate / r)
        if flow._jumps_pay(state, SPAN, step=rate / (4.0 * float(off.max()))):
            assert full
        assert flow._jumps_pay(state, SPAN, rate=rate) == full

    @settings(max_examples=200, deadline=None)
    @given(rows=extreme_rows())
    def test_deflation_scan_neither_divides_nor_overflows(self, rows):
        # the scan runs on H / 2^k with no errstate of its own: nothing in it
        # divides by zero, overflows or forms a NaN
        h = BandedSymmetricMatrix.from_rows(scaled_as_flowed(rows))
        scan = flow._BandedFlow(h, FlowConfig())
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            cuts = scan._deflation_cuts(flow._State(h.rows().ravel(), h.dim))
        assert all(0 < c < h.dim for c in cuts)


class TestQRJumps:
    """Sign-flow blocks of 3 or more rows jump or step as their own state
    makes cheaper; at the default rel_tol, a block of 3 to 32 rows whose
    couplings connect it jumps if no stepper ran in its history."""

    @settings(max_examples=25, deadline=None)
    @given(h=structured_banded(32, 4, n_min=3))
    def test_snapshots_match_stepper(self, h):
        assert assert_jumps_match_stepper(h).n_tasks == 0

    @settings(max_examples=6, deadline=None)
    @given(h=structured_banded(96, 4, n_min=33))
    def test_large_block_snapshots_match_stepper(self, h):
        assert_jumps_match_stepper(h)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(3, 32), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           coupling=st.sampled_from([1e-12, 1e-6, 1e-2, 1.0, 1e3]))
    def test_connected_blocks_of_up_to_32_rows_jump(self, n, m, seed, coupling):
        # an evenly spaced ladder joined by its first band is the case the
        # bound s <= (N - 1 + M) r leaves tightest: the predicted steps per
        # span still exceed a jump's cost at the default rel_tol
        rng = np.random.default_rng(seed)
        m = min(m, n - 1)
        bands = [np.arange(n, dtype=float)] + [
            coupling * rng.uniform(0.5, 1.0, n - k) * (1.0 if k == 1 else rng.integers(0, 2, n - k))
            for k in range(1, m + 1)
        ]
        assert jumps_pay_at_start(BandedSymmetricMatrix(n, m, bands).rows())

    def test_hand_over_carries_the_step_rate(self, monkeypatch):
        # the stepper hands the block to jumps with the h r it ran at, and
        # the block decides at its landings with that rather than the guess
        calls = []
        pay = flow._jumps_pay

        def spy(state, span, step=None, rate=flow._STEP_RATE):
            calls.append((state.rows.copy(), step, rate, pay(state, span, step, rate)))
            return calls[-1][3]

        monkeypatch.setattr(flow, "_jumps_pay", spy)
        h = random_banded(0, 128, 2)  # one block throughout (see the test after next)
        integrate_flow(h, FlowConfig(convergence_tol=1e-30, ell_max=64.0 / gershgorin_spread(h)))
        assert calls[0][1:3] == (None, flow._STEP_RATE) and not calls[0][3]
        k = next(i for i, c in enumerate(calls) if c[3])  # the stepper hands over
        rows, step = calls[k][:2]
        rate = step * flow._coupling_rate(rows)
        assert rate != flow._STEP_RATE
        # the block switches in place and next decides at its first landing,
        # at the step rate / r that it predicts from its landed rows
        landed = calls[k + 1][0]
        assert not np.array_equal(landed, rows)
        assert calls[k + 1][1:3] == (None, rate)
        assert calls[k + 1][3] == pay(flow._State(landed.ravel(), landed.shape[1]), SPAN,
                                      step=rate / flow._coupling_rate(landed))

    def test_pieces_carry_the_step_rate(self):
        # pieces split off a stepping block judge jumps by its h r, not by the
        # guess: the 64-row chain takes 12 jumps, and 26 under the guess
        h = spinboson_chain(64, delta=3.0)
        stats = integrate_flow(h).stats
        assert stats.n_tasks >= 1 and stats.n_deflations >= 1
        assert 1 <= stats.n_jumps <= 16

    def test_scans_judge_by_the_mean_step(self):
        # a random tridiagonal of 128 rows sits near the crossover: judged by
        # the stepper's next step alone, its dips hand blocks over to jumps
        # and back, and the flow builds 12 steppers, not 5
        stats = integrate_flow(random_banded([0, 128, 1], 128, 1)).stats
        assert 1 <= stats.n_tasks <= 8

    def test_chain_hands_jumps_to_steps(self):
        # nothing deflates, so one block flows throughout: it jumps while
        # its large couplings turn, then steps once they have decayed
        h = spinboson_chain(96)
        assert jumps_pay_at_start(h.rows())
        stats = assert_jumps_match_stepper(h)
        assert stats.n_deflations == 0 and stats.n_jumps >= 1 and stats.n_tasks == 1

    def test_random_hands_steps_to_jumps(self):
        # a random pentadiagonal of 128 rows sits near the crossover: its one
        # block starts with steps and hands over to jumps
        h = random_banded(0, 128, 2)
        assert not jumps_pay_at_start(h.rows())
        stats = assert_jumps_match_stepper(h)
        assert stats.n_deflations == 0 and stats.n_jumps >= 1 and stats.n_tasks == 1

    def test_interleaved_components_keep_their_shape(self):
        # {1, 2, 3} is a tridiagonal chain and {0, 4} a pair reaching across
        # it.  The exact flow keeps each component's own staircase shape, so
        # h_13 stays zero although h_04 spans it: a jump must drop the
        # roundoff Householder leaves there, or it grows with the flow.
        h = make_banded(5, 4, {(0, 0): 2.0, (1, 1): 1.5, (2, 2): 0.5, (3, 3): -0.5,
                               (4, 4): -1.0, (1, 2): 0.4, (2, 3): 0.3, (0, 4): 0.2})
        ells = (0.5, 2.0, 8.0)
        res = integrate_flow(h, FlowConfig(convergence_tol=1e-30, ell_max=20.0,
                                           snapshot_ells=ells))
        assert res.stats.n_jumps >= 1
        ref = stepped_band(h, ells, 1e-13)
        for (_e, m), want in zip(res.snapshots, ref):
            assert m.get(1, 3) == 0.0 and want[2, 1] == 0.0
            np.testing.assert_allclose(m.rows(), want, rtol=0.0, atol=1e-12)
        assert res.final.get(1, 3) == 0.0

    def test_deflation_inside_a_jump(self):
        # The unsorted pair (1, 2) swaps within the first jumps, which makes
        # (0, 1) an unsorted near-degenerate pair (gap 2.4e-3) whose 5e-12
        # coupling the flow then grows.  The cut at 2 is allowed well inside
        # a jump (13.7 / s ~ 1100 long here); placed at the landing, it
        # leaves (0, 1) coupled above the threshold, and the pair needs
        # ~1e4 more to swap.  Bisected back, the cut comes early enough for
        # the pair to count as converged, as the stepper found it (the
        # stepped flow reported converged at ell 1274).
        h = make_banded(3, 1, {(0, 0): -0.18618, (1, 1): -0.17698, (2, 2): -0.18857,
                               (0, 1): -5.01917e-12, (1, 2): -5.93522e-4})
        res = integrate_flow(h, FlowConfig(ell_max=3000.0))
        assert res.converged and res.ell_final < 1500.0
        assert res.stats.n_deflations == 1 and res.stats.n_tasks == 0
        ev = eigenvalues_dense(h.to_dense()).eigenvalues
        np.testing.assert_allclose(np.sort(res.final.diagonal()), ev, rtol=0.0, atol=1e-12)

    def test_jump_spans(self):
        # a 3x3 flow to ell_max lands exactly there; each jump covers
        # ln(rel_tol / u) / s, so ell_max = 3.5 jump spans takes 4 jumps
        h = tridiag123()
        s = gershgorin_spread(h)
        span = SPAN / s
        res = integrate_flow(h, FlowConfig(convergence_tol=1e-30, ell_max=3.5 * span))
        assert res.ell_final == 3.5 * span and not res.converged
        assert res.stats == FlowStats(n_jumps=4)

    def test_snapshot_at_jump_start(self):
        # a snapshot at the block's start ell is the input; later ones are
        # landed on exactly, and the final state is converged
        h = tridiag123()
        res = integrate_flow(h, FlowConfig(snapshot_ells=(0.0, 0.1, 1.0, 50.0)))
        assert res.converged
        assert np.array_equal(res.snapshots[0][1].rows(), h.rows())
        ref = stepped_band(h, (0.1, 1.0), 1e-13)
        for (_e, m), want in zip(res.snapshots[1:3], ref):
            np.testing.assert_allclose(m.rows(), want, rtol=0.0, atol=1e-12)
        assert np.array_equal(res.snapshots[3][1].rows(), res.final.rows())


def wilkinson_plus(m):
    """W_{2m+1}^+: diagonal |m - i| for i = 0..2m, unit couplings."""
    n = 2 * m + 1
    return BandedSymmetricMatrix(n, 1, [np.abs(m - np.arange(n)).astype(float), np.ones(n - 1)])


def glued_wilkinson(coupling, copies=5):
    """copies of W21+ end to end, each joined to the next by coupling."""
    w = wilkinson_plus(10)
    off = np.append(w.band(1), coupling)
    return BandedSymmetricMatrix(w.dim * copies, 1, [np.tile(w.band(0), copies),
                                                     np.tile(off, copies)[:-1]])


def graded_chain(n=40):
    """Diagonal 2^-i and couplings 2^-i / 2: eigenvalues over 12 decades."""
    scale = 2.0 ** -np.arange(n)
    return BandedSymmetricMatrix(n, 1, [scale, 0.5 * scale[:-1]])


class TestHardInputs:
    """Classic hard inputs for eigensolvers (Wilkinson matrices, glued
    copies of them: Dhillon, Parlett & Vomel 2005; a graded chain).  A flow
    that reports converged meets acceptance criterion 02: every eigenvalue
    within 1e-7 max|lambda| of eigvalsh."""

    @pytest.mark.parametrize("h,must_converge", [
        (wilkinson_plus(10), True),
        (wilkinson_plus(50), True),
        # the glue lies below the Weyl budget, but the copies' spectra
        # overlap, so no ordered cut exists there; these may report
        # converged=False
        (glued_wilkinson(1e-10), False),
        (glued_wilkinson(1e-14), False),
        (graded_chain(), False),
    ], ids=["W21+", "W101+", "glued-1e-10", "glued-1e-14", "graded-40"])
    def test_converged_meets_the_contract(self, h, must_converge):
        res = integrate_flow(h)
        assert res.converged or not must_converge
        if res.converged:
            ref = np.linalg.eigvalsh(h.to_dense())
            err = np.max(np.abs(np.sort(res.final.diagonal()) - ref))
            assert err <= 1e-7 * np.max(np.abs(ref))


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

    def test_diagonal_entry_rejected(self):
        # the rate is defined for off-diagonal entries only
        res = integrate_flow(tridiag123(), FlowConfig(snapshot_ells=(1.0, 2.0, 3.0, 4.0)))
        with pytest.raises(ValueError, match="diagonal entry"):
            decay_rate_estimate(res.snapshots, 1, 1)

    def test_diagonal_input_rejected(self):
        h = make_banded(2, 1, {(0, 0): 1.0, (1, 1): 2.0})
        res = integrate_flow(h, FlowConfig(snapshot_ells=(0.5, 1.0, 2.0)))
        with pytest.raises(ValueError, match="floor"):
            decay_rate_estimate(res.snapshots, 0, 1)
