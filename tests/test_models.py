import dataclasses

import numpy as np
import pytest

from bandflow.models import (
    LipkinParams,
    SpinBosonParams,
    SpinBosonReducedState,
    TruncationError,
    build_lipkin_blocks,
    build_spinboson,
    certify_truncation,
    default_n_trunc,
    integrate_lipkin_reduced,
    integrate_spinboson_reduced,
    lipkin_reduced_conserved,
    lipkin_reduced_initial,
    lipkin_reduced_rhs,
    spinboson_delta0_flow,
    spinboson_reduced_rhs,
)
from bandflow.oracle import eigenvalues_tridiag


def combined_spectrum(params):
    evs = []
    for blk in build_lipkin_blocks(params):
        off = blk.band(1) if blk.dim > 1 else np.zeros(0)
        evs.append(eigenvalues_tridiag(blk.band(0), off).eigenvalues)
    return np.sort(np.concatenate(evs))


class TestLipkinBuild:
    def test_spin_one_blocks(self):
        a, b = build_lipkin_blocks(LipkinParams(xi0=1.0, v0=0.3, two_j=2))
        np.testing.assert_allclose(a.to_dense(), [[-1.0, 0.6], [0.6, 1.0]])
        assert b.dim == 1 and b.get(0, 0) == 0.0

    def test_no_coupling_is_diagonal(self):
        a, b = build_lipkin_blocks(LipkinParams(xi0=2.0, v0=0.0, two_j=7))
        j = 3.5
        assert a.offdiag_norm_sq() == 0.0 and b.offdiag_norm_sq() == 0.0
        np.testing.assert_allclose(a.diagonal(), 2.0 * (-j + 2 * np.arange(4)))
        np.testing.assert_allclose(b.diagonal(), 2.0 * (-j + 2 * np.arange(4) + 1))

    def test_spin_one_combined_spectrum(self):
        xi0, v0 = 1.0, 0.4
        ev = combined_spectrum(LipkinParams(xi0=xi0, v0=v0, two_j=2))
        root = np.sqrt(xi0**2 + 4 * v0**2)
        np.testing.assert_allclose(ev, [-root, 0.0, root], atol=1e-12)

    @pytest.mark.parametrize("two_j", range(1, 41))
    def test_block_dimensions(self, two_j):
        a, b = build_lipkin_blocks(LipkinParams(xi0=1.0, v0=0.01, two_j=two_j))
        if two_j % 2 == 0:
            assert (a.dim, b.dim) == (two_j // 2 + 1, two_j // 2)
        else:
            assert a.dim == b.dim == (two_j + 1) // 2
        assert a.dim + b.dim == two_j + 1

    @pytest.mark.parametrize("two_j", [3, 8, 13])
    def test_spectrum_symmetric_under_coupling_sign(self, two_j):
        p_plus = LipkinParams(xi0=1.0, v0=0.07, two_j=two_j)
        p_minus = dataclasses.replace(p_plus, v0=-0.07)
        np.testing.assert_allclose(
            combined_spectrum(p_plus), combined_spectrum(p_minus), atol=1e-11
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            LipkinParams(xi0=0.0, v0=0.1, two_j=2)
        with pytest.raises(ValueError):
            LipkinParams(xi0=1.0, v0=0.1, two_j=0)


class TestLipkinReduced:
    PARAMS = LipkinParams(xi0=1.0, v0=0.004, two_j=100)  # 4*J*v0 = 0.8

    def test_frozen_coupling_is_fixed_point(self):
        state = lipkin_reduced_initial(self.PARAMS, 1)
        state.f = 0.0
        assert lipkin_reduced_rhs(state, self.PARAMS, 1) == (0.0, 0.0, 0.0)

    def test_initial_slope_derivative(self):
        state = lipkin_reduced_initial(self.PARAMS, 1)
        da, db, df = lipkin_reduced_rhs(state, self.PARAMS, 1)
        k = 64.0 * self.PARAMS.v0**2 * self.PARAMS.j**2
        assert da == pytest.approx(-k, rel=1e-15)
        assert db == pytest.approx(-k / 4.0, rel=1e-15)
        assert df == pytest.approx(-state.a, rel=1e-15)

    def test_block_two_offset_rate(self):
        state = lipkin_reduced_initial(self.PARAMS, 2)
        da, db, _ = lipkin_reduced_rhs(state, self.PARAMS, 2)
        assert db == pytest.approx(0.75 * da, rel=1e-15)

    @pytest.mark.parametrize("block", [1, 2])
    def test_conserved_quantity_along_integration(self, block):
        state, drift = integrate_lipkin_reduced(self.PARAMS, block)
        a0 = 2.0 * self.PARAMS.xi0
        assert drift <= 1e-10 * a0**2
        assert abs(state.f) <= 1e-12

    def test_final_slope_closed_form(self):
        state, _ = integrate_lipkin_reduced(self.PARAMS, 1)
        expect = np.sqrt(4.0 * self.PARAMS.xi0**2 - 64.0 * self.PARAMS.v0**2 * self.PARAMS.j**2)
        assert state.a == pytest.approx(expect, abs=1e-8)

    def test_conserved_value_is_final_slope_squared(self):
        c0 = lipkin_reduced_conserved(lipkin_reduced_initial(self.PARAMS, 1), self.PARAMS)
        assert c0 == pytest.approx(4.0 * 1.0 - 64.0 * 0.004**2 * 50.0**2, rel=1e-14)


class TestSpinBosonBuild:
    def test_no_spin_splitting(self):
        p = SpinBosonParams(delta=0.0, lam=0.8, omega=1.5, branch=+1, n_trunc=4)
        h = build_spinboson(p)
        np.testing.assert_allclose(h.diagonal(), [0.0, 1.5, 3.0, 4.5])
        np.testing.assert_allclose(h.band(1), 0.4 * np.sqrt([1.0, 2.0, 3.0]))

    def test_no_boson_coupling(self):
        p = SpinBosonParams(delta=0.7, lam=0.0, omega=1.0, branch=+1, n_trunc=3)
        h = build_spinboson(p)
        np.testing.assert_allclose(h.diagonal(), [0.35, 1 - 0.35, 2 + 0.35])
        assert h.offdiag_norm_sq() == 0.0

    def test_unit_parameters_two_levels(self):
        p = SpinBosonParams(delta=1.0, lam=1.0, omega=1.0, branch=+1, n_trunc=2)
        np.testing.assert_allclose(build_spinboson(p).to_dense(), [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("seed", range(4))
    def test_entries_match_formulas(self, seed):
        rng = np.random.default_rng(seed)
        p = SpinBosonParams(
            delta=float(rng.uniform(0, 3)),
            lam=float(rng.uniform(0, 3)),
            omega=float(rng.uniform(0.5, 2)),
            branch=int(rng.choice([-1, 1])),
            n_trunc=12,
        )
        h = build_spinboson(p)
        for n in range(12):
            expect = n * p.omega + p.branch * (-1) ** n * p.delta / 2
            assert h.get(n, n) == pytest.approx(expect, rel=1e-15)
        for n in range(11):
            assert h.get(n, n + 1) == pytest.approx(p.lam / 2 * np.sqrt(n + 1), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpinBosonParams(delta=0.1, lam=0.1, omega=0.0)
        with pytest.raises(ValueError):
            SpinBosonParams(delta=0.1, lam=0.1, omega=1.0, branch=2)
        with pytest.raises(ValueError):
            SpinBosonParams(delta=0.1, lam=0.1, omega=1.0, n_trunc=1)


class TestTruncation:
    def test_doubling_leaves_low_levels_fixed(self):
        n0 = default_n_trunc(5, 1.0, 1.0)
        p1 = SpinBosonParams(delta=0.8, lam=1.0, omega=1.0, branch=+1, n_trunc=n0)
        p2 = dataclasses.replace(p1, n_trunc=2 * n0)
        h1, h2 = build_spinboson(p1), build_spinboson(p2)
        ev1 = eigenvalues_tridiag(h1.band(0), h1.band(1)).eigenvalues
        ev2 = eigenvalues_tridiag(h2.band(0), h2.band(1)).eigenvalues
        quarter = n0 // 4
        assert np.max(np.abs(ev1[:quarter] - ev2[:quarter])) < 1e-8 * p1.omega

    def test_certify_returns_stable_dimension(self):
        base = SpinBosonParams(delta=1.0, lam=2.0, omega=1.0, branch=-1, n_trunc=8)
        certified = certify_truncation(base, n_report=5)
        assert certified.n_trunc >= 8
        again = certify_truncation(certified, n_report=5)
        assert again.n_trunc == certified.n_trunc

    def test_certify_failure_raises(self):
        base = SpinBosonParams(delta=0.0, lam=40.0, omega=1.0, branch=+1, n_trunc=4)
        with pytest.raises(TruncationError, match="increase n_trunc"):
            certify_truncation(base, n_report=3, max_dim=16)


class TestDelta0Flow:
    PARAMS = SpinBosonParams(delta=0.0, lam=1.3, omega=0.9, branch=+1, n_trunc=8)

    def test_initial_condition(self):
        eps, dlt = spinboson_delta0_flow(3, 0.0, self.PARAMS)
        assert eps == pytest.approx(3 * 0.9)
        assert dlt == pytest.approx(0.5 * 1.3 * 2.0)

    def test_infinite_flow_limit(self):
        eps, dlt = spinboson_delta0_flow(2, 60.0, self.PARAMS)
        assert eps == pytest.approx(2 * 0.9 - 1.3**2 / (4 * 0.9), rel=1e-12)
        assert dlt == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("n", [0, 1, 4])
    @pytest.mark.parametrize("ell", [0.05, 0.3, 1.1])
    def test_satisfies_tridiagonal_flow(self, n, ell, step=1e-6):
        eps_m, _ = spinboson_delta0_flow(n, ell - step, self.PARAMS)
        eps_p, _ = spinboson_delta0_flow(n, ell + step, self.PARAMS)
        deriv = (eps_p - eps_m) / (2 * step)
        _, d_n = spinboson_delta0_flow(n, ell, self.PARAMS)
        rhs = -2.0 * d_n**2
        if n > 0:
            _, d_prev = spinboson_delta0_flow(n - 1, ell, self.PARAMS)
            rhs += 2.0 * d_prev**2
        assert deriv == pytest.approx(rhs, rel=1e-8)

    def test_requires_delta_zero(self):
        p = dataclasses.replace(self.PARAMS, delta=0.5)
        with pytest.raises(ValueError, match="delta"):
            spinboson_delta0_flow(1, 0.0, p)


class TestSpinBosonReduced:
    def test_initial_derivatives(self):
        p = SpinBosonParams(delta=0.3, lam=1.2, omega=0.8, branch=+1, n_trunc=8)
        n_lo, count = 3, 5
        state = SpinBosonReducedState(
            n_lo, 0.0, np.ones(count), np.zeros(count)
        )
        df, dg = spinboson_reduced_rhs(state, p)
        np.testing.assert_allclose(df, 0.0, atol=0.0)
        n = n_lo + np.arange(count)
        np.testing.assert_allclose(dg, p.lam**2 * (n + 1) / (2 * p.omega), rtol=1e-14)

    def test_rejects_near_singular_x(self):
        p = SpinBosonParams(delta=0.0, lam=1.0, omega=1.0, branch=+1, n_trunc=8)
        state = SpinBosonReducedState(0, 1.0 - 1e-13, np.ones(3), np.zeros(3))
        with pytest.raises(ValueError, match="x must lie"):
            spinboson_reduced_rhs(state, p)

    def test_branch_independent_at_delta_zero(self):
        xs = (0.3, 0.8)
        outs = []
        for branch in (+1, -1):
            p = SpinBosonParams(delta=0.0, lam=1.0, omega=1.0, branch=branch, n_trunc=8)
            res = integrate_spinboson_reduced(p, n_target=6, window=4, x_eval=xs)
            outs.append(res.f_target)
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-12)

    def test_ground_level_boundary_is_exact(self):
        # for n_lo = 0 the missing g_{-1} is exactly zero, not an approximation
        p = SpinBosonParams(delta=0.5, lam=0.7, omega=1.0, branch=+1, n_trunc=8)
        state = SpinBosonReducedState(0, 0.2, np.ones(4), np.array([0.3, 0.1, 0.05, 0.02]))
        df, _ = spinboson_reduced_rhs(state, p)
        assert df[0] == pytest.approx(-0.3 / (1.0 * 0.8), rel=1e-14)

    def test_matches_bessel_form_at_large_level(self):
        # the Bessel form's argument is off by ~1/(2 sqrt(n)), so ~1e-2
        # agreement at n = 200 is the expected approximation quality, not
        # solver error
        from bandflow.analytics import bessel_j0, spinboson_fnx

        p = SpinBosonParams(delta=0.0, lam=1.0, omega=1.0, branch=+1, n_trunc=512)
        xs = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
        res = integrate_spinboson_reduced(p, n_target=200, window=10, x_eval=xs)
        sup = max(
            abs(f - spinboson_fnx(200, x, p)) for x, f in zip(res.x_values, res.f_target)
        )
        assert sup < 1.5e-2
        beta = 2.0 * np.sqrt(200.0)
        assert res.f_target_at_1 == pytest.approx(bessel_j0(beta), abs=5e-3)
