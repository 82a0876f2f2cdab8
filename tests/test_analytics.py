import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from bandflow.analytics import (
    bessel_j0,
    bessel_j1,
    bessel_y0,
    bessel_y1,
    lipkin_rpa_gap,
    lipkin_rpa_spectrum,
    spinboson_eps_asym,
    spinboson_fnx,
)
from bandflow.models import LipkinParams, SpinBosonParams, build_lipkin_blocks
from bandflow.oracle import eigenvalues_tridiag

J0_FIRST_ZERO = 2.404825557695773


class TestBessel:
    def test_j0_at_origin(self):
        assert bessel_j0(0.0) == 1.0

    def test_j1_at_origin(self):
        assert bessel_j1(0.0) == 0.0

    def test_j0_first_zero(self):
        assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-9

    def test_y_rejects_origin(self):
        for fn in (bessel_y0, bessel_y1):
            with pytest.raises(ValueError):
                fn(0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bessel_j0(-1.0)

    @pytest.mark.parametrize("fn,ref", [
        (bessel_j0, lambda z: mpmath.besselj(0, z)),
        (bessel_j1, lambda z: mpmath.besselj(1, z)),
        (bessel_y0, lambda z: mpmath.bessely(0, z)),
        (bessel_y1, lambda z: mpmath.bessely(1, z)),
    ], ids=["J0-<lambda>", "J1-<lambda>", "Y0-<lambda>", "Y1-<lambda>"])
    def test_against_high_precision_oracle(self, fn, ref):
        mpmath.mp.dps = 30
        grid = np.concatenate(
            [
                np.geomspace(1e-6, 1.0, 25),
                np.linspace(1.0, 16.0, 40),  # straddles the series/asymptotic cutover
                np.linspace(16.0, 200.0, 60),
                [7.999999, 8.0, 8.000001],
            ]
        )
        worst = max(abs(fn(float(z)) - float(ref(z))) for z in grid)
        assert worst <= 1e-10


class TestLipkinRpa:
    def test_decoupled_limit_matches_exact_ground_state(self):
        p = LipkinParams(xi0=1.0, v0=0.0, two_j=2)
        assert lipkin_rpa_spectrum(p, 0, 1) == pytest.approx(-1.0, rel=1e-14)
        block_a, _ = build_lipkin_blocks(p)
        assert block_a.get(0, 0) == -1.0

    def test_gap_formula(self):
        p = LipkinParams(xi0=1.0, v0=0.004, two_j=100)  # 4*J*v0 = 0.8
        gap = lipkin_rpa_spectrum(p, 0, 2) - lipkin_rpa_spectrum(p, 0, 1)
        assert gap == pytest.approx(math.sqrt(1.0 - 16 * 0.004**2 * 50.0**2), rel=1e-13)
        assert lipkin_rpa_gap(p) == pytest.approx(0.6, rel=1e-13)

    def test_gap_against_oracle_within_large_j_error(self):
        p = LipkinParams(xi0=1.0, v0=0.004, two_j=100)
        a, b = build_lipkin_blocks(p)
        ea = eigenvalues_tridiag(a.band(0), a.band(1)).eigenvalues
        eb = eigenvalues_tridiag(b.band(0), b.band(1)).eigenvalues
        gap = eb[0] - ea[0]
        # finite-J correction is ~3.1/J * gap here (0.0369 = 3.07/J * 0.6)
        assert abs(gap - 0.6) <= 5.0 / p.j * 0.6

    def test_domain_rejection_names_threshold(self):
        p = LipkinParams(xi0=1.0, v0=0.01, two_j=100)  # 4*J*v0 = 2 > xi0
        with pytest.raises(ValueError, match="4\\*J\\*v0"):
            lipkin_rpa_spectrum(p, 0, 1)

    def test_block_and_level_validation(self):
        p = LipkinParams(xi0=1.0, v0=0.0, two_j=2)
        with pytest.raises(ValueError):
            lipkin_rpa_spectrum(p, 0, 3)
        with pytest.raises(ValueError):
            lipkin_rpa_spectrum(p, -1, 1)


def sb(delta, lam, omega=1.0, branch=+1):
    return SpinBosonParams(delta=delta, lam=lam, omega=omega, branch=branch, n_trunc=8)


class TestFnx:
    @pytest.mark.parametrize("n,lam,omega", [(1, 0.5, 1.0), (7, 2.0, 0.7), (200, 1.0, 1.0)])
    def test_initial_condition(self, n, lam, omega):
        assert spinboson_fnx(n, 0.0, sb(0.0, lam, omega)) == pytest.approx(1.0, rel=1e-12)

    def test_limit_at_one_is_j0(self):
        # Y1(z) ~ -2/(pi z) collapses the bracket to +J0(beta); the matching
        # first-order response e^{-z/2} L_n(z) confirms the positive sign.
        for n, lam in ((50, 1.0), (200, 1.0), (20, 4.0)):
            beta = 2.0 * lam * math.sqrt(n)
            assert spinboson_fnx(n, 1.0, sb(0.0, lam)) == pytest.approx(
                bessel_j0(beta), rel=1e-12
            )

    def test_continuous_at_one(self):
        p = sb(0.0, 1.0)
        assert spinboson_fnx(200, 1.0 - 1e-10, p) == pytest.approx(
            spinboson_fnx(200, 1.0, p), abs=1e-7
        )

    def test_no_coupling_freezes_deviation(self):
        for x in (0.0, 0.4, 1.0):
            assert spinboson_fnx(3, x, sb(1.0, 0.0)) == 1.0

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            spinboson_fnx(0, 0.5, sb(0.0, 1.0))

    def test_satisfies_reduced_ode(self):
        # (1-x) f'' = -(lam^2 n / omega^2) f with n the level index;
        # Richardson-extrapolated second difference kills the h^2 term
        p = sb(0.0, 1.0)
        n, h = 5, 1e-3
        coeff = p.lam**2 * n / p.omega**2
        scale = coeff * 1.0

        def second_diff(x, step):
            f0 = spinboson_fnx(n, x, p)
            return (
                spinboson_fnx(n, x + step, p) - 2 * f0 + spinboson_fnx(n, x - step, p)
            ) / step**2

        for x in np.linspace(0.1, 0.9, 9):
            second = (4.0 * second_diff(x, h / 2) - second_diff(x, h)) / 3.0
            resid = (1 - x) * second + coeff * spinboson_fnx(n, x, p)
            assert resid == pytest.approx(0.0, abs=1e-8 * scale)


class TestEpsAsym:
    def test_no_coupling_is_exact_diagonal(self):
        for branch in (+1, -1):
            p = SpinBosonParams(delta=0.8, lam=0.0, omega=1.0, branch=branch, n_trunc=8)
            for n in (1, 2, 5):
                got = spinboson_eps_asym(n, p, "bessel").value
                assert got == pytest.approx(n + branch * (-1) ** n * 0.4, rel=1e-14)

    def test_delta_zero_closed_form(self):
        p = sb(0.0, 1.4)
        for n in (1, 3, 10):
            assert spinboson_eps_asym(n, p).value == pytest.approx(
                n - 1.4**2 / 4.0, rel=1e-14
            )

    def test_condition_values(self):
        a = spinboson_eps_asym(10, sb(5.0, 4.0))
        assert a.cond_f == pytest.approx(4.0 / math.sqrt(10), rel=1e-14)  # ~1.265
        assert a.cond_order == pytest.approx(0.50, abs=0.005)

    def test_cosine_needs_coupling(self):
        with pytest.raises(ValueError, match="lam"):
            spinboson_eps_asym(3, sb(1.0, 0.0), "cosine")

    def test_level_and_formula_validation(self):
        with pytest.raises(ValueError):
            spinboson_eps_asym(0, sb(1.0, 1.0))
        with pytest.raises(ValueError):
            spinboson_eps_asym(3, sb(1.0, 1.0), "pade")

    @pytest.mark.parametrize("lam,n", [(2.0, 25), (2.0, 100), (4.0, 30), (4.0, 100)])
    def test_cosine_approaches_bessel_form(self, lam, n):
        # leading oscillatory form differs by O(1/beta) of the delta term
        p = sb(2.0, lam)
        beta = 2.0 * lam * math.sqrt(n)
        assert beta >= 20.0
        e1 = spinboson_eps_asym(n, p, "bessel").value
        e2 = spinboson_eps_asym(n, p, "cosine").value
        envelope = 0.5 * p.delta * math.sqrt(2.0 / (math.pi * beta))
        assert abs(e2 - e1) <= 3.0 * envelope / beta

    def test_flow_diagonal_increasing_where_bound_holds(self):
        from bandflow.flow import integrate_flow
        from bandflow.models import build_spinboson, certify_truncation, default_n_trunc

        base = SpinBosonParams(
            delta=5.0, lam=4.0, omega=1.0, branch=+1,
            n_trunc=default_n_trunc(25, 4.0, 1.0),
        )
        params = certify_truncation(base, 25)
        assert all(spinboson_eps_asym(n, params).cond_order < 1 for n in range(10, 25))
        result = integrate_flow(build_spinboson(params))
        assert result.converged
        diag = result.final.diagonal()
        assert np.all(np.diff(diag[10:26]) > 0.0)
