"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured numbers.  Run with

    pytest -s tests/test_acceptance.py

to watch the lines appear; the slow shared computations (the random-matrix
ensemble and the error-grid sweep) run once as module fixtures.

Criteria 6 and 11 test two large-J / large-n approximations by the order at
which their error vanishes, not by a fixed budget; their docstrings give
the derivation and the measured values.  Criterion 1's 10 s wall-clock
gate over the 20 ensemble flows runs as its own test.
"""

import concurrent.futures
import math
import os
import time

import numpy as np
import pytest

from bandflow.analytics import (
    bessel_j0,
    lipkin_rpa_gap,
    spinboson_eps_asym,
    spinboson_fnx,
)
from bandflow.band import BandedSymmetricMatrix, make_banded, split_irreducible
from bandflow.cli import _fig1_point
from bandflow.flow import (
    FlowConfig,
    GeneratorKind,
    decay_rate_estimate,
    integrate_flow,
    mielke_eta,
    mielke_rhs,
)
from bandflow.models import (
    LipkinParams,
    SpinBosonParams,
    build_lipkin_blocks,
    build_spinboson,
    certify_truncation,
    default_n_trunc,
    integrate_lipkin_reduced,
    integrate_spinboson_reduced,
)
from bandflow.oracle import eigenvalues_dense, eigenvalues_tridiag

N_SEEDS = 20
ENSEMBLE_N, ENSEMBLE_M = 60, 3
ENSEMBLE_SNAPS = (0.5, 2.0, 8.0)
FIG1_GRID = np.linspace(0.0, 5.0, 26)
FIG1_LEVELS = (10, 15, 20)


def _report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_banded(seed: int) -> BandedSymmetricMatrix:
    rng = np.random.default_rng(seed)
    bands = [rng.uniform(-1.0, 1.0, ENSEMBLE_N - k) for k in range(ENSEMBLE_M + 1)]
    return BandedSymmetricMatrix(ENSEMBLE_N, ENSEMBLE_M, bands)


@pytest.fixture(scope="module")
def ensemble():
    """20-seed random banded flows shared by criteria 1-3 (timed, after a
    warm-up flow so one-time compilation is not billed to the criterion)."""
    integrate_flow(make_banded(2, 1, {(0, 1): 1.0}))
    matrices = [_random_banded(seed) for seed in range(N_SEEDS)]
    config = FlowConfig(snapshot_ells=ENSEMBLE_SNAPS)
    t0 = time.perf_counter()
    results = [integrate_flow(h, config) for h in matrices]
    elapsed = time.perf_counter() - t0
    return matrices, results, elapsed


@pytest.fixture(scope="module")
def fig1_data():
    """Worst-over-branches eigenvalue-formula errors on the 26-point grid,
    for levels 10/15/20, shared by criteria 9 and 10."""
    config = FlowConfig(rel_tol=1e-10, abs_tol=1e-12, convergence_tol=1e-10, ell_max=None)
    tasks = [(float(d), 4.0, FIG1_LEVELS, config) for d in FIG1_GRID]
    workers = min(os.cpu_count() or 1, len(tasks))
    t0 = time.perf_counter()
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_fig1_point, tasks))
    else:
        points = [_fig1_point(t) for t in tasks]
    elapsed = time.perf_counter() - t0
    errs = {n: np.array([dict(p[1])[n] for p in points]) for n in FIG1_LEVELS}
    assert all(p[2] for p in points), "every sweep flow must converge"
    return errs, elapsed


def test_criterion_01_band_preservation(ensemble):
    matrices, results, _elapsed = ensemble
    worst_rhs = 0.0
    for h, res in zip(matrices, results):
        for mat in [res.final] + [snap for _ell, snap in res.snapshots]:
            assert mat.bandwidth == ENSEMBLE_M
            dense = mat.to_dense()
            for k in range(ENSEMBLE_M + 1, ENSEMBLE_N):
                assert np.all(np.diagonal(dense, k) == 0.0)
        eta = mielke_eta(h)
        dense_h = h.to_dense()
        commutator = eta @ dense_h - dense_h @ eta
        diff = np.max(np.abs(mielke_rhs(h).to_dense() - commutator))
        worst_rhs = max(worst_rhs, diff / np.max(np.abs(commutator)))
    _report(
        1,
        worst_rhs <= 1e-13,
        "sign-generator flow never leaves the band; stencil matches dense commutator",
        f"worst rhs mismatch {worst_rhs:.2e}",
    )


def test_criterion_01_wall_clock(ensemble):
    _matrices, _results, elapsed = ensemble
    _report(
        1,
        elapsed < 10.0,
        "20 N=60, M=3 sign-generator flows finish within 10 s",
        f"flows {elapsed:.1f} s",
    )


def test_criterion_02_diagonalization_and_ordering(ensemble):
    matrices, results, _elapsed = ensemble
    worst = 0.0
    ordered = True
    for h, res in zip(matrices, results):
        assert res.converged
        diag = res.final.diagonal()
        ev = eigenvalues_dense(h.to_dense()).eigenvalues
        for block in split_irreducible(h):
            d = diag[block.start : block.end]
            scale = max(np.max(np.abs(ev)), 1e-300)
            ordered &= bool(np.all(np.diff(d) >= -1e-7 * scale))
        worst = max(worst, float(np.max(np.abs(np.sort(diag) - ev)) / np.max(np.abs(ev))))
    _report(
        2,
        worst <= 1e-7 and ordered,
        "converged diagonal equals ascending oracle spectrum; non-decreasing",
        f"worst relative eigenvalue error {worst:.2e}",
    )


def test_criterion_03_conservation(ensemble):
    matrices, results, _elapsed = ensemble
    worst_tr = worst_fr = worst_pt = 0.0
    for h, res in zip(matrices, results):
        d = res.diagnostics
        worst_tr = max(worst_tr, d.trace_drift / max(1.0, abs(h.trace())))
        worst_fr = max(worst_fr, d.frobenius_drift)
        worst_pt = max(worst_pt, d.partial_trace_violation)
    _report(
        3,
        worst_tr <= 1e-9 and worst_fr <= 1e-9 and worst_pt <= 1e-9,
        "trace and Frobenius norm conserved; partial traces never increase",
        f"drifts: trace {worst_tr:.2e}, frob^2 {worst_fr:.2e}, partial-trace {worst_pt:.2e}",
    )


def test_criterion_04_degeneracies():
    config = FlowConfig(convergence_tol=1e-11)
    res2 = integrate_flow(make_banded(2, 1, {(0, 1): 1.0}), config)
    res4 = integrate_flow(make_banded(4, 2, {(0, 2): 1.0, (1, 3): 1.0}), config)
    off2 = math.sqrt(res2.final.offdiag_norm_sq())
    off4 = math.sqrt(res4.final.offdiag_norm_sq())
    np.testing.assert_allclose(res4.final.diagonal(), [-1.0, -1.0, 1.0, 1.0], atol=1e-9)
    _report(
        4,
        res2.converged and res4.converged and off2 < 1e-10 and off4 < 1e-10,
        "degenerate spectra still flow to diagonal form",
        f"off-diagonal norms {off2:.1e}, {off4:.1e}",
    )


def test_criterion_05_decay_rate():
    h = make_banded(3, 1, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (0, 1): 1, (1, 2): 1})
    res = integrate_flow(h, FlowConfig(snapshot_ells=tuple(np.linspace(5.0, 10.0, 6))))
    rate = decay_rate_estimate(res.snapshots, 0, 1)
    expect = math.sqrt(3.0)  # final gap between the two lowest eigenvalues
    rel = abs(rate - expect) / expect
    _report(
        5,
        rel <= 0.05,
        "late-flow coupling decay rate equals the final diagonal gap",
        f"fitted {rate:.4f} vs sqrt(3) = {expect:.4f}, off by {rel:.2%}",
    )


def test_criterion_06_lipkin_gap():
    """The lowest Lipkin gap approaches the harmonic gap at the order derived.

    Holstein-Primakoff (Phys. Rev. 58, 1098 (1940)) about Jz = -J, with
    n = a^+ a, gives J+^2 = a^+^2 sqrt(2J-n-1) sqrt(2J-n)
    = 2J a^+^2 - a^+^2 (n + 1/2) + O(1/J).  With chi = 4 J v0 / xi0 this is

        H = xi0 [-J + n + (chi/2)(a^+^2 + a^2)] + V,
        V = -(chi xi0 / 4J) [a^+^2 (n + 1/2) + h.c.] + O(1/J^2),

    whose harmonic part has the gap xi0*omega, omega = sqrt(1 - chi^2)
    (lipkin_rpa_gap, the J -> infinity limit).  First-order perturbation
    theory in V between the two lowest Bogoliubov states gives

        gap = xi0 omega (1 + c(chi)/J + O(1/J^2)),  c = chi^2 (3 - omega) / (2 omega^3),

    so c(0.8) = 32/9 ~ 3.556 (a truncated-Fock-space evaluation of the
    same matrix elements and the Sturm oracle's J*(gap/harmonic - 1) ->
    3.54 at J = 1600 agree).  At chi = 0.8 the harmonic gap itself is off
    by 6.15% at J = 50 and 1.70% at J = 200.  After dividing out (1 + c/J)
    the remainder r_J is -0.897%, -0.072% and -0.0048% at J = 50, 200, 800:
    drops of 12.5x and 14.9x per fourfold J where O(1/J^2) predicts 16x,
    and J^2 r_J = -22.4, -28.8, -31.0 settles.

    The test asserts flow == oracle to 1e-6 at each J, that r_J keeps one
    sign, and a drop of at least 8x per fourfold J.  A wrong c leaves a
    1/J term that fails one of these: with c halved the first drop is only
    3.1x, and with c = 3.40 or 3.50 (J * r_J fitted at J = 200 or 800)
    r_J changes sign.
    """
    chi = 0.8
    omega = math.sqrt(1.0 - chi**2)
    c = chi**2 * (3.0 - omega) / (2.0 * omega**3)
    two_js = (100, 400, 1600)
    t0 = time.perf_counter()
    harmonic_err, rest = {}, {}
    for two_j in two_js:
        params = LipkinParams(xi0=1.0, v0=chi / (2.0 * two_j), two_j=two_j)
        block_a, block_b = build_lipkin_blocks(params)
        ra, rb = integrate_flow(block_a), integrate_flow(block_b)
        assert ra.converged and rb.converged
        gap_flow = rb.final.diagonal()[0] - ra.final.diagonal()[0]
        ea = eigenvalues_tridiag(block_a.band(0), block_a.band(1)).eigenvalues
        eb = eigenvalues_tridiag(block_b.band(0), block_b.band(1)).eigenvalues
        gap_oracle = eb[0] - ea[0]
        assert abs(gap_flow - gap_oracle) <= 1e-6
        rpa = lipkin_rpa_gap(params)
        harmonic_err[two_j] = abs(gap_flow - rpa) / rpa
        rest[two_j] = gap_flow / (rpa * (1.0 + c / params.j)) - 1.0
    elapsed = time.perf_counter() - t0
    one_sign = len({math.copysign(1.0, rest[t]) for t in two_js}) == 1
    drops = [abs(rest[a]) / abs(rest[b]) for a, b in zip(two_js, two_js[1:])]
    _report(
        6,
        elapsed < 30.0 and one_sign and min(drops) >= 8.0,
        "lowest Lipkin gap -> sqrt(xi0^2 - 16 v0^2 J^2) (1 + c/J) up to O(1/J^2)",
        f"harmonic relative errors J=50: {harmonic_err[100]:.2%}, "
        f"J=200: {harmonic_err[400]:.2%}; after the 1/J term at J=50, 200, 800: "
        + ", ".join(f"{rest[t]:.4%}" for t in two_js)
        + f"; drops {drops[0]:.1f}x, {drops[1]:.1f}x (need one sign, >= 8x); "
        f"{elapsed:.1f} s",
    )


def test_criterion_07_lipkin_reduced_flow():
    params = LipkinParams(xi0=1.0, v0=0.004, two_j=100)  # 4*J*v0 = 0.8
    a0 = 2.0 * params.xi0
    expect = math.sqrt(4.0 * params.xi0**2 - 64.0 * params.v0**2 * params.j**2)
    worst_drift = 0.0
    worst_a = 0.0
    for block in (1, 2):
        state, drift = integrate_lipkin_reduced(params, block)
        worst_drift = max(worst_drift, drift / a0**2)
        worst_a = max(worst_a, abs(state.a - expect))
    _report(
        7,
        worst_drift <= 1e-10 and worst_a <= 1e-8,
        "reduced-flow invariant conserved; final slope hits the closed form",
        f"drift {worst_drift:.2e} relative, slope error {worst_a:.2e}",
    )


def test_criterion_08_spinboson_delta0():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        base = SpinBosonParams(
            delta=0.0, lam=lam, omega=1.0, branch=+1,
            n_trunc=default_n_trunc(10, lam, 1.0),
        )
        params = certify_truncation(base, 10)
        res = integrate_flow(build_spinboson(params))
        assert res.converged
        diag = res.final.diagonal()
        for n in range(11):
            worst = max(worst, abs(diag[n] - (n - lam**2 / 4.0)))
    _report(
        8,
        worst <= 1e-6,
        "uncoupled-spin flow reproduces n*omega - lam^2/(4 omega) exactly",
        f"worst |eps_n - closed form| = {worst:.2e}",
    )


def test_criterion_09_error_grid(fig1_data):
    errs, elapsed = fig1_data
    # the level-ordering condition holds on the whole grid for these levels
    for n in FIG1_LEVELS:
        for dd in FIG1_GRID:
            p = SpinBosonParams(delta=float(dd), lam=4.0, omega=1.0, branch=+1, n_trunc=8)
            assert spinboson_eps_asym(n, p).cond_order < 1.0
    max10 = float(errs[10].max())
    nested = bool(np.all(errs[15] < errs[10]) and np.all(errs[20] < errs[10]))
    at_zero = max(float(errs[n][0]) for n in FIG1_LEVELS)
    _report(
        9,
        max10 <= 0.025 and nested and at_zero <= 1e-4 and elapsed < 300.0,
        "Bessel-form eigenvalue error <= 2.5% at n=10, strictly smaller for n=15, 20",
        f"max n=10 error {max10:.2%}; nested {nested}; "
        f"error at delta=0 {at_zero:.1e}; sweep {elapsed:.0f} s",
    )


def test_criterion_10_high_accuracy_regime(fig1_data):
    errs, _elapsed = fig1_data
    lam = 4.0
    assert 20 >= lam**2  # n >= (lam/omega)^2 gate for the 0.1% claim
    checked = 0
    worst = 0.0
    for i, dd in enumerate(FIG1_GRID):
        p = SpinBosonParams(delta=float(dd), lam=lam, omega=1.0, branch=+1, n_trunc=8)
        if dd > 0 and spinboson_eps_asym(20, p).cond_order < 0.1:
            checked += 1
            worst = max(worst, float(errs[20][i]))
    _report(
        10,
        checked >= 5 and worst < 1e-3,
        "ordering condition < 0.1 and n >= (lam/omega)^2 give < 0.1% error",
        f"{checked} grid points, worst error {worst:.2e}",
    )


def _laguerre_overlaps(n_max: int, z: float) -> list[float]:
    """exp(-z/2) L_n(z) for n = 0..n_max by the three-term recurrence."""
    out = []
    prev, cur = 0.0, 1.0  # L_{-1}, L_0
    for k in range(n_max + 1):
        out.append(math.exp(-0.5 * z) * cur)
        prev, cur = cur, ((2 * k + 1 - z) * cur - k * prev) / (k + 1)
    return out


def test_criterion_11_bessel_form_flow_solution():
    """The reduced deviation functions are exact; their Bessel form is
    approached at its asymptotic order.

    (a) At x = 1 the deviation function of level n equals the displaced-
    oscillator overlap exp(-z/2) L_n(z), z = lam^2/omega^2 = 1, computed
    here by the Laguerre recurrence.  With window 40 the reduced solver
    matches it to 7e-8, 2.2e-7 and 6.2e-7 at n = 50, 200, 800 (bound 1e-5);
    e.g. e^{-1/2} L_200(1) = -0.10969.  Window 10 closes the level chain
    too early: it gives -0.10944 at n = 200, 2.5e-4 off.

    (b) spinboson_fnx is the large-n limit.  Its argument beta = 2 lam
    sqrt(n)/omega differs from the Hilb-type 2 sqrt((n + 1/2) z) (Szego,
    Orthogonal Polynomials, 8.22) by ~1/(2 sqrt(n)), so its error decays
    only as a power of n.  On the x-grid the sup error is 2.5e-2, 1.27e-2,
    5.2e-3 at n = 50, 200, 800 (order 1/2: 2x per fourfold n); the test
    asserts a drop of >= 1.7 per step.

    At x = 1 the error is about |J1(beta)|/(2 sqrt(n)), whose envelope
    sqrt(2/(pi beta))/(2 sqrt(n)) falls as n^(-3/4) but whose value
    oscillates with cos(beta - 3 pi/4): it is 9.2e-3, 2.9e-3, 3.0e-3, 2.6e-3
    at n = 50, 100, 200, 400, so its drop per fourfold n depends on the
    levels picked (3.05 from 50 to 200, 1.09 from 100 to 400).  So the test compares envelopes, not values: the
    largest n^(3/4) |e^{-1/2} L_n(1) - f_n(1)| over the levels n0 <= n <
    n0 + 2 pi sqrt(n0) + pi^2, one full period of the cosine, is 0.2349,
    0.2351, 0.2351 for n0 = 50, 200, 800.  (The leading term alone gives
    1/(2 sqrt(pi)) = 0.282; the Hilb form's own remainder is of the same
    order, 0.047 n^(-3/4), and takes off a sixth.)  The test asserts that
    this scaled envelope changes by at most 4^0.15 per fourfold n0, i.e.
    that the local order is 3/4 +- 0.15.  A sign-flipped form, f_n(1) =
    -J0, has an n^(-1/4) error: its scaled envelope grows 1.64x and 1.88x.
    """
    params = SpinBosonParams(delta=0.0, lam=1.0, omega=1.0, branch=+1, n_trunc=512)
    xs = tuple(np.concatenate([np.linspace(0.0, 0.95, 20), [0.97, 0.99, 0.995, 0.999]]))
    levels = (50, 200, 800)
    # one full period of cos(beta - 3 pi/4) above each level: beta grows by 2 pi
    periods = {n: range(n, n + math.ceil(2.0 * math.pi * math.sqrt(n) + math.pi**2))
               for n in levels}
    exact = _laguerre_overlaps(max(p[-1] for p in periods.values()), 1.0)
    exact_err, sup, end_err, envelope = {}, {}, {}, {}
    for n in levels:
        res = integrate_spinboson_reduced(params, n_target=n, window=40, x_eval=xs)
        exact_err[n] = abs(res.f_target_at_1 - exact[n])
        sup[n] = max(
            abs(f - spinboson_fnx(n, float(x), params))
            for x, f in zip(res.x_values, res.f_target)
        )
        end_err[n] = abs(res.f_target_at_1 - spinboson_fnx(n, 1.0, params))
        envelope[n] = max(
            m**0.75 * abs(exact[m] - spinboson_fnx(m, 1.0, params)) for m in periods[n]
        )
    env_steps = [envelope[b] / envelope[a] for a, b in zip(levels, levels[1:])]
    sup_drops = [sup[a] / sup[b] for a, b in zip(levels, levels[1:])]
    _report(
        11,
        max(exact_err.values()) <= 1e-5
        and all(4.0**-0.15 <= step <= 4.0**0.15 for step in env_steps)
        and min(sup_drops) >= 1.7,
        "reduced deviation functions are exact at x = 1; Bessel-form error "
        "decays at its large-n order",
        f"worst |f_n(1) - e^(-1/2) L_n(1)| {max(exact_err.values()):.1e}; "
        f"n=200 Bessel-form sup error {sup[200]:.2e}, end-point error {end_err[200]:.2e}; "
        f"n^(3/4)-scaled end-point envelope {envelope[50]:.4f}, {envelope[200]:.4f}, "
        f"{envelope[800]:.4f} (steps within 4^+-0.15); "
        f"sup drops per 4x n {sup_drops[0]:.2f}, {sup_drops[1]:.2f} (need >= 1.7)",
    )


def test_criterion_12_generator_contrast(tmp_path):
    from bandflow.cli import main

    out = tmp_path / "contrast.csv"
    rc = main(["compare-generators", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    fro2 = 25.0  # default test matrix d=(1,2,4), e=(1,1)
    target_ell = 0.1 / fro2
    wegner_at_target = [
        float(r[3]) for r in rows
        if r[0] == "wegner" and r[2] == "2" and float(r[1]) == pytest.approx(target_ell)
    ]
    mielke_off_band = [float(r[3]) for r in rows if r[0] == "mielke" and int(r[2]) >= 2]
    _report(
        12,
        len(wegner_at_target) == 1
        and wegner_at_target[0] > 1e-3
        and all(v == 0.0 for v in mielke_off_band),
        "Wegner generator fills the second off-diagonal; sign generator never does",
        f"wegner |h02| at ell*frob^2=0.1: {wegner_at_target[0]:.2e}; "
        f"mielke occupancy beyond band: max {max(mielke_off_band):.1e}",
    )


def test_criterion_13_oracle_self_consistency():
    worst_cross = worst_tr = worst_sq = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        d = rng.uniform(-1.0, 1.0, 50)
        e = rng.uniform(-1.0, 1.0, 49)
        ev_b = eigenvalues_tridiag(d, e).eigenvalues
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ev_j = eigenvalues_dense(dense).eigenvalues
        scale = np.max(np.abs(ev_b))
        worst_cross = max(worst_cross, float(np.max(np.abs(ev_b - ev_j)) / scale))
        frob_sq = float(np.sum(d * d) + 2.0 * np.sum(e * e))
        worst_tr = max(worst_tr, abs(ev_b.sum() - d.sum()) / max(abs(d.sum()), 1.0))
        worst_sq = max(worst_sq, abs(np.sum(ev_b**2) - frob_sq) / frob_sq)
    _report(
        13,
        worst_cross <= 1e-10 and worst_tr <= 1e-10 and worst_sq <= 1e-10,
        "bisection and Jacobi oracles agree; spectra match trace invariants",
        f"cross {worst_cross:.2e}, trace {worst_tr:.2e}, sum-of-squares {worst_sq:.2e}",
    )
