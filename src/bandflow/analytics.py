"""Closed-form and asymptotic spectra: RPA-type Lipkin levels, Bessel
functions, and the large-n spin-boson eigenvalue formulas with their
validity conditions."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import LipkinParams, SpinBosonParams

__all__ = [
    "AsymptoticEigenvalue",
    "bessel_j0",
    "bessel_j1",
    "bessel_y0",
    "bessel_y1",
    "lipkin_rpa_spectrum",
    "lipkin_rpa_gap",
    "spinboson_fnx",
    "spinboson_eps_asym",
]

_EULER = 0.57721566490153286060651209008240243104215933593992
_SERIES_CUTOVER = 8.0  # power series below, Hankel-form rationals above

# Rational coefficients for the modulus/phase form of J0/Y0 and J1/Y1 at
# large argument, after Cephes (S. Moshier, 1989: j0.c, j1.c).  P fits the
# cosine amplitude, Q the sine amplitude, both in the variable 25/z^2; the
# Q denominators are monic.

_PP0 = [7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
        5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
        9.99999999999999997821e-1]
_PQ0 = [9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
        5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
        1.00000000000000000218e0]
_QP0 = [-1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
        -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
        -5.14105326766599330220e1, -6.05014350600728481186e0]
_QQ0 = [6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
        7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
        2.42005740240291393179e2]

_PP1 = [7.62125616208173112003e-4, 7.31397056940917570436e-2, 1.12719608129684925192e0,
        5.11207951146807644818e0, 8.42404590141772420927e0, 5.21451598682361504063e0,
        1.00000000000000000254e0]
_PQ1 = [5.71323128072548699714e-4, 6.88455908754495404082e-2, 1.10514232634061696926e0,
        5.07386386128601488557e0, 8.39985554327604159757e0, 5.20982848682361821619e0,
        9.99999999999999997461e-1]
_QP1 = [5.10862594750176621635e-2, 4.98213872951233449420e0, 7.58238284132545283818e1,
        3.66779609360150777800e2, 7.10856304998926107277e2, 5.97489612400613639965e2,
        2.11688757100572135698e2, 2.52070205858023719784e1]
_QQ1 = [7.42373277035675149943e1, 1.05644886038262816351e3, 4.98641058337653607651e3,
        9.56231892404756170795e3, 7.99704160447350683650e3, 2.82619278517639096600e3,
        3.36093607810698293419e2]


def _polevl(x: float, coefs: list[float]) -> float:
    acc = 0.0
    for c in coefs:
        acc = acc * x + c
    return acc


def _p1evl(x: float, coefs: list[float]) -> float:
    acc = x + coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _j0_series(x: float) -> float:
    u = 0.25 * x * x
    term = 1.0
    acc = 1.0
    k = 0
    while abs(term) > 1e-19 * (1.0 + abs(acc)):
        k += 1
        term *= -u / (k * k)
        acc += term
    return acc


def _j1_series(x: float) -> float:
    u = 0.25 * x * x
    term = 1.0
    acc = 1.0
    k = 0
    while abs(term) > 1e-19 * (1.0 + abs(acc)):
        k += 1
        term *= -u / (k * (k + 1.0))
        acc += term
    return 0.5 * x * acc


def _y0_series(x: float) -> float:
    u = 0.25 * x * x
    term = 1.0  # u^k / (k!)^2
    harmonic = 0.0
    acc = 0.0
    k = 0
    while True:
        k += 1
        term *= u / (k * k)
        harmonic += 1.0 / k
        contrib = term * harmonic
        acc += contrib if k % 2 == 1 else -contrib
        if contrib <= 1e-19 * (1.0 + abs(acc)):
            break
    return (2.0 / math.pi) * ((math.log(0.5 * x) + _EULER) * _j0_series(x) + acc)


def _y1_series(x: float) -> float:
    u = 0.25 * x * x
    term = 1.0  # u^k / (k! (k+1)!)
    h_k = 0.0
    h_k1 = 1.0
    acc = h_k + h_k1 - 2.0 * _EULER  # k = 0
    k = 0
    while True:
        k += 1
        term *= -u / (k * (k + 1.0))
        h_k += 1.0 / k
        h_k1 += 1.0 / (k + 1.0)
        contrib = term * (h_k + h_k1 - 2.0 * _EULER)
        acc += contrib
        if abs(contrib) <= 1e-19 * (1.0 + abs(acc)):
            break
    return (
        -2.0 / (math.pi * x)
        + (2.0 / math.pi) * math.log(0.5 * x) * _j1_series(x)
        - x / (2.0 * math.pi) * acc
    )


def _hankel(x: float, order: int) -> tuple[float, float]:
    """Modulus-phase pieces: returns (cos-like, sin-like) combination values
    so that J = c and Y = s at the given order."""
    w = 5.0 / x
    z = w * w
    if order == 0:
        p = _polevl(z, _PP0) / _polevl(z, _PQ0)
        q = _polevl(z, _QP0) / _p1evl(z, _QQ0)
        xn = x - 0.25 * math.pi
    else:
        p = _polevl(z, _PP1) / _polevl(z, _PQ1)
        q = _polevl(z, _QP1) / _p1evl(z, _QQ1)
        xn = x - 0.75 * math.pi
    amp = math.sqrt(2.0 / (math.pi * x))
    cos_xn = math.cos(xn)
    sin_xn = math.sin(xn)
    j_val = amp * (p * cos_xn - w * q * sin_xn)
    y_val = amp * (p * sin_xn + w * q * cos_xn)
    return j_val, y_val


def _check_arg(z: float, kind: str) -> float:
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z!r}")
    if z < 0.0:
        raise ValueError(f"{kind} requires z >= 0, got {z}")
    return z


# J0, J1, Y0, Y1 for z >= 0, absolute error 1e-10 or better on [1e-6, 200]
# (the tests pin this against a high-precision oracle).


def bessel_j0(z: float) -> float:
    z = _check_arg(z, "J0")
    if z <= _SERIES_CUTOVER:
        return _j0_series(z)
    return _hankel(z, 0)[0]


def bessel_j1(z: float) -> float:
    z = _check_arg(z, "J1")
    if z <= _SERIES_CUTOVER:
        return _j1_series(z)
    return _hankel(z, 1)[0]


def bessel_y0(z: float) -> float:
    z = _check_arg(z, "Y0")
    if z == 0.0:
        raise ValueError("Y0 has a logarithmic singularity at z = 0")
    if z <= _SERIES_CUTOVER:
        return _y0_series(z)
    return _hankel(z, 0)[1]


def bessel_y1(z: float) -> float:
    z = _check_arg(z, "Y1")
    if z == 0.0:
        raise ValueError("Y1 diverges at z = 0")
    if z <= _SERIES_CUTOVER:
        return _y1_series(z)
    return _hankel(z, 1)[1]


# -- Lipkin large-J spectrum ----------------------------------------------------


def _lipkin_freq(params: LipkinParams) -> float:
    j = params.j
    four_jv = 4.0 * j * abs(params.v0)
    if four_jv >= params.xi0:
        raise ValueError(
            f"harmonic spectrum exists only for 4*J*v0 < xi0; "
            f"got 4*J*v0 = {four_jv:g} >= xi0 = {params.xi0:g}"
        )
    return math.sqrt(4.0 * params.xi0**2 - 64.0 * params.v0**2 * j**2)


def lipkin_rpa_spectrum(params: LipkinParams, n: int, block: int) -> float:
    """Large-J harmonic approximation of level n in the given parity block.

    eps = sqrt(4 xi0^2 - 64 v0^2 J^2) * (n + 1/2 -+ 1/4) - (J + 1/2) xi0,
    with the minus sign for block 1.  Valid only for 4 J v0 < xi0.
    """
    if block not in (1, 2):
        raise ValueError(f"block must be 1 or 2, got {block!r}")
    if n < 0:
        raise ValueError("level index must be non-negative")
    freq = _lipkin_freq(params)
    offset = 0.25 if block == 1 else 0.75
    return freq * (n + offset) - (params.j + 0.5) * params.xi0


def lipkin_rpa_gap(params: LipkinParams) -> float:
    """Ground-state to first-excited gap, sqrt(xi0^2 - 16 v0^2 J^2)."""
    _lipkin_freq(params)  # domain check
    return math.sqrt(params.xi0**2 - 16.0 * params.v0**2 * params.j**2)


# -- spin-boson asymptotics -----------------------------------------------------


def spinboson_fnx(n: int, x: float, params: SpinBosonParams) -> float:
    """Large-n deviation function f_n(x) in Bessel form.

    f_n(x) = sqrt(1-x) [a J1(beta sqrt(1-x)) + b Y1(beta sqrt(1-x))] with
    beta = 2 lam sqrt(n) / omega, a = pi (lam/omega) sqrt(n) Y0(beta) and
    b = -pi (lam/omega) sqrt(n) J0(beta), which satisfies f_n(0) = 1 through
    the Wronskian J1 Y0 - J0 Y1 = 2/(pi z).

    At x = 1 the bracket collapses to -2b/(pi beta) via Y1(z) ~ -2/(pi z),
    i.e. f_n(1) = +J0(beta).  The sign matters: paired with the branch
    convention of build_spinboson it reproduces the first-order response of
    level n in delta, the displaced-oscillator overlap
    exp(-z/2) L_n(z) -> J0(2 sqrt(n z)) for z = lam^2/omega^2.
    """
    if n < 1:
        raise ValueError("the Bessel form is a large-n result; need n >= 1")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if params.lam == 0.0:
        return 1.0  # no coupling: the deviation functions stay frozen
    lam_w = params.lam / params.omega
    beta = 2.0 * lam_w * math.sqrt(n)
    if x == 1.0:
        return bessel_j0(beta)
    t = math.sqrt(1.0 - x)
    a = math.pi * lam_w * math.sqrt(n) * bessel_y0(beta)
    b = -math.pi * lam_w * math.sqrt(n) * bessel_j0(beta)
    return t * (a * bessel_j1(beta * t) + b * bessel_y1(beta * t))


@dataclass(frozen=True)
class AsymptoticEigenvalue:
    """Large-n eigenvalue estimate plus its validity-condition values.

    cond_f = lam / (omega sqrt(n)) must be small for the Bessel form to
    apply; cond_order = (delta / 2 omega) sqrt(lam / (pi omega)) n^(-3/4)
    must stay below 1 for the asymptotic level ordering to hold.  It is the
    large-n envelope of omega > (delta/2) |J0(beta_n) - J0(beta_{n+1})| with
    beta_n = 2 lam sqrt(n) / omega.
    """

    n: int
    value: float
    formula: str  # "bessel" or "cosine"
    cond_f: float
    cond_order: float


def _conditions(n: int, params: SpinBosonParams) -> tuple[float, float]:
    cond_f = params.lam / (params.omega * math.sqrt(n))
    cond_order = (
        params.delta
        / (2.0 * params.omega)
        * math.sqrt(params.lam / (math.pi * params.omega))
        * n**-0.75
    )
    return cond_f, cond_order


def spinboson_eps_asym(
    n: int, params: SpinBosonParams, formula: str = "bessel"
) -> AsymptoticEigenvalue:
    """Large-n estimate of eigenvalue n of the branch selected in params.

    bessel:  n w - lam^2/(4w) + branch (-1)^n (delta/2) J0(2 lam sqrt(n)/w)
    cosine:  the same with J0 replaced by its leading oscillatory form,
             n^(-1/4) sqrt(w/(pi lam)) cos(2 lam sqrt(n)/w - pi/4).

    The sign of the delta term is tied to the branch convention of
    build_spinboson (see spinboson_fnx); at lam = 0 the bessel variant is
    then exactly the unsorted diagonal of the branch matrix.
    """
    if n < 1:
        raise ValueError("asymptotic formulas require n >= 1")
    w = params.omega
    base = n * w - params.lam**2 / (4.0 * w)
    parity = -1.0 if n % 2 else 1.0
    if formula == "bessel":
        osc = bessel_j0(2.0 * params.lam * math.sqrt(n) / w)
    elif formula == "cosine":
        if params.lam == 0.0:
            raise ValueError("the cosine variant is undefined at lam = 0")
        osc = (
            n**-0.25
            * math.sqrt(w / (math.pi * params.lam))
            * math.cos(2.0 * params.lam * math.sqrt(n) / w - 0.25 * math.pi)
        )
    else:
        raise ValueError(f"formula must be 'bessel' or 'cosine', got {formula!r}")
    value = base + params.branch * parity * (params.delta / 2.0) * osc
    cond_f, cond_order = _conditions(n, params)
    return AsymptoticEigenvalue(
        n=n, value=value, formula=formula, cond_f=cond_f, cond_order=cond_order
    )

