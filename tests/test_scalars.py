import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tlmkit as tk
from tlmkit.errors import ParameterError
from tlmkit.scalars import (
    _SERIES_CUT,
    EXP_LOG_POINTS,
    PhiPsiParams,
    _exp_log_modulus,
    _power_ratio_small_s,
    _s_grids,
    exprel,
    phi_kappa,
    psi_kappa,
    sequence_power_margin,
)
from tlmkit.suites import (
    _EXP_LOG_CASES,
    _LOG_COMPLEX_CASES,
    _PHI_SUM_CASES,
    EXACT_SLACK,
    STABILITY_TOL,
)

# (kappa, r, t, value) computed with 30-digit adaptive quadrature
PSI_ORACLE = (
    (0.5, 2.0, 0.0001, 0.0006834464941308206),
    (0.5, 2.0, 0.3, 0.648141343844788),
    (0.5, 2.0, 1.0, 2.3067947381987643),
    (0.5, 2.0, 7.0, 6.915955342980287),
    (0.5, 2.0, 1000.0, 16.97645316576906),
    (1.0, 1.0, 2.5, 2.7983910129700575),
    (2.0, 2.0, 0.9, 0.7272876998214199),
    (0.3, 1.5, 12.0, 5.884452875324062),
)


@pytest.mark.parametrize("kappa,r,t,expected", PSI_ORACLE)
def test_psi_against_frozen_oracle(kappa, r, t, expected):
    got = psi_kappa(t, PhiPsiParams(kappa, r))
    assert got == pytest.approx(expected, rel=1e-8)


# the (kappa, r) pairs of the suite's psi-tail sweep
_PSI_TAIL_CASES = tuple((k, r) for k in (0.5, 1.0, 2.0) for r in (1.0, 2.0))


def _psi_mpmath(t: float, kappa: float, r: float) -> float:
    """Psi_kappa(t) at 30 digits after s = e^(-2x): the integral over
    x > -log(t)/2 of 2 e^(-2 kappa x) / log(2 cosh(2x/r))^r."""
    with mpmath.workdps(30):
        k, rr = mpmath.mpf(kappa), mpmath.mpf(r)
        x0 = -mpmath.log(mpmath.mpf(t)) / 2

        def f(x):
            return 2 * mpmath.exp(-2 * k * x) / mpmath.log(2 * mpmath.cosh(2 * x / rr)) ** rr

        # split where the integrand turns (x = 0) and a decay length past x0
        points = [x0, 0, mpmath.inf] if x0 < 0 else [x0, x0 + 1, mpmath.inf]
        return float(mpmath.quad(f, points))


@pytest.mark.parametrize("kappa,r", sorted(set(_PHI_SUM_CASES) | set(_PSI_TAIL_CASES)))
def test_psi_against_mpmath(kappa, r):
    params = PhiPsiParams(kappa, r)
    ts = np.geomspace(1e-8, 1e12, 25)
    batch = psi_kappa(ts, params)
    for t, got in zip(ts, batch):
        want = _psi_mpmath(float(t), kappa, r)
        assert abs(got - want) <= 1e-13 * want, (t, got, want)
        # the lattice is fixed per parameter set: a scalar call is its batch entry
        assert psi_kappa(float(t), params) == got


def test_psi_range_edges():
    params = PhiPsiParams(2.0, 2.0)
    assert psi_kappa(0.0, params) == 0.0
    assert psi_kappa(1e-300, params) == 0.0  # Psi ~ t^2 underflows
    with pytest.raises(ParameterError, match="overflows float64"):
        psi_kappa(1e160, params)
    with pytest.raises(ParameterError):
        psi_kappa(-1.0, params)
    with pytest.raises(ParameterError):
        psi_kappa(np.array([1.0, np.nan]), params)
    # shapes pass through; Psi is nondecreasing along the grid
    grid = np.geomspace(1e-30, 1e30, 12).reshape(3, 4)
    values = psi_kappa(grid, params)
    assert values.shape == (3, 4) and np.all(np.diff(values.ravel()) > 0)


def test_import_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, tlmkit; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"


def test_phi_psi_basic_shape():
    params = PhiPsiParams(0.5, 2.0)
    t = np.geomspace(1e-8, 1e8, 50)
    vals = phi_kappa(t, params)
    assert np.all(vals > 0) and np.all(np.isfinite(vals))
    # Psi is nondecreasing in t
    psis = [psi_kappa(x, params) for x in (0.1, 1.0, 10.0)]
    assert psis[0] < psis[1] < psis[2]
    with pytest.raises(ParameterError):
        PhiPsiParams(0.0, 2.0)
    with pytest.raises(ParameterError):
        PhiPsiParams(1.0, 0.5)


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.floats(1e-8, 1e6), min_size=1, max_size=30),
    kappa=st.floats(0.05, 4.0),
)
def test_sequence_power_property(a, kappa):
    lhs, rhs = sequence_power_margin(np.array(a), kappa)
    assert lhs <= rhs * (1.0 + 1e-10)


def test_sequence_power_equality_at_kappa_one():
    a = np.array([0.2, 1.7, 0.4])
    lhs, rhs = sequence_power_margin(a, 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-15)
    with pytest.raises(ParameterError):
        sequence_power_margin(np.zeros(3), 0.5)
    with pytest.raises(ParameterError):
        sequence_power_margin(np.array([1.0, -0.1]), 0.5)


def test_sequence_power_batch_rows():
    # a zero-padded 2-d batch gives each row's own 1-d margin
    seqs = [[0.2, 1.7, 0.4], [0.0, 3.0], [0.5] * 12, [1e-3]]
    batch = np.zeros((len(seqs), 12))
    for i, seq in enumerate(seqs):
        batch[i, :len(seq)] = seq
    for kappa in (0.3, 1.0, 2.5):
        lhs, rhs = sequence_power_margin(batch, kappa)
        assert lhs.shape == rhs.shape == (len(seqs),)
        for i, seq in enumerate(seqs):
            want = sequence_power_margin(np.array(seq), kappa)
            assert (lhs[i], rhs[i]) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ParameterError):
        sequence_power_margin(np.vstack([batch, np.zeros(12)]), 0.5)  # a zero row
    with pytest.raises(ParameterError):
        sequence_power_margin(np.ones((2, 2, 2)), 0.5)


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.sampled_from([0.3, 0.5, 1.0, 2.0]),
    r=st.sampled_from([1.0, 1.5, 2.0]),
    a=st.floats(0.03, 0.9),
    x=st.floats(1e-5, 0.999),
    upper=st.booleans(),
)
def test_psi_tail_property(kappa, r, a, x, upper):
    t = (1.0 + x) / a if upper else a * x
    lhs, rhs = tk.psi_tail_bound_check(t, a, PhiPsiParams(kappa, r))
    assert lhs <= rhs * (1.0 + EXACT_SLACK), (kappa, r, a, t, lhs / rhs)


def test_psi_tail_rejects_middle_arguments():
    with pytest.raises(ParameterError):
        tk.psi_tail_bound_check(0.5, 0.3, PhiPsiParams(0.5, 2.0))


@pytest.mark.parametrize("r", [0.5, np.inf])
@pytest.mark.parametrize("entry", [lambda r: PhiPsiParams(1.0, r),
                                   lambda r: tk.log_damping_complex_check(0.5 + 1j, r)],
                         ids=["PhiPsiParams", "log_damping_complex_check"])
def test_every_scalar_entry_point_refuses_r_outside_one_to_inf(entry, r):
    with pytest.raises(ParameterError, match=rf"^need 1 <= r < inf, got r={r}$"):
        entry(r)


def test_log_damping_imag_exact_formula():
    # |s^{it} - 1| = 2|sin(t log s / 2)|: the complex scan at z = it meets it
    t, r, s = 3.0, 2.0, 0.37
    exact = 2.0 * abs(np.sin(t * np.log(s) / 2.0)) / (r * abs(np.log(s))) \
        * np.log(s + 1.0 / s)
    assert _power_ratio_small_s(1j * t, r, np.array([s]))[0] == pytest.approx(exact, rel=1e-13)
    coarse, refined = tk.log_damping_complex_check(1j * t, r)
    assert np.isfinite(refined)
    assert abs(refined - coarse) <= STABILITY_TOL * refined


@pytest.mark.parametrize("z", [1j * np.inf, 1j * np.nan, complex(np.inf, 0.0), np.nan])
def test_log_damping_refuses_a_non_finite_z(z):
    # the scan would return (nan, nan) with a RuntimeWarning per evaluation
    with pytest.raises(ParameterError, match=r"^z must be finite, got "):
        tk.log_damping_complex_check(z, 2.0)


def test_log_damping_branch_symmetry():
    # the s > 1 branch maps onto (0, 1) under s -> 1/s with the same value
    z, r = 1.5 + 0.5j, 2.0
    for s in (0.2, 0.71):
        inner = _power_ratio_small_s(z, r, np.array([s]))[0]
        big = 1.0 / s
        direct = (abs(big ** (-z) - 1.0) / abs(np.log(big**r))
                  * np.log(big + 1.0 / big))
        assert direct == pytest.approx(inner, rel=1e-12)


_EXPREL_ARGS = (
    0j, 1e-300, -1e-300, 1e-300j, 1e-300 * (1 + 1j), 1e-200 - 3e-201j, 1e-100j,
    1e-20 + 1e-20j, 1e-8, -1e-8j, 1e-8 * (1 - 2j),
    0.99e-4, 1.01e-4, -0.99e-4j, 1.01e-4 * (0.6 + 0.8j),  # both sides of 1e-4
    1.0, -1.0, 1j, 1 + 1j, -0.5 + 2j, 25.7j, 2j * np.pi, -2j * np.pi,
    -40.0, -40 + 3j, -700 + 1j, -800 + 3j, -1e4 + 0.1j,  # large negative real parts
)


def test_exprel_matches_mpmath():
    got = exprel(np.array(_EXPREL_ARGS, dtype=np.complex128))
    assert got[0] == 1.0
    with mpmath.workdps(50):
        for w, value in zip(_EXPREL_ARGS[1:], got[1:]):
            ref = mpmath.expm1(mpmath.mpc(w)) / mpmath.mpc(w)
            assert abs(value - ref) <= 4 * np.finfo(np.float64).eps * abs(ref), w


@pytest.mark.parametrize("z,r", _LOG_COMPLEX_CASES)
def test_power_ratio_matches_mpmath_on_the_coarse_grid(z, r):
    # the reference takes the float64 log s the scan uses, so near the zeros
    # of s^(it) - 1 it measures the evaluation, not the rounding of log s
    s = _s_grids()[0]
    got = _power_ratio_small_s(z, r, s)
    with mpmath.workdps(40):
        for si, ls, value in zip(s, np.log(s), got):
            w = mpmath.mpc(z) * mpmath.mpf(ls)
            ref = abs(mpmath.expm1(w) / (r * mpmath.mpf(ls))) \
                * mpmath.log(mpmath.mpf(si) + 1 / mpmath.mpf(si))
            assert abs(value - ref) <= 1e-14 * ref, si


def _exp_log_sup(h: complex, eps: float, n: int):
    """The sup of exp_log_bound_check on n points per grid, in mpmath."""
    best = mpmath.mpf(0)
    for sign, t in ((1, 2.0 ** np.linspace(-60.0, 0.0, n)),
                    (-1, 2.0 ** np.linspace(0.0, 60.0, n))):
        for ti in t:
            w = mpmath.mpc(h) * mpmath.log(mpmath.mpf(ti))
            modulus = abs(mpmath.expm1(w) / w - 1) if w != 0 else 0
            best = max(best, mpmath.mpf(ti) ** (sign * eps) * modulus)
    return best / abs(h)


@pytest.mark.parametrize("h,eps", _EXP_LOG_CASES)
def test_exp_log_bound_matches_mpmath(h, eps):
    got = tk.exp_log_bound_check(h, eps)
    with mpmath.workdps(30):
        for value, n in zip(got, (EXP_LOG_POINTS, 2 * EXP_LOG_POINTS)):
            ref = _exp_log_sup(h, eps, n)
            assert abs(value - ref) <= 5e-14 * ref, n


def test_log_damping_series_matches_direct():
    # the series below _SERIES_CUT and the direct exprel(w) - 1 above it
    # both hold a few ulps, the cut's neighbourhood on either side included
    h = 0.3 - 0.4j
    w_abs = np.concatenate([np.geomspace(1e-6, 4.2, 200),
                            _SERIES_CUT * np.array([0.99, 0.999, 1.001, 1.01])])
    t = np.exp(-w_abs / abs(h))
    got = _exp_log_modulus(h, t)
    with mpmath.workdps(40):
        for ti, value in zip(t, got):
            w = mpmath.mpc(h) * mpmath.log(mpmath.mpf(ti))
            ref = abs(mpmath.expm1(w) / w - 1)
            assert abs(value - ref) <= 1e-15 * ref, ti


def test_exp_log_bound_requires_margin():
    with pytest.raises(ParameterError):
        tk.exp_log_bound_check(0.3 + 0j, 0.5)  # eps <= 2|h|
    coarse, refined = tk.exp_log_bound_check(0.01 + 0j, 0.5)
    assert abs(refined - coarse) <= STABILITY_TOL * refined
    # the modulus bound scales like |h|: constants for h and h/10 comparable
    _, refined2 = tk.exp_log_bound_check(0.001 + 0j, 0.5)
    assert refined2 == pytest.approx(refined, rel=0.25)


def test_summation_ratio_batch_rows():
    # a zero-padded 2-d batch gives each row's own 1-d ratio; only the
    # order of the row sums differs
    params = PhiPsiParams(2.0, 1.0)
    seqs = [[0.5, 0.1, 2.0, 0.7], [0.0, 3.0], [0.25] * 12, [1e-3], [4.0, 0.0, 1.0]]
    batch = np.zeros((len(seqs), 12))
    for i, seq in enumerate(seqs):
        batch[i, :len(seq)] = seq
    ratios = tk.summation_ratio(batch, params)
    assert ratios.shape == (len(seqs),)
    for ratio, seq in zip(ratios, seqs):
        assert ratio == pytest.approx(tk.summation_ratio(np.array(seq), params), rel=1e-14)
    with pytest.raises(ParameterError):
        tk.summation_ratio(np.vstack([batch, np.zeros(12)]), params)  # a zero row


def test_summation_bound_gating():
    a = np.array([0.5, 0.1, 2.0, 0.7])
    params = PhiPsiParams(0.5, 2.0)
    prefix = np.cumsum(a**params.r) ** (1.0 / params.r)
    lhs = float(np.sum((a * phi_kappa(prefix, params)) ** params.r))
    ratio = tk.summation_ratio(a, params)
    assert ratio == lhs / psi_kappa(float(np.sum(a**params.r)), params)
    with pytest.raises(ParameterError):
        tk.summation_ratio(np.zeros(3), params)
