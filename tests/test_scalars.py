import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tlmkit as tk
from tlmkit.errors import ParameterError
from tlmkit.scalars import (
    PhiPsiParams,
    _power_ratio_small_s,
    phi_kappa,
    psi_kappa,
    sequence_power_margin,
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
    rep = tk.psi_tail_bound_check(t, a, PhiPsiParams(kappa, r), slack=1e-8)
    assert rep.passed, (kappa, r, a, t, rep.ratio)


def test_psi_tail_rejects_middle_arguments():
    with pytest.raises(ParameterError):
        tk.psi_tail_bound_check(0.5, 0.3, PhiPsiParams(0.5, 2.0))


def test_log_damping_imag_exact_formula():
    # |s^{it} - 1| = 2|sin(t log s / 2)| drives the scan; spot check it
    t, s = 3.0, 0.37
    direct = abs(s**(1j * t) - 1.0)
    assert direct == pytest.approx(2.0 * abs(np.sin(t * np.log(s) / 2.0)), rel=1e-13)
    rep = tk.log_damping_imag_check(t, 2.0)
    assert rep.verdict == "pass"
    assert np.isfinite(rep.empirical_constant)


def test_log_damping_branch_symmetry():
    # the s > 1 branch maps onto (0, 1) under s -> 1/s with the same value
    z, r = 1.5 + 0.5j, 2.0
    for s in (0.2, 0.71):
        inner = _power_ratio_small_s(z, r, np.array([s]))[0]
        big = 1.0 / s
        direct = (abs(big ** (-z) - 1.0) / abs(np.log(big**r))
                  * np.log(big + 1.0 / big))
        assert direct == pytest.approx(inner, rel=1e-12)


def test_log_damping_series_matches_direct():
    # crossing the series cutoff must be seamless
    z, r = 0.8 + 0.1j, 2.0
    s_near = np.exp(np.array([-2e-4, -0.5e-4]) / abs(z))  # |w| straddles 1e-4
    vals = _power_ratio_small_s(z, r, s_near)
    direct = (np.abs(s_near ** z - 1.0) / np.abs(np.log(s_near ** r))
              * np.log(s_near + 1.0 / s_near))
    assert np.allclose(vals, direct, rtol=1e-9)


def test_exp_log_bound_requires_margin():
    with pytest.raises(ParameterError):
        tk.exp_log_bound_check(0.3 + 0j, 0.5)  # eps <= 2|h|
    rep = tk.exp_log_bound_check(0.01 + 0j, 0.5)
    assert rep.verdict == "pass"
    # the modulus bound scales like |h|: constants for h and h/10 comparable
    rep2 = tk.exp_log_bound_check(0.001 + 0j, 0.5)
    assert rep2.empirical_constant == pytest.approx(rep.empirical_constant, rel=0.25)


def test_summation_bound_gating():
    a = np.array([0.5, 0.1, 2.0, 0.7])
    params = PhiPsiParams(0.5, 2.0)
    free = tk.summation_bound_check(a, params)
    assert free.verdict == "not-decided"
    assert free.empirical_constant == free.lhs / free.rhs
    with pytest.raises(ParameterError):
        tk.summation_bound_check(np.zeros(3), params)
