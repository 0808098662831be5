import numpy as np
import pytest

import tlmkit as tk
from tlmkit.errors import ParameterError
from tlmkit.interp import (
    family_F,
    family_G,
    holomorphy_residual,
    rho,
    segment_integral,
    sum_space_proxy,
)


def collapse_setup():
    return tk.make_setup(0.5, tk.SpaceParams(8, 4, 2, 0.0), tk.SpaceParams(4, 2, 2, 0.0))


def general_setup():
    return tk.make_setup(0.4, tk.SpaceParams(8, 4, 2.5, 0.5), tk.SpaceParams(4, 2, 2, 0.0))


def test_make_setup_midpoint_values():
    setup = collapse_setup()
    assert setup.mid.p == pytest.approx(16.0 / 3.0, rel=1e-14)
    assert setup.mid.q == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert setup.mid.r == 2.0 and setup.mid.s == 0.0
    assert setup.p_gap == pytest.approx(setup.mid.p / 4.0 - setup.mid.p / 8.0)


def test_make_setup_validation():
    e0 = tk.SpaceParams(8, 4, 2, 0.0)
    with pytest.raises(ParameterError):
        tk.make_setup(0.0, e0, tk.SpaceParams(4, 2, 2, 0.0))
    with pytest.raises(ParameterError):  # p0 must exceed p1
        tk.make_setup(0.5, tk.SpaceParams(4, 2, 2, 0.0), e0)
    with pytest.raises(ParameterError):  # mismatched p/q ratios
        tk.make_setup(0.5, e0, tk.SpaceParams(4, 3, 2, 0.0))
    with pytest.raises(ParameterError):  # infinite endpoint r
        tk.make_setup(0.5, tk.SpaceParams(8, 4, np.inf, 0.0),
                      tk.SpaceParams(4, 2, 2, 0.0))


def test_rho_values_at_theta():
    setup = general_setup()
    th = setup.theta
    for k in (1, 2, 3):
        assert abs(rho(setup, k, th)) < 1e-14
    assert rho(setup, 4, th) == pytest.approx(1.0, abs=1e-14)
    # affine in z: endpoint values are hit at z = 0 and z = 1
    for k in (1, 2, 3, 4):
        v0 = rho(setup, k, 0.0)
        v1 = rho(setup, k, 1.0)
        mid = rho(setup, k, 0.25)
        assert mid == pytest.approx(0.75 * v0 + 0.25 * v1, rel=1e-12, abs=1e-12)


@pytest.fixture(scope="module")
def built_family(spec256, family_sqrt, sampler256):
    f = tk.random_bandlimited(spec256, 4, 314)
    return tk.build_analytic_family("exponent-shift", collapse_setup(), f,
                                    family_sqrt, sampler256)


def test_family_requires_squared_flavor(spec256, family_plain, sampler256):
    f = tk.random_bandlimited(spec256, 4, 314)
    with pytest.raises(ParameterError):
        tk.build_analytic_family("exponent-shift", collapse_setup(), f,
                                 family_plain, sampler256)


def test_midpoint_identity(built_family):
    setup = built_family.setup
    mid = family_F(built_family, setup.theta)
    err = np.linalg.norm((mid - built_family.base).values)
    assert err <= 1e-12 * np.linalg.norm(built_family.base.values)
    assert built_family.base_norm == pytest.approx(1.0, rel=1e-12)


def test_anchor_and_segment_additivity(built_family):
    setup = built_family.setup
    assert np.all(family_G(built_family, setup.theta).values == 0.0)
    z, w = 0.9 + 0.4j, 0.2 - 0.3j
    direct = family_G(built_family, z).values
    split = (segment_integral(built_family, setup.theta, w)
             + segment_integral(built_family, w, z)).values
    assert np.max(np.abs(direct - split)) < 1e-10 * max(np.abs(direct).max(), 1e-30)


def test_long_contour_chunking(built_family):
    # a long vertical segment converges (chunked rule, checked internally)
    g = segment_integral(built_family, built_family.setup.theta, 0.5 + 5j)
    dense = segment_integral(built_family, built_family.setup.theta, 0.5 + 5j,
                             n_nodes=48, check=False)
    scale = np.linalg.norm(dense.values)
    assert np.linalg.norm((g - dense).values) < 1e-9 * scale


def test_collapse_between_kinds(spec256, family_sqrt, sampler256):
    f = tk.random_bandlimited(spec256, 4, 271, real_output=False)
    setup = collapse_setup()
    fam_a = tk.build_analytic_family("exponent-shift", setup, f, family_sqrt, sampler256)
    fam_b = tk.build_analytic_family("four-exponent", setup, f, family_sqrt, sampler256)
    for z in (0.15, 0.7 + 1.3j):
        a = family_F(fam_a, z).values
        b = family_F(fam_b, z).values
        assert np.max(np.abs(a - b)) < 1e-12 * np.abs(a).max()


def test_holomorphy_residual_small(built_family):
    res = holomorphy_residual(built_family, 0.45 + 0.3j, n_probes=8, seed=3)
    assert res < 1e-6


def test_boundary_lipschitz_gates(built_family, sampler256):
    pairs = [(0.0, 0.1), (0.0, 0.5), (0.1, 0.6)]
    free = tk.boundary_lipschitz_check(built_family, 0, pairs, sampler256)
    assert free.verdict == "not-decided"
    assert free.details["spread"] < 3.0
    assert free.empirical_constant == max(free.details["ratios"])
    with pytest.raises(ParameterError):
        tk.boundary_lipschitz_check(built_family, 2, pairs, sampler256)


def test_sum_space_proxy_bounds(spec256, family_sqrt, sampler256):
    setup = collapse_setup()
    g = tk.random_bandlimited(spec256, 4, 55)
    proxy = sum_space_proxy(g, family_sqrt, setup.end0, setup.end1, sampler256)
    n0 = tk.tlm_norm(g, family_sqrt, setup.end0, sampler256)
    n1 = tk.tlm_norm(g, family_sqrt, setup.end1, sampler256)
    assert proxy <= min(n0, n1) * (1 + 1e-12)
    zero = tk.GridFunction(spec256, np.zeros(spec256.shape, dtype=np.complex128))
    assert sum_space_proxy(zero, family_sqrt, setup.end0, setup.end1, sampler256) == 0.0


def test_global_growth_normalization(built_family, sampler256):
    rep = tk.global_growth_check(built_family, [0.2 + 0.5j, 0.8 - 1.5j], sampler256)
    assert rep.verdict == "not-decided"
    assert np.isfinite(rep.empirical_constant) and rep.empirical_constant > 0
