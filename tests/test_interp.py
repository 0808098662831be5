import dataclasses
import warnings

import numpy as np
import pytest

import tlmkit as tk
from tlmkit import interp
from tlmkit.errors import ParameterError
from tlmkit.interp import (
    QUAD_NODES,
    _segment_quadrature,
    family_F,
    family_G,
    holomorphy_residual,
    rho,
    segment_integral,
    sum_space_proxy,
)
from tlmkit.morrey import _lr_aggregate
from tlmkit.spaces import _weighted_blocks
from tlmkit.suites import (HOLDER_SETUPS, HOLDER_SLACK, LIPSCHITZ_SPREAD, _setup, growth_report,
                           lipschitz_report)


def collapse_setup():
    return tk.make_setup(0.5, tk.SpaceParams(8, 4, 2, 0.0), tk.SpaceParams(4, 2, 2, 0.0))


def general_setup():
    return tk.make_setup(0.4, tk.SpaceParams(8, 4, 2.5, 0.5), tk.SpaceParams(4, 2, 2, 0.0))


INF_R_SETUPS = [  # endpoint pairs with an infinite r: (theta, end0, end1)
    (0.5, (8, 4, np.inf, 0.0), (4, 2, np.inf, 0.0)),
    (0.5, (8, 4, np.inf, 0.0), (4, 2, np.inf, 1.0)),
    (0.5, (8, 4, 2, 0.0), (4, 2, np.inf, 1.0)),
    (0.5, (8, 4, np.inf, -0.5), (4, 2, 3, 1.0)),
]
INF_R_IDS = ["inf-inf", "inf-inf-s", "2-inf", "inf-3"]


def test_make_setup_midpoint_values():
    setup = collapse_setup()
    assert setup.mid.p == pytest.approx(16.0 / 3.0, rel=1e-14)
    assert setup.mid.q == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert setup.mid.r == 2.0 and setup.mid.s == 0.0


def test_make_setup_validation():
    e0 = tk.SpaceParams(8, 4, 2, 0.0)
    with pytest.raises(ParameterError):
        tk.make_setup(0.0, e0, tk.SpaceParams(4, 2, 2, 0.0))
    with pytest.raises(ParameterError):  # p0 must exceed p1
        tk.make_setup(0.5, tk.SpaceParams(4, 2, 2, 0.0), e0)
    with pytest.raises(ParameterError):  # mismatched p/q ratios
        tk.make_setup(0.5, e0, tk.SpaceParams(4, 3, 2, 0.0))
    # infinite endpoint r: 1/r = (1-theta)/r_0 + theta/r_1, and r = inf when it is 0
    one_inf = tk.make_setup(0.5, tk.SpaceParams(8, 4, np.inf, 0.0), tk.SpaceParams(4, 2, 2, 0.0))
    assert one_inf.mid.r == 4.0
    both_inf = tk.make_setup(0.5, tk.SpaceParams(8, 4, np.inf, 0.0),
                             tk.SpaceParams(4, 2, np.inf, 0.0))
    assert both_inf.mid.r == np.inf


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
    return tk.build_analytic_family(collapse_setup(), f, family_sqrt, sampler256)


def test_family_build_transforms_each_function_once(spec256, family_sqrt, sampler256,
                                                    fftn_calls):
    # one forward DFT for f (its middle norm) and one for the rescaled base
    # (its coverage check and its blocks)
    f = tk.GridFunction(spec256, tk.random_bandlimited(spec256, 4, 314).values)
    start = len(fftn_calls)
    tk.build_analytic_family(collapse_setup(), f, family_sqrt, sampler256)
    assert len(fftn_calls) == start + 2


def test_family_projects_its_base_once(spec256, family_sqrt, sampler256, monkeypatch):
    # the band exponents read the aggregates of the moduli of the blocks the
    # family keeps, with the bits of a fresh weighted projection of the base
    projected = []
    project_all = interp.project_all

    def counting_projection(family, f):
        projected.append(f)
        return project_all(family, f)

    for module in (interp, tk.spaces):
        monkeypatch.setattr(module, "project_all", counting_projection)
    setup = general_setup()
    f = tk.random_bandlimited(spec256, 4, 2024)
    fam = tk.build_analytic_family(setup, f, family_sqrt, sampler256)
    # the norm that scales f, then the base: once for its carriers and once
    # for the weighted stack of its aggregates
    assert projected == [f, fam.base, fam.base]
    weighted = _weighted_blocks(family_sqrt, fam.base, setup.mid.s)
    blocks = tk.project_all(family_sqrt, fam.base)
    assert len(fam.bands) == len(weighted)
    for nu, (band, block) in enumerate(zip(fam.bands, blocks)):
        v = _lr_aggregate(weighted[:nu + 1], setup.mid.r).ravel()
        b = block.ravel()
        live = np.flatnonzero((v > 0.0) & (b != 0.0))
        assert np.array_equal(band.live, live), nu
        log_v, log_b = np.log(v[live]), np.log(np.abs(b[live]))
        at0, at1 = (rho(setup, 1, z) * (nu * np.log(2.0))
                    + (rho(setup, 2, z) * log_v + rho(setup, 4, z) * log_b)
                    for z in (0.0, 1.0))
        assert np.array_equal(band.at0, at0) and np.array_equal(band.slope, at1 - at0), nu


def test_midpoint_identity(built_family, sampler256):
    setup = built_family.setup
    mid = family_F(built_family, setup.theta)
    err = np.linalg.norm((mid - built_family.base).values)
    assert err <= 1e-12 * np.linalg.norm(built_family.base.values)
    norm = tk.tlm_norm(built_family.base, built_family.lp_family, setup.mid, sampler256)
    assert norm == pytest.approx(1.0, rel=1e-12)


def test_anchor_and_segment_additivity(built_family):
    setup = built_family.setup
    assert np.all(family_G(built_family, setup.theta).values == 0.0)
    z, w = 0.9 + 0.4j, 0.2 - 0.3j
    direct = family_G(built_family, z).values
    split = (segment_integral(built_family, setup.theta, w)
             + segment_integral(built_family, w, z)).values
    assert np.max(np.abs(direct - split)) < 1e-13 * max(np.abs(direct).max(), 1e-30)


def test_zero_length_segment_is_exactly_zero(built_family):
    for z in (built_family.setup.theta, 0.3 - 0.8j, 1.0):
        g = segment_integral(built_family, z, z)
        assert np.all(g.values == 0.0) and np.all(g.coeffs() == 0.0)


def test_long_contour_chunking(built_family):
    # a long vertical segment: the closed form against the chunked 48-node rule
    g = segment_integral(built_family, built_family.setup.theta, 0.5 + 5j)
    dense = _segment_quadrature(built_family, built_family.setup.theta, 0.5 + 5j, 48)
    scale = np.linalg.norm(dense.values)
    assert np.linalg.norm((g - dense).values) < 1e-12 * scale


@pytest.mark.parametrize("grid", [(1, 256, 6), (2, 64, 4), (3, 16, 2)],
                         ids=["1d-256", "2d-64", "3d-16"])
def test_closed_form_matches_quadrature_oracle(grid):
    dim, points, j_max = grid
    spec = tk.GridSpec(dim, points)
    family = tk.build_family(spec, j_max, "square_root")
    sampler = tk.WindowSampler.dyadic(spec, "cube")
    f = tk.random_bandlimited(spec, j_max - 1, 91, real_output=False)
    for entry in HOLDER_SETUPS + tuple(INF_R_SETUPS):
        setup = _setup(entry)
        fam = tk.build_analytic_family(setup, f, family, sampler)
        th = setup.theta
        for z in (th + 8j, th + 1e-4, 1 + 0.01j, 0.0, 1.0, -2j):
            exact = segment_integral(fam, th, z).values
            oracle = _segment_quadrature(fam, th, z, 2 * QUAD_NODES).values
            gap = np.linalg.norm(exact - oracle) / np.linalg.norm(oracle)
            assert gap <= 1e-12, (entry, z, gap)


def test_family_values_beyond_float64_raise(built_family):
    # the exponent at 0, (p/p_0 - 1) log V_nu + log|b_nu|, is negative where
    # V_nu < 1; scaled by -1e3 it puts the family far beyond float64
    bands = tuple(dataclasses.replace(b, at0=b.at0 * -1e3, slope=b.slope * -1e3)
                  for b in built_family.bands)
    fam = dataclasses.replace(built_family, bands=bands)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="overflows float64"):
            family_F(fam, 0.0)
        with pytest.raises(ParameterError, match="overflows float64"):
            segment_integral(fam, fam.setup.theta, 0.0)


def _single_exponent_F(fam, z):
    """HNS15's family sum_nu phi_nu(D) [ V_nu^(p((1-z)/p_0 + z/p_1) - 1) b_nu ],
    summed band by band from a fresh projection of the base."""
    setup = fam.setup
    mid = setup.mid
    blocks = tk.project_all(fam.lp_family, fam.base)
    weighted = _weighted_blocks(fam.lp_family, fam.base, mid.s)
    power = mid.p * ((1.0 - z) / setup.end0.p + z / setup.end1.p) - 1.0
    acc = np.zeros(fam.base.spec.shape, dtype=np.complex128)
    for nu, (mult, block) in enumerate(zip(fam.lp_family.multipliers, blocks)):
        v = _lr_aggregate(weighted[:nu + 1], mid.r)
        safe = np.where(v > 0.0, v, 1.0)  # 0^w = 0: a vanishing V_nu has b_nu = 0
        term = np.where(v > 0.0, np.exp(power * np.log(safe)), 0.0) * block
        acc += mult * np.fft.fftn(term, norm="ortho")
    return np.fft.ifftn(acc, norm="ortho")


def test_collapse_between_kinds(spec256, family_sqrt, sampler256):
    # equal endpoint r and s (r = inf included: r/r_l = 1 in the limit) make
    # rho_1 = 0 and rho_4 = 1, so the family is HNS15's single-exponent one
    f = tk.random_bandlimited(spec256, 4, 271, real_output=False)
    for setup in (collapse_setup(), _setup(INF_R_SETUPS[0])):
        for z in (0.0, 0.3 + 2j, 1.0):
            assert rho(setup, 1, z) == 0.0 and rho(setup, 4, z) == pytest.approx(1.0, abs=1e-15)
        fam = tk.build_analytic_family(setup, f, family_sqrt, sampler256)
        for z in (0.15, 0.7 + 1.3j, setup.theta):
            a = _single_exponent_F(fam, z)
            b = family_F(fam, z).values
            assert np.max(np.abs(a - b)) < 1e-12 * np.abs(a).max(), (setup.mid.r, z)


@pytest.mark.parametrize("entry", INF_R_SETUPS, ids=INF_R_IDS)
def test_infinite_r_reconstruction(spec256, family_sqrt, sampler256, entry):
    setup = _setup(entry)
    f = tk.random_bandlimited(spec256, 4, 808, real_output=False)
    fam = tk.build_analytic_family(setup, f, family_sqrt, sampler256)
    base = fam.base.values
    err = np.linalg.norm(family_F(fam, setup.theta).values - base)
    assert err <= 1e-12 * np.linalg.norm(base)


@pytest.mark.parametrize("entry", INF_R_SETUPS, ids=INF_R_IDS)
def test_infinite_r_holder_inequality(spec256, family_plain, sampler256, entry):
    corpus = [tk.random_bandlimited(spec256, 1 + i % 5, 900 + i, real_output=(i % 2 == 0))
              for i in range(12)]
    for theta in (0.25, 0.5, 0.75):
        setup = _setup((theta, *entry[1:]))
        worst = tk.holder_interpolation_check(setup, corpus, family_plain, sampler256)
        assert 0.0 < worst <= 1.0 + HOLDER_SLACK, theta


def zero_band_function(spec):
    """cos x + cos 40x, exactly: its blocks on bands 1-3 and 6 vanish."""
    coeffs = np.zeros(spec.shape, dtype=np.complex128)
    for k in (1, 40):
        coeffs[k] = coeffs[-k] = np.sqrt(spec.size) / 2.0
    return tk.GridFunction(spec, np.fft.ifftn(coeffs, norm="ortho"), spectrum=coeffs)


def test_zero_band_base(spec256, family_sqrt, sampler256):
    # bands with no live point are skipped; F and G must not notice
    f = zero_band_function(spec256)
    blocks = tk.project_all(family_sqrt, f)
    assert all(np.all(blocks[j] == 0.0) for j in (1, 2, 3, 6))
    fam = tk.build_analytic_family(general_setup(), f, family_sqrt, sampler256)
    th = fam.setup.theta
    base = fam.base.values
    assert np.linalg.norm(family_F(fam, th).values - base) <= 1e-12 * np.linalg.norm(base)
    exact = segment_integral(fam, th, 1 + 0.75j).values
    oracle = _segment_quadrature(fam, th, 1 + 0.75j, QUAD_NODES).values
    assert np.linalg.norm(exact - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_holomorphy_residual_small(built_family):
    res = holomorphy_residual(built_family, 0.45 + 0.3j, seed=3)
    assert res < 1e-6


def test_holomorphy_residual_on_steep_exponents(spec256, family_sqrt, sampler256):
    # slopes near 130: the plain 2e-4 stencil's truncation error alone read 2.3e-4
    setup = tk.make_setup(0.001, tk.SpaceParams(1000, 1000, 2, 0.0),
                          tk.SpaceParams(1.01, 1.01, 2, 0.0))
    f = tk.random_bandlimited(spec256, 4, 314)
    fam = tk.build_analytic_family(setup, f, family_sqrt, sampler256)
    assert holomorphy_residual(fam, setup.theta + 0.1 + 0.2j, seed=3) < 1e-9


def test_holomorphy_residual_flags_a_map_that_is_not_holomorphic(built_family, monkeypatch):
    exact = interp.segment_integral

    def skewed(fam, z_from, z_to):  # adds conj(z_to - z_from) * base
        return exact(fam, z_from, z_to) + fam.base * np.conj(complex(z_to) - complex(z_from))

    monkeypatch.setattr(interp, "segment_integral", skewed)
    assert holomorphy_residual(built_family, 0.45 + 0.3j, seed=3) > 0.1


def test_boundary_lipschitz_gates(built_family, sampler256):
    pairs = [(0.0, 0.1), (0.0, 0.5), (0.1, 0.6)]
    ratios = tk.boundary_lipschitz_check(built_family, 0, pairs, sampler256)
    assert len(ratios) == len(pairs)
    free = lipschitz_report([built_family], 0, pairs, sampler256, None)
    assert free.verdict == "not-decided"
    assert free.details["spread"] == max(ratios) / min(ratios) < LIPSCHITZ_SPREAD
    assert free.empirical_constant == max(ratios)
    with pytest.raises(ParameterError):
        tk.boundary_lipschitz_check(built_family, 2, pairs, sampler256)


def test_boundary_lipschitz_without_pairs(built_family, sampler256):
    assert tk.boundary_lipschitz_check(built_family, 1, [], sampler256) == []


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
    zs = [0.2 + 0.5j, 0.8 - 1.5j]
    values = tk.global_growth_check(built_family, zs, sampler256)
    assert len(values) == len(zs) and all(np.isfinite(v) and v > 0 for v in values)
    rep = growth_report(built_family, zs, sampler256, None)
    assert rep.verdict == "not-decided"
    assert rep.empirical_constant == max(values)


def test_global_growth_of_the_zero_function_is_1(spec256, family_sqrt, sampler256):
    # G vanishes and so does the normalizer: the vacuous 0/0 bound reads 1
    zero = tk.GridFunction(spec256, np.zeros(spec256.shape))
    fam = tk.build_analytic_family(collapse_setup(), zero, family_sqrt, sampler256)
    assert tk.global_growth_check(fam, [0.2 + 0.5j, 0.8 - 1.5j], sampler256) == [1.0, 1.0]
