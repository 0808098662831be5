import numpy as np
import pytest

import tlmkit as tk
from tlmkit.errors import BandCoverageError, ParameterError
from tlmkit.spaces import coverage_defect, ensure_band_covered


def test_params_validation():
    with pytest.raises(ParameterError):
        tk.SpaceParams(2.0, 4.0, 2.0, 0.0)  # q > p
    with pytest.raises(ParameterError):
        tk.SpaceParams(4.0, 2.0, 1.0, 0.0)  # r = 1 excluded
    with pytest.raises(ParameterError):
        tk.SpaceParams(4.0, 2.0, 2.0, np.inf)
    p = tk.SpaceParams(4.0, 2.0, np.inf, 1.0)  # r = inf allowed
    assert p.pair.q == 2.0


def test_square_function_matches_blocks(spec256, family_plain, f_band4):
    r, s = 2.5, 0.7
    got = tk.square_function(f_band4, family_plain, r, s).values.real
    blocks = tk.project_all(family_plain, f_band4)
    stack = np.stack([
        (2.0 ** (j * s) * np.abs(b.values)) ** r for j, b in enumerate(blocks)
    ])
    want = stack.sum(axis=0) ** (1.0 / r)
    assert np.max(np.abs(got - want)) < 1e-12 * max(want.max(), 1.0)


def test_partial_square_monotone(family_sqrt, sampler256, f_band4):
    # the analytic family's running aggregates V_nu are the partial square
    # functions over bands 0..nu of its base, so they grow with nu up to S
    setup = tk.make_setup(0.5, tk.SpaceParams(8.0, 4.0, 2.5, 0.3),
                          tk.SpaceParams(4.0, 2.0, 2.5, 0.3))
    fam = tk.build_analytic_family("four-exponent", setup, f_band4, family_sqrt,
                                   sampler256)
    mid = setup.mid
    for lo, hi in zip(fam.aggregates, fam.aggregates[1:]):
        assert np.all(hi >= lo - 1e-13)
    full = tk.square_function(fam.base, family_sqrt, mid.r, mid.s).values.real
    assert np.max(np.abs(fam.aggregates[-1] - full)) < 1e-13 * max(full.max(), 1.0)


def test_truncated_gate_zeroes_out_of_range(spec256, family_plain, f_band4):
    full = tk.square_function(f_band4, family_plain, 2.0, 0.0).values.real
    gated = tk.truncated_square_function(f_band4, family_plain, 2.0, 0.0, 0.5)[0]
    outside = (full < 0.5) | (full > 2.0)
    assert np.all(gated[outside] == 0.0)
    inside = ~outside
    assert np.allclose(gated[inside], full[inside])


def test_truncated_tails_match_direct_aggregate(family_plain, f_band4):
    r, s, a = 2.5, 0.3, 0.1
    tails = tk.truncated_square_function(f_band4, family_plain, r, s, a)
    assert len(tails) == family_plain.j_max + 1
    weighted = [2.0 ** (j * s) * np.abs(b.values)
                for j, b in enumerate(tk.project_all(family_plain, f_band4))]
    full = np.sum([w**r for w in weighted], axis=0) ** (1.0 / r)
    gate = (full >= a) & (full <= 1.0 / a)
    for start, tail in enumerate(tails):
        want = np.sum([w**r for w in weighted[start:]], axis=0) ** (1.0 / r)
        np.testing.assert_allclose(tail, np.where(gate, want, 0.0),
                                   rtol=1e-13, atol=1e-13 * full.max())
    for bad_r, bad_a in ((1.0, a), (r, 0.0), (r, 1.5)):
        with pytest.raises(ParameterError):
            tk.truncated_square_function(f_band4, family_plain, bad_r, s, bad_a)


def test_tlm_norm_decomposition(spec256, family_plain, sampler256, f_band4):
    params = tk.SpaceParams(4.0, 2.0, 2.0, 0.5)
    got = tk.tlm_norm(f_band4, family_plain, params, sampler256)
    blocks = tk.project_all(family_plain, f_band4)
    low = tk.morrey_norm(blocks[0], params.pair, sampler256)
    tail_stack = np.stack([
        (2.0 ** (j * params.s) * np.abs(b.values)) ** params.r
        for j, b in enumerate(blocks)
    ][1:])
    agg = tk.GridFunction(spec256, tail_stack.sum(axis=0) ** (1.0 / params.r))
    high = tk.morrey_norm(agg, params.pair, sampler256)
    assert got == pytest.approx(low + high, rel=1e-12)


def test_coverage_guard(spec256):
    family = tk.build_family(spec256, 3, "plain")
    wide = tk.random_bandlimited(spec256, 5, 3)
    assert coverage_defect(family, wide) > 0.1
    with pytest.raises(BandCoverageError):
        ensure_band_covered(family, wide)
    narrow = tk.random_bandlimited(spec256, 2, 3)
    assert coverage_defect(family, narrow) == 0.0


def test_diamond_tail_vanishes_beyond_band(spec256, family_plain, sampler256):
    params = tk.SpaceParams(4.0, 2.0, 2.0, 0.5)
    f = tk.random_bandlimited(spec256, 3, 15)
    scale = tk.tlm_norm(f, family_plain, params, sampler256)
    for n in (3, 4, 5, 6):
        assert tk.diamond_tail(f, family_plain, params, sampler256, n) <= 1e-13 * scale
    assert tk.diamond_tail(f, family_plain, params, sampler256, 1) > 1e-6 * scale


def test_persistent_profile_blocks(spec256, family_plain):
    s = 0.4
    g = tk.persistent_block_function(spec256, family_plain, s=s)
    blocks = tk.project_all(family_plain, g)
    for j, b in enumerate(blocks):
        peak = float((2.0 ** (j * s)) * np.abs(b.values).max())
        assert peak == pytest.approx(1.0, rel=1e-10), f"band {j} peak {peak}"


def test_diamond_criterion_distinguishes(spec256, family_plain, sampler256):
    params = tk.SpaceParams(4.0, 2.0, 2.0, 0.5)
    f = tk.random_bandlimited(spec256, 4, 31)
    rep_good = tk.diamond_criterion(f, family_plain, params, sampler256)
    assert rep_good.verdict == "pass"
    g = tk.persistent_block_function(spec256, family_plain, s=params.s)
    rep_bad = tk.diamond_criterion(g, family_plain, params, sampler256)
    assert rep_bad.verdict == "not-decided"
