import warnings

import numpy as np
import pytest

import tlmkit as tk
from conftest import scaled, spike_field
from tlmkit.errors import BandCoverageError, ParameterError
from tlmkit import spaces
from tlmkit.lpaley import top_band
from tlmkit.morrey import _lr_aggregate, _morrey_norms
from tlmkit.spaces import (DIAMOND_CUTOFFS, _tlm_norms, _weighted_blocks, coverage_defect,
                           ensure_band_covered)


def test_params_validation():
    with pytest.raises(ParameterError):
        tk.SpaceParams(2.0, 4.0, 2.0, 0.0)  # q > p
    with pytest.raises(ParameterError):
        tk.SpaceParams(4.0, 2.0, 1.0, 0.0)  # r = 1 excluded
    with pytest.raises(ParameterError):
        tk.SpaceParams(4.0, 2.0, 2.0, np.inf)
    p = tk.SpaceParams(4.0, 2.0, np.inf, 1.0)  # r = inf allowed
    assert p.pair.q == 2.0


def _bare_r_calls(spec64):
    """Each public function that takes a bare r, as a function of r."""
    family = tk.build_family(spec64, 4, "plain")
    fs = [tk.random_bandlimited(spec64, 2, seed) for seed in (1, 2)]
    gs = [tk.project(family, 2 + i, tk.GridFunction(
        spec64, np.random.default_rng(10 + i).standard_normal(spec64.shape))) for i in range(2)]
    pq = tk.LebesguePair(4.0, 2.0)
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    return {
        "square_function": lambda r: tk.square_function(fs[0], family, r, 0.0),
        "truncated_square_function":
            lambda r: tk.truncated_square_function(fs[0], family, r, 0.0, (0.1,)),
        "vector_maximal_check": lambda r: tk.vector_maximal_check(fs, r, pq, sampler),
        "projection_stability_check":
            lambda r: tk.projection_stability_check(gs, family, 2, r, pq, sampler),
    }


@pytest.mark.parametrize("name", ["square_function", "truncated_square_function",
                                  "vector_maximal_check", "projection_stability_check"])
def test_bare_r_follows_one_rule(spec64, name):
    # 1 < r <= inf, checked once in _lr_aggregate with one message
    call = _bare_r_calls(spec64)[name]
    for bad in (1.0, 0.5):
        with pytest.raises(ParameterError, match=rf"^need 1 < r <= inf, got r={bad}$"):
            call(bad)
    call(np.inf)


def test_square_function_matches_blocks(spec256, family_plain, f_band4):
    r, s = 2.5, 0.7
    got = tk.square_function(f_band4, family_plain, r, s).values.real
    blocks = tk.project_all(family_plain, f_band4)
    stack = np.stack([
        (2.0 ** (j * s) * np.abs(b)) ** r for j, b in enumerate(blocks)
    ])
    want = stack.sum(axis=0) ** (1.0 / r)
    assert np.max(np.abs(got - want)) < 1e-12 * max(want.max(), 1.0)


def test_partial_square_monotone(family_sqrt, sampler256, f_band4):
    # the analytic family's running aggregates V_nu are the partial square
    # functions over bands 0..nu of its base, so they grow with nu up to S
    setup = tk.make_setup(0.5, tk.SpaceParams(8.0, 4.0, 2.5, 0.3),
                          tk.SpaceParams(4.0, 2.0, 2.5, 0.3))
    fam = tk.build_analytic_family(setup, f_band4, family_sqrt, sampler256)
    mid = setup.mid
    weighted = _weighted_blocks(family_sqrt, fam.base, mid.s)
    aggregates = [_lr_aggregate(weighted[:nu + 1], mid.r) for nu in range(len(weighted))]
    for lo, hi in zip(aggregates, aggregates[1:]):
        assert np.all(hi >= lo - 1e-13)
    full = tk.square_function(fam.base, family_sqrt, mid.r, mid.s).values.real
    assert np.array_equal(aggregates[-1], full)  # the same l^r aggregate
    # reference: the running sum over bands, one band at a time
    running = np.zeros(full.shape)
    for agg, block in zip(aggregates, weighted):
        running = running + block**mid.r
        assert np.array_equal(agg, running ** (1.0 / mid.r))


def test_truncated_gate_zeroes_out_of_range(spec256, family_plain, f_band4):
    full = tk.square_function(f_band4, family_plain, 2.0, 0.0).values.real
    gated = tk.truncated_square_function(f_band4, family_plain, 2.0, 0.0, (0.5,))[0][0]
    outside = (full < 0.5) | (full > 2.0)
    assert np.all(gated[outside] == 0.0)
    inside = ~outside
    assert np.allclose(gated[inside], full[inside])


def test_truncated_tails_match_direct_aggregate(family_plain, f_band4):
    r, s, a = 2.5, 0.3, 0.1
    tails = tk.truncated_square_function(f_band4, family_plain, r, s, (a,))[0]
    assert len(tails) == family_plain.j_max + 1
    weighted = [2.0 ** (j * s) * np.abs(b)
                for j, b in enumerate(tk.project_all(family_plain, f_band4))]
    full = np.sum([w**r for w in weighted], axis=0) ** (1.0 / r)
    gate = (full >= a) & (full <= 1.0 / a)
    for start, tail in enumerate(tails):
        want = np.sum([w**r for w in weighted[start:]], axis=0) ** (1.0 / r)
        np.testing.assert_allclose(tail, np.where(gate, want, 0.0),
                                   rtol=1e-13, atol=1e-13 * full.max())
    for bad_r, bad_a in ((1.0, a), (r, 0.0), (r, 1.5)):
        with pytest.raises(ParameterError):
            tk.truncated_square_function(f_band4, family_plain, bad_r, s, (bad_a,))


def _one_cutoff_tails(f, family, r, s, cutoff):
    """The gated tails of one cutoff as a call per cutoff built them: its own
    weighted blocks, full aggregate and per-band aggregates."""
    weighted = _weighted_blocks(family, f, s)
    full = _lr_aggregate(weighted, r)
    gate = (full >= cutoff) & (full <= 1.0 / cutoff)
    return [np.where(gate, _lr_aggregate(weighted[j:], r), 0.0)
            for j in range(len(weighted))]


@pytest.mark.parametrize("r,s", [(2.5, 0.3), (np.inf, 0.0), (2.0, -0.5)])
@pytest.mark.parametrize("field", ["band-4", "spike"])
def test_truncated_tails_per_cutoff_match_one_cutoff_calls(spec64, r, s, field):
    # every cutoff's tails share one projection and one set of aggregates and
    # keep the bits of a call of their own; the spike takes the rescaled weights
    f = spike_field(spec64) if field == "spike" else tk.random_bandlimited(spec64, 3, 2024)
    family = tk.build_family(spec64, 4, "plain")
    cutoffs = DIAMOND_CUTOFFS + (1.0, 0.5)
    got = tk.truncated_square_function(f, family, r, s, cutoffs)
    assert len(got) == len(cutoffs)
    for cutoff, tails in zip(cutoffs, got):
        want = _one_cutoff_tails(f, family, r, s, cutoff)
        assert len(tails) == len(want) == family.j_max + 1
        assert all(np.array_equal(t, w) for t, w in zip(tails, want)), cutoff
    assert tk.truncated_square_function(f, family, r, s, ()) == []


@pytest.mark.parametrize("scale, shared", [(2.0, True), (1.0, False), (20.0, False)])
@pytest.mark.parametrize("shape", ["cube", "ball"])
def test_diamond_criterion_scans_cutoffs_with_equal_gates_once(spec64, monkeypatch,
                                                               scale, shared, shape):
    # S(f) spans [0.190, 2.15] at scale 2, inside both gates; at scale 1 it dips
    # below 0.1 and at scale 20 it passes 10, so there the gates differ.  The
    # norms differ only where the gated-out mass is material: at scale 1 the
    # gates differ by one point of 64, and the norms at most by round-off
    f = tk.random_bandlimited(spec64, 3, 2024) * scale
    family = tk.build_family(spec64, 4, "plain")
    params = tk.SpaceParams(4.0, 2.0, 2.5, 0.3)
    sampler = tk.WindowSampler.dyadic(spec64, shape)
    tails = tk.truncated_square_function(f, family, params.r, params.s, DIAMOND_CUTOFFS)
    assert (tails[0] is tails[1]) is shared
    want = {repr(a): _morrey_norms(_one_cutoff_tails(f, family, params.r, params.s, a),
                                   spec64, params.pair, sampler)
            for a in DIAMOND_CUTOFFS}
    if shared:
        assert want["0.1"] == want["0.01"]
    gated, wider = np.array(want["0.1"]), np.array(want["0.01"])
    material = np.abs(gated - wider) > 1e-12 * np.maximum(gated, wider)
    assert bool(material.any()) is (scale == 20.0)
    scans = []

    def counting_norms(rows, *args):
        scans.append(rows)
        return _morrey_norms(rows, *args)

    monkeypatch.setattr(spaces, "_morrey_norms", counting_norms)
    rep = tk.diamond_criterion(f, family, params, sampler)
    assert rep.details["norm_sequences"] == want
    assert len(scans) == (1 if shared else 2)


def test_tlm_norm_decomposition(spec256, family_plain, sampler256, f_band4):
    params = tk.SpaceParams(4.0, 2.0, 2.0, 0.5)
    got = tk.tlm_norm(f_band4, family_plain, params, sampler256)
    blocks = tk.project_all(family_plain, f_band4)
    low = tk.morrey_norm(tk.GridFunction(spec256, blocks[0]), params.pair, sampler256)
    tail_stack = np.stack([
        (2.0 ** (j * params.s) * np.abs(b)) ** params.r
        for j, b in enumerate(blocks)
    ][1:])
    agg = tk.GridFunction(spec256, tail_stack.sum(axis=0) ** (1.0 / params.r))
    high = tk.morrey_norm(agg, params.pair, sampler256)
    assert got == pytest.approx(low + high, rel=1e-12)


@pytest.mark.parametrize("c", [1e200, 1e-200])
@pytest.mark.parametrize("r", [2.0, np.inf])
def test_tlm_norm_homogeneous_near_float_limits(spec64, c, r):
    # block powers of these samples leave float64; the norm must not
    f = tk.random_bandlimited(spec64, 3, 99)
    family = tk.build_family(spec64, 4, "plain")
    params = tk.SpaceParams(4.0, 2.0, r, 0.5)
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = tk.tlm_norm(c * f, family, params, sampler)
    want = c * tk.tlm_norm(f, family, params, sampler)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("r", [2.0, np.inf])
@pytest.mark.parametrize("s", [0.0, -0.5])
def test_tlm_norm_spike_near_float_limit(spec64, r, s):
    # the band transforms of this field leave float64; the norm must not.
    # With s <= 0 no weighted block exceeds the peak sample.
    spike = spike_field(spec64)
    family = tk.build_family(spec64, 4, "plain")
    params = tk.SpaceParams(4.0, 2.0, r, s)
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = tk.tlm_norm(spike, family, params, sampler)
        want = np.ldexp(tk.tlm_norm(scaled(spike, -1000), family, params, sampler), 1000)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("r", [2.0, np.inf])
def test_weighted_blocks_overflow_raises(spec64, r):
    # with s > 0 the weighted blocks of the spike leave float64 once scaled back
    spike = spike_field(spec64)
    family = tk.build_family(spec64, 4, "plain")
    params = tk.SpaceParams(4.0, 2.0, r, 0.5)
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for check in (tk.tlm_norm, tk.diamond_criterion):
            with pytest.raises(ParameterError, match="weighted block .* overflows float64"):
                check(spike, family, params, sampler)


@pytest.mark.parametrize("field", ["band-1", "spike"])
def test_batched_norms_match_single_calls(spec64, field):
    # one batch mixes directly multiplied weights with the ldexp path: s = 400
    # weighs the empty bands of the band-1 field beyond float64, and the
    # spike's transforms leave float64, so its blocks are rescaled at any s
    family = tk.build_family(spec64, 4, "plain")
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    if field == "spike":
        f = spike_field(spec64)
        spaces = [tk.SpaceParams(4.0, 2.0, r, s) for s in (0.0, -0.5) for r in (2.0, np.inf)]
    else:
        f = 4.0 * tk.random_bandlimited(spec64, 1, 5)  # peak in [2, 4)
        spaces = [tk.SpaceParams(4.0, 2.0, 2.0, 0.5), tk.SpaceParams(6.0, 3.0, np.inf, 400.0),
                  tk.SpaceParams(4.0, 2.0, 3.0, -0.5), tk.SpaceParams(8.0, 2.0, 2.0, 400.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _tlm_norms([f], family, spaces, sampler)
        want = [tk.tlm_norm(f, family, params, sampler) for params in spaces]
    assert got == [want]


def test_one_projection_per_function_whatever_the_spaces_s(spec64, monkeypatch):
    # s = 400 takes the ldexp path; with a peak outside [1/2, 1) a rescale
    # chosen per space would differ from the s = 0 one and cost a projection
    family = tk.build_family(spec64, 4, "plain")
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    f = 4.0 * tk.random_bandlimited(spec64, 1, 7)
    assert not 0.5 <= float(f.modulus().max()) < 1.0
    spaces = (tk.SpaceParams(4.0, 2.0, 2.0, 0.0), tk.SpaceParams(4.0, 2.0, 2.0, 400.0))
    want = [[tk.tlm_norm(f, family, params, sampler) for params in spaces]]
    calls = []

    def counted(*args):
        calls.append(args)
        return tk.project_all(*args)

    monkeypatch.setattr(tk.spaces, "project_all", counted)
    assert _tlm_norms([f], family, spaces, sampler) == want
    assert len(calls) == 1


def test_batched_norms_raise_like_the_first_failing_space(spec64):
    spike = spike_field(spec64)
    family = tk.build_family(spec64, 4, "plain")
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    spaces = [tk.SpaceParams(4.0, 2.0, 2.0, 0.0), tk.SpaceParams(4.0, 2.0, 2.0, 0.5)]
    with pytest.raises(ParameterError) as single:
        tk.tlm_norm(spike, family, spaces[1], sampler)
    with pytest.raises(ParameterError) as batched:
        _tlm_norms([spike], family, spaces, sampler)
    assert str(batched.value) == str(single.value)
    assert "weighted block" in str(single.value)


def test_corpus_norms_match_single_calls(spec64):
    # the spike needs a power-of-two rescale, the band-1 field does not
    family = tk.build_family(spec64, 4, "plain")
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    fs = [4.0 * tk.random_bandlimited(spec64, 1, 5), spike_field(spec64)]
    spaces = [tk.SpaceParams(4.0, 2.0, 2.0, 0.0), tk.SpaceParams(6.0, 3.0, np.inf, -0.5),
              tk.SpaceParams(4.0, 2.0, 3.0, -0.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _tlm_norms(fs, family, spaces, sampler)
        want = [[tk.tlm_norm(f, family, params, sampler) for params in spaces] for f in fs]
    assert got == want
    assert _tlm_norms([], family, spaces, sampler) == []


def test_corpus_norms_raise_like_the_first_failing_function(spec64):
    # the flat field fails in its Morrey scan, after the spike would fail in
    # its weighting: the corpus still raises the flat field's error
    family = tk.build_family(spec64, 4, "plain")
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    flat = tk.GridFunction(spec64, np.full(spec64.shape, 1.7e308))
    fs = [tk.random_bandlimited(spec64, 1, 5), flat, spike_field(spec64)]
    params = tk.SpaceParams(4.0, 2.0, 2.0, 0.5)
    errors = []
    for corpus in (fs, [flat], [fs[0], fs[2]], [fs[2]]):
        with pytest.raises(ParameterError) as exc:
            _tlm_norms(corpus, family, (params,), sampler)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and "Morrey norm" in errors[0]
    assert errors[2] == errors[3] and "weighted block" in errors[2]


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
        peak = float((2.0 ** (j * s)) * np.abs(b).max())
        assert peak == pytest.approx(1.0, rel=1e-10), f"band {j} peak {peak}"
    # band 6's amplitude 2^(-6s) leaves float64's normal range above s = 1022/6
    tk.persistent_block_function(spec256, family_plain, s=170.0)
    with pytest.raises(ParameterError, match="band 6 .* normal range at s=171"):
        tk.persistent_block_function(spec256, family_plain, s=171.0)


def test_diamond_criterion_distinguishes(spec256, family_plain, sampler256):
    params = tk.SpaceParams(4.0, 2.0, 2.0, 0.5)
    f = tk.random_bandlimited(spec256, 4, 31)
    rep_good = tk.diamond_criterion(f, family_plain, params, sampler256)
    assert rep_good.verdict == "pass"
    g = tk.persistent_block_function(spec256, family_plain, s=params.s)
    rep_bad = tk.diamond_criterion(g, family_plain, params, sampler256)
    assert rep_bad.verdict == "not-decided"


@pytest.mark.parametrize("grid", [(1, 256), (2, 64)])
@pytest.mark.parametrize("real_output", [True, False])
def test_one_forward_dft_per_function(grid, real_output, fftn_calls):
    # a field read from samples alone is transformed once: the coverage check
    # and the projection share its DFT
    spec = tk.GridSpec(*grid)
    family = tk.build_family(spec, top_band(spec), "plain")
    sampler = tk.WindowSampler.dyadic(spec, "cube")
    params = tk.SpaceParams(4.0, 2.0, 2.0, 0.5)
    drawn = tk.random_bandlimited(spec, family.j_max - 1, 8, real_output=real_output)
    for run in (lambda f: tk.tlm_norm(f, family, params, sampler),
                lambda f: tk.diamond_criterion(f, family, params, sampler)):
        f = tk.GridFunction(spec, drawn.values)
        start = len(fftn_calls)
        run(f)
        assert len(fftn_calls) == start + 1
