import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tlmkit as tk
from tlmkit.errors import ParameterError
from tlmkit import morrey
from tlmkit.grid import _rescale_exponent
from tlmkit.morrey import _axis_half_width, _lr_aggregate, _morrey_norms, window_sum, window_volume
from tlmkit.lpaley import top_band
from tlmkit.maximal import vector_maximal_check
from tlmkit.spaces import DIAMOND_CUTOFFS, _tlm_norms
from tlmkit.suites import ORACLE_TOL, oracle_radii, unit_ball_indicator
from conftest import brute_force_morrey


def test_pair_validation():
    with pytest.raises(ParameterError):
        tk.LebesguePair(2.0, 4.0)
    with pytest.raises(ParameterError):
        tk.LebesguePair(2.0, 1.0)
    with pytest.raises(ParameterError):
        tk.LebesguePair(np.inf, 2.0)


def test_sampler_validation(spec64):
    with pytest.raises(ParameterError):
        tk.WindowSampler((0.5, 0.5), "cube")
    with pytest.raises(ParameterError):
        tk.WindowSampler((0.5,), "pyramid")
    s = tk.WindowSampler((spec64.length,), "cube")
    with pytest.raises(ParameterError):
        s.validate_against(spec64)  # radius beyond L/2


def test_dyadic_radii(spec64):
    s = tk.WindowSampler.dyadic(spec64, "cube")
    h = spec64.spacing
    assert s.radii[0] == pytest.approx(h)
    assert s.radii[-1] == pytest.approx(spec64.length / 2.0)


@pytest.mark.parametrize("shape", ["cube", "ball"])
@pytest.mark.parametrize("dim,points", [(1, 32), (2, 16), (3, 8), (3, 16)])
def test_brute_force_oracle(shape, dim, points):
    spec = tk.GridSpec(dim, points)
    # widest band with headroom on the grid (2**(K+1) < nyquist), at most 2
    band = min(2, top_band(spec) - 1)
    f = tk.random_bandlimited(spec, band, 42 + dim, real_output=False)
    pq = tk.LebesguePair(3.5, 2.0)
    sampler = tk.WindowSampler.dyadic(spec, shape)
    got = tk.morrey_norm(f, pq, sampler)
    want = brute_force_morrey(f, pq, sampler)
    assert got == pytest.approx(want, rel=1e-12)


def test_collapse_to_lp(spec64):
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    for seed in range(5):
        f = tk.random_bandlimited(spec64, 3, seed, real_output=(seed % 2 == 0))
        for p in (2.0, 3.3):
            got = tk.morrey_norm(f, tk.LebesguePair(p, p), sampler)
            assert got == pytest.approx(tk.lp_norm(f, p), rel=1e-12)


@pytest.mark.parametrize("dim, points, volume", [
    (1, 256, 2.0), (2, 128, np.pi), (3, 32, 4.0 * np.pi / 3.0),
], ids=["1d-256", "2d-128", "3d-32"])
def test_indicator_oracle_value(dim, points, volume):
    # the unit ball's indicator has Morrey norm |B|^(1/p - 1/q) * |B|^(1/q) = |B|^(1/4)
    spec = tk.GridSpec(dim, points)
    f = unit_ball_indicator(spec)
    pq = tk.LebesguePair(4.0, 2.0)
    value = tk.morrey_norm(f, pq, tk.WindowSampler(oracle_radii(spec), "ball"))
    assert value == pytest.approx(volume**0.25, rel=ORACLE_TOL)


def test_refinement_monotone(spec256):
    f = tk.random_bandlimited(spec256, 3, 77)
    pq = tk.LebesguePair(4.0, 2.0)
    radii = [tk.WindowSampler.dyadic(spec256, "ball").radii]
    for _ in range(2):  # insert the geometric midpoints of consecutive radii
        r = radii[-1]
        radii.append(tuple(sorted(r + tuple(np.sqrt(a * b) for a, b in zip(r, r[1:])))))
    v1, v2, v3 = (tk.morrey_norm(f, pq, tk.WindowSampler(r, "ball")) for r in radii)
    assert v1 <= v2 * (1 + 1e-14)
    assert v2 <= v3 * (1 + 1e-14)


def test_window_sum_constant(spec64):
    ones = np.ones(spec64.shape)
    for shape in ("cube", "ball"):
        for radius in (0.4, 1.1):
            total = tk.morrey.window_sum(spec64, ones, shape, radius)
            count = tk.morrey.window_count(spec64, shape, radius)
            assert np.allclose(total, count)


def test_vector_norm_reduces_to_scalar(spec64):
    f = tk.random_bandlimited(spec64, 3, 9)
    pq = tk.LebesguePair(4.0, 2.0)
    sampler = tk.WindowSampler.dyadic(spec64, "cube")

    def vector_norm(fs, r):
        agg = _lr_aggregate([g.modulus() for g in fs], r)
        return tk.morrey_norm(tk.GridFunction(spec64, agg), pq, sampler)

    solo = vector_norm([f], 2.0)
    assert solo == pytest.approx(tk.morrey_norm(f, pq, sampler), rel=1e-13)
    pair = vector_norm([f, f], 2.0)
    assert pair == pytest.approx(np.sqrt(2.0) * solo, rel=1e-12)
    sup = vector_norm([f, 2.0 * f], np.inf)
    assert sup == pytest.approx(2.0 * solo, rel=1e-12)


@pytest.mark.parametrize("r", [80.0, 160.0])
def test_lr_aggregate_of_faint_entries_beside_a_unit_peak(r):
    # x^r of the entries below 1e-4 leaves float64's normal range beside the
    # peak 1, which sets no rescale; the aggregate is still x (1 + 2^-r)^(1/r)
    # or x itself, and never 0 where an entry is not
    x = np.array([1.0, 1e-4, 1e-12, 1e-300, 5e-324, 0.0])
    agg = _lr_aggregate([x, 0.5 * x], r)
    want = x * (1.0 + 0.5**r) ** (1.0 / r)
    assert np.all((agg > 0.0) == (x > 0.0))
    assert np.allclose(agg[:-2], want[:-2], rtol=1e-15, atol=0.0)
    assert agg[-2] == x[-2] and agg[-1] == 0.0  # the least subnormal, and zero
    assert np.array_equal(_lr_aggregate([x[:1], 0.5 * x[:1]], r), agg[:1])  # the peak keeps its bits


@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_norm_homogeneous_near_float_limits(spec64, c):
    # q-th powers of these samples leave float64; the norm must not
    f = tk.random_bandlimited(spec64, 3, 99)
    pq = tk.LebesguePair(4.0, 2.0)
    for sampler in (tk.WindowSampler.dyadic(spec64, "cube"),
                    tk.WindowSampler((0.5,), "cube")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = tk.morrey_norm(c * f, pq, sampler)
        want = c * tk.morrey_norm(f, pq, sampler)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def _reference_box_sum_axis(arr, half_width, axis):
    """The index-array box filter: take(range) windows of a zero-padded
    prefix sum, then np.roll onto the window centres."""
    n = arr.shape[axis]
    w = 2 * half_width + 1
    if w >= n:
        total = arr.sum(axis=axis, keepdims=True)
        return np.broadcast_to(total, arr.shape).copy()
    head = arr.take(range(w - 1), axis=axis)
    ext = np.concatenate([arr, head], axis=axis)
    csum = np.cumsum(ext, axis=axis)
    pad_shape = list(csum.shape)
    pad_shape[axis] = 1
    csum = np.concatenate([np.zeros(pad_shape), csum], axis=axis)
    lo = csum.take(range(0, n), axis=axis)
    hi = csum.take(range(w, n + w), axis=axis)
    return np.roll(hi - lo, half_width, axis=axis)


@pytest.mark.parametrize("dim,points", [(1, 64), (1, 256), (1, 4096), (2, 16), (2, 128),
                                        (2, 256), (3, 8), (3, 32), (3, 64)])
def test_cube_window_sum_matches_reference_box_filter(dim, points):
    # bit for bit against np.cumsum's prefix sums, for one array and for a stack
    # with batch axes (2, 3), on values spread over 18 decades, with and without
    # a scan's plan; at every dyadic radius and at h/2 (half-width 0), or on the
    # largest grids at a narrow and a wide radius short of the whole torus
    spec = tk.GridSpec(dim, points)
    rng = np.random.default_rng(dim * points)
    radii = tk.WindowSampler.dyadic(spec).radii
    radii = (radii[0], radii[-2]) if spec.size >= 1 << 16 else radii + (spec.spacing / 2.0,)
    for batch in ((), (2, 3)):
        shape = batch + spec.shape
        values = np.ldexp(rng.random(shape), rng.integers(-30, 31, shape))
        plan = morrey._window_plan(spec, values, "cube")
        for radius in radii:
            want = values
            for axis in range(len(batch), len(shape)):
                want = _reference_box_sum_axis(want, _axis_half_width(spec, radius), axis)
            assert np.array_equal(window_sum(spec, values, "cube", radius), want), \
                (batch, radius)
            assert np.array_equal(window_sum(spec, values, "cube", radius, plan=plan), want), \
                (batch, radius)


@pytest.mark.parametrize("shape", ["cube", "ball"])
@pytest.mark.parametrize("dim,points", [(1, 256), (1, 4096), (2, 64), (3, 16)])
def test_window_sum_of_a_stack_matches_rows(shape, dim, points):
    # leading batch axes (2, 3): each row gets the bits of a call on it alone,
    # and so does a scan handed the stack's plan, computed once
    spec = tk.GridSpec(dim, points)
    stack = np.random.default_rng(dim * points).random((2, 3) + spec.shape) ** 3
    plan = morrey._window_plan(spec, stack, shape)
    if shape == "cube":
        # np.cumsum's bits along the first grid axis, over the grid and its
        # first N - 1 entries again
        wrapped = np.concatenate([stack, stack.take(range(points - 1), axis=2)], axis=2)
        assert np.array_equal(plan, np.cumsum(wrapped, axis=2))
    for radius in tk.WindowSampler.dyadic(spec).radii + (spec.spacing / 2.0,):
        got = window_sum(spec, stack, shape, radius)
        assert got.shape == stack.shape
        assert np.array_equal(window_sum(spec, stack, shape, radius, plan=plan), got)
        for b in np.ndindex(2, 3):
            assert np.array_equal(got[b], window_sum(spec, stack[b], shape, radius)), (b, radius)


def _reference_morrey_norm(row, spec, pq, sampler):
    """The one-row scan: one window sum per radius over the row alone."""
    e = _rescale_exponent(float(row.max()), pq.q, float(row.size) ** 2)
    if e:
        return float(np.ldexp(_reference_morrey_norm(np.ldexp(row, -e), spec, pq, sampler), e))
    g = row**pq.q
    vol_exp = 1.0 / pq.p - 1.0 / pq.q
    best = 0.0
    for radius in sampler.radii:
        peak = float(window_sum(spec, g, sampler.window_shape, radius).max())
        vol = window_volume(spec, sampler.window_shape, radius)
        best = max(best, vol**vol_exp * (peak * spec.cell_volume) ** (1.0 / pq.q))
    return best


@pytest.mark.parametrize("shape", ["cube", "ball"])
@pytest.mark.parametrize("block_rows", [None, 3, 0.5])
def test_morrey_norms_match_single_scans(spec256, monkeypatch, shape, block_rows):
    # the default block holds every row; 3 rows splits the stack across
    # blocks; half a row makes every row larger than one block
    if block_rows is not None:
        monkeypatch.setattr(morrey, "_ROW_BLOCK_ELEMENTS", int(block_rows * spec256.size))
    scanned = []
    scan_stack = morrey._scan_stack

    def counting_scan(stack, *args):
        scanned.append(len(stack))
        return scan_stack(stack, *args)

    monkeypatch.setattr(morrey, "_scan_stack", counting_scan)
    rng = np.random.default_rng(7)
    # peaks 2^600 and 2^-600 need a power-of-two rescale at q = 3, the rest do
    # not; zero rows sit at both ends, in a run and next to rescaled rows
    rows = [np.ldexp(rng.random(spec256.shape), k)
            for k in (0, 0, 600, 3, -600, -20, 0, 0, 10, 0)]
    for i in (0, 6, 7, 9):
        rows[i][:] = 0.0
    # enough plain rows that numpy's array power would round some values
    # unlike the Python-float power of a scan of one row
    rows += [rng.random(spec256.shape) ** 3 for _ in range(56)]
    pq = tk.LebesguePair(6.0, 3.0)
    sampler = tk.WindowSampler.dyadic(spec256, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _morrey_norms(rows, spec256, pq, sampler)
    # a zero row comes back as exactly 0.0 without a scan
    assert sum(scanned) == len(rows) - 4
    assert [got[i] for i in (0, 6, 7, 9)] == [0.0] * 4
    assert not any(np.signbit(got))
    want = [tk.morrey_norm(tk.GridFunction(spec256, row), pq, sampler) for row in rows]
    assert got == want
    assert got == [_reference_morrey_norm(row, spec256, pq, sampler) for row in rows]
    assert _morrey_norms([], spec256, pq, sampler) == []


def _row(spec, kind, scale, seed):
    """A nonnegative row of one kind, times 2^scale."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        row = np.zeros(spec.shape)
    elif kind == "constant":
        row = np.full(spec.shape, 1.0 + rng.random())
    elif kind == "sparse":
        row = np.zeros(spec.size)
        row[rng.integers(spec.size, size=3)] = rng.random(3)
        row = row.reshape(spec.shape)
    else:
        row = rng.random(spec.shape) ** 3
    return np.ldexp(row, scale)


PROPERTY_GRIDS = [(1, 8), (1, 64), (1, 256), (2, 8), (2, 16), (3, 8)]


@settings(max_examples=300, deadline=None)
@given(grid=st.sampled_from(PROPERTY_GRIDS), shape=st.sampled_from(["cube", "ball"]),
       pq=st.sampled_from([(4.0, 2.0), (3.0, 3.0), (6.0, 3.0), (2.5, 1.5)]),
       rows=st.lists(st.tuples(st.sampled_from(["zero", "constant", "sparse", "dense",
                                                "shrink"]),
                               st.sampled_from([0, 0, 600, -600, -20]),
                               st.integers(0, 2**16)), min_size=1, max_size=5),
       picks=st.sets(st.integers(0, 255), min_size=1, max_size=6),
       block_rows=st.sampled_from([None, 1, 2]))
def test_pruned_scan_equals_the_unpruned_scan(grid, shape, pq, rows, picks, block_rows):
    # bit for bit on random stacks, zero rows and rows rescaled by 2^-600 or
    # 2^600 at q = 3 among them, over dyadic radii or multiples of h/2 up to L/2.
    # A "shrink" row is the row before it times uniform [0, 1) noise, unscaled
    # (a dense row if it comes first); with blocks of one or two rows each block
    # is chained to the last row scanned before it wherever that row dominates,
    # and rows that shrink it, rows that do not, rescaled rows and zero rows all
    # keep the unpruned scan's bits
    spec = tk.GridSpec(*grid)
    pq = tk.LebesguePair(*pq)
    radii = sorted({spec.spacing * (1 + k % spec.points) / 2.0 for k in picks})
    stack = []
    for kind, scale, seed in rows:
        if kind == "shrink" and stack:
            stack.append(stack[-1] * np.random.default_rng(seed).random(spec.shape))
        else:
            stack.append(_row(spec, "dense" if kind == "shrink" else kind, scale, seed))
    block = morrey._ROW_BLOCK_ELEMENTS if block_rows is None else block_rows * spec.size
    for sampler in (tk.WindowSampler.dyadic(spec, shape), tk.WindowSampler(radii, shape)):
        with mock.patch.object(morrey, "_ROW_BLOCK_ELEMENTS", block), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _morrey_norms(stack, spec, pq, sampler)
        assert got == [_reference_morrey_norm(row, spec, pq, sampler) for row in stack]


@pytest.mark.parametrize("shape", ["cube", "ball"])
@pytest.mark.parametrize("dim,points", [(1, 256), (2, 32), (3, 16)])
def test_pruned_scan_where_the_bound_is_tight(monkeypatch, shape, dim, points):
    # a constant field: every window sum is count(R) max g; a single spike:
    # every window sum is sum g.  Both keep the unpruned scan's bits; on the
    # spike (p > q) the smallest radius wins and its value lies above every
    # larger radius's bound, so the scan makes exactly one window sum
    spec = tk.GridSpec(dim, points)
    sampler = tk.WindowSampler.dyadic(spec, shape)
    spike = np.zeros(spec.shape)
    spike[(3,) * dim] = 2.5
    constant = np.full(spec.shape, 0.75)
    for pq in (tk.LebesguePair(4.0, 2.0), tk.LebesguePair(3.0, 3.0)):
        want = [_reference_morrey_norm(row, spec, pq, sampler) for row in (spike, constant)]
        assert _morrey_norms([spike, constant], spec, pq, sampler) == want
    calls = []
    scan_sum = morrey.window_sum

    def counting_sum(*args, **kwargs):
        calls.append(args[2:4])
        return scan_sum(*args, **kwargs)

    monkeypatch.setattr(morrey, "window_sum", counting_sum)
    pq = tk.LebesguePair(4.0, 2.0)
    assert _morrey_norms([spike], spec, pq, sampler) == [
        _reference_morrey_norm(spike, spec, pq, sampler)]
    assert calls == [(shape, sampler.radii[0])] and len(sampler.radii) > 1


CHAIN_GRIDS = [(1, 64), (1, 256), (2, 16), (2, 32), (3, 8), (3, 16)]


@settings(max_examples=80, deadline=None)
@given(grid=st.sampled_from(CHAIN_GRIDS), shape=st.sampled_from(["cube", "ball"]),
       pqrs=st.sampled_from([(4.0, 2.0, 2.0, 0.5), (3.0, 3.0, 2.5, 0.3),
                             (6.0, 3.0, np.inf, 0.0), (200.0, 160.0, 3.0, -0.5)]),
       scale=st.sampled_from([1.0, 2.0, 20.0, 0.05]), real=st.booleans(),
       block_rows=st.sampled_from([None, 1, 2]), seed=st.integers(0, 2**16),
       data=st.data())
def test_chained_scan_equals_unpruned_scans_of_each_tail(grid, shape, pqrs, scale, real,
                                                         block_rows, seed, data):
    # every norm sequence of diamond_criterion, whose scans chain each tail to
    # the one before, has the bits of an unpruned scan of each tail alone.  At
    # q = 160 the tails' q-th powers leave float64 and rows are rescaled; the top
    # tails of a band-limited field are zero; scale 2 keeps both cutoffs' gates
    # equal and scale 20 does not; a block of one or two rows chains block to
    # block on grids whose tails would otherwise share one block
    spec = tk.GridSpec(*grid)
    family = tk.build_family(spec, top_band(spec))
    band = data.draw(st.integers(0, family.j_max - 1), label="band")
    f = tk.random_bandlimited(spec, band, seed, real_output=real) * scale
    params = tk.SpaceParams(*pqrs)
    sampler = tk.WindowSampler.dyadic(spec, shape)
    block = morrey._ROW_BLOCK_ELEMENTS if block_rows is None else block_rows * spec.size
    with mock.patch.object(morrey, "_ROW_BLOCK_ELEMENTS", block), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = tk.diamond_criterion(f, family, params, sampler)
    tails = tk.truncated_square_function(f, family, params.r, params.s, DIAMOND_CUTOFFS)
    for a, cutoff_tails in zip(DIAMOND_CUTOFFS, tails):
        want = [_reference_morrey_norm(t, spec, params.pair, sampler) for t in cutoff_tails]
        assert rep.details["norm_sequences"][repr(a)] == want


@pytest.mark.parametrize("shape", ["cube", "ball"])
def test_chained_scan_makes_at_most_half_the_window_sums(monkeypatch, shape):
    # the tails of a band-limited 2-D field (16,384 samples fill a block, so
    # each tail is a block of its own): chained to the tail before, at most half
    # the (row, radius) window sums of one-row scans, and the same norms
    spec = tk.GridSpec(2, 128)
    family = tk.build_family(spec, top_band(spec))
    params = tk.SpaceParams(4.0, 2.0, 2.0, 0.5)
    sampler = tk.WindowSampler.dyadic(spec, shape)
    f = tk.random_bandlimited(spec, 4, 0)
    tails = tk.truncated_square_function(f, family, params.r, params.s, (0.1,))[0]
    pairs = []
    scan_sum = morrey.window_sum

    def counting_sum(spec, values, *args, **kwargs):
        pairs.append(len(values) if values.ndim > spec.dim else 1)
        return scan_sum(spec, values, *args, **kwargs)

    monkeypatch.setattr(morrey, "window_sum", counting_sum)
    alone = [_morrey_norms([tail], spec, params.pair, sampler)[0] for tail in tails]
    unchained = sum(pairs)
    pairs.clear()
    assert _morrey_norms(tails, spec, params.pair, sampler) == alone
    assert 0 < 2 * sum(pairs) <= unchained


def test_functions_on_different_grids_raise_grid_mismatch(spec64, spec256):
    f64 = tk.random_bandlimited(spec64, 2, 0)
    f256 = tk.random_bandlimited(spec256, 2, 1)
    family = tk.build_family(spec64, 4)
    params = tk.SpaceParams(4.0, 2.0, 2.0, 0.5)
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    with pytest.raises(tk.GridMismatchError, match="grid mismatch"):
        _tlm_norms([f64, f256], family, (params,), sampler)
    with pytest.raises(tk.GridMismatchError, match="grid mismatch"):
        vector_maximal_check([f64, f256], 2.0, params.pair, sampler)
