import warnings

import numpy as np
import pytest

import tlmkit as tk
from tlmkit.errors import ParameterError
from tlmkit import morrey
from tlmkit.grid import _rescale_exponent
from tlmkit.morrey import _axis_half_width, _lr_aggregate, _morrey_norms, window_sum, window_volume
from tlmkit.suites import ORACLE_TOL
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
    band = min(2, int(np.log2(spec.nyquist)) - 2)
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
    dist = sum(np.minimum(x, spec.length - x) ** 2 for x in spec.coordinates)
    f = tk.GridFunction(spec, (np.sqrt(dist) <= 1.0).astype(np.complex128))
    pq = tk.LebesguePair(4.0, 2.0)
    base = tk.WindowSampler.dyadic(spec, "ball").radii
    radii = tuple(sorted(set(base) | {0.5, 0.75, 1.0, 1.25, 1.5}))
    value = tk.morrey_norm(f, pq, tk.WindowSampler(radii, "ball"))
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
    # with batch axes (2, 3), on values spread over 18 decades; at every dyadic
    # radius and at h/2 (half-width 0), or on the largest grids at a narrow and
    # a wide radius short of the whole torus
    spec = tk.GridSpec(dim, points)
    rng = np.random.default_rng(dim * points)
    radii = tk.WindowSampler.dyadic(spec).radii
    radii = (radii[0], radii[-2]) if spec.size >= 1 << 16 else radii + (spec.spacing / 2.0,)
    for batch in ((), (2, 3)):
        shape = batch + spec.shape
        values = np.ldexp(rng.random(shape), rng.integers(-30, 31, shape))
        for radius in radii:
            want = values
            for axis in range(len(batch), len(shape)):
                want = _reference_box_sum_axis(want, _axis_half_width(spec, radius), axis)
            assert np.array_equal(window_sum(spec, values, "cube", radius), want), \
                (batch, radius)


@pytest.mark.parametrize("shape", ["cube", "ball"])
@pytest.mark.parametrize("dim,points", [(1, 256), (1, 4096), (2, 64), (3, 16)])
def test_window_sum_of_a_stack_matches_rows(shape, dim, points):
    # leading batch axes (2, 3): each row gets the bits of a call on it alone
    spec = tk.GridSpec(dim, points)
    stack = np.random.default_rng(dim * points).random((2, 3) + spec.shape) ** 3
    for radius in tk.WindowSampler.dyadic(spec).radii + (spec.spacing / 2.0,):
        got = window_sum(spec, stack, shape, radius)
        assert got.shape == stack.shape
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
    rng = np.random.default_rng(7)
    # peaks 2^600 and 2^-600 need a power-of-two rescale at q = 3, the rest do not
    rows = [np.ldexp(rng.random(spec256.shape), k)
            for k in (0, 600, 3, -600, -20, 0, 0, 10)]
    rows[5][:] = 0.0
    # enough plain rows that numpy's array power would round some values
    # unlike the Python-float power of a scan of one row
    rows += [rng.random(spec256.shape) ** 3 for _ in range(56)]
    pq = tk.LebesguePair(6.0, 3.0)
    sampler = tk.WindowSampler.dyadic(spec256, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _morrey_norms(rows, spec256, pq, sampler)
    want = [tk.morrey_norm(tk.GridFunction(spec256, row), pq, sampler) for row in rows]
    assert got == want
    assert got == [_reference_morrey_norm(row, spec256, pq, sampler) for row in rows]
    assert _morrey_norms([], spec256, pq, sampler) == []
