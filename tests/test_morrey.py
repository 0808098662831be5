import numpy as np
import pytest

import tlmkit as tk
from tlmkit.errors import ParameterError
from conftest import brute_force_morrey


def test_pair_validation():
    with pytest.raises(ParameterError):
        tk.LebesguePair(2.0, 4.0)
    with pytest.raises(ParameterError):
        tk.LebesguePair(2.0, 1.0)
    with pytest.raises(ParameterError):
        tk.LebesguePair(np.inf, 2.0)
    assert tk.LebesguePair(4.0, 2.0).ratio == 2.0


def test_sampler_validation(spec64):
    with pytest.raises(ParameterError):
        tk.WindowSampler((0.5, 0.5), 1, "cube")
    with pytest.raises(ParameterError):
        tk.WindowSampler((0.5,), 1, "pyramid")
    s = tk.WindowSampler((spec64.length,), 1, "cube")
    with pytest.raises(ParameterError):
        s.validate_against(spec64)  # radius beyond L/2
    s = tk.WindowSampler((0.5,), 3, "cube")
    with pytest.raises(ParameterError):
        s.validate_against(spec64)  # stride must divide N


def test_dyadic_radii(spec64):
    s = tk.WindowSampler.dyadic(spec64, "cube")
    h = spec64.spacing
    assert s.radii[0] == pytest.approx(h)
    assert s.radii[-1] == pytest.approx(spec64.length / 2.0)
    refined = s.refined()
    assert len(refined.radii) == 2 * len(s.radii) - 1
    assert set(s.radii) <= set(refined.radii)


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


def test_indicator_oracle_value(spec256):
    x = np.arange(spec256.points) * spec256.spacing
    dist = np.minimum(x, spec256.length - x)
    f = tk.GridFunction(spec256, (dist <= 1.0).astype(np.complex128))
    pq = tk.LebesguePair(4.0, 2.0)
    base = tk.WindowSampler.dyadic(spec256, "ball").radii
    radii = tuple(sorted(set(base) | {0.5, 0.75, 1.0, 1.25, 1.5}))
    value = tk.morrey_norm(f, pq, tk.WindowSampler(radii, 1, "ball"))
    assert value == pytest.approx(2.0**0.25, rel=0.05)


def test_refinement_monotone(spec256):
    f = tk.random_bandlimited(spec256, 3, 77)
    pq = tk.LebesguePair(4.0, 2.0)
    s = tk.WindowSampler.dyadic(spec256, "ball")
    v1 = tk.morrey_norm(f, pq, s)
    v2 = tk.morrey_norm(f, pq, s.refined())
    v3 = tk.morrey_norm(f, pq, s.refined().refined())
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
    solo = tk.morrey_norm_vector([f], [1.0], 2.0, pq, sampler)
    assert solo == pytest.approx(tk.morrey_norm(f, pq, sampler), rel=1e-13)
    pair = tk.morrey_norm_vector([f, f], [1.0, 1.0], 2.0, pq, sampler)
    assert pair == pytest.approx(np.sqrt(2.0) * solo, rel=1e-12)
    sup = tk.morrey_norm_vector([f, 2.0 * f], [1.0, 1.0], np.inf, pq, sampler)
    assert sup == pytest.approx(2.0 * solo, rel=1e-12)
