import warnings

import numpy as np
import pytest

import tlmkit as tk
from conftest import scaled, spike_field
from tlmkit.errors import ParameterError
from tlmkit.morrey import window_sum


def test_config_validation(spec64):
    with pytest.raises(ParameterError):
        tk.WindowSampler((), "cube")
    with pytest.raises(ParameterError):
        tk.WindowSampler((0.5, -0.25), "cube")
    f = tk.random_bandlimited(spec64, 2, 1)
    with pytest.raises(ParameterError):  # radius beyond L/2
        tk.hl_maximal(f, tk.WindowSampler((spec64.length,), "cube"))


def test_constant_function_exact(spec64):
    f = tk.GridFunction(spec64, np.full(spec64.shape, 3.0, dtype=np.complex128))
    m = tk.hl_maximal(f, tk.WindowSampler.dyadic(spec64))
    assert np.max(np.abs(m.values - 3.0)) == 0.0


def test_dominates_pointwise(spec64):
    f = tk.random_bandlimited(spec64, 3, 4, real_output=False)
    m = tk.hl_maximal(f, tk.WindowSampler.dyadic(spec64)).values.real
    assert np.all(m >= np.abs(f.values) - 1e-15)


def test_spike_averages_brute_force():
    for shape, dim, points in [("cube", 1, 64), ("ball", 1, 64), ("cube", 3, 8), ("ball", 3, 8)]:
        spec = tk.GridSpec(dim, points)
        values = np.zeros(spec.shape, dtype=np.complex128)
        values[(0,) * dim] = 1.0
        f = tk.GridFunction(spec, values)
        sampler = tk.WindowSampler.dyadic(spec, shape)
        got = tk.hl_maximal(f, sampler).values.real.ravel()
        # direct evaluation: the largest mean of |f| over the windows centered
        # at each point, membership by torus (min-image) distances
        coords = np.array(np.meshgrid(*([np.arange(points)] * dim), indexing="ij"))
        coords = coords.reshape(dim, -1)
        a = np.abs(values.ravel())
        want = a.copy()  # the single-point window
        for c in range(a.size):
            off = np.abs(coords - coords[:, c : c + 1])
            off = np.minimum(off, points - off) * spec.spacing
            dist = off.max(axis=0) if shape == "cube" else np.sqrt((off**2).sum(axis=0))
            for radius in sampler.radii:
                member = dist <= radius * (1 + 1e-12)
                want[c] = max(want[c], a[member].mean())
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15), (shape, dim, points)


def test_ball_window_sum_agrees_with_cube_in_1d(spec64):
    # in one dimension a ball and a cube of the same radius coincide
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.0, 1.0, spec64.shape)
    for radius in (0.3, 0.9, 2.0):
        a = window_sum(spec64, vals, "cube", radius)
        b = window_sum(spec64, vals, "ball", radius)
        assert np.allclose(a, b, rtol=1e-11, atol=1e-11)


def test_vector_maximal_verdicts(spec64):
    fs = [tk.random_bandlimited(spec64, 2, s) for s in (1, 2, 3)]
    pq = tk.LebesguePair(4.0, 2.0)
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    ratio = tk.vector_maximal_check(fs, 2.0, pq, sampler)
    assert ratio >= 1.0  # maximal dominates the identity
    with pytest.raises(ParameterError):
        tk.vector_maximal_check(fs, 1.0, pq, sampler)


def test_projection_stability_finite(spec64):
    family = tk.build_family(spec64, 4, "plain")
    # each slot has to carry energy in the annulus it is reprojected from,
    # so band-pass white noise instead of using band-limited balls
    gs = []
    for i in range(3):
        rng = np.random.default_rng(10 + i)
        noise = tk.GridFunction(spec64, rng.standard_normal(spec64.shape))
        gs.append(tk.project(family, 2 + i, noise))
    pq = tk.LebesguePair(4.0, 2.0)
    sampler = tk.WindowSampler.dyadic(spec64, "cube")
    ratio = tk.projection_stability_check(gs, family, 2, 2.0, pq, sampler)
    assert 0.0 < ratio < 10.0


def test_multiplier_ratio_zero_function(spec64, family_plain):
    family = tk.build_family(spec64, 4, "plain")
    zero = tk.GridFunction(spec64, np.zeros(spec64.shape, dtype=np.complex128))
    sampler = tk.WindowSampler.dyadic(spec64)
    assert tk.multiplier_maximal_ratio(zero, family, sampler) == 0.0
    f = tk.random_bandlimited(spec64, 2, 3)
    assert tk.multiplier_maximal_ratio(f, family, sampler) > 0.0


@pytest.mark.parametrize("shape", ["cube", "ball"])
def test_maximal_homogeneous_near_float_limits(spec64, shape):
    # window sums of the spike leave float64; the maximal function must not
    f = tk.random_bandlimited(spec64, 3, 99)
    spike = spike_field(spec64)
    sampler = tk.WindowSampler.dyadic(spec64, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for c in (1e200, 1e-200):
            got = tk.hl_maximal(c * f, sampler).values.real
            want = c * tk.hl_maximal(f, sampler).values.real
            assert np.max(np.abs(got - want) / want) <= 1e-12
        got = tk.hl_maximal(spike, sampler).values.real
        want = np.ldexp(tk.hl_maximal(scaled(spike, -1000), sampler).values.real, 1000)
        assert np.max(np.abs(got - want) / want) <= 1e-12
        # the ratio is 0-homogeneous, and its band transforms must not overflow
        family = tk.build_family(spec64, 4, "plain")
        ratio = tk.multiplier_maximal_ratio(spike, family, sampler)
        assert ratio == tk.multiplier_maximal_ratio(scaled(spike, -1000), family, sampler)
