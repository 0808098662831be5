"""Exact consequences of the construction over random admissible setups.

The paper allows any s in R and 1 < r <= inf at either end, with a shared
p/q ratio.  Over random setups of that domain (theta in (0.05, 0.95), p/q in
(1, 4), s in [-3, 3], r = inf at no end, one end or both), on 1-D, 2-D and
3-D grids with cube and ball windows:

* the analytic family reduces to its base at theta, F(theta) = f;
* the norms obey the interpolation inequality
  ||g||_theta <= ||g||_0^(1-theta) ||g||_1^theta, for both multiplier
  flavors, on draws scaled by 2^k, |k| <= 20;
* l^r aggregates shrink as r grows, so an endpoint norm at r = inf is at
  most the same norm at a finite r.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tlmkit as tk
from tlmkit.grid import _ldexp
from tlmkit.interp import family_F
from tlmkit.lpaley import FLAVORS, top_band
from tlmkit.spaces import _tlm_norms
from tlmkit.suites import HOLDER_SLACK, ROUNDOFF_TOL

# grid -> (dim, points, j_max); each family reaches the grid's Nyquist band
GRIDS = {"1d-256": (1, 256, 6), "2d-64": (2, 64, 4), "3d-16": (3, 16, 2)}
INF_ENDS = [(), (0,), (1,), (0, 1)]  # the endpoints whose r is infinite
INF_IDS = ["finite", "inf-0", "inf-1", "inf-both"]
F_THETA_TOL = 1e-12  # relative l2 defect of F(theta) against its base


@lru_cache(maxsize=None)
def _grid(name: str, shape: str, flavor: str):
    dim, points, j_max = GRIDS[name]
    spec = tk.GridSpec(dim, points)
    return spec, tk.build_family(spec, j_max, flavor), tk.WindowSampler.dyadic(spec, shape)


@st.composite
def setups(draw, inf_ends):
    """An admissible setup: p_0 > p_1, a shared p/q ratio, any r and s."""
    theta = draw(st.floats(0.05, 0.95))
    ratio = draw(st.floats(1.0, 4.0, exclude_min=True, exclude_max=True))
    q1 = draw(st.floats(1.1, 4.0))
    ends = []
    for end, q in enumerate((q1 * draw(st.floats(1.1, 3.0)), q1)):
        r = np.inf if end in inf_ends else draw(st.floats(1.1, 8.0))
        ends.append(tk.SpaceParams(ratio * q, q, r, draw(st.floats(-3.0, 3.0))))
    return tk.make_setup(theta, *ends)


def _draw_field(data, spec):
    """A seeded band-limited draw, real or complex, scaled by 2^k."""
    top = top_band(spec) - 1  # the widest band random_bandlimited accepts
    f = tk.random_bandlimited(spec, data.draw(st.integers(0, top)),
                              data.draw(st.integers(0, 2**16)),
                              real_output=data.draw(st.booleans()))
    return _ldexp(f, data.draw(st.integers(-20, 20)))


@pytest.mark.parametrize("inf_ends", INF_ENDS, ids=INF_IDS)
@settings(max_examples=25, deadline=None)
@given(grid=st.sampled_from(list(GRIDS)), shape=st.sampled_from(["cube", "ball"]),
       data=st.data())
def test_family_reduces_to_its_base_and_norms_interpolate(inf_ends, grid, shape, data):
    setup = data.draw(setups(inf_ends))
    spec, squared, sampler = _grid(grid, shape, "square_root")
    f = _draw_field(data, spec)
    fam = tk.build_analytic_family(setup, f, squared, sampler)
    base = fam.base.values
    defect = np.linalg.norm(family_F(fam, setup.theta).values - base)
    assert defect <= F_THETA_TOL * np.linalg.norm(base), (setup, defect)

    family = _grid(grid, shape, data.draw(st.sampled_from(FLAVORS)))[1]
    corpus = [f, *(_draw_field(data, spec) for _ in range(3))]
    worst = tk.holder_interpolation_check(setup, corpus, family, sampler)
    assert 0.0 < worst <= 1.0 + HOLDER_SLACK, (setup, worst)

    r = data.draw(st.floats(1.1, 8.0))
    for end in (end for end in setup.endpoints if np.isinf(end.r)):
        finite = dataclasses.replace(end, r=r)
        for n_inf, n_r in _tlm_norms(corpus, family, (end, finite), sampler):
            assert n_inf <= n_r * (1.0 + ROUNDOFF_TOL), (end, r, n_inf, n_r)

