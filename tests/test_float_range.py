"""One magnitude sweep over the entry points that rescale by powers of two.

For any finite field, whatever the binary exponent of its samples, each
norm, square function, maximal function and criterion returns a finite
value or raises ParameterError naming the overflow, and never emits a
warning; a power-of-two scaling moves lp_norm by exactly that power and
leaves multiplier_maximal_ratio bit for bit.  The sweep runs on a 1-D, a
2-D and a 3-D grid.  The same holds for Psi_kappa and its tail bound at
any positive float argument.
"""

import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tlmkit as tk
from tlmkit.errors import BandCoverageError, ParameterError
from tlmkit.grid import _ldexp
from tlmkit.spaces import COVERAGE_TOL, _tlm_norms, coverage_defect

# grid -> (dim, points, top band of the family, band of the smooth field); each
# family reaches the Nyquist frequency along the axes
GRIDS = {"1d-64": (1, 64, 4, 3), "2d-16": (2, 16, 2, 1), "3d-8": (3, 8, 1, 0)}
PQ = tk.LebesguePair(4.0, 2.0)
SPACES = [tk.SpaceParams(4.0, 2.0, r, s) for s in (-0.5, 0.0, 0.5, 2.0) for r in (2.0, np.inf)]
# smoothness so large that every band j >= 1 overflows (s > 0) or vanishes
# (s < 0); kept out of the batched tlm_norms call, which would otherwise
# raise for the whole batch and never reach its finiteness check
HUGE_S = [tk.SpaceParams(4.0, 2.0, r, s) for s in (-1e308, 1e308) for r in (2.0, np.inf)]
BAND_ENTRY_POINTS = ("tlm_norm", "tlm_norms", "diamond_criterion", "square_function",
                     "truncated_square_function")


@lru_cache(maxsize=None)
def _grid(name: str):
    """(spec, family, samplers, smooth field with peak exactly 1) of a grid."""
    dim, points, j_max, band = GRIDS[name]
    spec = tk.GridSpec(dim, points)
    family = tk.build_family(spec, j_max, "plain")
    samplers = {shape: tk.WindowSampler.dyadic(spec, shape) for shape in ("cube", "ball")}
    smooth = tk.random_bandlimited(spec, band, 99).values.real
    return spec, family, samplers, smooth / np.abs(smooth).max()


def _field(grid: str, kind: str, mantissa: float, k: int) -> tk.GridFunction:
    """Peak sample mantissa * 2^k: the smooth field, or a spike on a faint one."""
    spec, _, _, smooth = _grid(grid)
    if kind == "smooth":
        return tk.GridFunction(spec, np.ldexp(smooth * mantissa, k))
    values = np.ldexp(smooth, k - 60)
    values.flat[5] = np.ldexp(mantissa, k)
    return tk.GridFunction(spec, values)


def _entry_points(grid: str):
    _, family, samplers, _ = _grid(grid)
    cube = samplers["cube"]
    yield "lp_norm", lambda f: tk.lp_norm(f, 2.0)
    for shape, sampler in samplers.items():
        yield f"morrey_norm[{shape}]", lambda f, w=sampler: tk.morrey_norm(f, PQ, w)
    yield "hl_maximal", lambda f: tk.hl_maximal(f, cube).values.real.max()
    yield "multiplier_maximal_ratio", lambda f: tk.multiplier_maximal_ratio(f, family, cube)
    yield "tlm_norms", lambda f: max(_tlm_norms([f], family, SPACES, cube)[0])
    for params in SPACES + HUGE_S:
        r, s = params.r, params.s
        yield f"tlm_norm[s={s},r={r}]", \
            lambda f, p=params: tk.tlm_norm(f, family, p, cube)
        yield f"diamond_criterion[s={s},r={r}]", \
            lambda f, p=params: tk.diamond_criterion(f, family, p, cube).lhs
        yield f"square_function[s={s},r={r}]", \
            lambda f, r=r, s=s: tk.square_function(f, family, r, s).values.real.max()
        yield f"truncated_square_function[s={s},r={r}]", \
            lambda f, r=r, s=s: max(tail.max() for tail in
                                    tk.truncated_square_function(f, family, r, s, (0.1,))[0])


@settings(max_examples=300, deadline=None)
@given(grid=st.sampled_from(list(GRIDS)), kind=st.sampled_from(["smooth", "spike"]),
       mantissa=st.floats(1.0, 2.0, exclude_max=True),
       k=st.integers(-1070, 1023))
def test_entry_points_finite_or_parameter_error(grid, kind, mantissa, k):
    f = _field(grid, kind, mantissa, k)
    # beyond 1-D the family stops short of the lattice's corner frequencies,
    # where a spike, or the rounding of subnormal samples, leaves spectral
    # energy; the band entry points refuse such a field (judged at peak ~1)
    unit = tk.GridFunction(f.spec, np.ldexp(f.values.real, -k))
    uncovered = coverage_defect(_grid(grid)[1], unit) > COVERAGE_TOL
    for name, call in _entry_points(grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = float(call(f))
            except ParameterError as exc:
                assert "overflows float64" in str(exc), (name, str(exc))
                continue
            except BandCoverageError:
                assert uncovered and name.startswith(BAND_ENTRY_POINTS), name
                continue
        assert np.isfinite(value), (name, value)


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("k", [1000, -1000])
def test_power_of_two_scaling_keeps_every_bit(grid, real, k):
    # a field whose peak lies in [1/2, 1) is what each kernel scales a field
    # 2^k times larger down to, so the norm moves by exactly 2^k and the
    # 0-homogeneous ratio not at all
    spec, family, samplers, _ = _grid(grid)
    band = GRIDS[grid][3]
    f = tk.random_bandlimited(spec, band, 7, real_output=real)
    f = _ldexp(f, -math.frexp(float(f.modulus().max()))[1])
    scaled = _ldexp(f, k)
    for p in (1.5, 2.0, 3.0):
        assert tk.lp_norm(scaled, p) == math.ldexp(tk.lp_norm(f, p), k), p
    cube = samplers["cube"]
    assert tk.multiplier_maximal_ratio(scaled, family, cube) \
        == tk.multiplier_maximal_ratio(f, family, cube)


# the (kappa, r) pairs of the scalar suites, and a cutoff for the tail bound
PSI_PARAMS = [tk.PhiPsiParams(k, r) for k in (0.5, 1.0, 2.0) for r in (1.0, 2.0)]
TAIL_CUT = 0.25


@settings(max_examples=100, deadline=None)
@given(mantissa=st.floats(1.0, 2.0, exclude_max=True), k=st.integers(-1074, 1023))
def test_psi_finite_or_parameter_error(mantissa, k):
    t = float(np.ldexp(mantissa, k))  # subnormal for k < -1022
    calls = []
    for params in PSI_PARAMS:
        calls.append((f"psi_kappa[{params}]", lambda p=params: [tk.psi_kappa(t, p)]))
        if not TAIL_CUT <= t <= 1.0 / TAIL_CUT:
            calls.append((f"psi_tail_bound_check[{params}]",
                          lambda p=params: tk.psi_tail_bound_check(t, TAIL_CUT, p)))
    for name, call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = call()
            except ParameterError as exc:
                assert "overflows float64" in str(exc), (name, t, str(exc))
                continue
        assert all(np.isfinite(v) and v >= 0.0 for v in values), (name, t, values)
