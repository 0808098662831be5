"""Discrete Morrey norms on periodic grids.

The Morrey norm with exponents 1 < q <= p < infinity is

    sup over windows W = W(x, R) of |W|^(1/p - 1/q) (integral_W |f|^q)^(1/q),

realized on the lattice with q-th-power sums weighted by the cell volume
h^n and the *continuum* window volume |W| (ball: c_n R^n, cube of side
2R: (2R)^n).  Windows wrap around the torus; radii never exceed L/2 so a
window covers each point at most once.

Window centers are grid points (optionally strided) and radii come from a
finite sampled list, so every computed value is a max over a finite
window family: monotone under refinement and always a lower bound for
the full supremum.

Cube windows use exact cumulative-sum box filters per axis (O(N^n) per
radius).  Ball windows use circular FFT convolution against the 0/1
offset stencil of the window, which wraps correctly and costs
O(N^n log N) per radius.

With p = q the volume factor drops out and the largest cube window (side
L) covers the torus exactly once, so the norm collapses to the discrete
L^p norm up to pure summation rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .grid import GridFunction, GridSpec

__all__ = [
    "LebesguePair",
    "WindowSampler",
    "morrey_norm",
    "morrey_norm_vector",
    "window_sum",
    "window_count",
    "window_volume",
]

WINDOW_SHAPES = ("cube", "ball")

_UNIT_BALL_VOLUME = {1: 2.0, 2: np.pi, 3: 4.0 * np.pi / 3.0}

# inclusive window membership: points at distance exactly R belong
_EDGE_TOL = 1.0 + 1e-12


@dataclass(frozen=True)
class LebesguePair:
    """Morrey exponent pair, 1 < q <= p < infinity."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (1.0 < self.q <= self.p < np.inf):
            raise ParameterError(
                f"need 1 < q <= p < inf, got p={self.p}, q={self.q}"
            )

    @property
    def ratio(self) -> float:
        return self.p / self.q


@dataclass(frozen=True)
class WindowSampler:
    """Finite family of windows scanned by the norm.

    radii: increasing positive radii, at most L/2 (checked against the
    grid at use time).  center_stride: sample every stride-th grid point
    per axis as a window center (must divide N).  window_shape: "cube"
    (side 2R in the torus sup-metric) or "ball" (torus Euclidean metric).
    """

    radii: tuple
    center_stride: int = 1
    window_shape: str = "cube"

    def __post_init__(self) -> None:
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if len(radii) == 0:
            raise ParameterError("sampler needs at least one radius")
        if any(not (r > 0 and np.isfinite(r)) for r in radii):
            raise ParameterError(f"radii must be positive finite, got {radii}")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ParameterError("radii must be strictly increasing")
        if self.center_stride < 1:
            raise ParameterError(f"center_stride must be >= 1, got {self.center_stride}")
        if self.window_shape not in WINDOW_SHAPES:
            raise ParameterError(
                f"window_shape must be one of {WINDOW_SHAPES}, got {self.window_shape!r}"
            )

    @classmethod
    def dyadic(cls, spec: GridSpec, window_shape: str = "cube",
               center_stride: int = 1) -> "WindowSampler":
        """Radii h*2^m for m = 0 .. log2(N/2); the largest is L/2."""
        levels = int(np.log2(spec.points)) - 1
        radii = tuple(spec.spacing * 2.0**m for m in range(levels + 1))
        return cls(radii, center_stride, window_shape)

    def refined(self) -> "WindowSampler":
        """Insert geometric midpoints between consecutive radii."""
        radii = list(self.radii)
        mids = [np.sqrt(a * b) for a, b in zip(radii, radii[1:])]
        return WindowSampler(tuple(sorted(radii + mids)), self.center_stride,
                             self.window_shape)

    def validate_against(self, spec: GridSpec) -> None:
        if self.radii[-1] > spec.length / 2.0 * _EDGE_TOL:
            raise ParameterError(
                f"max radius {self.radii[-1]:g} exceeds L/2 = {spec.length / 2:g}"
            )
        if spec.points % self.center_stride:
            raise ParameterError(
                f"center_stride {self.center_stride} does not divide N = {spec.points}"
            )


def _axis_half_width(spec: GridSpec, radius: float) -> int:
    """Offsets o with o*h <= R (one side); capped at N//2 by the torus."""
    m = int(np.floor(radius * _EDGE_TOL / spec.spacing))
    return min(m, spec.points // 2)


def _box_sum_axis(arr: np.ndarray, half_width: int, axis: int) -> np.ndarray:
    """Periodic moving sum over offsets -m..m along one axis (exact)."""
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


@lru_cache(maxsize=256)
def _ball_stencil_data(dim: int, points: int, length: float, radius: float):
    """(FFT of the 0/1 torus-ball stencil, point count). Cached per grid."""
    h = length / points
    o = np.arange(points)
    axis_dist = np.minimum(o, points - o) * h
    axes = np.meshgrid(*([axis_dist] * dim), indexing="ij", sparse=True)
    dist2 = sum(a**2 for a in axes)
    stencil = (dist2 <= (radius * _EDGE_TOL) ** 2).astype(np.float64)
    return np.fft.fftn(stencil), int(stencil.sum())


def window_count(spec: GridSpec, window_shape: str, radius: float) -> int:
    """Number of lattice points in one window (same for every center)."""
    if window_shape == "cube":
        m = _axis_half_width(spec, radius)
        return min(2 * m + 1, spec.points) ** spec.dim
    return _ball_stencil_data(spec.dim, spec.points, spec.length, radius)[1]


def window_volume(spec: GridSpec, window_shape: str, radius: float) -> float:
    """Continuum volume of the window: (2R)^n for cubes, c_n R^n for balls."""
    if window_shape == "cube":
        return (2.0 * radius) ** spec.dim
    return _UNIT_BALL_VOLUME[spec.dim] * radius**spec.dim


def window_sum(spec: GridSpec, values: np.ndarray, window_shape: str,
               radius: float) -> np.ndarray:
    """Sum of ``values`` over the window around every grid point.

    ``values`` is a real array on ``spec.shape``; the result has the same
    shape, entry x holding sum_{y in W(x,R)} values[y] with torus wrap.
    """
    if window_shape not in WINDOW_SHAPES:
        raise ParameterError(f"unknown window shape {window_shape!r}")
    if window_shape == "cube":
        out = values
        m = _axis_half_width(spec, radius)
        for axis in range(spec.dim):
            out = _box_sum_axis(out, m, axis)
        return out
    stencil_hat, _ = _ball_stencil_data(spec.dim, spec.points, spec.length, radius)
    vhat = np.fft.fftn(values)
    # stencil is symmetric under negation, so convolution == correlation
    out = np.fft.ifftn(vhat * stencil_hat).real
    np.clip(out, 0.0, None, out=out)
    return out


def _shared_spec(fs: list) -> GridSpec:
    """The grid of a nonempty list of functions that all live on it."""
    if not fs:
        raise ParameterError("need at least one function")
    spec = fs[0].spec
    if any(f.spec != spec for f in fs):
        raise ParameterError("functions live on different grids")
    return spec


def _lr_aggregate(stack, r: float) -> np.ndarray:
    """Pointwise l^r norm across a nonempty list of same-shape arrays;
    r = inf takes the pointwise max."""
    if not r > 0:
        raise ParameterError(f"r must be positive or inf, got {r}")
    arr = np.stack(stack)
    if np.isinf(r):
        return arr.max(axis=0)
    return (arr**r).sum(axis=0) ** (1.0 / r)


def _strided_max(arr: np.ndarray, stride: int) -> float:
    if stride > 1:
        arr = arr[(slice(None, None, stride),) * arr.ndim]
    return float(arr.max())


def _morrey_norm_array(modulus: np.ndarray, spec: GridSpec, pq: LebesguePair,
                       sampler: WindowSampler) -> float:
    sampler.validate_against(spec)
    g = modulus**pq.q
    hn = spec.cell_volume
    vol_exp = 1.0 / pq.p - 1.0 / pq.q
    best = 0.0
    for radius in sampler.radii:
        sums = window_sum(spec, g, sampler.window_shape, radius)
        peak = _strided_max(sums, sampler.center_stride)
        vol = window_volume(spec, sampler.window_shape, radius)
        value = vol**vol_exp * (peak * hn) ** (1.0 / pq.q)
        best = max(best, value)
    return best


def morrey_norm(f: GridFunction, pq: LebesguePair, sampler: WindowSampler) -> float:
    """Discrete Morrey norm of |f| over the sampler's window family."""
    return _morrey_norm_array(f.modulus(), f.spec, pq, sampler)


def morrey_norm_vector(fs, weights, r: float, pq: LebesguePair,
                       sampler: WindowSampler) -> float:
    """Morrey norm of the pointwise l^r aggregate of weighted functions.

    Computes || ( sum_j |w_j f_j|^r )^(1/r) ||_{M^p_q}; r = inf takes the
    pointwise sup over j.  All functions must share one grid.
    """
    fs = list(fs)
    spec = _shared_spec(fs)
    weights = np.asarray(list(weights), dtype=np.float64)
    if weights.shape != (len(fs),):
        raise ParameterError(
            f"got {len(fs)} functions but {weights.size} weights"
        )
    agg = _lr_aggregate([np.abs(w) * f.modulus() for w, f in zip(weights, fs)], r)
    return _morrey_norm_array(agg, spec, pq, sampler)
