"""Discrete Morrey norms on periodic grids.

The Morrey norm with exponents 1 < q <= p < infinity is

    sup over windows W = W(x, R) of |W|^(1/p - 1/q) (integral_W |f|^q)^(1/q),

realized on the lattice with q-th-power sums weighted by the cell volume
h^n and the *continuum* window volume |W| (ball: c_n R^n, cube of side
2R: (2R)^n).  Windows wrap around the torus; radii never exceed L/2 so a
window covers each point at most once.

Every grid point is a window center and radii come from a finite sampled
list, so every computed value is a max over a finite window family:
monotone under refinement and always a lower bound for the full
supremum.

Cube windows use exact cumulative-sum box filters per axis (O(N^n) per
radius): the summed-area table of Crow (1984), one axis at a time.  The
prefix sum along the last (contiguous) axis is np.cumsum; along every
other axis it is a loop of whole-slab adds c_k = c_{k-1} + a_k, because
np.cumsum walks each column down a strided axis and runs many times
slower there.  np.add.accumulate adds sequentially in that same order,
and IEEE addition is commutative, so the loop has np.cumsum's bits.
Ball windows use circular FFT convolution against the 0/1
offset stencil of the window, which wraps correctly and costs
O(N^n log N) per radius.

Window sums take stacks: leading axes are a batch, and the box filters
and transforms run over the trailing grid axes only.  A scan of many
same-grid arrays (the low and tail rows of a corpus, a run of tails)
stacks them in blocks of at most _ROW_BLOCK_ELEMENTS samples and makes
one window-sum call per radius per block; every row keeps its own
power-of-two rescale and gets the same bits as a scan of it alone.

With p = q the volume factor drops out and the largest cube window (side
L) covers the torus exactly once, so the norm collapses to the discrete
L^p norm up to pure summation rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .grid import GridFunction, GridSpec, _ldexp_back, _rescale_exponent

__all__ = [
    "LebesguePair",
    "WindowSampler",
    "morrey_norm",
    "window_sum",
    "window_count",
    "window_volume",
]

WINDOW_SHAPES = ("cube", "ball")

_UNIT_BALL_VOLUME = {1: 2.0, 2: np.pi, 3: 4.0 * np.pi / 3.0}

# inclusive window membership: points at distance exactly R belong
_EDGE_TOL = 1.0 + 1e-12
# samples per stack of rows scanned together; a larger row is scanned alone
_ROW_BLOCK_ELEMENTS = 1 << 14


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


@dataclass(frozen=True)
class WindowSampler:
    """Finite family of windows scanned by the norm.

    radii: increasing positive radii, at most L/2 (checked against the
    grid at use time), each scanned at every grid point.  window_shape:
    "cube" (side 2R in the torus sup-metric) or "ball" (torus Euclidean
    metric).
    """

    radii: tuple
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
        if self.window_shape not in WINDOW_SHAPES:
            raise ParameterError(
                f"window_shape must be one of {WINDOW_SHAPES}, got {self.window_shape!r}"
            )

    @classmethod
    def dyadic(cls, spec: GridSpec, window_shape: str = "cube") -> "WindowSampler":
        """Radii h*2^m for m = 0 .. log2(N/2); the largest is L/2."""
        levels = int(np.log2(spec.points)) - 1
        radii = tuple(spec.spacing * 2.0**m for m in range(levels + 1))
        return cls(radii, window_shape)

    def validate_against(self, spec: GridSpec) -> None:
        if self.radii[-1] > spec.length / 2.0 * _EDGE_TOL:
            raise ParameterError(
                f"max radius {self.radii[-1]:g} exceeds L/2 = {spec.length / 2:g}"
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
    m = half_width

    def at(start, stop):  # basic slice along ``axis``
        return (slice(None),) * axis + (slice(start, stop),)

    # prefix sums c_k of arr extended by its first w-1 entries (torus wrap)
    shape = list(arr.shape)
    shape[axis] = n + w - 1
    csum = np.empty(shape)
    csum[at(0, n)] = arr
    csum[at(n, None)] = arr[at(0, w - 1)]
    if axis == arr.ndim - 1:
        np.cumsum(csum, axis=axis, out=csum)
    else:
        # contiguous slab adds in np.cumsum's order give its bits without its
        # strided column walk (see the module docstring)
        rows = np.moveaxis(csum, axis, 0)
        prev = rows[0]
        for row in rows[1:]:
            np.add(prev, row, out=row)
            prev = row
    # the window from i to i+w-1 sums to c_{i+w-1} - c_{i-1} (c_{-1} = 0) and is
    # centred at i+m, so each difference goes straight to its rolled place
    out = np.empty(arr.shape)
    out[at(m, m + 1)] = csum[at(w - 1, w)]
    np.subtract(csum[at(w, n + m)], csum[at(0, n - m - 1)], out=out[at(m + 1, None)])
    np.subtract(csum[at(n + m, None)], csum[at(n - m - 1, n - 1)], out=out[at(0, m)])
    return out


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

    ``values`` is a real array of shape (*batch, *spec.shape); the result
    has the same shape, entry (b, x) holding sum_{y in W(x,R)} values[b, y]
    with torus wrap.  Each row of the batch gets the bits it would get alone.
    """
    if window_shape not in WINDOW_SHAPES:
        raise ParameterError(f"unknown window shape {window_shape!r}")
    grid_axes = tuple(range(values.ndim - spec.dim, values.ndim))
    if window_shape == "cube":
        out = values
        m = _axis_half_width(spec, radius)
        for axis in grid_axes:
            out = _box_sum_axis(out, m, axis)
        return out
    stencil_hat, _ = _ball_stencil_data(spec.dim, spec.points, spec.length, radius)
    vhat = np.fft.fftn(values, axes=grid_axes)
    # stencil is symmetric under negation, so convolution == correlation
    out = np.fft.ifftn(vhat * stencil_hat, axes=grid_axes).real
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
    """Pointwise l^r norm across a nonempty stack of same-shape arrays (a
    list, or an array whose rows they are); r = inf takes the pointwise max."""
    if not r > 0:
        raise ParameterError(f"r must be positive or inf, got {r}")
    arr = np.asarray(stack)
    if np.isinf(r):
        return arr.max(axis=0)
    e = _rescale_exponent(float(arr.max()), r, len(arr))
    if e:
        return _ldexp_back(_lr_aggregate(np.ldexp(arr, -e), r), e, f"an l^{r:g} aggregate")
    return (arr**r).sum(axis=0) ** (1.0 / r)


def _morrey_norms(rows, spec: GridSpec, pq: LebesguePair,
                  sampler: WindowSampler) -> list:
    """Morrey norm of each nonnegative array of ``rows`` (on spec.shape), in
    order.

    Rows are stacked in blocks of at most _ROW_BLOCK_ELEMENTS samples and
    scanned one window sum per radius per block.  A row whose q-th powers
    would leave float64 is scaled by an exact power of two in its block,
    and its norm is scaled back.
    """
    sampler.validate_against(spec)
    # a ball window's FFT convolution passes through size^2 times the peak power
    exps = [_rescale_exponent(float(row.max()), pq.q, float(row.size) ** 2)
            for row in rows]
    per_block = max(1, _ROW_BLOCK_ELEMENTS // spec.size)
    norms = []
    for lo in range(0, len(rows), per_block):
        block, block_exps = rows[lo:lo + per_block], exps[lo:lo + per_block]
        if len(block) == 1:
            stack = block[0][np.newaxis]  # a view, no copy
        else:
            stack = np.stack(block)
        if any(block_exps):
            shifts = -np.array(block_exps).reshape((-1,) + (1,) * spec.dim)
            stack = np.ldexp(stack, shifts)
        for e, value in zip(block_exps, _scan_stack(stack, spec, pq, sampler)):
            norms.append(float(_ldexp_back(value, e, "a Morrey norm")) if e else value)
    return norms


def _scan_stack(stack: np.ndarray, spec: GridSpec, pq: LebesguePair,
                sampler: WindowSampler) -> list:
    """Morrey norm of each row of ``stack``, whose q-th powers stay in float64."""
    g = stack**pq.q
    hn = spec.cell_volume
    vol_exp = 1.0 / pq.p - 1.0 / pq.q
    best = [0.0] * len(stack)
    for radius in sampler.radii:
        sums = window_sum(spec, g, sampler.window_shape, radius)
        vol = window_volume(spec, sampler.window_shape, radius)
        peaks = sums.reshape(len(stack), -1).max(axis=1).tolist()
        # Python floats, so each row's value has the bits of a scan of it alone
        best = [max(b, vol**vol_exp * (peak * hn) ** (1.0 / pq.q))
                for b, peak in zip(best, peaks)]
    return best


def morrey_norm(f: GridFunction, pq: LebesguePair, sampler: WindowSampler) -> float:
    """Discrete Morrey norm of |f| over the sampler's window family."""
    return _morrey_norms([f.modulus()], f.spec, pq, sampler)[0]

