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
O(N^n log N) per radius.  The values summed over windows are real
(g = |f|^q), so the convolution runs on the half spectrum: rfftn, and
irfftn back to a real array.

A scan over many radii (a Morrey norm, the maximal operator) does the
work that does not depend on the radius once, in its plan
(_window_plan), and hands that to every radius.  A ball plan is the half
spectrum of the values; each radius then pays only the product with its
cached stencil spectrum and one irfftn.  A cube plan is the prefix sums
along the first grid axis, extended by N - 1 entries, which is as far as
any radius short of the whole torus reaches.  Each prefix sum c_k is the
sequential sum of the first k + 1 entries, so it does not depend on how
far the array is extended: a radius reads the first N + 2m entries of
the plan and gets the bits of a prefix pass of its own.  The other axes
sum the first axis's output, which depends on the radius, so they run
per radius.

Window sums take stacks: leading axes are a batch, and the box filters
and transforms run over the trailing grid axes only.  A scan of many
same-grid arrays (the low and tail rows of a corpus, a run of tails)
stacks them in blocks of at most _ROW_BLOCK_ELEMENTS samples and makes
one window-sum call per radius per block; every row keeps its own
power-of-two rescale and gets the same bits as a scan of it alone.  A
row that is zero everywhere has norm 0 and is not scanned at all.

A scan prunes radii by branch and bound (Land and Doig, 1960).  With
g = |f|^q, no window of radius R holds more than min(sum g, count(R) max g),
so before any window sum each row's value at R is bounded by

    ub = vol(R)^(1/p - 1/q) ((min(sum g, count(R) max g) + pad) h^n)^(1/q) (1 + 1e-9),

pad = 8 size eps sum g.  The pad lies above any rounding of the prefix-sum
window sums (at most about 4 N eps sum g per axis) and of the FFT window
sums of nonnegative g; the factor 1 + 1e-9 covers the rounding of the
bound's own powers and products.  Radii are scanned in decreasing order of
the block's largest bound, and a radius is skipped only when every row's
bound is at most that row's best value so far.  The norm is an exact max
of floats, which does not depend on order, and a skipped radius could not
have raised it, so every norm keeps the bits of the unpruned scan.  A
scanned row's peak is positive, so some radius is always scanned, and a
scan builds its plan before the radius loop.

Nested rows, such as the tails T_J of a truncated square function, bound
one another: T_{J+1} sums one nonnegative band fewer than T_J, so
T_{J+1} <= T_J point by point and no window of T_{J+1}^q holds more than
the same window of T_J^q (branch and bound with a tighter bound).  A
scan carries from each block to the next the last row's g and, per
radius, a cap on that g's exact peak window sum: min(sum g, count(R) max g)
and, at a scanned radius, the computed peak plus pad, since no rounding of
a window sum exceeds the pad.  A row of the next
block whose g is at most the carried g at every point takes the smaller of
its own cap and the carried one.  Its exact window sums are at most the
carried g's, so its computed peak is at most the carried cap plus its own
pad, which is the bound above with that cap.  The comparison runs on the
very arrays that are summed, because rounding can lift a computed tail a
few ulps above the one before it; such a row is not chained.  Every scan
makes this comparison, so rows that do not nest, such as a corpus's, are
simply not chained.  So a chained scan, too, skips only radii that could
not have raised a norm, and every norm keeps its bits.

With p = q the volume factor drops out and the largest cube window (side
L) covers the torus exactly once, so the norm collapses to the discrete
L^p norm up to pure summation rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ParameterError
from .grid import (_MIN_EXP, GridFunction, GridSpec, _check_same_spec, _ldexp_back,
                   _rescale_exponent)

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
# 53 bits above float64's normal range: a sum of r-th powers at least this large
# loses less than its own rounding to powers that went subnormal or vanished
_FAINT_SUM = 2.0 ** (_MIN_EXP + 53)


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


def _at(axis: int, start, stop) -> tuple:
    """A basic slice of ``start:stop`` along ``axis``."""
    return (slice(None),) * axis + (slice(start, stop),)


def _prefix_sums(arr: np.ndarray, axis: int, extra: int) -> np.ndarray:
    """Prefix sums c_k along ``axis`` of ``arr`` extended by its first
    ``extra`` entries (torus wrap).  Each c_k is the sequential sum of the
    first k+1 entries, so it does not depend on ``extra``."""
    n = arr.shape[axis]
    shape = list(arr.shape)
    shape[axis] = n + extra
    csum = np.empty(shape)
    csum[_at(axis, 0, n)] = arr
    csum[_at(axis, n, None)] = arr[_at(axis, 0, extra)]
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
    return csum


def _box_sum_axis(arr: np.ndarray, half_width: int, axis: int,
                  csum: np.ndarray = None) -> np.ndarray:
    """Periodic moving sum over offsets -m..m along one axis (exact).

    ``csum``, if given, is _prefix_sums(arr, axis, extra) for any extra of
    at least 2m; only its first N + 2m entries are read."""
    n = arr.shape[axis]
    w = 2 * half_width + 1
    if w >= n:
        total = arr.sum(axis=axis, keepdims=True)
        return np.broadcast_to(total, arr.shape).copy()
    m = half_width
    at = partial(_at, axis)
    if csum is None:
        csum = _prefix_sums(arr, axis, w - 1)
    csum = csum[at(0, n + w - 1)]
    # the window from i to i+w-1 sums to c_{i+w-1} - c_{i-1} (c_{-1} = 0) and is
    # centred at i+m, so each difference goes straight to its rolled place
    out = np.empty(arr.shape)
    out[at(m, m + 1)] = csum[at(w - 1, w)]
    np.subtract(csum[at(w, n + m)], csum[at(0, n - m - 1)], out=out[at(m + 1, None)])
    np.subtract(csum[at(n + m, None)], csum[at(n - m - 1, n - 1)], out=out[at(0, m)])
    return out


@lru_cache(maxsize=256)
def _ball_stencil_data(dim: int, points: int, length: float, radius: float):
    """(half-spectrum rfftn of the 0/1 torus-ball stencil, point count).
    Cached per grid."""
    h = length / points
    o = np.arange(points)
    axis_dist = np.minimum(o, points - o) * h
    axes = np.meshgrid(*([axis_dist] * dim), indexing="ij", sparse=True)
    dist2 = sum(a**2 for a in axes)
    stencil = (dist2 <= (radius * _EDGE_TOL) ** 2).astype(np.float64)
    return np.fft.rfftn(stencil), int(stencil.sum())


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


def _grid_axes(spec: GridSpec, values: np.ndarray) -> tuple:
    """The trailing axes of ``values`` that hold the grid; the rest are a batch."""
    return tuple(range(values.ndim - spec.dim, values.ndim))


def _window_plan(spec: GridSpec, values: np.ndarray, window_shape: str) -> np.ndarray:
    """What window_sum takes as ``plan``, the work a scan over many radii
    does once: for ball windows the half spectrum rfftn of ``values`` over
    the grid axes; for cube windows the prefix sums of ``values`` along the
    first grid axis, extended by N - 1 entries, enough for every radius."""
    grid_axes = _grid_axes(spec, values)
    if window_shape == "ball":
        return np.fft.rfftn(values, axes=grid_axes)
    return _prefix_sums(values, grid_axes[0], spec.points - 1)


def window_sum(spec: GridSpec, values: np.ndarray, window_shape: str,
               radius: float, *, plan=None) -> np.ndarray:
    """Sum of ``values`` over the window around every grid point.

    ``values`` is a real array of shape (*batch, *spec.shape); the result
    has the same shape, entry (b, x) holding sum_{y in W(x,R)} values[b, y]
    with torus wrap.  Each row of the batch gets the bits it would get alone.
    A scan over many radii passes ``plan``, _window_plan of ``values``, so
    that the forward transform of a ball scan and the first-axis prefix sums
    of a cube scan run once for all of them; a cube sum gets the same bits
    with a plan as without.
    """
    if window_shape not in WINDOW_SHAPES:
        raise ParameterError(f"unknown window shape {window_shape!r}")
    first, *rest = grid_axes = _grid_axes(spec, values)
    if window_shape == "cube":
        m = _axis_half_width(spec, radius)
        out = _box_sum_axis(values, m, first, plan)
        for axis in rest:
            out = _box_sum_axis(out, m, axis)
        return out
    stencil_hat, _ = _ball_stencil_data(spec.dim, spec.points, spec.length, radius)
    if plan is None:
        plan = _window_plan(spec, values, window_shape)
    # stencil is symmetric under negation, so convolution == correlation
    out = np.fft.irfftn(plan * stencil_hat, s=spec.shape, axes=grid_axes)
    np.clip(out, 0.0, None, out=out)
    return out


def _shared_spec(fs: list) -> GridSpec:
    """The grid of a nonempty list of functions that all live on it."""
    if not fs:
        raise ParameterError("need at least one function")
    for f in fs[1:]:
        _check_same_spec(fs[0], f)
    return fs[0].spec


def _lr_suffixes(stack, r: float, count: int = None) -> list:
    """Pointwise l^r norms across the rows stack[j:] of a nonempty stack of
    same-shape arrays (a list, or an array whose rows they are), for
    j = 0 .. count - 1 (every row by default); r = inf takes the pointwise
    max.  Each row's r-th power is taken once and every suffix sums the
    stored powers down axis 0, so it has the bits of a stack of its own.  A
    suffix whose powers would leave float64 is scaled down by an exact power
    of two, aggregated and scaled back.  Where a sum of powers falls below
    _FAINT_SUM, powers of small entries may have rounded below float64's
    normal range or vanished (for large r), so there the norm is taken
    relative to the pointwise max instead.
    Every bare r in the package meets its one check of 1 < r <= inf here."""
    if not 1.0 < r <= np.inf:
        raise ParameterError(f"need 1 < r <= inf, got r={r}")
    arr = np.asarray(stack)
    count = len(arr) if count is None else count
    if np.isinf(r):
        return [arr[j:].max(axis=0) for j in range(count)]
    peaks = arr.reshape(len(arr), -1).max(axis=1).tolist()
    aggs = []
    powers = first = None
    for j in range(count):
        peak = max(peaks[j:])
        e = _rescale_exponent(peak, r, len(arr) - j)
        if e:
            rows = np.ldexp(arr[j:], -e)
            sums = (rows**r).sum(axis=0)
        else:
            if powers is None:  # no later suffix needs the rows before this one
                powers, first = arr[j:] ** r, j
            rows, sums = arr[j:], powers[j - first:].sum(axis=0)
        agg = sums ** (1.0 / r)
        faint = sums < _FAINT_SUM
        if peak > 0.0 and faint.any():
            sub = rows[:, faint]
            top = sub.max(axis=0)
            unit = np.where(top > 0.0, top, 1.0)
            agg[faint] = top * ((sub / unit) ** r).sum(axis=0) ** (1.0 / r)
        aggs.append(_ldexp_back(agg, e, f"an l^{r:g} aggregate") if e else agg)
    return aggs


def _lr_aggregate(stack, r: float) -> np.ndarray:
    """Pointwise l^r norm across a nonempty stack of same-shape arrays: the
    first of _lr_suffixes."""
    return _lr_suffixes(stack, r, 1)[0]


def _morrey_norms(rows, spec: GridSpec, pq: LebesguePair,
                  sampler: WindowSampler) -> list:
    """Morrey norm of each nonnegative array of ``rows`` (on spec.shape), in
    order.

    Rows are stacked in blocks of at most _ROW_BLOCK_ELEMENTS samples and
    scanned one window sum per radius per block.  A row whose maximum is 0
    gets the norm 0.0 and is not scanned.  A row whose q-th powers would
    leave float64 is scaled by an exact power of two in its block, and its
    norm is scaled back.  Each block after the first is also bounded by the
    last row scanned before it wherever that row's q-th powers dominate
    (the chained bound of the module docstring).  The norms keep their bits.
    """
    sampler.validate_against(spec)
    peaks = [float(row.max()) for row in rows]
    live = [i for i, peak in enumerate(peaks) if peak != 0.0]
    per_block = max(1, _ROW_BLOCK_ELEMENTS // spec.size)
    norms = [0.0] * len(rows)
    above = None
    for lo in range(0, len(live), per_block):
        block = live[lo:lo + per_block]
        if len(block) == 1:
            stack = rows[block[0]][np.newaxis]  # a view, no copy
        else:
            stack = np.stack([rows[i] for i in block])
        # a ball window's FFT convolution passes through size^2 times the peak power
        block_exps = [_rescale_exponent(peaks[i], pq.q, float(spec.size) ** 2)
                      for i in block]
        if any(block_exps):
            shifts = -np.array(block_exps).reshape((-1,) + (1,) * spec.dim)
            stack = np.ldexp(stack, shifts)
        values, last = _scan_stack(stack, spec, pq, sampler, above)
        for i, e, value in zip(block, block_exps, values):
            norms[i] = float(_ldexp_back(value, e, "a Morrey norm")) if e else value
        above = last
    return norms


def _scan_stack(stack: np.ndarray, spec: GridSpec, pq: LebesguePair,
                sampler: WindowSampler, above=None) -> tuple:
    """(the Morrey norm of each row of ``stack``, whose q-th powers stay in
    float64; what bounds a later block: the last row's g = row^q and, per
    radius of the sampler, a cap on that g's exact peak window sum).

    Branch and bound over the radii (see the module docstring): a row's
    value at R is at most value(vol(R), cap + pad) times 1 + 1e-9, where
    cap = min(sum g, count(R) max g) caps the exact peak window sum and
    pad = 8 size eps sum g lies above the rounding of either kind of window
    sum.  ``above``, the second item of an earlier scan, also caps each row
    whose g is at most that scan's last g everywhere, by that g's cap.  A
    scanned radius caps the last row by its computed peak plus its pad.
    Radii run from the block's largest bound down, and one is skipped when
    every row's bound is at most that row's best value so far.  A skipped
    value could not have raised the max, and a max of floats does not
    depend on order, so each row keeps the bits of the unpruned scan.
    """
    g = stack**pq.q
    hn = spec.cell_volume
    vol_exp = 1.0 / pq.p - 1.0 / pq.q

    def value(vol, peak):
        # Python floats, so each row's value has the bits of a scan of it alone
        return vol**vol_exp * (peak * hn) ** (1.0 / pq.q)

    flat = g.reshape(len(stack), -1)
    totals = flat.sum(axis=1).tolist()
    tops = flat.max(axis=1).tolist()
    pad = 8.0 * spec.size * np.finfo(np.float64).eps
    # which rows the earlier scan's last g dominates, point by point
    under = [above is not None and bool(np.all(row <= above[0])) for row in g]
    order = []
    last_caps = []
    for k, radius in enumerate(sampler.radii):
        count = window_count(spec, sampler.window_shape, radius)
        vol = window_volume(spec, sampler.window_shape, radius)
        caps = [min(t, count * m, above[1][k]) if u else min(t, count * m)
                for t, m, u in zip(totals, tops, under)]
        bounds = [value(vol, c + pad * t) * (1.0 + 1e-9) for c, t in zip(caps, totals)]
        order.append((max(bounds), k, vol, bounds))
        last_caps.append(caps[-1])
    order.sort(key=lambda item: item[0], reverse=True)
    best = [0.0] * len(stack)
    plan = _window_plan(spec, g, sampler.window_shape)
    for _, k, vol, bounds in order:
        if all(u <= b for u, b in zip(bounds, best)):
            continue
        sums = window_sum(spec, g, sampler.window_shape, sampler.radii[k], plan=plan)
        peaks = sums.reshape(len(stack), -1).max(axis=1).tolist()
        best = [max(b, value(vol, peak)) for b, peak in zip(best, peaks)]
        last_caps[k] = min(last_caps[k], peaks[-1] + pad * totals[-1])
    return best, (g[-1], last_caps)


def morrey_norm(f: GridFunction, pq: LebesguePair, sampler: WindowSampler) -> float:
    """Discrete Morrey norm of |f| over the sampler's window family."""
    return _morrey_norms([f.modulus()], f.spec, pq, sampler)[0]

