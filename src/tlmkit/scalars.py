"""Scalar log-damping inequalities.

The interpolation machinery leans on a family of elementary but sharp
scalar estimates.  Writing L(s) = log(s + 1/s) (minimum log 2 at s = 1):

* power-sum bound: for nonnegative a_j, not all zero, and kappa > 0,
      sum_j a_j (sum_{k<=j} a_k)^(kappa-1) <= (1/min(kappa,1)) (sum_j a_j)^kappa,
  an exact inequality checked with pure-arithmetic slack;

* log damping: for Re z >= 0 and 1 <= r < inf,
      |(s^z - 1)/log(s^r)| <= C_z / L(s) on (0,1),
  with s^-z on (1,inf), and the purely imaginary variant for s^it on
  both sides of 1 -- the constants are empirical, calibrated and then
  pinned with a regression gate;

* the weight pair
      Phi_kappa(t) = t^(kappa-1)/L(t),
      Psi_kappa(t) = integral_0^t Phi_kappa(s^(1/r))^r ds,
  with the summation bound
      sum_j [a_j Phi_kappa((sum_{k<=j} a_k^r)^(1/r))]^r <~ Psi_kappa(sum_j a_j^r)
  (empirical constant) and the exact tail bound, for 0 < a < 1 and
  t in (0,a) or t > 1/a,
      Psi_kappa(t^r) <= (a^((r-1)kappa) + L(a^(1/r))^-r) t^(r kappa) / (kappa log(2)^r);

* the holomorphy modulus: for eps > 2|h| > 0,
      sup_{0<t<=1} t^eps |(exp(h log t) - 1)/(h log t) - 1| <= C_eps |h|,
  and the mirrored sup over t > 1 with t^-eps.

Psi_kappa comes from one table per parameter set.  After s = e^(-2x),
    Psi_kappa(t) = t^kappa integral_{x0}^inf 2 e^(-2 kappa (x - x0)) / l(x)^r dx,
with x0 = -log(t)/2 and l(x) = log(2 cosh(2x/r)), taken in the
overflow-safe form 2|x|/r + log1p(e^(-4|x|/r)) that switches branch at
x = 0.  The table holds PSI_NODES-point Gauss-Legendre panels of width
PSI_PANEL on a lattice through x = 0, spanning the x0 of every positive
float64 and PSI_TAIL e-folds of decay beyond, and their suffix sums scaled
by e^(2 kappa x).  It is built on first use, checked against the lattice
at half the width, and cached.  A value then costs one partial panel and
one lookup, and depends on nothing but its own t.  The checks return
numbers; the suites module turns them into verdicts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, QuadratureError

__all__ = [
    "PhiPsiParams",
    "exprel",
    "phi_kappa",
    "psi_kappa",
    "sequence_power_margin",
    "log_damping_complex_check",
    "log_damping_imag_check",
    "psi_tail_bound_check",
    "exp_log_bound_check",
]

# series/direct crossover of exprel(w) - 1, which cancels as w -> 0 (w = h log t)
_SERIES_CUT = 1e-2

PSI_TOL = 1e-10  # relative gap allowed between the Psi table and its half-width check
PSI_NODES = 16  # Gauss-Legendre nodes per panel of the Psi table
PSI_PANEL = 0.5  # panel width in x = -log(s)/2; the lattice holds x = 0
PSI_TAIL = 40.0  # e-folds of e^(-2 kappa x) the table runs past its last argument
PSI_MAX_PANELS = 2**14  # largest Psi table, which bounds kappa from below
S_GRID_POINTS = 200  # log-damping scan: points per part of the (0,1) grid
EXP_LOG_POINTS = 400  # holomorphy-modulus scan: points per log grid

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(PSI_NODES)
# -log(t)/2 of every positive finite float t lies in (-_X_EDGE, _X_EDGE)
_X_EDGE = 373.0


def _check_r(r: float) -> None:
    """The scalar rule 1 <= r < inf, for every entry point that takes r."""
    if not 1.0 <= r < np.inf:
        raise ParameterError(f"need 1 <= r < inf, got r={r}")


@dataclass(frozen=True)
class PhiPsiParams:
    kappa: float
    r: float = 1.0

    def __post_init__(self) -> None:
        if not (self.kappa > 0 and np.isfinite(self.kappa)):
            raise ParameterError(f"kappa must be positive, got {self.kappa}")
        _check_r(self.r)


def _log_s_plus_inv(s):
    """log(s + 1/s), overflow-safe for extreme s."""
    s = np.asarray(s, dtype=np.float64)
    al = np.abs(np.log(s))
    return al + np.log1p(np.exp(-2.0 * al))


def phi_kappa(t, params: PhiPsiParams) -> np.ndarray:
    """Phi_kappa(t) = t^(kappa-1) / log(t + 1/t) for t > 0."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0):
        raise ParameterError("phi_kappa needs t > 0")
    return t ** (params.kappa - 1.0) / _log_s_plus_inv(t)


def _panel_integrals(left: np.ndarray, width: np.ndarray, kappa: float,
                     r: float) -> np.ndarray:
    """integral over [left, left + width] of 2 e^(-2 kappa (x - left)) / l(x)^r,
    l(x) = log(2 cosh(2x/r)) in its overflow-safe form, by the PSI_NODES-point
    Gauss-Legendre rule.  The node sum runs in a fixed order and every other
    step is elementwise, so each entry is independent of the others bit for bit.
    """
    half = 0.5 * width
    offset = half * (1.0 + _GL_NODES[:, None])  # x - left, one row per node
    ax = np.abs(left + offset) * (2.0 / r)
    ell = ax + np.log1p(np.exp(-2.0 * ax))
    values = np.exp(-2.0 * kappa * offset) / ell**r
    total = np.zeros(np.shape(left))
    for weight, row in zip(_GL_WEIGHTS, values):
        total += weight * row
    return 2.0 * half * total


def _suffix_sums(kappa: float, r: float, n_panels: int, h: float) -> np.ndarray:
    """R_k = e^(2 kappa x_k) Psi_kappa(e^(-2 x_k)) on the lattice
    x_k = -_X_EDGE + k h, the last entry 0 at the tail cut; the recurrence
    R_k = P_k + e^(-2 kappa h) R_(k+1) never amplifies the panels' rounding."""
    left = -_X_EDGE + h * np.arange(n_panels)
    panels = _panel_integrals(left, np.full(n_panels, h), kappa, r)
    decay = float(np.exp(-2.0 * kappa * h))
    sums = itertools.accumulate(panels[::-1].tolist(), lambda acc, p: p + decay * acc,
                                initial=0.0)
    return np.array(list(sums)[::-1])


@functools.lru_cache(maxsize=32)
def _psi_table(params: PhiPsiParams) -> np.ndarray:
    """The suffix sums at PSI_PANEL, checked against the lattice at half of it."""
    kappa, r = params.kappa, params.r
    n_panels = int(np.ceil((2.0 * _X_EDGE + PSI_TAIL / (2.0 * kappa)) / PSI_PANEL))
    if n_panels > PSI_MAX_PANELS:
        raise QuadratureError(
            f"kappa={kappa:g} is too small for the Psi table: it needs "
            f"{n_panels} panels, more than {PSI_MAX_PANELS}"
        )
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sums = _suffix_sums(kappa, r, n_panels, PSI_PANEL)
        fine = _suffix_sums(kappa, r, 2 * n_panels, PSI_PANEL / 2.0)[::2]
        if not (np.all(np.isfinite(sums)) and np.all(np.isfinite(fine))):
            raise ParameterError(f"Psi_kappa overflows float64 at kappa={kappa:g}, r={r:g}")
        # nan, and so a failure, where a panel of the check underflowed to 0
        gap = float(np.max(np.abs(sums[:-1] - fine[:-1]) / fine[:-1]))
    if not gap <= PSI_TOL:
        raise QuadratureError(
            f"Psi table not converged at kappa={kappa:g}, r={r:g}: relative gap "
            f"{gap:.2e} between panel widths {PSI_PANEL:g} and {PSI_PANEL / 2:g}"
        )
    sums.flags.writeable = False
    return sums


def psi_kappa(t, params: PhiPsiParams):
    """Psi_kappa(t) for finite t >= 0, elementwise over an array of t.

    A scalar is a batch of one and gives a float.  Each value is t^kappa
    times (the partial panel from x0 = -log(t)/2 to the next lattice edge,
    a distance d away, plus e^(-2 kappa d) times the suffix sum there), so
    a scalar call equals its batch entry bit for bit.  A value beyond
    float64 raises ParameterError; one below its subnormal range is 0.0.
    Building the table raises QuadratureError for kappa outside about
    [0.003, 30]: past 30 its panels cannot resolve e^(-2 kappa x), and
    below 0.003 the tail needs more than PSI_MAX_PANELS of them.
    """
    t = np.asarray(t, dtype=np.float64)
    flat = t.ravel()
    bad = ~(np.isfinite(flat) & (flat >= 0.0))
    if np.any(bad):
        raise ParameterError(f"psi_kappa needs finite t >= 0, got {flat[bad][0]}")
    sums = _psi_table(params)
    kappa = params.kappa
    pos = np.where(flat > 0.0, flat, 1.0)  # t = 0 is filled in below
    x0 = -0.5 * np.log(pos)
    k = np.clip(np.floor((x0 + _X_EDGE) / PSI_PANEL).astype(np.int64), 0, sums.size - 2)
    edge = -_X_EDGE + (k + 1) * PSI_PANEL
    width = edge - x0
    bracket = _panel_integrals(x0, width, kappa, params.r) \
        + np.exp(-2.0 * kappa * width) * sums[k + 1]
    with np.errstate(over="ignore", under="ignore"):
        power = pos**kappa
        # outside the normal range t^kappa is rebuilt as m^kappa 2^(kappa e)
        # from t = m 2^e, so Psi leaves float64 only in the final ldexp
        mant, expo = np.frexp(pos)
        scaled = kappa * expo
        whole = np.floor(scaled)
        wide = np.ldexp(mant**kappa * np.exp2(scaled - whole) * bracket,
                        whole.astype(np.int64))
        normal = (power >= np.finfo(np.float64).tiny) & np.isfinite(power)
        psi = np.where(normal, power * bracket, wide)
    if np.any(np.isinf(psi)):
        bad = flat[np.isinf(psi)][0]
        raise ParameterError(
            f"Psi_kappa({bad:g}) overflows float64 at kappa={kappa:g}, r={params.r:g}"
        )
    psi = np.where(flat > 0.0, psi, 0.0).reshape(t.shape)
    return float(psi) if t.ndim == 0 else psi


def _sequence_rows(a) -> np.ndarray:
    """The float64 rows of a nonempty, finite, nonnegative sequence (one
    row) or of a 2-d batch of them."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (1, 2) or a.size == 0:
        raise ParameterError("need a nonempty sequence or a 2-d batch of them")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ParameterError("sequence entries must be finite and nonnegative")
    return np.atleast_2d(a)


def sequence_power_margin(a: np.ndarray, kappa: float):
    """(lhs, rhs) of the power-sum bound for one nonnegative sequence, or
    arrays of them, row by row, for a 2-d batch of sequences (trailing
    zeros pad the shorter ones without changing their sums)."""
    rows = _sequence_rows(a)
    totals = rows.sum(axis=1)
    if np.any(totals == 0.0):
        raise ParameterError("the bound requires at least one nonzero entry")
    prefix = np.cumsum(rows, axis=1)
    # a = 0 terms contribute nothing; give them base 1 to avoid 0^(k-1)
    lhs = (rows * np.where(rows > 0, prefix, 1.0) ** (kappa - 1.0)).sum(axis=1)
    rhs = totals**kappa / min(kappa, 1.0)
    if np.ndim(a) == 1:
        return float(lhs[0]), float(rhs[0])
    return lhs, rhs


def _s_grids() -> tuple:
    """Grid in (0,1), dyadic decay to 2^-40 plus an approach to 1, and its
    refinement by the geometric mean of each neighbour pair."""
    decay = 2.0 ** np.linspace(-40.0, -1.0, S_GRID_POINTS)
    near_one = 1.0 - 10.0 ** np.linspace(-12.0, -0.31, S_GRID_POINTS)
    grid = np.unique(np.concatenate([decay, near_one]))
    return grid, np.unique(np.concatenate([grid, np.sqrt(grid[:-1] * grid[1:])]))


def exprel(w):
    """exprel(w) = (e^w - 1)/w = expm1(w)/w elementwise, exactly 1 at w = 0."""
    w = np.asarray(w)
    rel = np.ones_like(w)
    np.divide(np.expm1(w), w, out=rel, where=w != 0.0)
    return rel


def _power_ratio_small_s(z: complex, r: float, s: np.ndarray) -> np.ndarray:
    """|(s^z - 1)/log(s^r)| * log(s + 1/s) = |z/r| |exprel(z log s)| log(s + 1/s)."""
    return abs(z / r) * np.abs(exprel(z * np.log(s))) * _log_s_plus_inv(s)


def log_damping_complex_check(z: complex, r: float) -> tuple:
    """Empirical C_z for the log-damping bound, both sides of s = 1.

    Evaluates |(s^z-1)/log(s^r)| * log(s+1/s) on a grid in (0,1) and its
    reciprocal image in (1,inf) with s^-z, and returns the (coarse,
    refined) pair of sups: on the grid and on its geometric refinement.
    """
    z = complex(z)
    if z.real < 0:
        raise ParameterError(f"need Re(z) >= 0, got {z}")
    _check_r(r)

    # the s > 1 branch with s^-z maps onto the (0,1) branch under s -> 1/s
    # (log(s^r) flips sign inside |.|, log(s + 1/s) is invariant), so one
    # scan of (0,1) covers both inequalities
    def sup_on(g: np.ndarray) -> float:
        return float(_power_ratio_small_s(z, r, g).max())

    return tuple(sup_on(g) for g in _s_grids())


def log_damping_imag_check(t: float, r: float) -> tuple:
    """Empirical C_t for the purely imaginary exponent s^(it), s != 1: the
    complex scan at z = it, whose branches coincide under s -> 1/s."""
    if not np.isfinite(t):
        raise ParameterError(f"t must be finite, got {t}")
    return log_damping_complex_check(1j * t, r)


def psi_tail_bound_check(t, a: float, params: PhiPsiParams) -> tuple:
    """(lhs, rhs) of the exact tail bound for Psi_kappa(t^r) outside [a, 1/a],
    elementwise over an array of t (floats for a scalar t)."""
    if not 0.0 < a < 1.0:
        raise ParameterError(f"need a in (0,1), got {a}")
    t = np.asarray(t, dtype=np.float64)
    outside = ((t > 0.0) & (t < a)) | (t > 1.0 / a)
    if not np.all(outside):
        bad = t[~outside][0]
        raise ParameterError(f"t={bad:g} must lie in (0,{a:g}) or ({1 / a:g},inf)")
    kappa, r = params.kappa, params.r
    log_a_term = float(_log_s_plus_inv(a ** (1.0 / r)))
    with np.errstate(over="ignore"):
        t_r = t**r
        rhs = (a ** ((r - 1.0) * kappa) + log_a_term**-r) * t ** (r * kappa) \
            / (kappa * np.log(2.0) ** r)
    if np.any(np.isinf(t_r)) or np.any(np.isinf(rhs)):
        bad = t[np.isinf(t_r) | np.isinf(rhs)][0]
        raise ParameterError(f"the Psi tail bound at t={bad:g} overflows float64")
    lhs = psi_kappa(t_r, params)
    return (lhs, float(rhs)) if t.ndim == 0 else (lhs, rhs)


def _exp_log_modulus(h: complex, t: np.ndarray) -> np.ndarray:
    """|exprel(w) - 1| at w = h log t, by its series where the difference
    cancels (|w| < _SERIES_CUT)."""
    w = h * np.log(t)
    out = np.zeros(w.shape, dtype=np.float64)
    direct = np.abs(w) >= _SERIES_CUT
    out[direct] = np.abs(exprel(w[direct]) - 1.0)
    small = ~direct
    if np.any(small):
        ws = w[small]
        series = np.zeros(ws.shape, dtype=np.complex128)
        term = ws / 2.0  # w^1 / 2!
        for n in range(1, 9):
            series += term
            term = term * ws / (n + 2.0)
        out[small] = np.abs(series)
    return out


def exp_log_bound_check(h: complex, eps: float) -> tuple:
    """Empirical C_eps in the holomorphy modulus bound, requires eps > 2|h| > 0.

    Scans t on log grids 2^-60..1 and 1..2^60 and returns the (coarse,
    refined) pair of sup t^(+-eps) |...| / |h| over both ranges, on
    EXP_LOG_POINTS and on twice as many points per grid.
    """
    h = complex(h)
    if h == 0:
        raise ParameterError("h must be nonzero")
    if not eps > 2.0 * abs(h):
        raise ParameterError(f"need eps > 2|h|; got eps={eps}, |h|={abs(h)}")

    def sup_on(n: int) -> float:
        t_low = 2.0 ** np.linspace(-60.0, 0.0, n)
        t_high = 2.0 ** np.linspace(0.0, 60.0, n)
        low = np.max(t_low**eps * _exp_log_modulus(h, t_low))
        high = np.max(t_high**-eps * _exp_log_modulus(h, t_high))
        return float(max(low, high))

    return sup_on(EXP_LOG_POINTS) / abs(h), sup_on(2 * EXP_LOG_POINTS) / abs(h)
