"""Smoothness-space norms built from dyadic blocks.

For a multiplier family phi_0..phi_J and parameters (p, q, r, s) the
discrete Triebel-Lizorkin-Morrey norm is

    || phi_0(D) f ||_{M^p_q}
        + || ( sum_{j>=1} 2^{jrs} |phi_j(D) f|^r )^(1/r) ||_{M^p_q},

with the inner sum replaced by a sup when r = inf.  The square function
aggregates all bands from j = 0; its truncated variants T_J keep only bands
j >= J and are gated by the indicator of {a <= S(f) <= 1/a}, which is the
sequence in J whose Morrey norm must vanish for the tail criterion to hold.

Everything here assumes the grid resolves the function: every entry point
checks once that at most a 1e-10 fraction of spectral energy sits at
frequencies where the family's partition falls short of 1, and raises
otherwise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BandCoverageError, ParameterError
from .grid import _MAX_EXP, _MIN_EXP, GridFunction, GridSpec, _ldexp, _rescale_exponent
from .lpaley import LPFamily, project_all, reconstruct
from .morrey import (LebesguePair, WindowSampler, _lr_aggregate, _lr_suffixes, _morrey_norms,
                     _shared_spec)
from .report import VerificationReport, safe_ratio

__all__ = [
    "SpaceParams",
    "coverage_defect",
    "ensure_band_covered",
    "square_function",
    "truncated_square_function",
    "tlm_norm",
    "diamond_tail",
    "diamond_criterion",
    "persistent_block_function",
]

COVERAGE_TOL = 1e-10
DIAMOND_CUTOFFS = (0.1, 0.01)  # size cutoffs a of the tail criterion's gates
DIAMOND_REL_TOL = 1e-8  # a tail below this fraction of its J = 0 norm has died out
_EXP_CLAMP = 4096  # binary exponent shifts beyond any float64 scale


@dataclass(frozen=True)
class SpaceParams:
    """Exponent tuple (p, q, r, s): 1 < q <= p < inf, r in (1, inf], s real."""

    p: float
    q: float
    r: float
    s: float

    def __post_init__(self) -> None:
        LebesguePair(self.p, self.q)  # checks 1 < q <= p < inf
        if not 1.0 < self.r <= np.inf:
            raise ParameterError(f"need 1 < r <= inf, got r={self.r}")
        if not np.isfinite(self.s):
            raise ParameterError(f"s must be finite, got {self.s}")

    @property
    def pair(self) -> LebesguePair:
        return LebesguePair(self.p, self.q)


def coverage_defect(family: LPFamily, f: GridFunction) -> float:
    """Fraction of spectral energy where the partition sum is below 1.

    The family resolves exactly the frequencies |xi| <= 2^(j_max+1); any
    energy outside would be silently lost by band decompositions.
    """
    modulus = np.abs(f.coeffs())
    # the fraction is scale free: rescale coefficients whose squares leave float64
    e = _rescale_exponent(float(modulus.max()), 2.0, modulus.size)
    if e:
        modulus = np.ldexp(modulus, -e)
    total = float(np.sum(modulus**2))
    if total == 0.0:
        return 0.0
    outside = ~f.spec.dyadic_ball(family.j_max + 1)
    return float(np.sum(modulus[outside] ** 2)) / total


def ensure_band_covered(family: LPFamily, f: GridFunction) -> None:
    defect = coverage_defect(family, f)
    if defect > COVERAGE_TOL:
        raise BandCoverageError(
            f"spectral energy fraction {defect:.3e} above band 2^{family.j_max + 1}"
        )


def _block_moduli(family: LPFamily, f: GridFunction) -> tuple:
    """(moduli, e): |phi_j(D) (2^-e f)|, j = 0..j_max, once 2^-e f is
    band-covered.  e = 0 while the transforms, up to size times f's peak
    sample, stay in float64; else 2^-e is the exact power of two that keeps
    them there (the blocks are linear in f), and _weigh adds 2^e back."""
    e = _rescale_exponent(float(f.modulus().max()), 1.0, f.spec.size)
    if e:
        f = _ldexp(f, -e)
    ensure_band_covered(family, f)
    return np.abs(project_all(family, f)), e


def _weigh(moduli: np.ndarray, s: float, e: int) -> np.ndarray:
    """The rows 2^{js} moduli[j] 2^e: multiplied directly while e = 0,
    every weight is a normal float64 and the products stay in float64,
    else through ldexp as 2^frac(js) 2^(floor(js) + e), so only a row that
    leaves float64 raises."""
    n_bands = len(moduli)
    rows = (n_bands,) + (1,) * (moduli.ndim - 1)
    top = (n_bands - 1) * max(s, 0.0)  # log2 of the largest weight
    bottom = (n_bands - 1) * min(s, 0.0)  # and of the smallest
    if (e == 0 and _MIN_EXP <= bottom and top < _MAX_EXP
            and not _rescale_exponent(float(moduli.max()), 1.0, 2.0**top)):
        weights = np.array([2.0 ** (j * s) for j in range(n_bands)])
        return weights.reshape(rows) * moduli
    # past the clamp every exponent, and so every shift, gives 0 or inf anyway
    js = [min(max(j * s, -_EXP_CLAMP), _EXP_CLAMP) for j in range(n_bands)]
    whole = [math.floor(x) for x in js]
    fracs = np.array([2.0 ** (x - w) for x, w in zip(js, whole)])
    shifts = np.array([min(max(w + e, -_EXP_CLAMP), _EXP_CLAMP) for w in whole])
    with np.errstate(over="ignore"):
        weighted = np.ldexp(fracs.reshape(rows) * moduli, shifts.reshape(rows))
    bad = np.isinf(weighted).reshape(n_bands, -1).any(axis=1)
    if bad.any():
        raise ParameterError(
            f"the weighted block 2^(js)|phi_j(D) f| at j={int(bad.argmax())}, s={s:g} "
            "overflows float64"
        )
    return weighted


def _weighted_blocks(family: LPFamily, f: GridFunction, s: float) -> np.ndarray:
    """The stack of |2^{js} phi_j(D) f|, j = 0..j_max, once f is band-covered."""
    moduli, e = _block_moduli(family, f)
    return _weigh(moduli, s, e)


def square_function(f: GridFunction, family: LPFamily, r: float, s: float) -> GridFunction:
    """S(f) = (sum_{j>=0} |2^{js} phi_j(D) f|^r)^(1/r), pointwise."""
    agg = _lr_aggregate(_weighted_blocks(family, f, s), r)
    return GridFunction(f.spec, agg)


def truncated_square_function(f: GridFunction, family: LPFamily, r: float,
                              s: float, cutoffs) -> list:
    """Gated tails [T_0 f, ..., T_{j_max} f] for each size cutoff, from one
    projection of f.

    T_J f is the aggregate over bands j >= J, gated by the indicator of
    {cutoff <= S(f) <= 1/cutoff} evaluated on the full square function
    S(f) = T_0 f.  The aggregates are built once, from each band's r-th
    power taken once (_lr_suffixes), and only the gate depends on the
    cutoff.  Returns one list of tails per cutoff, in order; each
    tail is a real, nonnegative array on f's grid.  A cutoff whose gate
    equals an earlier cutoff's gets that cutoff's list itself.
    """
    for cutoff in cutoffs:
        if not 0.0 < cutoff <= 1.0:
            raise ParameterError(f"cutoff must lie in (0, 1], got {cutoff}")
    aggs = _lr_suffixes(_weighted_blocks(family, f, s), r)
    full = aggs[0]
    gates = [(full >= cutoff) & (full <= 1.0 / cutoff) for cutoff in cutoffs]
    tails = []
    for k, gate in enumerate(gates):
        shared = next((tails[i] for i in range(k) if np.array_equal(gates[i], gate)), None)
        tails.append(shared if shared is not None
                     else [np.where(gate, agg, 0.0) for agg in aggs])
    return tails


def _tlm_norms(fs: list, family: LPFamily, params_seq, sampler: WindowSampler) -> list:
    """tlm_norm of each function of ``fs`` in each space of ``params_seq``: a
    table with one row per function and one column per space.

    Each function has one coverage check and one projection, which all its
    spaces weigh.  Each space scans the low and tail rows of the whole
    corpus in one _morrey_norms call.  On failure it raises what the first
    failing function raises alone.
    """
    try:
        if not fs:
            return []
        spec = _shared_spec(fs)
        n = len(fs)
        # per space, the low rows of every function, then their tail rows
        rows = [[None] * (2 * n) for _ in params_seq]
        for i, f in enumerate(fs):
            moduli, e = _block_moduli(family, f)
            for k, params in enumerate(params_seq):
                weighted = _weigh(moduli, params.s, e)
                rows[k][n + i] = _lr_aggregate(weighted[1:], params.r)  # j_max >= 1
                # copied once the tail's temporaries are gone; a view would keep
                # the weighted stack alive
                rows[k][i] = weighted[0].copy()
            moduli = weighted = None  # only the rows outlive a function's blocks
        columns = []
        for params, space_rows in zip(params_seq, rows):
            norms = _morrey_norms(space_rows, spec, params.pair, sampler)
            column = [low + tail for low, tail in zip(norms[:n], norms[n:])]
            if np.inf in column:
                raise ParameterError("the TLM norm overflows float64")
            columns.append(column)
        return [[column[i] for column in columns] for i in range(n)]
    except (ParameterError, BandCoverageError):
        # an earlier function that fails alone raises its own error here;
        # if none does, the error came from the last function
        for f in fs[:-1]:
            _tlm_norms([f], family, params_seq, sampler)
        raise


def tlm_norm(f: GridFunction, family: LPFamily, params: SpaceParams,
             sampler: WindowSampler) -> float:
    """Triebel-Lizorkin-Morrey norm over the sampler's window family."""
    return _tlm_norms([f], family, (params,), sampler)[0][0]


def diamond_tail(f: GridFunction, family: LPFamily, params: SpaceParams,
                 sampler: WindowSampler, n_terms: int) -> float:
    """Norm of the reconstruction remainder f - sum_{j<=n_terms} phi_j(D) f.

    Vanishes identically once n_terms reaches the band exponent of a
    band-limited f; its decay in n_terms is the convergence half of the
    tail criterion.
    """
    remainder = f - reconstruct(family, f, n_terms)
    return tlm_norm(remainder, family, params, sampler)


def diamond_criterion(f: GridFunction, family: LPFamily, params: SpaceParams,
                      sampler: WindowSampler) -> VerificationReport:
    """Decide the vanishing-tail test: does the gated tail norm die out?

    For each size cutoff ``a`` in DIAMOND_CUTOFFS the Morrey norm of the
    truncated square function T_J f is tracked as the start band J sweeps
    0..j_max.  Verdict "pass" (consistent with membership) if for every
    cutoff the final norm has dropped below DIAMOND_REL_TOL times the
    initial one (or everything is zero); otherwise "not-decided": at this
    resolution the tail persists.  Cutoffs whose gates are equal have equal
    tails, so they share one scan and one norm sequence.
    """
    t0 = time.perf_counter()
    sequences = {}
    decided = True
    worst_first = 0.0
    worst_last = 0.0
    tails = truncated_square_function(f, family, params.r, params.s, DIAMOND_CUTOFFS)
    scans = {}  # by the identity of a tail list; cutoffs with equal gates share one
    for a, cutoff_tails in zip(DIAMOND_CUTOFFS, tails):
        if id(cutoff_tails) not in scans:
            scans[id(cutoff_tails)] = _morrey_norms(cutoff_tails, f.spec, params.pair, sampler)
        norms = scans[id(cutoff_tails)]
        sequences[a] = norms
        first, last = norms[0], norms[-1]
        worst_first = max(worst_first, first)
        worst_last = max(worst_last, last)
        if first > 0.0 and last > DIAMOND_REL_TOL * first:
            decided = False
    verdict = "pass" if decided else "not-decided"
    return VerificationReport(
        check="diamond-tail-criterion",
        parameters={"p": params.p, "q": params.q, "r": params.r, "s": params.s,
                    "cutoffs": list(DIAMOND_CUTOFFS),
                    "start_bands": list(range(family.j_max + 1))},
        lhs=worst_last,
        rhs=DIAMOND_REL_TOL * max(worst_first, 1.0),
        ratio=safe_ratio(worst_last, worst_first),
        verdict=verdict,
        runtime=time.perf_counter() - t0,
        details={"norm_sequences": {repr(a): seq for a, seq in sequences.items()}},
    )


def persistent_block_function(spec: GridSpec, family: LPFamily,
                              s: float = 0.0) -> GridFunction:
    """Synthetic function whose dyadic blocks persist up to the top band.

    One cosine per band at radial frequency 3*2^(j-1) (frequency 1 for the
    base band), amplitude 2^(-js), so 2^{js}|phi_j(D)f| has unit peak for
    every j.  The gated tail norm of this function stays bounded away from
    zero however far the start band is pushed: the counter-profile for the
    tail criterion.
    """
    coeffs = np.zeros(spec.shape, dtype=np.complex128)
    half_peak = np.sqrt(spec.size) / 2.0
    for j in range(family.j_max + 1):
        target = 1.0 if j == 0 else 3.0 * 2.0 ** (j - 1)
        k = int(round(target * spec.length / (2.0 * np.pi)))
        if k < 1 or 2.0 * np.pi * k / spec.length > spec.nyquist:
            raise ParameterError(f"band {j} frequency {target:g} not on the grid")
        if math.log2(half_peak) - j * s >= _MAX_EXP:
            raise ParameterError(
                f"band {j} amplitude sqrt(N)/2 * 2^(-js) overflows float64 at s={s:g}"
            )
        if -j * s < _MIN_EXP:  # a subnormal 2^(-js) loses the band's bits
            raise ParameterError(
                f"band {j} amplitude 2^(-js) is below float64's normal range at s={s:g}"
            )
        amp = half_peak * 2.0 ** (-j * s)
        idx_pos = (k,) + (0,) * (spec.dim - 1)
        idx_neg = (spec.points - k,) + (0,) * (spec.dim - 1)
        coeffs[idx_pos] = amp
        coeffs[idx_neg] = amp
    values = np.fft.ifftn(coeffs, norm="ortho").real
    return GridFunction(spec, values, spectrum=coeffs)
