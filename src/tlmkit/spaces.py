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

import time
from dataclasses import dataclass

import numpy as np

from .errors import BandCoverageError, ParameterError
from .grid import GridFunction, GridSpec
from .lpaley import LPFamily, project_all, reconstruct
from .morrey import LebesguePair, WindowSampler, _lr_aggregate, _morrey_norm_array
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


@dataclass(frozen=True)
class SpaceParams:
    """Exponent tuple (p, q, r, s): 1 < q <= p < inf, r in (1, inf], s real."""

    p: float
    q: float
    r: float
    s: float

    def __post_init__(self) -> None:
        if not (1.0 < self.q <= self.p < np.inf):
            raise ParameterError(f"need 1 < q <= p < inf, got p={self.p}, q={self.q}")
        if not self.r > 1.0:
            raise ParameterError(f"need r > 1 (r = inf allowed), got r={self.r}")
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
    coeffs = f.coeffs()
    total = float(np.sum(np.abs(coeffs) ** 2))
    if total == 0.0:
        return 0.0
    outside = f.spec.frequency_radius > 2.0 ** (family.j_max + 1) * (1 + 1e-12)
    return float(np.sum(np.abs(coeffs[outside]) ** 2)) / total


def ensure_band_covered(family: LPFamily, f: GridFunction) -> None:
    defect = coverage_defect(family, f)
    if defect > COVERAGE_TOL:
        raise BandCoverageError(
            f"spectral energy fraction {defect:.3e} above band 2^{family.j_max + 1}"
        )


def _weighted_blocks(family: LPFamily, f: GridFunction, s: float) -> list:
    """[|2^{js} phi_j(D) f|] for j = 0..j_max, once f is band-covered."""
    ensure_band_covered(family, f)
    blocks = project_all(family, f)
    return [2.0 ** (j * s) * np.abs(b.values) for j, b in enumerate(blocks)]


def square_function(f: GridFunction, family: LPFamily, r: float, s: float) -> GridFunction:
    """S(f) = (sum_{j>=0} |2^{js} phi_j(D) f|^r)^(1/r), pointwise."""
    agg = _lr_aggregate(_weighted_blocks(family, f, s), r)
    return GridFunction(f.spec, agg)


def truncated_square_function(f: GridFunction, family: LPFamily, r: float,
                              s: float, cutoff: float) -> list:
    """Gated tails [T_0 f, ..., T_{j_max} f] from one projection of f.

    T_J f is the aggregate over bands j >= J, gated by the indicator of
    {cutoff <= S(f) <= 1/cutoff} evaluated on the full square function.
    Each tail is a real, nonnegative array on f's grid.
    """
    if not r > 1.0:
        raise ParameterError(f"need r > 1, got {r}")
    if not 0.0 < cutoff <= 1.0:
        raise ParameterError(f"cutoff must lie in (0, 1], got {cutoff}")
    weighted = _weighted_blocks(family, f, s)
    full = _lr_aggregate(weighted, r)
    gate = (full >= cutoff) & (full <= 1.0 / cutoff)
    return [np.where(gate, _lr_aggregate(weighted[j:], r), 0.0)
            for j in range(len(weighted))]


def tlm_norm(f: GridFunction, family: LPFamily, params: SpaceParams,
             sampler: WindowSampler) -> float:
    """Triebel-Lizorkin-Morrey norm over the sampler's window family."""
    weighted = _weighted_blocks(family, f, params.s)
    low = _morrey_norm_array(weighted[0], f.spec, params.pair, sampler)
    if len(weighted) == 1:
        return low
    tail = _lr_aggregate(weighted[1:], params.r)
    return low + _morrey_norm_array(tail, f.spec, params.pair, sampler)


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
    resolution the tail persists.
    """
    t0 = time.perf_counter()
    sequences = {}
    decided = True
    worst_first = 0.0
    worst_last = 0.0
    for a in DIAMOND_CUTOFFS:
        tails = truncated_square_function(f, family, params.r, params.s, a)
        norms = [_morrey_norm_array(tail, f.spec, params.pair, sampler) for tail in tails]
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
        amp = half_peak * 2.0 ** (-j * s)
        idx_pos = (k,) + (0,) * (spec.dim - 1)
        idx_neg = (spec.points - k,) + (0,) * (spec.dim - 1)
        coeffs[idx_pos] = amp
        coeffs[idx_neg] = amp
    values = np.fft.ifftn(coeffs, norm="ortho").real
    return GridFunction(spec, values, spectrum=coeffs)
