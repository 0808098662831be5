"""Discrete Hardy-Littlewood maximal operator and vector inequalities.

Mf(x) is the largest average of |f| over the windows of a
:class:`WindowSampler` centered at x, the window family the Morrey scan
uses (cube or ball, torus wrap), centered at every grid point.  Averages
divide by the discrete point count of the window so that constants are
reproduced exactly; the single-point window is always included, so
Mf >= |f| pointwise.

The two checks wrap estimates whose constants are not computable
a priori: the Fefferman-Stein-type vector bound

    || (sum_j (M f_j)^r)^(1/r) ||_{M^p_q} <= C || (sum_j |f_j|^r)^(1/r) ||_{M^p_q}

and the stability of band sums under re-projection,

    || (sum_{l>=1} |phi_l(D) sum_j phi_j(D) g_j|^r)^(1/r) ||_{M^p_q}
        <= C || (sum_j |g_j|^r)^(1/r) ||_{M^p_q}.

Both return the empirical ratio; the suites gate it against a calibrated
constant.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .grid import GridFunction, GridSpec, _ldexp, _rescale_exponent
from .lpaley import LPFamily, project_all
from .morrey import (
    LebesguePair,
    WindowSampler,
    _lr_aggregate,
    _morrey_norms,
    _shared_spec,
    _window_plan,
    window_count,
    window_sum,
)
from .report import safe_ratio

__all__ = [
    "hl_maximal",
    "vector_maximal_check",
    "projection_stability_check",
    "multiplier_maximal_ratio",
]

# perfbench/workloads.py builds its maximal windows with
# ``MaximalConfig.dyadic``; the operator scans a plain WindowSampler.
MaximalConfig = WindowSampler


def _maximal_array(modulus: np.ndarray, spec: GridSpec,
                   sampler: WindowSampler) -> np.ndarray:
    sampler.validate_against(spec)
    # window sums reach size times the peak (size^2 inside a ball window's
    # FFT convolution); averages are 1-homogeneous, so rescale exactly
    e = _rescale_exponent(float(modulus.max()), 1.0, float(modulus.size) ** 2)
    if e:
        return np.ldexp(_maximal_array(np.ldexp(modulus, -e), spec, sampler), e)
    best = modulus.copy()  # the single-point window
    plan = _window_plan(spec, modulus, sampler.window_shape)
    for radius in sampler.radii:
        count = window_count(spec, sampler.window_shape, radius)
        avg = window_sum(spec, modulus, sampler.window_shape, radius, plan=plan) / count
        np.maximum(best, avg, out=best)
    return best


def hl_maximal(f: GridFunction, sampler: WindowSampler) -> GridFunction:
    """Pointwise maximal window average of |f| (real-valued output)."""
    return GridFunction(f.spec, _maximal_array(f.modulus(), f.spec, sampler))


def vector_maximal_check(fs, r: float, pq: LebesguePair,
                         sampler: WindowSampler) -> float:
    """Empirical ratio of the vector maximal inequality on one tuple.

    ``sampler`` is both the maximal operator's window family and the
    Morrey norm's.
    """
    fs = list(fs)
    spec = _shared_spec(fs)
    moduli = [f.modulus() for f in fs]
    maxed = [_maximal_array(m, spec, sampler) for m in moduli]
    lhs, rhs = _morrey_norms([_lr_aggregate(maxed, r), _lr_aggregate(moduli, r)],
                             spec, pq, sampler)
    return safe_ratio(lhs, rhs)


def projection_stability_check(gs, family: LPFamily, start_band: int, r: float,
                               pq: LebesguePair,
                               sampler: WindowSampler) -> float:
    """Empirical ratio for re-projected band sums.

    ``gs[i]`` rides band ``start_band + i``; the bands must fit under the
    family's top band.  The left side re-projects the combined function
    through every band l >= 1 and aggregates in l; the right side
    aggregates the raw inputs.
    """
    gs = list(gs)
    spec = _shared_spec(gs)
    if start_band < 1:
        raise ParameterError(f"start_band must be >= 1, got {start_band}")
    top = start_band + len(gs) - 1
    if top > family.j_max:
        raise ParameterError(
            f"bands {start_band}..{top} exceed family top band {family.j_max}"
        )

    coeffs = sum(
        family.multipliers[start_band + i] * g.coeffs()
        for i, g in enumerate(gs)
    )
    combined = GridFunction(spec, np.fft.ifftn(coeffs, norm="ortho"),
                            spectrum=coeffs)
    lhs_stack = np.abs(project_all(family, combined)[1:])
    rhs_stack = [g.modulus() for g in gs]
    lhs, rhs = _morrey_norms([_lr_aggregate(lhs_stack, r), _lr_aggregate(rhs_stack, r)],
                             spec, pq, sampler)
    return safe_ratio(lhs, rhs)


def multiplier_maximal_ratio(f: GridFunction, family: LPFamily,
                             sampler: WindowSampler) -> float:
    """max over bands and points of |phi_l(D) f| / Mf.

    Finite because the window family includes the full torus, so Mf > 0
    wherever f is not identically zero; returns 0 for the zero function.
    """
    modulus = f.modulus()
    peak = float(modulus.max())
    if peak == 0.0:
        return 0.0
    # 0-homogeneous: rescale samples whose transforms would leave float64
    e = _rescale_exponent(peak, 1.0, f.spec.size)
    if e:
        return multiplier_maximal_ratio(_ldexp(f, -e), family, sampler)
    maximal = _maximal_array(modulus, f.spec, sampler)
    return float(np.max(np.abs(project_all(family, f)) / maximal))
