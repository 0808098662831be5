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

Psi_kappa is evaluated by adaptive quadrature after the substitution
s = u^2, which tames the s^(kappa-1) endpoint; the integrand's log factor
is assembled from |log u| directly so it never overflows.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import ParameterError, QuadratureError
from .report import VerificationReport, safe_ratio

__all__ = [
    "PhiPsiParams",
    "phi_kappa",
    "psi_kappa",
    "sequence_power_margin",
    "log_damping_complex_check",
    "log_damping_imag_check",
    "summation_bound_check",
    "psi_tail_bound_check",
    "exp_log_bound_check",
]

# series/direct crossover for removable singularities at s = 1 (w = z log s)
_SERIES_CUT = 1e-4


@dataclass(frozen=True)
class PhiPsiParams:
    kappa: float
    r: float = 1.0

    def __post_init__(self) -> None:
        if not (self.kappa > 0 and np.isfinite(self.kappa)):
            raise ParameterError(f"kappa must be positive, got {self.kappa}")
        if not (1.0 <= self.r < np.inf):
            raise ParameterError(f"need 1 <= r < inf, got r={self.r}")


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


def _psi_integrand_u(u: float, kappa: float, r: float) -> float:
    # integrand of Psi after s = u^2: 2 u^(2k-1) / log(u^(2/r)+u^(-2/r))^r
    al = abs(np.log(u)) * (2.0 / r)
    lg = al + np.log1p(np.exp(-2.0 * al))
    return 2.0 * u ** (2.0 * kappa - 1.0) / lg**r


def psi_kappa(t: float, params: PhiPsiParams, tol: float = 1e-10) -> float:
    """Psi_kappa(t) by adaptive quadrature; absolute tolerance ``tol``."""
    if t < 0 or not np.isfinite(t):
        raise ParameterError(f"psi_kappa needs finite t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    top = float(np.sqrt(t))
    interior = [1.0] if top > 1.0 else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integrate.IntegrationWarning)
        value, abserr = integrate.quad(
            _psi_integrand_u, 0.0, top, args=(params.kappa, params.r),
            points=interior, limit=200, epsabs=min(tol, 1e-12), epsrel=1e-12,
        )
    bad = [w for w in caught if issubclass(w.category, integrate.IntegrationWarning)]
    if bad and abserr > tol:
        raise QuadratureError(
            f"Psi quadrature did not converge at t={t:g}: {bad[0].message}"
        )
    if abserr > max(tol, 1e-11 * abs(value)):
        raise QuadratureError(
            f"Psi quadrature error {abserr:.2e} above tolerance at t={t:g}"
        )
    return value


def sequence_power_margin(a: np.ndarray, kappa: float):
    """(lhs, rhs) of the power-sum bound for one nonnegative sequence."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ParameterError("need a 1-d nonempty sequence")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ParameterError("sequence entries must be finite and nonnegative")
    total = float(a.sum())
    if total == 0.0:
        raise ParameterError("the bound requires at least one nonzero entry")
    prefix = np.cumsum(a)
    live = a > 0
    lhs = float(np.sum(a[live] * prefix[live] ** (kappa - 1.0)))
    rhs = total**kappa / min(kappa, 1.0)
    return lhs, rhs


def _default_s_grid(n_points: int) -> np.ndarray:
    """Grid in (0,1): dyadic decay to 2^-40 plus an approach to 1."""
    decay = 2.0 ** np.linspace(-40.0, -1.0, n_points)
    near_one = 1.0 - 10.0 ** np.linspace(-12.0, -0.31, n_points)
    return np.unique(np.concatenate([decay, near_one]))


def _refine_grid(grid: np.ndarray) -> np.ndarray:
    mids = np.sqrt(grid[:-1] * grid[1:])
    return np.unique(np.concatenate([grid, mids]))


def _refined_sup_report(check: str, parameters: dict, sup_on, s_grid,
                        stability_tol: float, t0: float) -> VerificationReport:
    """Sup of ``sup_on`` over an s grid in (0,1) (default 200 points) and
    over its geometric refinement: "pass" when the two agree within
    ``stability_tol`` relatively (the constant is stable), "not-decided"
    otherwise."""
    grid = _default_s_grid(200) if s_grid is None else np.asarray(s_grid, float)
    if np.any((grid <= 0) | (grid >= 1)):
        raise ParameterError("s grid must lie in (0,1)")
    sup1 = sup_on(grid)
    sup2 = sup_on(_refine_grid(grid))
    stable = abs(sup2 - sup1) <= stability_tol * max(sup2, 1e-300)
    return VerificationReport(
        check=check, parameters={**parameters, "n_points": int(grid.size)},
        lhs=sup2, rhs=sup1, ratio=safe_ratio(sup2, max(sup1, 1e-300)),
        verdict="pass" if stable else "not-decided",
        empirical_constant=sup2,
        runtime=time.perf_counter() - t0,
    )


def _power_ratio_small_s(z: complex, r: float, s: np.ndarray) -> np.ndarray:
    """|(s^z - 1)/log(s^r)| * log(s + 1/s), series-stabilized near s = 1."""
    ls = np.log(s)
    w = z * ls
    direct_mask = np.abs(w) >= _SERIES_CUT
    quot = np.empty(s.shape, dtype=np.complex128)
    quot[direct_mask] = (np.exp(w[direct_mask]) - 1.0) / (r * ls[direct_mask])
    small = ~direct_mask
    if np.any(small):
        # (e^w - 1)/(r log s) = (z/r) sum_{n>=0} w^n/(n+1)!
        ws = w[small]
        series = np.zeros(ws.shape, dtype=np.complex128)
        term = np.ones(ws.shape, dtype=np.complex128)
        for n in range(1, 9):
            series += term
            term = term * ws / (n + 1.0)
        quot[small] = (z / r) * series
    return np.abs(quot) * _log_s_plus_inv(s)


def log_damping_complex_check(z: complex, r: float, s_grid=None,
                              stability_tol: float = 0.1) -> VerificationReport:
    """Empirical C_z for the log-damping bound, both sides of s = 1.

    Evaluates |(s^z-1)/log(s^r)| * log(s+1/s) on a grid in (0,1) and its
    reciprocal image in (1,inf) with s^-z, takes the sup, and re-evaluates
    on a geometrically refined grid.  Verdict "pass" when the two sups
    agree within ``stability_tol`` relatively (the constant is stable),
    "not-decided" otherwise.
    """
    t0 = time.perf_counter()
    z = complex(z)
    if z.real < 0:
        raise ParameterError(f"need Re(z) >= 0, got {z}")
    if not 1.0 <= r < np.inf:
        raise ParameterError(f"need 1 <= r < inf, got {r}")

    # the s > 1 branch with s^-z maps onto the (0,1) branch under s -> 1/s
    # (log(s^r) flips sign inside |.|, log(s + 1/s) is invariant), so one
    # scan of (0,1) covers both inequalities
    def sup_on(g: np.ndarray) -> float:
        return float(_power_ratio_small_s(z, r, g).max())

    return _refined_sup_report("log-damping-complex", {"z": repr(z), "r": r},
                               sup_on, s_grid, stability_tol, t0)


def log_damping_imag_check(t: float, r: float, s_grid=None,
                           stability_tol: float = 0.1) -> VerificationReport:
    """Empirical C_t for the purely imaginary exponent s^(it), s != 1."""
    t0 = time.perf_counter()
    if not np.isfinite(t):
        raise ParameterError(f"t must be finite, got {t}")
    if not 1.0 <= r < np.inf:
        raise ParameterError(f"need 1 <= r < inf, got {r}")

    # |s^it - 1| = 2|sin(t log s / 2)| exactly, and every factor is
    # invariant under s -> 1/s, so scanning (0,1) covers all s != 1
    def sup_on(g: np.ndarray) -> float:
        ls = np.log(g)
        lhs = 2.0 * np.abs(np.sin(t * ls / 2.0)) / (r * np.abs(ls))
        return float(np.max(lhs * _log_s_plus_inv(g)))

    return _refined_sup_report("log-damping-imag", {"t": t, "r": r},
                               sup_on, s_grid, stability_tol, t0)


def summation_bound_check(a, params: PhiPsiParams) -> VerificationReport:
    """Empirical ratio of the Phi/Psi summation bound on one sequence."""
    t0 = time.perf_counter()
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ParameterError("need a 1-d nonempty sequence")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ParameterError("sequence entries must be finite and nonnegative")
    powers = a**params.r
    total = float(powers.sum())
    if total == 0.0:
        raise ParameterError("the bound requires at least one nonzero entry")
    prefix = np.cumsum(powers) ** (1.0 / params.r)
    live = a > 0
    lhs = float(np.sum((a[live] * phi_kappa(prefix[live], params)) ** params.r))
    rhs = psi_kappa(total, params)
    ratio = safe_ratio(lhs, rhs)
    return VerificationReport(
        check="phi-summation-bound",
        parameters={"kappa": params.kappa, "r": params.r, "n_terms": int(a.size)},
        lhs=lhs, rhs=rhs, ratio=ratio, verdict="not-decided",
        empirical_constant=ratio,
        runtime=time.perf_counter() - t0,
    )


def psi_tail_bound_check(t: float, a: float, params: PhiPsiParams,
                         slack: float = 1e-8) -> VerificationReport:
    """Exact tail bound for Psi_kappa(t^r) outside [a, 1/a]."""
    t0 = time.perf_counter()
    if not 0.0 < a < 1.0:
        raise ParameterError(f"need a in (0,1), got {a}")
    if not (0.0 < t < a or t > 1.0 / a):
        raise ParameterError(f"t={t:g} must lie in (0,{a:g}) or ({1 / a:g},inf)")
    kappa, r = params.kappa, params.r
    lhs = psi_kappa(t**r, params)
    log_a_term = float(_log_s_plus_inv(a ** (1.0 / r)))
    rhs = (a ** ((r - 1.0) * kappa) + log_a_term**-r) * t ** (r * kappa) \
        / (kappa * np.log(2.0) ** r)
    verdict = "pass" if lhs <= rhs * (1.0 + slack) else "fail"
    return VerificationReport(
        check="psi-tail-bound",
        parameters={"kappa": kappa, "r": r, "t": t, "a": a, "slack": slack},
        lhs=lhs, rhs=rhs, ratio=safe_ratio(lhs, rhs), verdict=verdict,
        runtime=time.perf_counter() - t0,
    )


def _exp_log_modulus(h: complex, t: np.ndarray) -> np.ndarray:
    """|(exp(h log t) - 1)/(h log t) - 1| with the w -> 0 limit filled in."""
    w = h * np.log(t)
    out = np.zeros(w.shape, dtype=np.float64)
    direct = np.abs(w) >= _SERIES_CUT
    out[direct] = np.abs((np.exp(w[direct]) - 1.0) / w[direct] - 1.0)
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


def exp_log_bound_check(h: complex, eps: float, n_points: int = 400,
                        stability_tol: float = 0.1) -> VerificationReport:
    """Empirical C_eps in the holomorphy modulus bound, requires eps > 2|h| > 0.

    Scans t on log grids 2^-60..1 and 1..2^60, reports
    sup t^(+-eps) |...| / |h| over both ranges, and re-checks on a doubled
    grid for stability.
    """
    t0 = time.perf_counter()
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

    sup1 = sup_on(n_points)
    sup2 = sup_on(2 * n_points)
    const = sup2 / abs(h)
    stable = abs(sup2 - sup1) <= stability_tol * max(sup2, 1e-300)
    return VerificationReport(
        check="exp-log-bound",
        parameters={"h": repr(h), "eps": eps, "n_points": n_points},
        lhs=sup2, rhs=abs(h), ratio=const,
        verdict="pass" if stable else "not-decided",
        empirical_constant=const,
        runtime=time.perf_counter() - t0,
    )
