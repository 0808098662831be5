"""The analytic family for complex interpolation between two smoothness spaces.

Given endpoint parameter tuples (p_l, q_l, r_l, s_l), l = 0, 1, with
p_0 > p_1, 1 < r_l <= inf, and a shared Morrey ratio p_0/q_0 = p_1/q_1,
the interpolated tuple at theta in (0,1) is defined by harmonic
interpolation of p, q, r (1/r = 0 when both r_l are infinite) and linear
interpolation of s.

The holomorphic family F(z) through a fixed base function f (pre-scaled
to norm 1) is built from the dyadic blocks b_nu = phi_nu(D) f and their
running l^r sums

    V_nu = ( sum_{j<=nu} |2^{js} b_j|^r )^(1/r)        (derived r, s).

It splits the modulation across four affine exponents rho_1..rho_4
(zero, zero, zero, one at theta):

    F(z) = sum_nu phi_nu(D) [ 2^(nu rho_1(z)) V_nu^rho_2(z)
                               ||f||^rho_3(z) sgn(b_nu) |b_nu|^rho_4(z) ].

The pre-scaled base has norm 1 (or 0, and then every band and F vanish),
so the factor ||f||^rho_3(z) is 1 and is not computed.  With equal
endpoint r's and s's, rho_1 = 0 and rho_4 = 1 identically, and F is
HNS15's single-exponent family sum_nu phi_nu(D) [ V_nu^rho_2(z) b_nu ].
Either multiplier flavor is accepted: the square-root flavor makes
F(theta) = sum phi_nu(D) phi_nu(D) f = f exactly, and with the plain
flavor F(theta) differs from f by a measurable defect that callers report
rather than hide.

Powers of vanishing bases follow one convention: 0^w = 0 for every w.
Since |2^{nu s} b_nu| <= V_nu pointwise, a vanishing base always comes
with a vanishing cofactor, so the convention never changes a value; it
only keeps intermediates finite.  Every exponent is affine in z, so where
both bases are nonzero the family stores, per band, the carrier sgn b_nu
and the band's exponent as its value at z = 0 and its real slope in z; an
evaluation is one exponential per live point, j_max + 1 FFTs and one
inverse FFT.

G(z) = integral of F from theta to z (the primitive of Calderon's second
complex method, which the paper reaches through Bergh's formula) is
computed in closed form.  On each live point of band nu the integrand is
carrier * exp(E + (z - a) beta), with E the exponent at a and beta the
stored slope, and its integral over a segment [a, b] is

    carrier * exp(E) * (b - a) * exprel((b - a) beta),   exprel(w) = expm1(w)/w,

by `scalars.exprel`: one exponential and one expm1 per live point and
band, then the same j_max + 2 transforms as one evaluation of F; G
carries its spectrum.  A composite Gauss-Legendre rule, which sums
w_k F(z_k) node by node on each unit-length chunk, stays as the
independent oracle that the contour-quadrature check compares with it,
to QUAD_TOL.
The checks return numbers; the suites module turns them into verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import GridFunction
from .lpaley import LPFamily, project_all
from .morrey import WindowSampler, _lr_aggregate
from .report import safe_ratio
from .scalars import exprel
from .spaces import SpaceParams, _tlm_norms, _weighted_blocks, tlm_norm

__all__ = [
    "InterpSetup",
    "AnalyticFamily",
    "make_setup",
    "rho",
    "build_analytic_family",
    "family_F",
    "family_G",
    "segment_integral",
    "sum_space_proxy",
    "boundary_lipschitz_check",
    "global_growth_check",
    "holder_interpolation_check",
    "holomorphy_residual",
]

QUAD_NODES = 32  # Gauss-Legendre nodes per unit-length chunk of the oracle rule
QUAD_TOL = 1e-9  # relative l2 gap allowed between an oracle rule and the closed form
HOLOMORPHY_PROBES = 20  # random functionals of the Cauchy-Riemann probe
HOLOMORPHY_STEP = 2e-4  # larger stencil step of its difference quotients (and half of it)


@dataclass(frozen=True)
class InterpSetup:
    """Endpoint tuples, the interpolation weight, and the derived tuple."""

    theta: float
    end0: SpaceParams
    end1: SpaceParams
    mid: SpaceParams

    @property
    def endpoints(self) -> tuple:
        return (self.end0, self.end1)


def make_setup(theta: float, end0: SpaceParams, end1: SpaceParams) -> InterpSetup:
    """Validate endpoint compatibility and derive the middle tuple."""
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta must lie in (0,1), got {theta}")
    if not end0.p > end1.p:
        raise ParameterError(
            f"first endpoint p must exceed second, got {end0.p} <= {end1.p}"
        )
    ratio0, ratio1 = end0.p / end0.q, end1.p / end1.q
    if abs(ratio0 - ratio1) > 1e-12 * ratio0:
        raise ParameterError(
            f"endpoints need a shared p/q ratio, got {ratio0} vs {ratio1}"
        )
    p = 1.0 / ((1.0 - theta) / end0.p + theta / end1.p)
    q = 1.0 / ((1.0 - theta) / end0.q + theta / end1.q)
    inv_r = (1.0 - theta) / end0.r + theta / end1.r
    r = 1.0 / inv_r if inv_r > 0.0 else np.inf
    s = (1.0 - theta) * end0.s + theta * end1.s
    mid = SpaceParams(p, q, r, s)
    p_gap = p / end1.p - p / end0.p
    if not p_gap > 0:
        raise ParameterError(f"derived p gap must be positive, got {p_gap}")
    return InterpSetup(theta, end0, end1, mid)


def _rho_endpoint(setup: InterpSetup, k: int, l: int) -> float:
    end = setup.endpoints[l]
    mid = setup.mid
    # r/r_l, in the limit 1 when r = r_l = inf (r is finite unless both r_l are)
    r_ratio = 1.0 if np.isinf(mid.r) else mid.r / end.r
    if k == 1:
        return mid.s * r_ratio - end.s
    if k == 2:
        return mid.p / end.p - r_ratio
    if k == 3:
        return 1.0 - mid.p / end.p
    if k == 4:
        return r_ratio
    raise ParameterError(f"exponent index must be 1..4, got {k}")


def rho(setup: InterpSetup, k: int, z: complex) -> complex:
    """Affine exponent rho_k(z); rho_1..3 vanish and rho_4 is 1 at theta."""
    lo = _rho_endpoint(setup, k, 0)
    hi = _rho_endpoint(setup, k, 1)
    return (1.0 - z) * lo + z * hi


@dataclass(frozen=True)
class _Band:
    """What the exponentials of one band need, on the points where it lives.

    live: flat indices where both b_nu and V_nu are nonzero; elsewhere the
    band's term is zero under the 0^w = 0 convention.  carrier: sgn b_nu
    there.  The band's term there is carrier * exp(at0 + z slope): at0 is
    its exponent at z = 0 and slope the real rate of change in z.
    """

    live: np.ndarray
    carrier: np.ndarray
    at0: np.ndarray
    slope: np.ndarray


@dataclass(frozen=True)
class AnalyticFamily:
    """Cached band exponents of the base function for one setup."""

    setup: InterpSetup
    lp_family: LPFamily
    base: GridFunction
    bands: tuple  # one _Band per block phi_nu(D) base


def _band(setup: InterpSetup, nu: int, block: np.ndarray, aggregate: np.ndarray) -> _Band:
    b, v = block.ravel(), aggregate.ravel()
    mod = np.abs(b)
    live = np.flatnonzero((v > 0.0) & (mod > 0.0))
    log_v, log_b = np.log(v[live]), np.log(mod[live])
    at0, at1 = (rho(setup, 1, z) * (nu * np.log(2.0))
                + (rho(setup, 2, z) * log_v + rho(setup, 4, z) * log_b)
                for z in (0.0, 1.0))
    return _Band(live, b[live] / mod[live], at0, at1 - at0)


def build_analytic_family(setup: InterpSetup, f: GridFunction, lp_family: LPFamily,
                          sampler: WindowSampler) -> AnalyticFamily:
    """Project f onto the bands and cache each band's affine exponent,
    built from the running l^r sums V_nu.

    The base function is pre-scaled to unit middle norm (the construction
    assumes it).
    """
    scale = tlm_norm(f, lp_family, setup.mid, sampler)
    base = f * (1.0 / scale) if scale > 0.0 else f
    blocks = project_all(lp_family, base)
    weighted = _weighted_blocks(lp_family, base, setup.mid.s)
    bands = tuple(_band(setup, nu, b, _lr_aggregate(weighted[:nu + 1], setup.mid.r))
                  for nu, b in enumerate(blocks))
    return AnalyticFamily(setup, lp_family, base, bands)


def _synthesize(fam: AnalyticFamily, band_term, what: str) -> GridFunction:
    """sum_nu phi_nu(D) t_nu, where band_term(band) gives t_nu on the
    band's live points (zero elsewhere): one FFT per band with live points
    and one inverse FFT.  Raises ParameterError naming ``what`` if the
    result leaves float64."""
    spec = fam.base.spec
    acc = np.zeros(spec.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for band, mult in zip(fam.bands, fam.lp_family.multipliers):
            if band.live.size == 0:
                continue
            term = np.zeros(spec.size, dtype=np.complex128)
            term[band.live] = band_term(band)
            acc += mult * np.fft.fftn(term.reshape(spec.shape), norm="ortho")
        values = np.fft.ifftn(acc, norm="ortho")
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"{what} overflows float64")
    return GridFunction(spec, values, spectrum=acc)


def family_F(fam: AnalyticFamily, z: complex) -> GridFunction:
    """The analytic family at z; it reduces to the base at theta."""
    z = complex(z)

    def band_term(band):
        return band.carrier * np.exp(band.at0 + z * band.slope)

    return _synthesize(fam, band_term, f"the family value at z={z}")


def segment_integral(fam: AnalyticFamily, z_from: complex, z_to: complex) -> GridFunction:
    """integral of F along the straight segment from z_from to z_to, exactly.

    On a live point of band nu the integrand is carrier * exp(E + t beta),
    t = z - z_from, with E = at0 + z_from slope the exponent at z_from and
    beta = slope, so the integral is carrier * exp(E) * d * exprel(d beta) with
    d = z_to - z_from.  Each point is anchored at the end where its
    exponent has the larger real part (there exprel's argument has real
    part <= 0 and |exprel| <= 1), so no intermediate leaves float64 unless
    the integrand does.  The result carries its spectrum.
    """
    z_from, z_to = complex(z_from), complex(z_to)
    if z_to == z_from:
        zeros = np.zeros(fam.base.spec.shape, dtype=np.complex128)
        return GridFunction(fam.base.spec, zeros, spectrum=zeros)
    d = z_to - z_from

    def band_term(band):
        expo = band.at0 + z_from * band.slope
        w = d * band.slope
        rising = w.real > 0.0
        expo = np.where(rising, expo + w, expo)
        w = np.where(rising, -w, w)
        return band.carrier * np.exp(expo) * d * exprel(w)

    return _synthesize(fam, band_term, f"G on the segment [{z_from}, {z_to}]")


def _segment_quadrature(fam: AnalyticFamily, z_from: complex, z_to: complex,
                        n_nodes: int) -> GridFunction:
    """The oracle for segment_integral: composite Gauss-Legendre, n_nodes
    per unit-length chunk (so the node count tracks the oscillation of the
    integrand up the strip), summing w_k F(z_k) node by node."""
    z_from, z_to = complex(z_from), complex(z_to)
    rule = np.polynomial.legendre.leggauss(n_nodes)
    n_chunks = max(1, int(np.ceil(abs(z_to - z_from))))
    cuts = [z_from + (z_to - z_from) * k / n_chunks for k in range(n_chunks + 1)]
    acc = np.zeros(fam.base.spec.shape, dtype=np.complex128)
    for za, zb in zip(cuts[:-1], cuts[1:]):
        half = (zb - za) / 2.0
        for x, w in zip(*rule):
            acc += (w * half) * family_F(fam, za + half * (x + 1.0)).values
    return GridFunction(fam.base.spec, acc)


def family_G(fam: AnalyticFamily, z: complex) -> GridFunction:
    """G(z) = integral from theta to z of F, in closed form; G(theta) is
    exactly zero."""
    return segment_integral(fam, fam.setup.theta, z)


def sum_space_proxy(g: GridFunction, lp_family: LPFamily, end0: SpaceParams,
                    end1: SpaceParams, sampler: WindowSampler) -> float:
    """Upper proxy for the sum-space norm of g.

    Minimum of ||g_low||_0 + ||g_high||_1 over the one-parameter family
    of sharp frequency splits at radii 2^K (plus the two trivial splits).
    An upper bound for the true infimum over all decompositions, monotone
    under enlarging the split family.
    """
    coeffs = g.coeffs()
    lows = []
    for level in range(lp_family.j_max + 1):
        low_part = np.where(g.spec.dyadic_ball(level), coeffs, 0)
        lows.append(GridFunction(g.spec, np.fft.ifftn(low_part, norm="ortho"),
                                 spectrum=low_part))
    # g itself heads both corpora: the two trivial splits
    norms0 = _tlm_norms([g, *lows], lp_family, (end0,), sampler)
    norms1 = _tlm_norms([g, *(g - low for low in lows)], lp_family, (end1,), sampler)
    splits = [low[0] + high[0] for low, high in zip(norms0[1:], norms1[1:])]
    return min([norms0[0][0], norms1[0][0], *splits])


def boundary_lipschitz_check(fam: AnalyticFamily, side: int, t_pairs,
                             sampler: WindowSampler) -> list:
    """Lipschitz ratios of G along one boundary line Re z = side.

    For each pair (t1, t2) the difference G(side+it1) - G(side+it2) is a
    single segment integral of F; its endpoint-space norm divided by
    |t1 - t2| is the empirical Lipschitz ratio.  Returns the ratios in
    pair order.
    """
    if side not in (0, 1):
        raise ParameterError(f"side must be 0 or 1, got {side}")
    params = fam.setup.endpoints[side]
    t_pairs = list(t_pairs)
    diffs = []
    for t_a, t_b in t_pairs:
        if t_a == t_b:
            raise ParameterError("need distinct boundary points")
        diffs.append(segment_integral(fam, side + 1j * t_b, side + 1j * t_a))
    norms = _tlm_norms(diffs, fam.lp_family, (params,), sampler)
    return [norm / abs(t_a - t_b) for (norm,), (t_a, t_b) in zip(norms, t_pairs)]


def global_growth_check(fam: AnalyticFamily, z_samples,
                        sampler: WindowSampler) -> list:
    """proxy-sum-norm(G(z)) / (1+|z|) at each sample z, normalized.

    The normalizer is ||f||^(p/p_0) + ||f||^(p/p_1) (2 after pre-scaling, 0 for f = 0).
    """
    setup = fam.setup
    denom = 2.0 if np.any(fam.base.values) else 0.0
    values = []
    for z in z_samples:
        g = family_G(fam, z)
        proxy = sum_space_proxy(g, fam.lp_family, setup.end0, setup.end1, sampler)
        values.append(safe_ratio(proxy / (1.0 + abs(complex(z))), denom))
    return values


def holder_interpolation_check(setup: InterpSetup, fs, lp_family: LPFamily,
                               sampler: WindowSampler) -> float:
    """Worst ratio of the norm interpolation inequality on a corpus:

        ||g||_mid / (||g||_0^(1-theta) ||g||_1^theta),

    which the inequality bounds by 1.
    """
    fs = list(fs)
    if not fs:
        raise ParameterError("need at least one function")
    worst = 0.0
    for n_mid, n0, n1 in _tlm_norms(fs, lp_family, (setup.mid, *setup.endpoints), sampler):
        bound = n0 ** (1.0 - setup.theta) * n1**setup.theta
        worst = max(worst, safe_ratio(n_mid, bound))
    return worst


def holomorphy_residual(fam: AnalyticFamily, z: complex, seed: int = 0) -> float:
    """Largest relative Cauchy-Riemann residual of z -> <G(z), w>.

    Probes the increments G(z + dz) - G(z), each one segment integral
    (so no large constant G(z) is rounded away in the differences),
    against HOLOMORPHY_PROBES random functionals w (grid inner products)
    on 5-point stencils of steps h = HOLOMORPHY_STEP and h/2.
    For a holomorphic u the symmetric quotients give
    du/dx + i du/dy = h^2 u'''/3 + O(h^6), a truncation error that grows
    with the square of the exponents' slopes; the extrapolated residual
    (4 r(h/2) - r(h)) / 3 cancels it, while a map that is not holomorphic
    keeps its O(1) residual 2 du/dzbar.
    """
    z = complex(z)
    rng = np.random.default_rng(seed)
    spec = fam.base.spec
    steps = (HOLOMORPHY_STEP, HOLOMORPHY_STEP / 2.0)
    stencil = {}
    for step in steps:
        for dz in (step, -step, 1j * step, -1j * step):
            stencil[dz] = segment_integral(fam, z, z + dz).values
    hn = spec.cell_volume
    worst = 0.0
    for _ in range(HOLOMORPHY_PROBES):
        w = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        u = {dz: hn * np.vdot(w, g) for dz, g in stencil.items()}
        residuals = []
        for step in steps:
            du_dx = (u[step] - u[-step]) / (2.0 * step)
            du_dy = (u[1j * step] - u[-1j * step]) / (2.0 * step)
            residuals.append(du_dx + 1j * du_dy)
        residual = abs(4.0 * residuals[1] - residuals[0]) / 3.0
        scale = max(abs(du_dx), abs(du_dy), 1e-300)
        worst = max(worst, residual / scale)
    return worst
