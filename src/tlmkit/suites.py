"""Named verification suites over seeded corpora.

Every suite returns a list of :class:`VerificationReport` built here:
the library checks return numbers, and every verdict threshold is a named
constant below (``diamond_criterion`` alone decides its own verdict).
Exact inequalities carry pinned tolerances.  Estimates whose constants
the theory does not make explicit are handled in two phases:
``calibrate_constants`` measures each empirical constant on the seeded
corpus and stores it in a :class:`BaselineStore`; verification reruns the
same deterministic measurement and gates it against the baseline (10%
regression room) plus a stability probe; with no baseline constant the
verdict is "not-decided".

All randomness flows from ``SuiteConfig.seed`` through numpy's
``default_rng``; rerunning a suite with the same config reproduces every
number bit for bit, so a fresh calibration followed by verification
yields margin ratios of exactly 1.
"""

from __future__ import annotations

import dataclasses
import datetime
import time

import numpy as np

from .errors import ParameterError
from .grid import GridFunction, GridSpec, lp_norm, random_bandlimited, refine
from .interp import (
    HOLOMORPHY_PROBES,
    HOLOMORPHY_STEP,
    QUAD_NODES,
    QUAD_TOL,
    _segment_quadrature,
    boundary_lipschitz_check,
    build_analytic_family,
    family_F,
    family_G,
    global_growth_check,
    holder_interpolation_check,
    holomorphy_residual,
    make_setup,
    segment_integral,
)
from .lpaley import build_family, partition_residual, project, top_band
from .maximal import (
    multiplier_maximal_ratio,
    projection_stability_check,
    vector_maximal_check,
)
from .morrey import LebesguePair, WindowSampler, _morrey_norms, morrey_norm
from .report import BaselineStore, VerificationReport, safe_ratio
from .scalars import (
    EXP_LOG_POINTS,
    PhiPsiParams,
    _s_grids,
    _sequence_rows,
    exp_log_bound_check,
    log_damping_complex_check,
    phi_kappa,
    psi_kappa,
    psi_tail_bound_check,
    sequence_power_margin,
)
from .spaces import (
    SpaceParams,
    _tlm_norms,
    diamond_criterion,
    diamond_tail,
    persistent_block_function,
    square_function,
    tlm_norm,
)

__all__ = [
    "SuiteConfig",
    "HOLDER_SETUPS",
    "run_partition_suite",
    "run_morrey_suite",
    "run_scalar_exact_suite",
    "run_scalar_empirical_suite",
    "run_holder_suite",
    "run_interp_suite",
    "run_maximal_suite",
    "run_diamond_suite",
    "verify_all",
    "calibrate_constants",
    "reconstruction_report",
    "anchor_report",
    "holomorphy_report",
    "lipschitz_report",
    "growth_report",
    "summation_ratio",
    "unit_ball_indicator",
    "oracle_radii",
]

REGRESSION_MARGIN = 1.1  # baseline regression gate: within 10%
RESOLUTION_MARGIN = 0.2  # operator ratios: stable within 20% across N
STABILITY_TOL = 0.1  # a scanned sup is stable if its refined re-scan agrees this well
PHI_SUM_TOL = 0.1  # the phi-sum constant may grow this much (relative) from half its corpus
LIPSCHITZ_SPREAD = 3.0  # largest over smallest Lipschitz ratio of one function
EXACT_SLACK = 1e-8  # relative rounding room of the exact scalar bounds
HOLDER_SLACK = 1e-6  # relative room of the norm interpolation inequality
ROUNDOFF_TOL = 1e-12  # relative defect of the identities exact up to rounding
RECONSTRUCTION_TOL = 1e-10  # relative defect of F(theta) against f
HOLOMORPHY_TOL = 1e-6  # relative Cauchy-Riemann residual of G
DERIVATIVE_ORDER = 1.9  # least observed order of G's central difference quotient
PERSISTENCE_RATIO = 0.1  # a persistent tail keeps this share of its J = 0 norm
PARTITION_TOL = 1e-12  # telescoping residual of the multiplier partition
COLLAPSE_TOL = 1e-10  # p = q Morrey norm against the discrete L^p norm
ORACLE_TOL = 0.05  # ball-window norm of the indicator against its closed form
ORACLE_RADII = (0.5, 0.75, 1.0, 1.25, 1.5)  # ball radii around the indicator's edge
MONOTONE_SLACK = 1e-14  # rounding room of its growth as radii are added
N_SEQUENCES = 10000  # random sequences of the power-sum bound


@dataclasses.dataclass(frozen=True)
class SuiteConfig:
    """Shared defaults for the verification suites (1-d primary grid)."""

    seed: int = 20260813
    points: int = 256
    length: float = 2.0 * np.pi
    j_max: int = 6
    n_functions: int = 50
    window_shape: str = "cube"

    def spec(self) -> GridSpec:
        return GridSpec(1, self.points, self.length)

    def sampler(self) -> WindowSampler:
        return WindowSampler.dyadic(self.spec(), self.window_shape)

    def meta(self, names=None) -> dict:
        """The named fields, by default all of them, as a report's config."""
        names = names or [field.name for field in dataclasses.fields(self)]
        return {name: getattr(self, name) for name in names}


# endpoint tuples (p, q, r, s) pairs with matching p/q ratios
HOLDER_SETUPS = (
    (0.5, (8.0, 4.0, 2.0, 0.0), (4.0, 2.0, 2.0, 0.0)),
    (0.3, (8.0, 4.0, 2.0, 0.5), (4.0, 2.0, 3.0, -0.5)),
    (0.7, (6.0, 2.0, 2.5, 1.0), (4.5, 1.5, 1.5, 0.0)),
    (0.5, (10.0, 5.0, 4.0, 0.25), (5.0, 2.5, 2.0, 0.75)),
    (0.25, (8.0, 2.0, 2.0, 0.0), (6.0, 1.5, 2.0, 1.0)),
)


def _setup(entry):
    theta, e0, e1 = entry
    return make_setup(theta, SpaceParams(*e0), SpaceParams(*e1))


def _corpus(cfg: SuiteConfig, spec: GridSpec, count: int, tag: int,
            max_band: int = None) -> list:
    """Seeded mixed corpus: cycling bands, real/complex, varied scales; the top
    band stays inside the grid, covered by cfg.j_max's family, and <= max_band."""
    top = min(top_band(spec) - 1, cfg.j_max + 1)
    if max_band is not None:
        top = min(top, max_band)
    bands = list(range(max(1, top - 3), top + 1))
    out = []
    for i in range(count):
        f = random_bandlimited(
            spec, bands[i % len(bands)], cfg.seed + 1000 * tag + i,
            real_output=(i % 3 != 0),
        )
        out.append(f * float(2.0 ** ((i % 11) - 5)))
    return out


def _fmt(x) -> str:
    if np.isinf(x):
        return "inf"
    if float(x) == int(x):
        return str(int(x))
    return f"{float(x):g}"


# ------------------------------------------------------------------- gating

def _bound_report(check_id: str, parameters: dict, lhs: float, rhs: float,
                  t0: float, ok: bool = True, **fields) -> VerificationReport:
    """Report of an exact inequality with a pinned tolerance: "pass" iff
    lhs <= rhs and the check's own condition ``ok`` holds."""
    return VerificationReport(
        check=check_id, parameters=parameters, lhs=lhs, rhs=rhs,
        ratio=safe_ratio(lhs, rhs), verdict="pass" if (lhs <= rhs and ok) else "fail",
        runtime=time.perf_counter() - t0, **fields,
    )


def _gated_report(check_id: str, value: float, baseline, stable: bool,
                  t0: float, two_sided: bool = True, **fields) -> VerificationReport:
    """Report of the empirical constant ``value`` gated against the baseline.

    Without a baseline constant the verdict is "not-decided"; with one,
    "pass" needs the stability probe to hold and the value to lie within
    the regression margin (above it only when one-sided).  The report
    compares ``value`` with the baseline constant (with itself when there
    is none); ``fields`` fill in the parameters and details.
    """
    base = baseline.maybe(check_id) if baseline is not None else None
    if base is None:
        verdict = "not-decided"
    else:
        floor = base / REGRESSION_MARGIN if two_sided else -np.inf
        ok = floor <= value <= base * REGRESSION_MARGIN
        verdict = "pass" if (ok and stable) else "fail"
    ref = value if base is None else base
    return VerificationReport(
        check=check_id, lhs=value, rhs=ref, ratio=safe_ratio(value, ref),
        verdict=verdict, empirical_constant=value, baseline_constant=base,
        runtime=time.perf_counter() - t0, **fields,
    )


def _pair_report(check_id: str, consts, baseline, t0: float, parameters: dict,
                 tol: float = STABILITY_TOL, two_sided: bool = True) -> VerificationReport:
    """Gate of the fine constant of ``consts`` = (coarse, fine), two-sided
    or one-sided; the stability probe asks for a positive fine constant
    whose drift from the coarse one is at most ``tol``."""
    coarse, fine = consts
    drift = abs(safe_ratio(coarse, fine) - 1.0)
    return _gated_report(
        check_id, fine, baseline, drift <= tol and fine > 0, t0,
        two_sided=two_sided, parameters=parameters,
        details={"coarse_constant": coarse, "drift": drift},
    )


def _range_report(check_id: str, ratios, baseline, t0: float,
                  parameters: dict) -> VerificationReport:
    """Gate the range [lo, hi] of ``ratios`` against the baseline range
    (keys ``<check_id>.lo`` and ``.hi``), widened by the regression margin."""
    lo, hi = float(min(ratios)), float(max(ratios))
    base_lo = baseline.maybe(f"{check_id}.lo") if baseline else None
    base_hi = baseline.maybe(f"{check_id}.hi") if baseline else None
    if base_lo is None or base_hi is None:
        verdict = "not-decided"
    else:
        ok = lo >= base_lo / REGRESSION_MARGIN and hi <= base_hi * REGRESSION_MARGIN
        verdict = "pass" if ok else "fail"
    return VerificationReport(
        check=check_id, parameters=parameters,
        lhs=hi, rhs=lo, ratio=safe_ratio(hi, lo), verdict=verdict,
        runtime=time.perf_counter() - t0,
        details={"lo": lo, "hi": hi, "baseline_lo": base_lo, "baseline_hi": base_hi},
    )


# ----------------------------------------------------------------- partition

def run_partition_suite(cfg: SuiteConfig) -> list:
    """Telescoping residuals for both flavors on 1-d and 2-d grids."""
    reports = []
    grids = [(cfg.spec(), cfg.j_max)]
    points2 = max(cfg.points // 2, 16)
    spec2 = GridSpec(2, points2, cfg.length)
    grids.append((spec2, min(cfg.j_max, top_band(spec2))))
    for spec, j_max in grids:
        for flavor in ("plain", "square_root"):
            t0 = time.perf_counter()
            family = build_family(spec, j_max, flavor)
            residual = partition_residual(family)
            reports.append(_bound_report(
                f"partition[{flavor},{spec.dim}d]",
                {"points": spec.points, "dim": spec.dim, "j_max": j_max},
                residual, PARTITION_TOL, t0))
    return reports


# -------------------------------------------------------------------- morrey

def unit_ball_indicator(spec: GridSpec) -> GridFunction:
    """The indicator of the unit ball around the origin; its (4, 2) Morrey
    norm is |B|^(1/4)."""
    dist = sum(np.minimum(x, spec.length - x) ** 2 for x in spec.coordinates)
    return GridFunction(spec, np.sqrt(dist) <= 1.0)


def oracle_radii(spec: GridSpec, remedy: str = "raise --grid-length to at least 3") -> tuple:
    """The ball radii that resolve the indicator's norm: the dyadic ones and
    ORACLE_RADII.  ParameterError, ending in ``remedy``, if the largest
    radius exceeds L/2."""
    top = ORACLE_RADII[-1]
    if spec.length < 2.0 * top:
        raise ParameterError(
            f"the unit-ball oracle scans radii up to {top:g}, so it needs a torus side "
            f"L >= {2.0 * top:g}, got L = {spec.length:g}: {remedy}"
        )
    radii = WindowSampler.dyadic(spec, "ball").radii
    return tuple(sorted(set(radii) | set(ORACLE_RADII)))


def run_morrey_suite(cfg: SuiteConfig) -> list:
    reports = []
    spec1 = cfg.spec()
    radii2 = oracle_radii(spec1)
    indicator = unit_ball_indicator(spec1)

    # p = q collapse to the discrete L^p norm, cube windows
    t0 = time.perf_counter()
    sampler1 = WindowSampler.dyadic(spec1, "cube")
    corpus = _corpus(cfg, spec1, max(cfg.n_functions - 10, 1), tag=1)
    spec2 = GridSpec(2, 64, cfg.length)
    sampler2 = WindowSampler.dyadic(spec2, "cube")
    corpus2 = _corpus(cfg, spec2, min(10, cfg.n_functions), tag=2)
    worst = 0.0
    n_checked = 0
    for batch, spec, sampler in ((corpus, spec1, sampler1), (corpus2, spec2, sampler2)):
        moduli = [f.modulus() for f in batch]
        for p in (2.0, 2.7, 4.0):
            norms = _morrey_norms(moduli, spec, LebesguePair(p, p), sampler)
            for f, got in zip(batch, norms):
                want = lp_norm(f, p)
                worst = max(worst, abs(got - want) / want)
                n_checked += 1
    reports.append(_bound_report(
        "morrey-collapse", {"n_checked": n_checked, "exponents": [2.0, 2.7, 4.0]},
        worst, COLLAPSE_TOL, t0))

    # ball-window norm of the unit-interval indicator against the closed form
    t0 = time.perf_counter()
    pq = LebesguePair(4.0, 2.0)
    base_radii = WindowSampler.dyadic(spec1, "ball").radii
    radii3 = tuple(sorted(set(radii2) | set(np.linspace(0.85, 1.15, 7))))
    values = [
        morrey_norm(indicator, pq, WindowSampler(r, "ball"))
        for r in (base_radii, radii2, radii3)
    ]
    target = 2.0**0.25
    rel_err = abs(values[-1] - target) / target
    monotone = all(a <= b * (1 + MONOTONE_SLACK) for a, b in zip(values, values[1:]))
    reports.append(_bound_report(
        "morrey-oracle", {"p": 4.0, "q": 2.0, "target": target},
        rel_err, ORACLE_TOL, t0, ok=monotone,
        details={"values": values, "monotone": monotone}))
    return reports


# ------------------------------------------------------------- scalar, exact

def run_scalar_exact_suite(cfg: SuiteConfig) -> list:
    reports = []

    # power-sum bound over the whole random corpus, zero-padded to one batch
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed + 7)
    max_len = 50
    lengths = rng.integers(1, max_len + 1, N_SEQUENCES)
    entries = rng.uniform(0.0, 1.0, (N_SEQUENCES, max_len))
    batch = entries * (np.arange(max_len)[None, :] < lengths[:, None])
    kappas = (0.3, 0.5, 1.0, 2.5)
    worst = 0.0
    failures = 0
    for kappa in kappas:
        lhs, rhs = sequence_power_margin(batch, kappa)
        worst = max(worst, float((lhs / rhs).max()))
        failures += int(np.sum(lhs > rhs * (1.0 + EXACT_SLACK)))
    reports.append(_bound_report(
        "sequence-power",
        {"n_sequences": N_SEQUENCES, "kappas": list(kappas), "slack": EXACT_SLACK},
        worst, 1.0 + EXACT_SLACK, t0, ok=failures == 0, details={"failures": failures}))

    # Psi tail bound over a (kappa, r) x cutoff x argument sweep
    t0 = time.perf_counter()
    worst = 0.0
    failures = 0
    n_checked = 0
    for kappa in (0.5, 1.0, 2.0):
        for r in (1.0, 2.0):
            params = PhiPsiParams(kappa, r)
            for a_cut in np.geomspace(0.02, 0.9, 20):
                ts = np.concatenate([
                    np.geomspace(a_cut * 1e-6, a_cut * 0.999, 10),
                    np.geomspace(1.001 / a_cut, 50.0 / a_cut, 10),
                ])
                lhs, rhs = psi_tail_bound_check(ts, float(a_cut), params)
                worst = max(worst, float(np.max(lhs / rhs)))
                failures += int(np.sum(lhs > rhs * (1.0 + EXACT_SLACK)))
                n_checked += ts.size
    reports.append(_bound_report(
        "psi-tail", {"n_checked": n_checked, "slack": EXACT_SLACK},
        worst, 1.0 + EXACT_SLACK, t0, ok=failures == 0, details={"failures": failures}))
    return reports


# --------------------------------------------------------- scalar, empirical

_LOG_COMPLEX_CASES = ((1 + 0j, 1.0), (1j, 2.0), (2 + 3j, 1.0), (0.5 + 0.5j, 2.0))
_LOG_IMAG_CASES = ((1.0, 1.0), (3.0, 2.0))
_PHI_SUM_CASES = ((0.5, 1.0), (0.5, 2.0), (2.0, 1.0), (2.0, 2.0))
_EXP_LOG_CASES = ((0.1 + 0j, 0.5), (0.01 + 0j, 0.5), (0.001 + 0j, 0.25),
                  (0.05j, 0.5))


def summation_ratio(a, params: PhiPsiParams):
    """Ratio of the Phi/Psi summation bound on one nonnegative sequence:
    sum_j [a_j Phi_kappa((sum_{k<=j} a_k^r)^(1/r))]^r / Psi_kappa(sum_j a_j^r),
    or an array of them, row by row, for a 2-d batch of sequences (trailing
    zeros pad the shorter ones without changing their terms).

    It lives beside its one suite so that perfbench's traced runs see the
    suite's own phi_kappa and psi_kappa calls."""
    rows = _sequence_rows(a)
    powers = rows**params.r
    totals = powers.sum(axis=1)
    if np.any(totals == 0.0):
        raise ParameterError("the bound requires at least one nonzero entry")
    prefix = np.cumsum(powers, axis=1) ** (1.0 / params.r)
    live = rows > 0
    terms = np.zeros(rows.shape)
    terms[live] = (rows[live] * phi_kappa(prefix[live], params)) ** params.r
    ratios = [safe_ratio(lhs, psi) for lhs, psi in
              zip(terms.sum(axis=1), psi_kappa(totals, params))]
    return ratios[0] if np.ndim(a) == 1 else np.array(ratios)


def run_scalar_empirical_suite(cfg: SuiteConfig, baseline: BaselineStore = None) -> list:
    reports = []
    n_grid = int(_s_grids()[0].size)  # the log-damping scans' coarse grid
    for z, r in _LOG_COMPLEX_CASES:
        t0 = time.perf_counter()
        reports.append(_pair_report(
            f"log-complex[z={z},r={_fmt(r)}]", log_damping_complex_check(z, r),
            baseline, t0, {"z": repr(z), "r": r, "n_points": n_grid}))
    for t, r in _LOG_IMAG_CASES:
        t0 = time.perf_counter()
        reports.append(_pair_report(
            f"log-imag[t={_fmt(t)},r={_fmt(r)}]", log_damping_complex_check(1j * t, r),
            baseline, t0, {"t": t, "r": r, "n_points": n_grid}))

    rng = np.random.default_rng(cfg.seed + 11)
    for kappa, r in _PHI_SUM_CASES:
        t0 = time.perf_counter()
        params = PhiPsiParams(kappa, r)

        def worst_ratio(n_samples: int) -> float:
            corpus = np.zeros((n_samples, 40))
            for row in corpus:
                length = int(rng.integers(1, 41))
                row[:length] = rng.uniform(0.0, 1.0, length) * 2.0 ** rng.uniform(-8, 8)
            return float(summation_ratio(corpus, params).max())

        c1 = worst_ratio(500)
        c2 = max(c1, worst_ratio(500))  # doubled corpus includes the first half
        reports.append(_gated_report(
            f"phi-sum[k={_fmt(kappa)},r={_fmt(r)}]", c2, baseline,
            abs(c2 - c1) <= PHI_SUM_TOL * c2, t0,
            parameters={"kappa": kappa, "r": r, "n_samples": 1000},
            details={"half_corpus_constant": c1},
        ))

    for h, eps in _EXP_LOG_CASES:
        t0 = time.perf_counter()
        reports.append(_pair_report(
            f"exp-log[h={h},eps={_fmt(eps)}]", exp_log_bound_check(h, eps),
            baseline, t0, {"h": repr(h), "eps": eps, "n_points": EXP_LOG_POINTS}))
    return reports


# -------------------------------------------------- interpolation inequality

def run_holder_suite(cfg: SuiteConfig) -> list:
    reports = []
    spec = cfg.spec()
    family = build_family(spec, cfg.j_max, "plain")
    sampler = cfg.sampler()
    corpus = _corpus(cfg, spec, max(cfg.n_functions * 2, 20), tag=3)

    for i, entry in enumerate(HOLDER_SETUPS):
        t0 = time.perf_counter()
        setup = _setup(entry)
        worst = holder_interpolation_check(setup, corpus, family, sampler)
        reports.append(_bound_report(
            f"norm-holder[{i}]",
            {"theta": setup.theta, "n_functions": len(corpus), "slack": HOLDER_SLACK},
            worst, 1.0 + HOLDER_SLACK, t0))

    # pointwise Hoelder bound for the square function across the same setups
    t0 = time.perf_counter()
    worst = 0.0
    exact = True
    for entry in HOLDER_SETUPS:
        setup = _setup(entry)
        for f in corpus[:20]:
            s_mid = square_function(f, family, setup.mid.r, setup.mid.s).values
            s_0 = square_function(f, family, setup.end0.r, setup.end0.s).values
            s_1 = square_function(f, family, setup.end1.r, setup.end1.s).values
            bound = s_0 ** (1.0 - setup.theta) * s_1**setup.theta
            live = bound > 0
            if np.any(s_mid[~live] > 0):
                exact = False
            if np.any(live):
                worst = max(worst, float((s_mid[live] / bound[live]).max()))
    reports.append(_bound_report(
        "square-holder", {"n_functions": 20, "n_setups": len(HOLDER_SETUPS)},
        worst, 1.0 + ROUNDOFF_TOL, t0, ok=exact))
    return reports


# ------------------------------------------------------ analytic family suite

def reconstruction_report(fams) -> VerificationReport:
    """Worst relative defect ||F(theta) - f|| / ||f|| over analytic families."""
    t0 = time.perf_counter()
    worst = 0.0
    for fam in fams:
        scale = max(float(np.linalg.norm(fam.base.values.ravel())), 1e-300)
        mid = family_F(fam, fam.setup.theta)
        worst = max(worst, float(np.linalg.norm((mid - fam.base).values.ravel())) / scale)
    return _bound_report("reconstruction", {"n_functions": len(fams)},
                         worst, RECONSTRUCTION_TOL, t0)


def anchor_report(fams) -> VerificationReport:
    """G(theta) must vanish exactly for every analytic family."""
    t0 = time.perf_counter()
    worst = max(float(np.linalg.norm(family_G(fam, fam.setup.theta).values.ravel()))
                for fam in fams)
    return _bound_report("contour-anchor", {"n_functions": len(fams)}, worst, 0.0, t0)


def holomorphy_report(fam, seed: int) -> VerificationReport:
    """Cauchy-Riemann residual of G at theta + 0.1 + 0.2i."""
    t0 = time.perf_counter()
    residual = holomorphy_residual(fam, fam.setup.theta + 0.1 + 0.2j, seed=seed)
    return _bound_report("holomorphy",
                         {"n_probes": HOLOMORPHY_PROBES, "step": HOLOMORPHY_STEP},
                         residual, HOLOMORPHY_TOL, t0)


def lipschitz_report(fams, side: int, pairs, sampler: WindowSampler,
                     baseline) -> VerificationReport:
    """One-sided gate of the worst boundary Lipschitz ratio of G on Re z = side
    over analytic families; the stability probe is the worst spread (largest
    over smallest ratio of one family), at most LIPSCHITZ_SPREAD."""
    t0 = time.perf_counter()
    ratios = [boundary_lipschitz_check(fam, side, pairs, sampler) for fam in fams]
    spread = max(safe_ratio(max(r), min(r)) for r in ratios)
    return _gated_report(
        f"lipschitz[side={side}]", max(max(r) for r in ratios), baseline,
        spread <= LIPSCHITZ_SPREAD, t0, two_sided=False,
        parameters={"side": side, "n_functions": len(fams), "n_pairs": len(pairs)},
        details={"spread": spread, "spread_limit": LIPSCHITZ_SPREAD},
    )


def growth_report(fam, zs, sampler: WindowSampler, baseline) -> VerificationReport:
    """One-sided gate of the largest normalized growth of G over the samples
    zs (``global_growth_check``); it has no stability probe."""
    t0 = time.perf_counter()
    values = global_growth_check(fam, zs, sampler)
    return _gated_report(
        "global-growth", max(values), baseline, True, t0, two_sided=False,
        parameters={"n_samples": len(values)},
        details={"values": {repr(complex(z)): v for z, v in zip(zs, values)}},
    )


def run_interp_suite(cfg: SuiteConfig, baseline: BaselineStore = None) -> list:
    reports = []
    spec = cfg.spec()
    squared = build_family(spec, cfg.j_max, "square_root")
    sampler = cfg.sampler()
    setup = _setup(HOLDER_SETUPS[0])  # where the gated constants are calibrated
    # G of a band-b draw lives below 1.5 * 2^b, so b <= j_max keeps it covered
    probe_band = min(4, cfg.j_max, top_band(spec) - 1)

    # the closed-form G against its Gauss-Legendre oracle on a long segment
    t0 = time.perf_counter()
    probe = random_bandlimited(spec, probe_band, cfg.seed + 41)
    fam = build_analytic_family(setup, probe, squared, sampler)
    exact = segment_integral(fam, setup.theta, 1 + 0.75j).values.ravel()
    scale = max(float(np.linalg.norm(exact)), 1e-300)
    nodes = (QUAD_NODES, 2 * QUAD_NODES)
    rules = [_segment_quadrature(fam, setup.theta, 1 + 0.75j, n).values.ravel() for n in nodes]
    gap = max(float(np.linalg.norm(rule - exact)) for rule in rules) / scale
    reports.append(_bound_report(
        "contour-quadrature", {"nodes": list(nodes), "segment": "theta -> 1+0.75j"},
        gap, QUAD_TOL, t0))

    # reconstruction at the midpoint, anchor value, derivative order
    fams = [
        build_analytic_family(setup, random_bandlimited(spec, probe_band, cfg.seed + 50 + i,
                                                        real_output=(i % 2 == 0)),
                              squared, sampler)
        for i in range(5)
    ]
    reports += [reconstruction_report(fams), anchor_report(fams)]
    t0 = time.perf_counter()
    orders = []
    for fam in fams:
        base_scale = float(np.linalg.norm(fam.base.values.ravel()))
        mid = family_F(fam, setup.theta)
        errs = []
        for h in (1e-3, 1e-4):
            plus = family_G(fam, setup.theta + h)
            minus = family_G(fam, setup.theta - h)
            deriv = (plus - minus) * (1.0 / (2.0 * h))
            errs.append(float(np.linalg.norm((deriv - mid).values.ravel())) / base_scale)
        orders.append(np.log10(errs[0] / errs[1]))
    min_order = float(min(orders))
    reports.append(VerificationReport(
        check="derivative-order",
        parameters={"steps": [1e-3, 1e-4], "n_functions": 5},
        lhs=min_order, rhs=DERIVATIVE_ORDER, ratio=safe_ratio(min_order, DERIVATIVE_ORDER),
        verdict="pass" if min_order >= DERIVATIVE_ORDER else "fail",
        runtime=time.perf_counter() - t0,
        details={"orders": orders},
    ))

    # holomorphy probe
    f = random_bandlimited(spec, probe_band, cfg.seed + 60)
    fam = build_analytic_family(setup, f, squared, sampler)
    reports.append(holomorphy_report(fam, cfg.seed + 61))

    # boundary Lipschitz ratios, both sides, aggregated over a corpus
    t_values = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)
    pairs = [(0.0, t) for t in t_values]
    corpus = [build_analytic_family(setup, f, squared, sampler)
              for f in _corpus(cfg, spec, 20, tag=4, max_band=probe_band)]
    reports += [lipschitz_report(corpus, side, pairs, sampler, baseline)
                for side in (0, 1)]

    # growth of the primitive across the strip, sum-space proxy
    f = random_bandlimited(spec, probe_band, cfg.seed + 70)
    fam = build_analytic_family(setup, f, squared, sampler)
    zs = [setup.theta + 1j * t for t in (-8.0, -2.0, -0.5, 0.5, 2.0, 8.0)]
    zs += [0.0 + 4j, 1.0 + 4j, 0.0 - 1j, 1.0 + 0.5j]
    reports.append(growth_report(fam, zs, sampler, baseline))

    # identity collapse: smoothness-0, r = 2 norm against the plain Morrey norm
    t0 = time.perf_counter()
    plain = build_family(spec, cfg.j_max, "plain")
    params = SpaceParams(4.0, 2.0, 2.0, 0.0)
    corpus = _corpus(cfg, spec, 20, tag=5)
    morrey_norms = _morrey_norms([f.modulus() for f in corpus], spec, params.pair, sampler)
    ratios = [safe_ratio(tlm, m) for (tlm,), m in
              zip(_tlm_norms(corpus, plain, (params,), sampler), morrey_norms)]
    reports.append(_range_report("identity-collapse", ratios, baseline, t0,
                                 {"p": 4.0, "q": 2.0, "n_functions": 20}))
    return reports


# ------------------------------------------------------------------- maximal

_MAXIMAL_COMBOS = ((4.0, 2.0, 2.0), (6.0, 3.0, 3.0), (4.0, 2.0, np.inf))


def run_maximal_suite(cfg: SuiteConfig, baseline: BaselineStore = None) -> list:
    reports = []
    fine = cfg.spec()
    top = top_band(fine) - 1  # the half grid's top band, known before it is built
    if top < 2:  # the half grid's draws below need max_band >= 1
        raise ParameterError(
            f"the maximal suite needs its half grid's Nyquist pi*N/(2L) >= 8, got "
            f"{fine.nyquist / 2:g}: raise --grid-points N or lower --grid-length L"
        )
    first = 2.0 * np.pi / cfg.length
    if first > 2.0 * (1.0 + 1e-12):  # else the draws' bands 2^b, b >= 1, hold only constants
        raise ParameterError(
            f"the maximal suite needs the torus's first frequency 2*pi/L <= 2, got "
            f"{first:g}: raise --grid-length L to at least pi"
        )
    coarse = GridSpec(1, cfg.points // 2, cfg.length)
    sampler = WindowSampler.dyadic(coarse, cfg.window_shape)  # same windows on both grids
    max_band = top - 1

    n_tuples, tuple_size = 5, 6
    tuples_coarse = []
    for t in range(n_tuples):
        tuples_coarse.append([
            random_bandlimited(coarse, 1 + (t + i) % max_band,
                               cfg.seed + 3000 + 100 * t + i,
                               real_output=(i % 2 == 0))
            for i in range(tuple_size)
        ])
    tuples_fine = [[refine(g, 2) for g in tup] for tup in tuples_coarse]

    for p, q, r in _MAXIMAL_COMBOS:
        pq = LebesguePair(p, q)
        t0 = time.perf_counter()
        consts = [max(vector_maximal_check(tup, r, pq, sampler) for tup in tuples)
                  for tuples in (tuples_coarse, tuples_fine)]
        reports.append(_pair_report(
            f"vector-maximal[p={_fmt(p)},q={_fmt(q)},r={_fmt(r)}]", consts, baseline, t0,
            {"p": p, "q": q, "r": r,
             "coarse_points": coarse.points, "fine_points": fine.points},
            tol=RESOLUTION_MARGIN, two_sided=False))

    j_band = min(5, top)
    fams = (build_family(coarse, j_band, "plain"), build_family(fine, j_band, "plain"))
    start_band = 2
    n_bands = j_band - start_band + 1
    # each slot must genuinely load the band it is reprojected from, so
    # band-pass seeded white noise instead of drawing band-limited balls
    # (whose spectra end below the probed annuli)
    band_tuples_coarse = []
    for t in range(n_tuples):
        tup = []
        for i in range(n_bands):
            rng = np.random.default_rng(cfg.seed + 4000 + 100 * t + i)
            noise = GridFunction(coarse, rng.standard_normal(coarse.shape))
            tup.append(project(fams[0], start_band + i, noise))
        band_tuples_coarse.append(tup)
    band_tuples_fine = [[refine(g, 2) for g in tup] for tup in band_tuples_coarse]

    for p, q, r in _MAXIMAL_COMBOS:
        pq = LebesguePair(p, q)
        t0 = time.perf_counter()
        consts = [
            max(projection_stability_check(tup, fam, start_band, r, pq, sampler)
                for tup in tuples)
            for tuples, fam in zip((band_tuples_coarse, band_tuples_fine), fams)
        ]
        reports.append(_pair_report(
            f"projection-stability[p={_fmt(p)},q={_fmt(q)},r={_fmt(r)}]",
            consts, baseline, t0,
            {"p": p, "q": q, "r": r,
             "start_band": start_band, "n_bands": n_bands},
            tol=RESOLUTION_MARGIN, two_sided=False))

    # pointwise multiplier-vs-maximal domination constant
    t0 = time.perf_counter()
    consts = []
    for spec_r, fam in zip((coarse, fine), fams):
        fs = [random_bandlimited(spec_r, min(3, max_band), cfg.seed + 5000 + i,
                                 real_output=(i % 2 == 0))
              for i in range(8)]
        consts.append(max(multiplier_maximal_ratio(f, fam, sampler) for f in fs))
    reports.append(_pair_report("multiplier-bound", consts, baseline, t0,
                                {"n_functions": 8, "j_max": j_band},
                                tol=RESOLUTION_MARGIN, two_sided=False))
    return reports


# ------------------------------------------------------------------- diamond

def run_diamond_suite(cfg: SuiteConfig, baseline: BaselineStore = None) -> list:
    reports = []
    spec = cfg.spec()
    family = build_family(spec, cfg.j_max, "plain")
    sampler = cfg.sampler()
    params = SpaceParams(4.0, 2.0, 2.0, 0.5)

    t0 = time.perf_counter()
    band = min(4, cfg.j_max - 1)
    f = random_bandlimited(spec, band, cfg.seed + 90)
    scale = tlm_norm(f, family, params, sampler)
    tail = max(diamond_tail(f, family, params, sampler, n)
               for n in range(band, cfg.j_max + 1))
    rep = diamond_criterion(f, family, params, sampler)
    gated_zero = all(v == 0.0 for seq in rep.details["norm_sequences"].values()
                     for v in seq[band + 1:])
    ok = rep.verdict == "pass" and tail == 0.0 and gated_zero
    reports.append(_bound_report(
        "diamond-bandlimited",
        {"band": band, "p": params.p, "q": params.q, "r": params.r, "s": params.s},
        tail, ROUNDOFF_TOL * scale, t0, ok=ok,
        details={"criterion_verdict": rep.verdict,
                 "norm_sequences": rep.details["norm_sequences"]}))

    t0 = time.perf_counter()
    g = persistent_block_function(spec, family, s=params.s)
    rep = diamond_criterion(g, family, params, sampler)
    seq = rep.details["norm_sequences"]
    persists = all(vals[-1] > PERSISTENCE_RATIO * vals[0]
                   for vals in seq.values() if vals[0] > 0)
    ok = rep.verdict == "not-decided" and persists
    reports.append(_bound_report(
        "diamond-persistent", {"p": params.p, "q": params.q, "r": params.r, "s": params.s},
        1.0 if ok else 0.0, 1.0, t0, ok=ok,
        details={"criterion_verdict": rep.verdict, "norm_sequences": seq}))

    # profile robustness: two admissible profiles give equivalent norms
    t0 = time.perf_counter()
    alt_family = build_family(spec, cfg.j_max, "plain", sharpness=2.0)
    corpus = _corpus(cfg, spec, 15, tag=6)
    ratios = [safe_ratio(a, b) for (a,), (b,) in zip(
        _tlm_norms(corpus, family, (params,), sampler),
        _tlm_norms(corpus, alt_family, (params,), sampler))]
    reports.append(_range_report("profile-equivalence", ratios, baseline, t0,
                                 {"sharpness_pair": [1.0, 2.0], "n_functions": 15}))
    return reports


# ------------------------------------------------------------------ assembly

def verify_all(cfg: SuiteConfig, baseline: BaselineStore = None) -> list:
    reports = []
    reports += run_partition_suite(cfg)
    reports += run_morrey_suite(cfg)
    reports += run_scalar_exact_suite(cfg)
    reports += run_scalar_empirical_suite(cfg, baseline)
    reports += run_holder_suite(cfg)
    reports += run_interp_suite(cfg, baseline)
    reports += run_maximal_suite(cfg, baseline)
    reports += run_diamond_suite(cfg, baseline)
    return reports


def calibrate_constants(cfg: SuiteConfig) -> BaselineStore:
    """Measure every empirical constant on the seeded corpus: each gated
    report's constant, and both ends of each range-gated report."""
    constants = {}
    for suite in (run_scalar_empirical_suite, run_interp_suite,
                  run_maximal_suite, run_diamond_suite):
        for rep in suite(cfg, None):
            if rep.empirical_constant is not None:
                constants[rep.check] = rep.empirical_constant
            for end in ("lo", "hi"):
                if end in rep.details:
                    constants[f"{rep.check}.{end}"] = rep.details[end]
    provenance = {
        "config": cfg.meta(),
        "created": datetime.date.today().isoformat(),
        "generator": "numpy.random.default_rng",
    }
    return BaselineStore(constants, provenance)
