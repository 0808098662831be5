"""Named verification suites over seeded corpora.

Every suite returns a list of :class:`VerificationReport`.  Exact
inequalities (partition residuals, norm collapses, the two closed-form
scalar bounds, interpolation inequalities, reconstruction identities)
carry pinned tolerances and verdicts on their own.  Estimates whose
constants the theory does not make explicit are handled in two phases:
``calibrate_constants`` measures each empirical constant on the seeded
corpus and stores it in a :class:`BaselineStore`; verification reruns the
same deterministic measurement and gates it against the baseline (10%
regression room) plus internal stability probes (grid refinement for
scalar sups, resolution doubling for operator ratios).

All randomness flows from ``SuiteConfig.seed`` through numpy's
``default_rng``; rerunning a suite with the same config reproduces every
number bit for bit, so a fresh calibration followed by verification
yields margin ratios of exactly 1.
"""

from __future__ import annotations

import datetime
import time
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridFunction, GridSpec, lp_norm, random_bandlimited, refine
from .interp import (
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
from .lpaley import build_family, partition_residual, project
from .maximal import (
    multiplier_maximal_ratio,
    projection_stability_check,
    vector_maximal_check,
)
from .morrey import LebesguePair, WindowSampler, morrey_norm
from .report import BaselineStore, VerificationReport, safe_ratio
from .scalars import (
    PhiPsiParams,
    exp_log_bound_check,
    log_damping_complex_check,
    log_damping_imag_check,
    phi_kappa,
    psi_kappa,
    psi_tail_bound_check,
)
from .spaces import (
    SpaceParams,
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
]

REGRESSION_MARGIN = 1.1  # baseline regression gate: within 10%
RESOLUTION_MARGIN = 0.2  # operator ratios: stable within 20% across N


@dataclass(frozen=True)
class SuiteConfig:
    """Shared defaults for the verification suites (1-d primary grid)."""

    seed: int = 20260813
    points: int = 256
    length: float = 2.0 * np.pi
    j_max: int = 6
    n_functions: int = 50
    window_shape: str = "cube"
    quad_nodes: int = 32

    def spec(self) -> GridSpec:
        return GridSpec(1, self.points, self.length)

    def sampler(self, window_shape: str = None, stride: int = 1) -> WindowSampler:
        shape = self.window_shape if window_shape is None else window_shape
        return WindowSampler.dyadic(self.spec(), shape, stride)

    def meta(self) -> dict:
        return {"seed": self.seed, "points": self.points, "length": self.length,
                "j_max": self.j_max, "n_functions": self.n_functions,
                "window_shape": self.window_shape}


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
    """Seeded mixed corpus: cycling bands, real/complex, varied scales."""
    top = int(np.log2(spec.nyquist)) - 2
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


def _probe_band(spec: GridSpec) -> int:
    """Widest probe band (capped at 4) that the grid can resolve."""
    return min(4, int(np.log2(spec.nyquist)) - 2)


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
                  t0: float = None, two_sided: bool = True,
                  measured: VerificationReport = None,
                  **fields) -> VerificationReport:
    """Report of the empirical constant ``value`` gated against the baseline.

    Without a baseline constant the verdict is "pass" when the stability
    probe holds and "not-decided" otherwise; with one, the value must also
    lie within the regression margin (above it only when one-sided).
    ``measured``, a check's own report, is renamed and gated with its
    sides kept; otherwise the report compares ``value`` with the baseline
    constant (with itself when there is none) and ``fields`` fill in the
    parameters and details.
    """
    base = baseline.maybe(check_id) if baseline is not None else None
    if base is None:
        verdict = "pass" if stable else "not-decided"
    else:
        base = float(base)
        if two_sided:
            ok = base / REGRESSION_MARGIN <= value <= base * REGRESSION_MARGIN
        else:
            ok = value <= base * REGRESSION_MARGIN
        verdict = "pass" if (ok and stable) else "fail"
    if measured is not None:
        return replace(measured, check=check_id, verdict=verdict, baseline_constant=base)
    ref = value if base is None else base
    return VerificationReport(
        check=check_id, lhs=value, rhs=ref, ratio=safe_ratio(value, ref),
        verdict=verdict, empirical_constant=value, baseline_constant=base,
        runtime=time.perf_counter() - t0, **fields,
    )


def _drift_report(check_id: str, consts, baseline, t0: float,
                  parameters: dict) -> VerificationReport:
    """One-sided gate of the fine-grid constant of ``consts`` = (coarse,
    fine); the stability probe is its drift from the coarse-grid one."""
    coarse, fine = consts
    drift = abs(safe_ratio(coarse, fine) - 1.0)
    return _gated_report(
        check_id, fine, baseline, drift <= RESOLUTION_MARGIN and fine > 0, t0,
        two_sided=False, parameters=parameters,
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

def run_partition_suite(cfg: SuiteConfig, tol: float = 1e-12) -> list:
    """Telescoping residuals for both flavors on 1-d and 2-d grids."""
    reports = []
    grids = [(GridSpec(1, cfg.points, cfg.length), cfg.j_max)]
    points2 = max(cfg.points // 2, 16)
    spec2 = GridSpec(2, points2, cfg.length)
    grids.append((spec2, min(cfg.j_max, int(np.log2(spec2.nyquist)) - 1)))
    for spec, j_max in grids:
        for flavor in ("plain", "square_root"):
            t0 = time.perf_counter()
            family = build_family(spec, j_max, flavor)
            residual = partition_residual(family)
            reports.append(_bound_report(
                f"partition[{flavor},{spec.dim}d]",
                {"points": spec.points, "dim": spec.dim, "j_max": j_max},
                residual, tol, t0))
    return reports


# -------------------------------------------------------------------- morrey

def run_morrey_suite(cfg: SuiteConfig, collapse_tol: float = 1e-10,
                     oracle_tol: float = 0.05) -> list:
    reports = []

    # p = q collapse to the discrete L^p norm, cube windows
    t0 = time.perf_counter()
    spec1 = cfg.spec()
    sampler1 = WindowSampler.dyadic(spec1, "cube")
    corpus = _corpus(cfg, spec1, max(cfg.n_functions - 10, 1), tag=1)
    spec2 = GridSpec(2, 64, cfg.length)
    sampler2 = WindowSampler.dyadic(spec2, "cube")
    corpus2 = _corpus(cfg, spec2, min(10, cfg.n_functions), tag=2)
    worst = 0.0
    n_checked = 0
    for batch, sampler in ((corpus, sampler1), (corpus2, sampler2)):
        for f in batch:
            for p in (2.0, 2.7, 4.0):
                got = morrey_norm(f, LebesguePair(p, p), sampler)
                want = lp_norm(f, p)
                worst = max(worst, abs(got - want) / want)
                n_checked += 1
    reports.append(_bound_report(
        "morrey-collapse", {"n_checked": n_checked, "exponents": [2.0, 2.7, 4.0]},
        worst, collapse_tol, t0))

    # ball-window norm of the unit-interval indicator against the closed form
    t0 = time.perf_counter()
    x = np.arange(spec1.points) * spec1.spacing
    dist = np.minimum(x, spec1.length - x)
    indicator = GridFunction(spec1, (dist <= 1.0).astype(np.complex128))
    pq = LebesguePair(4.0, 2.0)
    base_radii = WindowSampler.dyadic(spec1, "ball").radii
    radii2 = tuple(sorted(set(base_radii) | {0.5, 0.75, 1.0, 1.25, 1.5}))
    radii3 = tuple(sorted(set(radii2) | set(np.linspace(0.85, 1.15, 7))))
    values = [
        morrey_norm(indicator, pq, WindowSampler(r, 1, "ball"))
        for r in (base_radii, radii2, radii3)
    ]
    target = 2.0**0.25
    rel_err = abs(values[-1] - target) / target
    monotone = values[0] <= values[1] * (1 + 1e-14) and values[1] <= values[2] * (1 + 1e-14)
    reports.append(_bound_report(
        "morrey-oracle", {"p": 4.0, "q": 2.0, "target": target},
        rel_err, oracle_tol, t0, ok=monotone,
        details={"values": values, "monotone": monotone}))
    return reports


# ------------------------------------------------------------- scalar, exact

def run_scalar_exact_suite(cfg: SuiteConfig, n_sequences: int = 10000,
                           slack: float = 1e-8) -> list:
    reports = []

    # power-sum bound, vectorized over the whole random corpus
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed + 7)
    max_len = 50
    lengths = rng.integers(1, max_len + 1, n_sequences)
    entries = rng.uniform(0.0, 1.0, (n_sequences, max_len))
    a = entries * (np.arange(max_len)[None, :] < lengths[:, None])
    totals = a.sum(axis=1)
    live_rows = totals > 0
    prefix = np.cumsum(a, axis=1)
    kappas = (0.3, 0.5, 1.0, 2.5)
    worst = 0.0
    failures = 0
    for kappa in kappas:
        # a = 0 terms contribute nothing; give them base 1 to avoid 0^(k-1)
        powers = np.where(a > 0, prefix, 1.0) ** (kappa - 1.0)
        lhs = (a * powers).sum(axis=1)[live_rows]
        rhs = totals[live_rows] ** kappa / min(kappa, 1.0)
        ratio = lhs / rhs
        worst = max(worst, float(ratio.max()))
        failures += int(np.sum(lhs > rhs * (1.0 + slack)))
    reports.append(VerificationReport(
        check="sequence-power",
        parameters={"n_sequences": n_sequences, "kappas": list(kappas),
                    "slack": slack},
        lhs=worst, rhs=1.0 + slack, ratio=worst / (1.0 + slack),
        verdict="pass" if failures == 0 else "fail",
        runtime=time.perf_counter() - t0,
        details={"failures": failures},
    ))

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
                for t in ts:
                    rep = psi_tail_bound_check(float(t), float(a_cut), params,
                                               slack=slack)
                    worst = max(worst, rep.ratio)
                    failures += 0 if rep.passed else 1
                    n_checked += 1
    reports.append(VerificationReport(
        check="psi-tail",
        parameters={"n_checked": n_checked, "slack": slack},
        lhs=worst, rhs=1.0 + slack, ratio=worst / (1.0 + slack),
        verdict="pass" if failures == 0 else "fail",
        runtime=time.perf_counter() - t0,
        details={"failures": failures},
    ))
    return reports


# --------------------------------------------------------- scalar, empirical

_LOG_COMPLEX_CASES = ((1 + 0j, 1.0), (1j, 2.0), (2 + 3j, 1.0), (0.5 + 0.5j, 2.0))
_LOG_IMAG_CASES = ((1.0, 1.0), (3.0, 2.0))
_PHI_SUM_CASES = ((0.5, 1.0), (0.5, 2.0), (2.0, 1.0), (2.0, 2.0))
_EXP_LOG_CASES = ((0.1 + 0j, 0.5), (0.01 + 0j, 0.5), (0.001 + 0j, 0.25),
                  (0.05j, 0.5))


def _gated_scalar(check_id: str, rep: VerificationReport, baseline) -> VerificationReport:
    """Gate a scalar check whose own verdict is its grid-refinement probe."""
    return _gated_report(check_id, rep.empirical_constant, baseline,
                         rep.verdict == "pass", measured=rep)


def run_scalar_empirical_suite(cfg: SuiteConfig, baseline: BaselineStore = None) -> list:
    reports = [
        _gated_scalar(f"log-complex[z={z},r={_fmt(r)}]",
                      log_damping_complex_check(z, r), baseline)
        for z, r in _LOG_COMPLEX_CASES
    ]
    reports += [
        _gated_scalar(f"log-imag[t={_fmt(t)},r={_fmt(r)}]",
                      log_damping_imag_check(t, r), baseline)
        for t, r in _LOG_IMAG_CASES
    ]

    rng = np.random.default_rng(cfg.seed + 11)
    for kappa, r in _PHI_SUM_CASES:
        t0 = time.perf_counter()
        params = PhiPsiParams(kappa, r)

        def worst_ratio(n_samples: int) -> float:
            worst = 0.0
            for _ in range(n_samples):
                length = int(rng.integers(1, 41))
                a = rng.uniform(0.0, 1.0, length) * 2.0 ** rng.uniform(-8, 8)
                powers = a**r
                total = float(powers.sum())
                if total == 0.0:
                    continue
                prefix = np.cumsum(powers) ** (1.0 / r)
                live = a > 0
                lhs = float(np.sum((a[live] * phi_kappa(prefix[live], params)) ** r))
                worst = max(worst, lhs / psi_kappa(total, params))
            return worst

        c1 = worst_ratio(500)
        c2 = max(c1, worst_ratio(500))  # doubled corpus includes the first half
        reports.append(_gated_report(
            f"phi-sum[k={_fmt(kappa)},r={_fmt(r)}]", c2, baseline,
            abs(c2 - c1) <= 0.1 * c2, t0,
            parameters={"kappa": kappa, "r": r, "n_samples": 1000},
            details={"half_corpus_constant": c1},
        ))

    reports += [
        _gated_scalar(f"exp-log[h={h},eps={_fmt(eps)}]",
                      exp_log_bound_check(h, eps), baseline)
        for h, eps in _EXP_LOG_CASES
    ]
    return reports


# -------------------------------------------------- interpolation inequality

def run_holder_suite(cfg: SuiteConfig, slack: float = 1e-6) -> list:
    reports = []
    spec = cfg.spec()
    family = build_family(spec, cfg.j_max, "plain")
    sampler = cfg.sampler()
    corpus = _corpus(cfg, spec, max(cfg.n_functions * 2, 20), tag=3)

    for i, entry in enumerate(HOLDER_SETUPS):
        setup = _setup(entry)
        rep = holder_interpolation_check(setup, corpus, family, sampler, slack)
        reports.append(replace(rep, check=f"norm-holder[{i}]"))

    # pointwise Hoelder bound for the square function across the same setups
    t0 = time.perf_counter()
    worst = 0.0
    exact = True
    for entry in HOLDER_SETUPS:
        setup = _setup(entry)
        for f in corpus[:20]:
            s_mid = square_function(f, family, setup.mid.r, setup.mid.s).values.real
            s_0 = square_function(f, family, setup.end0.r, setup.end0.s).values.real
            s_1 = square_function(f, family, setup.end1.r, setup.end1.s).values.real
            bound = s_0 ** (1.0 - setup.theta) * s_1**setup.theta
            live = bound > 0
            if np.any(s_mid[~live] > 0):
                exact = False
            if np.any(live):
                worst = max(worst, float((s_mid[live] / bound[live]).max()))
    reports.append(_bound_report(
        "square-holder", {"n_functions": 20, "n_setups": len(HOLDER_SETUPS)},
        worst, 1.0 + 1e-12, t0, ok=exact))
    return reports


# ------------------------------------------------------ analytic family suite

def _collapse_setup():
    return _setup(HOLDER_SETUPS[0])  # equal endpoint r and s


def _general_setup():
    return make_setup(0.4, SpaceParams(8.0, 4.0, 2.5, 0.5),
                      SpaceParams(4.0, 2.0, 2.0, 0.0))


def reconstruction_report(fams) -> VerificationReport:
    """Worst relative defect ||F(theta) - f|| / ||f|| over analytic families."""
    t0 = time.perf_counter()
    worst = 0.0
    for fam in fams:
        scale = max(float(np.linalg.norm(fam.base.values.ravel())), 1e-300)
        mid = family_F(fam, fam.setup.theta)
        worst = max(worst, float(np.linalg.norm((mid - fam.base).values.ravel())) / scale)
    return _bound_report("reconstruction",
                         {"n_functions": len(fams), "kind": fams[0].kind},
                         worst, 1e-10, t0)


def anchor_report(fams) -> VerificationReport:
    """G(theta) must vanish exactly for every analytic family."""
    t0 = time.perf_counter()
    worst = max(float(np.linalg.norm(family_G(fam, fam.setup.theta).values.ravel()))
                for fam in fams)
    return _bound_report("contour-anchor", {"n_functions": len(fams)}, worst, 0.0, t0)


def holomorphy_report(fam, seed: int) -> VerificationReport:
    """Cauchy-Riemann residual of G at theta + 0.1 + 0.2i, 20 probes."""
    t0 = time.perf_counter()
    residual = holomorphy_residual(fam, fam.setup.theta + 0.1 + 0.2j,
                                   n_probes=20, seed=seed)
    return _bound_report("holomorphy", {"n_probes": 20, "step": 2e-4},
                         residual, 1e-6, t0)


def run_interp_suite(cfg: SuiteConfig, baseline: BaselineStore = None) -> list:
    reports = []
    spec = cfg.spec()
    squared = build_family(spec, cfg.j_max, "square_root")
    sampler = cfg.sampler()
    setup = _collapse_setup()

    # contour quadrature convergence on a representative long segment
    t0 = time.perf_counter()
    probe = random_bandlimited(spec, _probe_band(spec), cfg.seed + 41)
    fam = build_analytic_family("exponent-shift", setup, probe, squared, sampler)
    coarse = segment_integral(fam, setup.theta, 1 + 0.75j,
                              n_nodes=cfg.quad_nodes, check=False)
    fine = segment_integral(fam, setup.theta, 1 + 0.75j,
                            n_nodes=2 * cfg.quad_nodes, check=False)
    scale = float(np.linalg.norm(fine.values.ravel()))
    gap = float(np.linalg.norm((fine - coarse).values.ravel())) / max(scale, 1e-300)
    reports.append(_bound_report(
        "contour-quadrature", {"nodes": cfg.quad_nodes, "segment": "theta -> 1+0.75j"},
        gap, 1e-9, t0))

    # reconstruction at the midpoint, anchor value, derivative order
    fams = [
        build_analytic_family(
            "exponent-shift", setup,
            random_bandlimited(spec, _probe_band(spec), cfg.seed + 50 + i,
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
            plus = family_G(fam, setup.theta + h, check=False)
            minus = family_G(fam, setup.theta - h, check=False)
            deriv = (plus - minus) * (1.0 / (2.0 * h))
            errs.append(float(np.linalg.norm((deriv - mid).values.ravel())) / base_scale)
        orders.append(np.log10(errs[0] / errs[1]))
    min_order = float(min(orders))
    reports.append(VerificationReport(
        check="derivative-order",
        parameters={"steps": [1e-3, 1e-4], "n_functions": 5},
        lhs=min_order, rhs=1.9, ratio=safe_ratio(min_order, 1.9),
        verdict="pass" if min_order >= 1.9 else "fail",
        runtime=time.perf_counter() - t0,
        details={"orders": orders},
    ))

    # holomorphy probe and the four-exponent collapse identity
    f = random_bandlimited(spec, _probe_band(spec), cfg.seed + 60)
    fam = build_analytic_family("exponent-shift", setup, f, squared, sampler)
    reports.append(holomorphy_report(fam, cfg.seed + 61))

    t0 = time.perf_counter()
    fam4 = build_analytic_family("four-exponent", setup, f, squared, sampler)
    collapse_worst = 0.0
    for z in (setup.theta, 0.3 + 0.7j, 1 + 2j, 0.9 - 1.3j, 0.0 + 0j):
        a = family_F(fam, z).values
        b = family_F(fam4, z).values
        scale = max(float(np.abs(a).max()), 1e-300)
        collapse_worst = max(collapse_worst, float(np.abs(a - b).max()) / scale)
    reports.append(_bound_report("rho-collapse", {"n_points": 5},
                                 collapse_worst, 1e-12, t0))

    # boundary Lipschitz ratios, both sides, aggregated over a corpus
    t_values = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)
    pairs = [(0.0, t) for t in t_values]
    corpus = _corpus(cfg, spec, 20, tag=4, max_band=4)
    for side in (0, 1):
        t0 = time.perf_counter()
        checks = [
            boundary_lipschitz_check(
                build_analytic_family("exponent-shift", setup, f, squared, sampler),
                side, pairs, sampler, n_nodes=cfg.quad_nodes)
            for f in corpus
        ]
        spread = max(rep.details["spread"] for rep in checks)
        reports.append(_gated_report(
            f"lipschitz[side={side}]", max(rep.empirical_constant for rep in checks),
            baseline, spread <= 3.0, t0, two_sided=False,
            parameters={"side": side, "n_functions": len(corpus), "n_pairs": len(pairs)},
            details={"spread": spread, "spread_limit": 3.0},
        ))

    # growth of the primitive across the strip, sum-space proxy
    f = random_bandlimited(spec, _probe_band(spec), cfg.seed + 70)
    fam = build_analytic_family("exponent-shift", setup, f, squared, sampler)
    zs = [setup.theta + 1j * t for t in (-8.0, -2.0, -0.5, 0.5, 2.0, 8.0)]
    zs += [0.0 + 4j, 1.0 + 4j, 0.0 - 1j, 1.0 + 0.5j]
    rep = global_growth_check(fam, zs, sampler, n_nodes=cfg.quad_nodes)
    reports.append(_gated_report("global-growth", rep.empirical_constant, baseline,
                                 True, two_sided=False, measured=rep))

    # identity collapse: smoothness-0, r = 2 norm against the plain Morrey norm
    t0 = time.perf_counter()
    plain = build_family(spec, cfg.j_max, "plain")
    params = SpaceParams(4.0, 2.0, 2.0, 0.0)
    ratios = [
        safe_ratio(tlm_norm(f, plain, params, sampler),
                   morrey_norm(f, params.pair, sampler))
        for f in _corpus(cfg, spec, 20, tag=5)
    ]
    reports.append(_range_report("identity-collapse", ratios, baseline, t0,
                                 {"p": 4.0, "q": 2.0, "n_functions": 20}))
    return reports


# ------------------------------------------------------------------- maximal

_MAXIMAL_COMBOS = ((4.0, 2.0, 2.0), (6.0, 3.0, 3.0), (4.0, 2.0, np.inf))


def run_maximal_suite(cfg: SuiteConfig, baseline: BaselineStore = None) -> list:
    reports = []
    coarse = GridSpec(1, cfg.points // 2, cfg.length)
    fine = GridSpec(1, cfg.points, cfg.length)
    sampler = WindowSampler.dyadic(coarse, cfg.window_shape)  # same windows on both grids
    max_band = int(np.log2(coarse.nyquist)) - 2

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
        consts = [max(vector_maximal_check(tup, r, pq, sampler).ratio for tup in tuples)
                  for tuples in (tuples_coarse, tuples_fine)]
        reports.append(_drift_report(
            f"vector-maximal[p={_fmt(p)},q={_fmt(q)},r={_fmt(r)}]", consts, baseline, t0,
            {"p": p, "q": q, "r": r,
             "coarse_points": coarse.points, "fine_points": fine.points},
        ))

    j_band = min(5, int(np.log2(coarse.nyquist)) - 1)
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
            max(projection_stability_check(tup, fam, start_band, r, pq, sampler).ratio
                for tup in tuples)
            for tuples, fam in zip((band_tuples_coarse, band_tuples_fine), fams)
        ]
        reports.append(_drift_report(
            f"projection-stability[p={_fmt(p)},q={_fmt(q)},r={_fmt(r)}]",
            consts, baseline, t0,
            {"p": p, "q": q, "r": r,
             "start_band": start_band, "n_bands": n_bands},
        ))

    # pointwise multiplier-vs-maximal domination constant
    t0 = time.perf_counter()
    consts = []
    for spec_r, fam in zip((coarse, fine), fams):
        fs = [random_bandlimited(spec_r, min(3, max_band), cfg.seed + 5000 + i,
                                 real_output=(i % 2 == 0))
              for i in range(8)]
        consts.append(max(multiplier_maximal_ratio(f, fam, sampler) for f in fs))
    reports.append(_drift_report("multiplier-bound", consts, baseline, t0,
                                 {"n_functions": 8, "j_max": j_band}))
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
        tail, 1e-12 * scale, t0, ok=ok,
        details={"criterion_verdict": rep.verdict,
                 "norm_sequences": rep.details["norm_sequences"]}))

    t0 = time.perf_counter()
    g = persistent_block_function(spec, family, s=params.s)
    rep = diamond_criterion(g, family, params, sampler)
    seq = rep.details["norm_sequences"]
    persists = all(vals[-1] > 0.1 * vals[0] for vals in seq.values() if vals[0] > 0)
    ok = rep.verdict == "not-decided" and persists
    reports.append(_bound_report(
        "diamond-persistent", {"p": params.p, "q": params.q, "r": params.r, "s": params.s},
        1.0 if ok else 0.0, 1.0, t0, ok=ok,
        details={"criterion_verdict": rep.verdict, "norm_sequences": seq}))

    # profile robustness: two admissible profiles give equivalent norms
    t0 = time.perf_counter()
    alt_family = build_family(spec, cfg.j_max, "plain", sharpness=2.0)
    ratios = [
        safe_ratio(tlm_norm(f, family, params, sampler),
                   tlm_norm(f, alt_family, params, sampler))
        for f in _corpus(cfg, spec, 15, tag=6)
    ]
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
