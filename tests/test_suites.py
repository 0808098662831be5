import numpy as np
import pytest

import tlmkit as tk
from tlmkit.spaces import coverage_defect


def test_partition_suite_passes(small_cfg):
    reports = tk.run_partition_suite(small_cfg)
    assert len(reports) == 4
    assert all(r.verdict == "pass" for r in reports)


def test_morrey_suite_passes(small_cfg):
    reports = tk.run_morrey_suite(small_cfg)
    assert {r.check for r in reports} == {"morrey-collapse", "morrey-oracle"}
    assert all(r.verdict == "pass" for r in reports)


def test_morrey_suite_refuses_a_short_torus_before_any_draw(monkeypatch):
    # the unit-ball oracle's radii reach 1.5 > L/2
    draws = []
    monkeypatch.setattr(tk.suites, "random_bandlimited",
                        lambda *args, **kwargs: draws.append(args))
    cfg = tk.SuiteConfig(points=64, length=2.5, j_max=4, n_functions=6)
    with pytest.raises(tk.ParameterError, match="--grid-length"):
        tk.run_morrey_suite(cfg)
    assert draws == []


def test_scalar_exact_suite_small():
    cfg = tk.SuiteConfig(points=64, j_max=4, n_functions=4)
    reports = tk.run_scalar_exact_suite(cfg)
    assert all(r.verdict == "pass" for r in reports)
    assert all(r.details["failures"] == 0 for r in reports)


def test_empirical_suite_deterministic(small_cfg):
    a = tk.run_scalar_empirical_suite(small_cfg, None)
    b = tk.run_scalar_empirical_suite(small_cfg, None)
    for x, y in zip(a, b):
        assert x.check == y.check
        assert x.empirical_constant == y.empirical_constant
    # no baseline constant, no decision, whatever the stability probes say
    assert {r.verdict for r in a} == {"not-decided"}


def test_maximal_suite_without_baseline_is_not_decided(small_cfg):
    reports = tk.run_maximal_suite(small_cfg, None)
    assert {r.verdict for r in reports} == {"not-decided"}


def test_calibrate_then_verify_round_trip(small_cfg, small_store):
    store = small_store
    assert len(store.constants) >= 20
    reports = tk.verify_all(small_cfg, store)
    bad = [r for r in reports if r.verdict != "pass"]
    assert not bad, [f"{r.check}: {r.verdict}" for r in bad]
    # constants measured on the same corpus match the baseline exactly
    for rep in reports:
        if rep.baseline_constant is not None and rep.empirical_constant is not None:
            assert rep.empirical_constant == pytest.approx(rep.baseline_constant,
                                                           rel=1e-12)


def test_regression_gate_trips(small_cfg, small_store):
    shrunk = {k: v / 1.5 for k, v in small_store.constants.items()}
    tighter = tk.BaselineStore(shrunk, small_store.provenance)
    reports = tk.run_maximal_suite(small_cfg, tighter)
    assert any(r.verdict == "fail" for r in reports)


def test_diamond_suite_distinguishes(small_cfg):
    reports = {r.check: r for r in tk.run_diamond_suite(small_cfg)}
    assert reports["diamond-bandlimited"].verdict == "pass"
    assert reports["diamond-persistent"].verdict == "pass"
    assert reports["diamond-persistent"].details["criterion_verdict"] == "not-decided"


@pytest.mark.parametrize("j_max", range(1, 7))
def test_every_draw_is_covered_by_the_family(monkeypatch, j_max):
    # corpus draws reach j_max + 1 and probes j_max: both inside the family
    cfg = tk.SuiteConfig(j_max=j_max)
    spec = cfg.spec()
    draws = []

    def record(*args, **kwargs):
        f = tk.random_bandlimited(*args, **kwargs)
        draws.append(f)
        return f

    monkeypatch.setattr(tk.suites, "random_bandlimited", record)
    tk.run_morrey_suite(cfg)
    tk.run_holder_suite(cfg)
    tk.run_interp_suite(cfg, None)
    tk.run_diamond_suite(cfg, None)
    family = tk.build_family(spec, j_max)
    on_grid = [f for f in draws if f.spec == spec]
    assert len(on_grid) > 100
    assert all(coverage_defect(family, f) == 0.0 for f in on_grid)
