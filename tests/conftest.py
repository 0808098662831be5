import numpy as np
import pytest

import tlmkit as tk

# criterion name -> ("PASS"/"FAIL", note), filled by tests/test_acceptance.py
ACCEPTANCE_RESULTS = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        verdict, note = ACCEPTANCE_RESULTS[name]
        terminalreporter.write_line(f"{verdict:<5} {name}: {note}")


@pytest.fixture(scope="session")
def spec256():
    return tk.GridSpec(1, 256)


@pytest.fixture(scope="session")
def spec64():
    return tk.GridSpec(1, 64)


@pytest.fixture(scope="session")
def family_plain(spec256):
    return tk.build_family(spec256, 6, "plain")


@pytest.fixture(scope="session")
def family_sqrt(spec256):
    return tk.build_family(spec256, 6, "square_root")


@pytest.fixture(scope="session")
def sampler256(spec256):
    return tk.WindowSampler.dyadic(spec256, "cube")


@pytest.fixture(scope="session")
def f_band4(spec256):
    return tk.random_bandlimited(spec256, 4, 2024)


@pytest.fixture(scope="session")
def small_cfg():
    # shrunk corpus for suite-level unit tests; acceptance uses defaults
    return tk.SuiteConfig(points=64, j_max=4, n_functions=6)


@pytest.fixture(scope="session")
def small_store(small_cfg):
    return tk.calibrate_constants(small_cfg)


@pytest.fixture
def fftn_calls(monkeypatch):
    """A list that grows by one on every np.fft.fftn call of the test."""
    calls = []
    fftn = np.fft.fftn

    def counted(*args, **kwargs):
        calls.append(1)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counted)
    return calls


def spike_field(spec):
    """A finite real field with one sample at 1.7e308, next to float64's limit."""
    values = tk.random_bandlimited(spec, 3, 99).values.copy()
    values[5] = 1.7e308
    return tk.GridFunction(spec, values)


def scaled(f, e):
    """f * 2^e for a real field, exact while the samples stay normal."""
    return tk.GridFunction(f.spec, np.ldexp(f.values.real, e))


def brute_force_morrey(f, pq, sampler):
    """Independent reimplementation of the windowed norm by direct loops.

    Window membership is decided by torus (min-image) distances, the
    definition the production code realizes with box filters and cached
    stencils.  Only sensible for small grids.
    """
    spec = f.spec
    a = np.abs(f.values.reshape(-1))
    n = spec.points
    coords = np.array(
        np.meshgrid(*([np.arange(n)] * spec.dim), indexing="ij")
    ).reshape(spec.dim, -1)
    h = spec.spacing
    edge = 1.0 + 1e-12
    best = 0.0
    for radius in sampler.radii:
        if sampler.window_shape == "cube":
            vol = (2.0 * radius) ** spec.dim
        else:
            vol = {1: 2.0, 2: np.pi, 3: 4.0 * np.pi / 3.0}[spec.dim] * radius**spec.dim
        for c in range(a.size):
            off = np.abs(coords - coords[:, c : c + 1])
            off = np.minimum(off, n - off) * h
            if sampler.window_shape == "cube":
                member = np.all(off <= radius * edge, axis=0)
            else:
                member = np.sqrt((off**2).sum(axis=0)) <= radius * edge
            mass = float(np.sum(a[member] ** pq.q)) * spec.cell_volume
            best = max(best, vol ** (1.0 / pq.p - 1.0 / pq.q) * mass ** (1.0 / pq.q))
    return best
