import warnings

import numpy as np
import pytest

import tlmkit as tk
from conftest import scaled, spike_field
from tlmkit.errors import ParameterError


def unitary_dft(f):
    return np.fft.fftn(f.values, norm="ortho")


def support_radius(f, rel_tol=1e-13):
    """Largest |xi| carrying a DFT coefficient above rel_tol * max|coeff|."""
    mag = np.abs(unitary_dft(f))
    return float(f.spec.frequency_radius[mag > rel_tol * mag.max()].max())


def test_spec_validation():
    with pytest.raises(ParameterError):
        tk.GridSpec(4, 64)
    with pytest.raises(ParameterError):
        tk.GridSpec(1, 100)
    with pytest.raises(ParameterError):
        tk.GridSpec(1, 4)
    with pytest.raises(ParameterError):
        tk.GridSpec(1, 64, -1.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_spec_refuses_lengths_whose_squared_nyquist_overflows(dim):
    # the shortest length keeping dim*(pi*N/L)^2 in float64, and just inside it
    points = 256
    shortest = np.pi * points * np.sqrt(dim / np.finfo(np.float64).max)
    with pytest.raises(ParameterError, match="--grid-length"):
        tk.GridSpec(dim, points, shortest * (1.0 - 1e-9))
    spec = tk.GridSpec(dim, points, shortest * (1.0 + 1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(spec.frequency_radius).all()


def test_frequency_lattice_integers():
    spec = tk.GridSpec(1, 256)
    rad = spec.frequency_radius
    assert rad.max() == spec.nyquist == 128.0
    assert np.allclose(rad, np.round(rad), atol=1e-12)


def test_transform_round_trip(spec256):
    f = tk.random_bandlimited(spec256, 5, 7, real_output=False)
    back = np.fft.ifftn(unitary_dft(f), norm="ortho")
    assert np.max(np.abs(back - f.values)) < 1e-12


def test_parseval(spec256):
    f = tk.random_bandlimited(spec256, 5, 8, real_output=False)
    lhs = tk.lp_norm(f, 2.0)
    rhs = float(np.sqrt(np.sum(np.abs(unitary_dft(f)) ** 2) * spec256.cell_volume))
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_bandlimited_support_and_determinism(spec256):
    f = tk.random_bandlimited(spec256, 4, 99)
    g = tk.random_bandlimited(spec256, 4, 99)
    assert np.array_equal(f.values, g.values)
    assert support_radius(f) <= 16.0
    assert not np.any(f.values.imag)
    h = tk.random_bandlimited(spec256, 4, 100, real_output=False)
    assert np.any(h.values.imag)
    with pytest.raises(ParameterError):
        tk.random_bandlimited(spec256, 7, 0)  # 2^8 = 256 >= nyquist


def test_refine_preserves_shared_points():
    coarse = tk.random_bandlimited(tk.GridSpec(1, 128), 4, 11)
    fine = tk.refine(coarse, 2)
    assert fine.spec.points == 256
    assert np.max(np.abs(fine.values[::2] - coarse.values)) < 1e-12
    # spectral support unchanged
    assert support_radius(fine) <= 16.0
    coarse2d = tk.random_bandlimited(tk.GridSpec(2, 32), 2, 12)
    fine2d = tk.refine(coarse2d, 2)
    assert np.max(np.abs(fine2d.values[::2, ::2] - coarse2d.values)) < 1e-12


def test_binary_round_trip(tmp_path, spec256):
    f = tk.random_bandlimited(spec256, 3, 5, real_output=False)
    path = tmp_path / "f.bin"
    tk.write_binary(f, path)
    g = tk.read_binary(path)
    assert g.spec == f.spec
    assert np.array_equal(g.values, f.values)


def test_binary_truncation_rejected(tmp_path, spec256):
    f = tk.random_bandlimited(spec256, 3, 5)
    path = tmp_path / "f.bin"
    tk.write_binary(f, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ParameterError):
        tk.read_binary(path)


def test_csv_round_trip(tmp_path, spec64):
    f = tk.random_bandlimited(spec64, 3, 6, real_output=False)
    path = tmp_path / "f.csv"
    tk.write_csv(f, path)
    g = tk.read_csv(path, spec64)
    assert np.array_equal(g.values, f.values)
    # drop one row: must be rejected
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParameterError):
        tk.read_csv(path, spec64)


def test_lp_norm_variants(spec64):
    f = tk.GridFunction(spec64, np.full(64, 2.0, dtype=np.complex128))
    h = spec64.cell_volume
    assert abs(tk.lp_norm(f, 3.0) - 2.0 * (64 * h) ** (1 / 3)) < 1e-14
    assert tk.lp_norm(f, np.inf) == 2.0
    with pytest.raises(ParameterError):
        tk.lp_norm(f, 0.0)
    with pytest.raises(ParameterError):
        tk.lp_norm(f, -np.inf)


@pytest.mark.parametrize("p", [2.0, 3.5])
def test_lp_norm_homogeneous_near_float_limits(spec64, p):
    # p-th powers of these samples leave float64; the norm must not
    f = tk.random_bandlimited(spec64, 3, 99)
    spike = spike_field(spec64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for c in (1e200, 1e-200):
            assert tk.lp_norm(c * f, p) == pytest.approx(c * tk.lp_norm(f, p),
                                                         rel=1e-12, abs=0)
        want = np.ldexp(tk.lp_norm(scaled(spike, -1000), p), 1000)
        assert tk.lp_norm(spike, p) == pytest.approx(want, rel=1e-12, abs=0)


def test_arithmetic_and_mismatch(spec64, spec256):
    f = tk.random_bandlimited(spec64, 2, 1)
    g = tk.random_bandlimited(spec64, 2, 2)
    total = f + g
    assert np.allclose(total.values, f.values + g.values)
    scaled = 3.0 * f
    assert np.allclose(scaled.values, 3.0 * f.values)
    other = tk.random_bandlimited(spec256, 2, 1)
    with pytest.raises(tk.GridMismatchError):
        _ = f + other
