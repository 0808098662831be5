import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tlmkit as tk
from tlmkit.errors import ParameterError
from tlmkit.grid import _ldexp, _reflect_spectrum
from tlmkit.lpaley import FLAVORS, LPFamily, smooth_step, top_band


def test_smooth_step_plateaus():
    t = np.array([0.0, 1.0, 2.0, 2.0000001, 2.5, 2.9999999, 3.0, 10.0])
    v = smooth_step(t)
    assert np.all(v[:3] == 1.0)
    assert v[6] == 0.0 and v[7] == 0.0
    assert 0.0 < v[4] < 1.0
    assert np.all(np.diff(v) <= 1e-12)


@pytest.mark.parametrize("sharpness", [np.inf, np.nan, 0.0, -1.0])
def test_sharpness_must_be_positive_and_finite(spec256, sharpness):
    # smooth_step owns the check; build_family reaches it through the profile
    for make in (lambda: smooth_step([2.5], sharpness),
                 lambda: tk.build_family(spec256, 6, "plain", sharpness)):
        with pytest.raises(ParameterError, match="sharpness must be positive and finite"):
            make()


def test_partition_residual_both_flavors(spec256):
    for flavor in ("plain", "square_root"):
        family = tk.build_family(spec256, 6, flavor)
        assert tk.partition_residual(family) <= 1e-15


def test_band_supports(family_plain, spec256):
    rad = spec256.frequency_radius
    for j, mult in enumerate(family_plain.multipliers):
        if j == 0:
            outside = rad > 3.0
        else:
            outside = (rad < 2.0**j) | (rad > 3.0 * 2.0**j)
        assert np.all(mult[outside] == 0.0), f"band {j} leaks outside its annulus"
        assert mult.max() > 0.9


def test_corrupted_family_detected(spec256, family_plain):
    mults = list(family_plain.multipliers)
    mults[3] = mults[3] * 1.01
    broken = LPFamily(spec256, family_plain.flavor, family_plain.sharpness, 6, tuple(mults))
    assert tk.partition_residual(broken) > 0.005


def test_projection_linearity(family_plain, spec256):
    f = tk.random_bandlimited(spec256, 4, 21)
    g = tk.random_bandlimited(spec256, 4, 22)
    lhs = tk.project(family_plain, 2, f + g)
    rhs = tk.project(family_plain, 2, f) + tk.project(family_plain, 2, g)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-13


def test_project_all_matches_project(family_plain, f_band4):
    blocks = tk.project_all(family_plain, f_band4)
    for j in (0, 3, 6):
        single = tk.project(family_plain, j, f_band4)
        assert np.array_equal(blocks[j], single.values)


def _partial_sum_multiplier(family, n_terms):
    """The one multiplier of reconstruct(family, ., n_terms)."""
    if family.flavor == "square_root":
        return sum(m**2 for m in family.multipliers[: n_terms + 1])
    return smooth_step(family.spec.frequency_radius / 2.0**n_terms, family.sharpness)


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from([(1, 64), (1, 256), (2, 32), (3, 16)]),
       flavor=st.sampled_from(FLAVORS), seed=st.integers(0, 2**31 - 1),
       e=st.integers(-900, 900), cached=st.booleans(), data=st.data())
def test_real_fields_match_the_complex_transform(grid, flavor, seed, e, cached, data):
    # a real field's blocks come from irfftn on the half spectrum: real float64,
    # within 1e-14 of the stack's peak of the complex ifftn of the full spectrum,
    # and exactly 0.0 on bands disjoint from a band-limited field's support
    spec = tk.GridSpec(*grid)
    family = tk.build_family(spec, top_band(spec), flavor)
    band = data.draw(st.integers(0, family.j_max - 1), label="band")
    f = _ldexp(tk.random_bandlimited(spec, band, seed), e)
    if not cached:
        f = tk.GridFunction(spec, f.values)
    coeffs = f.coeffs()
    want = np.stack([np.fft.ifftn(m * coeffs, norm="ortho") for m in family.multipliers])
    tol = 1e-14 * np.max(np.abs(want))
    blocks = tk.project_all(family, f)
    assert blocks.dtype == np.float64 and blocks.shape == want.shape
    assert np.max(np.abs(blocks - want)) <= tol
    for j in range(family.j_max + 1):
        single = tk.project(family, j, f).values
        assert not np.any(single.imag) and np.max(np.abs(single - want[j])) <= tol
        total = _partial_sum_multiplier(family, j)
        back = tk.reconstruct(family, f, j).values
        ref = np.fft.ifftn(total * coeffs, norm="ortho")
        assert not np.any(back.imag)
        assert np.max(np.abs(back - ref)) <= 1e-14 * np.max(np.abs(ref))
    if cached:  # phi_j vanishes on |xi| <= 2**(j-1), which holds f's spectrum
        assert np.all(blocks[band + 1:] == 0.0)
        assert all(np.all(tk.project(family, j, f).values == 0.0)
                   for j in range(band + 1, family.j_max + 1))


@pytest.mark.parametrize("grid", [(1, 256), (2, 32), (3, 16)])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_complex_fields_keep_the_full_complex_transform(grid, flavor):
    # bit for bit the batched in-place ifftn of the full spectrum products
    spec = tk.GridSpec(*grid)
    family = tk.build_family(spec, top_band(spec), flavor)
    f = tk.random_bandlimited(spec, family.j_max - 1, 5, real_output=False)
    coeffs = f.coeffs()
    stack = np.stack([m * coeffs for m in family.multipliers])
    want = np.fft.ifftn(stack, axes=tuple(range(1, stack.ndim)), norm="ortho")
    assert np.array_equal(tk.project_all(family, f), want)
    for j, mult in enumerate(family.multipliers):
        assert np.array_equal(tk.project(family, j, f).values,
                              np.fft.ifftn(mult * coeffs, norm="ortho"))
        total = _partial_sum_multiplier(family, j)
        assert np.array_equal(tk.reconstruct(family, f, j).values,
                              np.fft.ifftn(total * coeffs, norm="ortho"))


def _stack_field(spec, kind, real, seed, data):
    """A field whose band stack skips lines or whole bands in its own way:
    an exact band-limited spectrum (zero top bands), the same samples with no
    spectrum (a field read from a file), a few isolated coefficients, zero."""
    if kind in ("band-limited", "file"):
        band = data.draw(st.integers(0, top_band(spec) - 1), label="band")
        f = tk.random_bandlimited(spec, band, seed, real_output=real)
        return f if kind == "band-limited" else tk.GridFunction(spec, f.values)
    coeffs = np.zeros(spec.shape, dtype=np.complex128)
    if kind == "isolated":
        rng = np.random.default_rng(seed)
        for _ in range(data.draw(st.integers(1, 4), label="nonzeros")):
            coeffs[tuple(rng.integers(spec.points, size=spec.dim))] = complex(*rng.normal(size=2))
        if real:  # Hermitian, so the samples are real
            coeffs = 0.5 * (coeffs + np.conj(_reflect_spectrum(coeffs)))
    values = np.fft.ifftn(coeffs, norm="ortho")
    cached = data.draw(st.booleans(), label="cached")
    return tk.GridFunction(spec, values.real if real else values,
                           spectrum=coeffs if cached else None)


@settings(max_examples=120, deadline=None)
@given(grid=st.sampled_from([(1, 64), (1, 256), (2, 16), (2, 32), (3, 8), (3, 16)]),
       flavor=st.sampled_from(FLAVORS), real=st.booleans(),
       kind=st.sampled_from(["band-limited", "file", "isolated", "zero"]),
       seed=st.integers(0, 2**31 - 1), data=st.data())
def test_pruned_band_stack_matches_the_full_transforms(grid, flavor, real, kind, seed, data):
    # each band transforms only the lines of its support box, or nothing when
    # its product is zero; numpy's full irfftn/ifftn of the same products gives
    # the same blocks up to the sign of a zero, and moduli with the same bits
    spec = tk.GridSpec(*grid)
    family = tk.build_family(spec, top_band(spec), flavor)
    f = _stack_field(spec, kind, real, seed, data)
    coeffs = f.coeffs()
    products = np.stack([m * coeffs for m in family.multipliers])
    axes = tuple(range(1, spec.dim + 1))
    if np.iscomplexobj(f.values):
        want = np.fft.ifftn(products, axes=axes, norm="ortho")
    else:
        half = spec.points // 2 + 1
        want = np.fft.irfftn(products[..., :half], s=spec.shape, axes=axes, norm="ortho")
    got = tk.project_all(family, f)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.abs(got).tobytes() == np.abs(want).tobytes()
    j = data.draw(st.integers(0, family.j_max), label="j")
    assert np.array_equal(tk.project(family, j, f).values, want[j])


def test_full_reconstruction_band_limited(spec256, f_band4):
    for flavor in ("plain", "square_root"):
        family = tk.build_family(spec256, 6, flavor)
        back = tk.reconstruct(family, f_band4, 6)
        scale = np.max(np.abs(f_band4.values))
        assert np.max(np.abs(back.values - f_band4.values)) < 1e-13 * scale


def test_build_family_validation(spec256):
    with pytest.raises(ParameterError, match="lower --jmax to at most 6"):
        tk.build_family(spec256, 7)  # 2^8 above Nyquist
    with pytest.raises(ParameterError, match="raise --grid-points or lower --grid-length"):
        tk.build_family(tk.GridSpec(1, 8, 100.0), 1)  # Nyquist 0.25: no band fits
    with pytest.raises(ParameterError):
        tk.build_family(spec256, 0)
    with pytest.raises(ParameterError):
        tk.build_family(spec256, 5, "fancy")
