import numpy as np
import pytest

import tlmkit as tk
from tlmkit.errors import ParameterError
from tlmkit.lpaley import LPFamily, smooth_step


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
