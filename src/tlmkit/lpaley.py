"""Dyadic Littlewood-Paley multiplier families on the frequency lattice.

A radial profile g pinched between the indicators of the balls of radius
2 and 3 generates the family

    phi_0(xi) = g(|xi|),    phi_j(xi) = g(2**-j |xi|) - g(2**-j+1 |xi|),

which telescopes: sum_{j<=J} phi_j = g(2**-J |xi|), identically 1 on
{|xi| <= 2**(J+1)}.  The square-root flavor takes square roots of the
same differences so that the *squares* telescope, giving the partition
sum phi_j**2 = 1 used by the self-adjoint reconstruction sum
phi_j(D) phi_j(D).

phi_j is supported in the annulus {2**j <= |xi| <= 3 * 2**j}; families two
or more bands apart have disjoint supports (3 * 2**j < 2**(j+2)).

A band's inverse transform on a 2-D or 3-D grid skips what is exactly
zero (FFT pruning, Markel 1971).  It runs numpy's own 1-D passes in
numpy's order: irfftn takes ifft along the first axes in turn and irfft
along the last, ifftn takes the last axis first.  Each pass transforms
only the lines whose not yet transformed coordinates lie in the band's
support box, the axis projections of the nonzeros of multiplier times
spectrum; every other line is still zero, and so is its transform.  A
band whose product is zero everywhere is not transformed at all.  numpy
transforms each line on its own, with the same length and scale, so a
transformed line gets the bits it gets inside irfftn or ifftn.  A skipped
line keeps the product's zeros where the full transform writes zeros of
its own, perhaps of the other sign; the sign of a zero input reaches only
outputs that are themselves zero.  So the blocks are np.array_equal to
numpy's full transforms and their moduli keep every bit.  A 1-D band is
a single line, so a 1-D stack keeps one batched transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import GridFunction, GridSpec, _check_same_spec

__all__ = [
    "LPFamily",
    "smooth_step",
    "build_family",
    "top_band",
    "project",
    "project_all",
    "partition_residual",
    "reconstruct",
]

FLAVORS = ("plain", "square_root")


def smooth_step(t, sharpness: float = 1.0) -> np.ndarray:
    """C-infinity step: exactly 1 for t <= 2, exactly 0 for t >= 3.

    Built from eta(u) = exp(-sharpness/u) (u > 0, else 0) as
    g = eta(3-t) / (eta(3-t) + eta(t-2)).  Any finite sharpness > 0 yields
    an admissible profile; the default 1 is the reference profile.
    """
    if not (sharpness > 0 and np.isfinite(sharpness)):
        raise ParameterError(f"sharpness must be positive and finite, got {sharpness}")
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape)
    out[t <= 2.0] = 1.0
    mid = (t > 2.0) & (t < 3.0)
    if np.any(mid):
        tm = t[mid]
        up = np.exp(-sharpness / (3.0 - tm))
        down = np.exp(-sharpness / (tm - 2.0))
        out[mid] = up / (up + down)
    return out


@dataclass(frozen=True)
class LPFamily:
    """Multipliers phi_0 .. phi_{j_max} sampled on a grid's frequency lattice.

    flavor "plain": the multipliers themselves sum to 1.
    flavor "square_root": the *squares* of the multipliers sum to 1
    (profile g**(1/2), still pinched between the two indicators after
    squaring).  sharpness: that of the smooth_step profile g.
    """

    spec: GridSpec
    flavor: str
    sharpness: float
    j_max: int
    multipliers: tuple


def top_band(spec: GridSpec) -> int:
    """The largest j_max with 2**(j_max+1) <= Nyquist, the most build_family
    accepts; every band count and draw cap in the package derives from it."""
    return int(np.floor(np.log2(spec.nyquist * (1.0 + 1e-12)))) - 1


def build_family(
    spec: GridSpec,
    j_max: int,
    flavor: str = "plain",
    sharpness: float = 1.0,
) -> LPFamily:
    """Sample the dyadic family on the lattice; needs 2**(j_max+1) <= Nyquist."""
    top = top_band(spec)
    if top < 1:
        raise ParameterError(f"the grid admits no band: its Nyquist {spec.nyquist:g} is "
                             "below 2**2 = 4: raise --grid-points or lower --grid-length")
    if j_max < 1:
        raise ParameterError(f"j_max must be >= 1, got {j_max}")
    if j_max > top:
        raise ParameterError(
            f"--jmax {j_max} needs 2**(jmax+1) = {2**(j_max + 1)} <= the grid Nyquist "
            f"{spec.nyquist:g}: lower --jmax to at most {top} or raise --grid-points"
        )
    if flavor not in FLAVORS:
        raise ParameterError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    rad = spec.frequency_radius
    steps = [smooth_step(rad / 2.0**j, sharpness) for j in range(j_max + 1)]
    mults = []
    for j in range(j_max + 1):
        if j == 0:
            band = steps[0]
        else:
            band = steps[j] - steps[j - 1]
        if flavor == "square_root":
            band = np.sqrt(np.clip(band, 0.0, None))
        mults.append(band)
    return LPFamily(spec, flavor, sharpness, j_max, tuple(mults))


def _support_lines(spectrum: np.ndarray, axis: int):
    """For each axis of ``spectrum`` but ``axis``, the indices at which some
    nonzero lies: the axis projections of its support box.  None if the
    spectrum is zero everywhere."""
    # a complex != runs several times slower than one on the float64 parts,
    # which interleave along the last axis
    live = spectrum.view(np.float64) != 0
    plane = live.any(axis=axis)
    if axis != spectrum.ndim - 1:
        plane = plane.reshape(plane.shape[:-1] + (-1, 2)).any(axis=-1)
    if not plane.any():
        return None
    others = [a for a in range(spectrum.ndim) if a != axis]
    rest = tuple(range(plane.ndim))
    return {a: np.flatnonzero(plane.any(axis=rest[:k] + rest[k + 1:]))
            for k, a in enumerate(others)}


def _ifft_lines(spectrum: np.ndarray, axis: int, lines: dict) -> None:
    """In place, the unitary inverse DFT along ``axis`` of the lines of
    ``spectrum`` whose index on each axis a of ``lines`` is among lines[a];
    every other line is zero and stays as it is."""
    picked = sorted(a for a, idx in lines.items() if len(idx) < spectrum.shape[a])
    if not picked:
        np.fft.ifft(spectrum, axis=axis, norm="ortho", out=spectrum)
        return
    index = [slice(None)] * spectrum.ndim
    for k, a in enumerate(picked):  # an open mesh of the picked indices
        index[a] = lines[a].reshape((-1,) + (1,) * (len(picked) - 1 - k))
    index = tuple(index)
    spectrum[index] = np.fft.ifft(spectrum[index], axis=axis, norm="ortho")


def _band_stack(f: GridFunction, mults) -> np.ndarray:
    """The stack m(D) f for the multipliers m of ``mults``, from f's
    spectrum (f.coeffs()).

    Every multiplier is radial, so a real field (float64 samples) has real
    blocks: it is multiplied on the half spectrum (the last axis cut to
    N//2 + 1) and comes back real from the inverse real DFT.  A complex
    field takes the full complex inverse DFT.  A 1-D stack is one batched
    transform; on 2-D and 3-D grids each band skips the lines outside its
    support box (see the module docstring).
    """
    shape = f.spec.shape
    real = not np.iscomplexobj(f.values)
    coeffs = f.coeffs()
    if real:
        coeffs = coeffs[..., :shape[-1] // 2 + 1]
    width = coeffs.shape[-1]

    def last_pass(spectra, out):
        if real:
            return np.fft.irfft(spectra, n=shape[-1], axis=-1, norm="ortho", out=out)
        return np.fft.ifft(spectra, axis=-f.spec.dim, norm="ortho", out=out)

    if f.spec.dim == 1:
        spectra = np.empty((len(mults),) + coeffs.shape, dtype=np.complex128)
        for spectrum, mult in zip(spectra, mults):
            np.multiply(mult[..., :width], coeffs, out=spectrum)
        return last_pass(spectra, None if real else spectra)
    order = list(range(f.spec.dim)) if real else list(reversed(range(f.spec.dim)))
    stack = np.zeros((len(mults),) + shape, dtype=np.float64 if real else np.complex128)
    spectrum = np.empty(coeffs.shape, dtype=np.complex128)
    for band, mult in zip(stack, mults):
        np.multiply(mult[..., :width], coeffs, out=spectrum)
        lines = _support_lines(spectrum, order[0])
        if lines is None:
            continue
        for k, axis in enumerate(order[:-1]):
            _ifft_lines(spectrum, axis, {a: lines[a] for a in order[k + 1:]})
        last_pass(spectrum, band)
    return stack


def _apply_multiplier(f: GridFunction, mult: np.ndarray) -> GridFunction:
    return GridFunction(f.spec, _band_stack(f, (mult,))[0], spectrum=mult * f.coeffs())


def project(family: LPFamily, j: int, f: GridFunction) -> GridFunction:
    """Frequency projection phi_j(D) f via the unitary DFT.

    Reads the function's cached spectrum when it has one, so projections
    of exactly band-limited inputs onto disjoint bands are exactly zero.
    """
    if not 0 <= j <= family.j_max:
        raise ParameterError(f"band index {j} outside 0..{family.j_max}")
    _check_same_spec(family, f)
    return _apply_multiplier(f, family.multipliers[j])


def project_all(family: LPFamily, f: GridFunction) -> np.ndarray:
    """The block stack phi_0(D)f, ..., phi_{j_max}(D)f.

    An array of shape (j_max + 1, *grid shape) from f's spectrum
    (f.coeffs(): the exact one when f carries it, else the DFT f computes
    once and keeps) through _band_stack: one batched inverse DFT on 1-D
    grids, pruned per-band passes on 2-D and 3-D grids (see the module
    docstring); real float64 when f is real, complex otherwise.
    Raises ParameterError if a block leaves float64.
    """
    _check_same_spec(family, f)
    stack = _band_stack(f, family.multipliers)
    if not np.all(np.isfinite(stack)):
        raise ParameterError("samples must be finite")
    return stack


def partition_residual(family: LPFamily) -> float:
    """max |sum - 1| over lattice frequencies |xi| <= 2**(j_max+1).

    "sum" is the plain sum for the plain flavor and the sum of squares for
    the square-root flavor; both telescope to exactly 1 on the region.
    """
    if family.flavor == "square_root":
        total = sum(m**2 for m in family.multipliers)
    else:
        total = sum(family.multipliers)
    region = family.spec.dyadic_ball(family.j_max + 1)
    return float(np.max(np.abs(total[region] - 1.0)))


def reconstruct(family: LPFamily, f: GridFunction, n_terms: int) -> GridFunction:
    """Partial reconstruction through band n_terms (inclusive).

    Plain flavor: sum_{j<=n} phi_j(D) f.  Square-root flavor: the
    self-adjoint form sum_{j<=n} phi_j(D) phi_j(D) f.  Either way a single
    multiplier is applied, so one DFT round trip.

    For the plain flavor the partial sum telescopes in closed form to
    g(2**-n |xi|); evaluating the profile directly (instead of summing the
    stored differences) keeps that multiplier exactly 1 across the covered
    ball, so partial sums reproduce band-limited inputs without round-off.
    """
    if not 0 <= n_terms <= family.j_max:
        raise ParameterError(f"n_terms {n_terms} outside 0..{family.j_max}")
    _check_same_spec(family, f)
    if family.flavor == "square_root":
        total = sum(m**2 for m in family.multipliers[: n_terms + 1])
    else:
        total = smooth_step(family.spec.frequency_radius / 2.0**n_terms, family.sharpness)
    return _apply_multiplier(f, total)
