"""Periodic grids and grid functions.

Euclidean space is modeled by the torus [0, L)^n sampled on a uniform
lattice of N points per axis (N a power of two).  Frequency-domain
operators act as pointwise multipliers on unitary DFT coefficients, so
Parseval's identity holds exactly and no normalization constant leaks
into computed norms.

The frequency lattice is xi = 2*pi*k/L with integer k per axis; with the
default L = 2*pi the frequencies are the integers themselves.  The FFT
layout labels the Nyquist row -N/2 rather than +N/2; every multiplier in
this package is radial, so the label sign never matters.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, ParameterError

__all__ = [
    "GridSpec",
    "GridFunction",
    "lp_norm",
    "random_bandlimited",
    "refine",
    "read_binary",
    "write_binary",
    "read_csv",
    "write_csv",
]

_HEADER = struct.Struct("<IId")  # dim, points per axis, domain length
_ECHO_CHARS = 80  # longest bad CSV row quoted back in an error

# binary exponents of float64's normal range, 2^-1022 .. 2^1024
_MIN_EXP = np.finfo(np.float64).minexp
_MAX_EXP = np.finfo(np.float64).maxexp


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _rescale_exponent(peak: float, power: float, growth: float) -> int:
    """0 while peak**power, and sums of it up to ``growth`` times larger,
    stay in float64's normal range; otherwise the binary exponent e of the
    peak (peak = m 2^e, 1/2 <= m < 1).  Scaling by 2^-e is exact, and the
    norms built on these powers are 1-homogeneous, so 2^e scales back."""
    if peak == 0.0:
        return 0
    top = power * math.log2(peak)
    if _MIN_EXP <= top and top + math.log2(growth) < _MAX_EXP:
        return 0
    return math.frexp(peak)[1]


def _ldexp_back(arr, e: int, what: str):
    """arr * 2^e, undoing a _rescale_exponent scaling of nonnegative values;
    ParameterError, naming ``what``, if one would leave float64's range."""
    if math.frexp(float(np.max(arr)))[1] + e > _MAX_EXP:
        raise ParameterError(f"{what} overflows float64")
    return np.ldexp(arr, e)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice on [0, L)^dim.

    Parameters
    ----------
    dim : spatial dimension, 1 to 3.
    points : points per axis N, a power of two, at least 8.
    length : side length L of the periodic box (default 2*pi).
    """

    dim: int
    points: int
    length: float = 2.0 * np.pi

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ParameterError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not _is_power_of_two(self.points) or self.points < 8:
            raise ParameterError(
                f"points must be a power of two >= 8, got {self.points}"
            )
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ParameterError(f"length must be positive, got {self.length}")
        # frequency_radius squares frequencies up to the Nyquist pi*N/L
        log2_nyquist = math.log2(math.pi * self.points) - math.log2(self.length)
        if 2.0 * log2_nyquist + math.log2(self.dim) >= _MAX_EXP:
            raise ParameterError(
                f"length {self.length:g} is too short for {self.points} points in "
                f"{self.dim}-D: the squared Nyquist frequency dim*(pi*N/L)^2 overflows "
                "float64; raise --grid-length"
            )

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dim

    @property
    def size(self) -> int:
        return self.points**self.dim

    @property
    def spacing(self) -> float:
        """Lattice spacing h = L/N."""
        return self.length / self.points

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def nyquist(self) -> float:
        """Largest resolved radial frequency per axis, pi*N/L."""
        return np.pi * self.points / self.length

    @cached_property
    def axis_frequencies(self) -> np.ndarray:
        """1-d array of angular frequencies 2*pi*k/L in FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    @cached_property
    def frequency_radius(self) -> np.ndarray:
        """|xi| on the full lattice, shape ``self.shape``, FFT layout."""
        axes = np.meshgrid(
            *([self.axis_frequencies] * self.dim), indexing="ij", sparse=True
        )
        rad2 = sum(a**2 for a in axes)
        return np.sqrt(rad2)

    @cached_property
    def coordinates(self) -> list:
        """Per-axis sample coordinates x = i*h as sparse meshgrid arrays."""
        x = np.arange(self.points) * self.spacing
        return np.meshgrid(*([x] * self.dim), indexing="ij", sparse=True)


def _as_field(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.size != spec.size:
        raise ParameterError(
            f"expected {spec.size} samples for {spec.shape}, got {arr.size}"
        )
    arr = arr.reshape(spec.shape)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("samples must be finite")
    return arr


@dataclass(frozen=True)
class GridFunction:
    """Complex-valued samples on a :class:`GridSpec` lattice (row-major).

    ``spectrum`` optionally carries the unitary DFT of the samples.  It is
    set by constructors that build a function *from* its coefficients
    (:func:`random_bandlimited`, :func:`refine`, band projections), where
    the coefficient array is known exactly, zeros included.  Multiplier
    operators read it through :meth:`coeffs`, so a function assembled with
    exactly bounded spectral support keeps exact zeros through the whole
    projection pipeline instead of picking up transform round-off.
    Linear arithmetic propagates the cache when every operand has one.
    """

    spec: GridSpec
    values: np.ndarray
    spectrum: np.ndarray = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_field(self.spec, self.values))
        if self.spectrum is not None:
            object.__setattr__(self, "spectrum", _as_field(self.spec, self.spectrum))

    def coeffs(self) -> np.ndarray:
        """Unitary DFT of the samples (the cached spectrum when present)."""
        if self.spectrum is not None:
            return self.spectrum
        return np.fft.fftn(self.values, norm="ortho")

    def modulus(self) -> np.ndarray:
        return np.abs(self.values)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_same_spec(self, other)
        spectrum = None
        if self.spectrum is not None and other.spectrum is not None:
            spectrum = self.spectrum + other.spectrum
        return GridFunction(self.spec, self.values + other.values, spectrum)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_spec(self, other)
        spectrum = None
        if self.spectrum is not None and other.spectrum is not None:
            spectrum = self.spectrum - other.spectrum
        return GridFunction(self.spec, self.values - other.values, spectrum)

    def __mul__(self, scalar: complex) -> "GridFunction":
        spectrum = None if self.spectrum is None else self.spectrum * scalar
        return GridFunction(self.spec, self.values * scalar, spectrum)

    __rmul__ = __mul__


def _ldexp(f: GridFunction, e: int) -> GridFunction:
    """f * 2^e, exact at any e: real and imaginary parts go through np.ldexp."""
    def scale(arr):
        return None if arr is None else np.ldexp(arr.view(np.float64), e).view(np.complex128)
    return GridFunction(f.spec, scale(f.values), scale(f.spectrum))


def _check_same_spec(a, b) -> None:
    if a.spec != b.spec:
        raise GridMismatchError(f"grid mismatch: {a.spec} vs {b.spec}")


def _reflect_spectrum(arr: np.ndarray) -> np.ndarray:
    """Coefficient array at the mirrored frequencies, k -> -k mod N."""
    idx = tuple((-np.arange(n)) % n for n in arr.shape)
    return arr[np.ix_(*idx)]


def lp_norm(f: GridFunction, p: float) -> float:
    """Discrete L^p norm (sum |f|^p h^n)^(1/p); p = inf gives the sup."""
    if not p > 0:
        raise ParameterError(f"p must be positive, got {p}")
    a = f.modulus()
    if np.isinf(p):
        return float(a.max())
    e = _rescale_exponent(float(a.max()), p, a.size)
    if e:
        value = lp_norm(GridFunction(f.spec, np.ldexp(a, -e)), p)
        return float(_ldexp_back(value, e, f"the L^{p:g} norm"))
    return float((np.sum(a**p) * f.spec.cell_volume) ** (1.0 / p))


def random_bandlimited(
    spec: GridSpec,
    max_band: int,
    seed: int,
    real_output: bool = True,
) -> GridFunction:
    """Random function with spectrum supported in {|xi| <= 2**max_band}.

    Gaussian white noise is drawn on the lattice (one ``default_rng(seed)``
    stream, the package-wide generator), transformed, masked to the ball of
    radius 2**max_band, and transformed back.  Deterministic in ``seed``.

    Requires 2**(max_band + 1) < pi*N/L so the band sits strictly inside
    the resolved frequencies and the dyadic annulus above it is empty.
    """
    if max_band < 0:
        raise ParameterError(f"max_band must be >= 0, got {max_band}")
    if 2.0 ** (max_band + 1) >= spec.nyquist:
        raise ParameterError(
            f"band 2**{max_band} too wide for grid (need 2**(K+1) < {spec.nyquist:g})"
        )
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(spec.shape)
    if not real_output:
        noise = noise + 1j * rng.standard_normal(spec.shape)
    coeffs = np.fft.fftn(noise, norm="ortho")
    mask = spec.frequency_radius <= 2.0**max_band * (1.0 + 1e-12)
    coeffs = np.where(mask, coeffs, 0.0)
    out = np.fft.ifftn(coeffs, norm="ortho")
    if real_output:
        out = out.real.astype(np.complex128)
        # taking the real part symmetrizes the spectrum; the mask is
        # reflection-invariant, so the exact support survives
        coeffs = 0.5 * (coeffs + np.conj(_reflect_spectrum(coeffs)))
    return GridFunction(spec, out, spectrum=coeffs)


def refine(f: GridFunction, factor: int) -> GridFunction:
    """Resample onto a grid with ``factor`` times the points per axis.

    Spectral zero-padding: the same trigonometric polynomial evaluated on
    the finer lattice, so physical values at shared points are preserved.
    """
    if factor < 1 or not _is_power_of_two(factor):
        raise ParameterError(f"factor must be a power of two >= 1, got {factor}")
    if factor == 1:
        return f
    spec = f.spec
    fine = GridSpec(spec.dim, spec.points * factor, spec.length)
    coarse = np.fft.fftshift(f.coeffs())
    embedded = np.zeros(fine.shape, dtype=np.complex128)
    start = (fine.points - spec.points) // 2
    sl = tuple(slice(start, start + spec.points) for _ in range(spec.dim))
    embedded[sl] = coarse
    embedded = np.fft.ifftshift(embedded) * np.sqrt(fine.size / spec.size)
    return GridFunction(fine, np.fft.ifftn(embedded, norm="ortho"),
                        spectrum=embedded)


def _file_function(path, spec: GridSpec, values: np.ndarray) -> GridFunction:
    """GridFunction of a file's samples; a rejected sample names the file."""
    try:
        return GridFunction(spec, values)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def write_binary(f: GridFunction, path) -> None:
    """16-byte header (dim uint32, N uint32, L float64, little endian)
    followed by interleaved re/im float64 samples in row-major order."""
    flat = f.values.ravel()
    data = np.empty(2 * flat.size, dtype="<f8")
    data[0::2] = flat.real
    data[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(f.spec.dim, f.spec.points, f.spec.length))
        fh.write(data.tobytes())


def read_binary(path) -> GridFunction:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ParameterError(f"{path}: truncated header")
    payload = len(raw) - _HEADER.size
    if payload % 8:
        raise ParameterError(f"{path}: {payload}-byte payload is not whole float64 values")
    dim, points, length = _HEADER.unpack_from(raw)
    try:
        spec = GridSpec(dim, points, length)
    except ParameterError as exc:
        raise ParameterError(f"{path}: bad header: {exc}") from None
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if body.size != 2 * spec.size:
        raise ParameterError(
            f"{path}: expected {2 * spec.size} float64 payload values, got {body.size}"
        )
    # interleaved re/im pairs are complex128 already; no arithmetic, so a
    # non-finite sample reaches the finiteness check without a numpy warning
    return _file_function(path, spec, body.view("<c16").copy())


def write_csv(f: GridFunction, path) -> None:
    """Rows (index, re, im) with a header line; index is row-major."""
    flat = f.values.ravel()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im"])
        for i, v in enumerate(flat):
            writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])


def read_csv(path, spec: GridSpec) -> GridFunction:
    """Read rows (index, re, im); each index 0..size-1 exactly once."""
    values = np.zeros(spec.size, dtype=np.complex128)
    seen = np.zeros(spec.size, dtype=bool)
    n_rows = 0
    # undecodable bytes become U+FFFD and fail the row parse below
    with open(path, newline="", errors="replace") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0] == "index":
                continue
            try:
                i = int(row[0])
                value = float(row[1]) + 1j * float(row[2])
            except (IndexError, ValueError):
                got = repr(row)
                if len(got) > _ECHO_CHARS:
                    got = got[:_ECHO_CHARS] + "..."
                raise ParameterError(
                    f"{path}: line {reader.line_num}: expected index,re,im, got {got}"
                ) from None
            if not 0 <= i < spec.size:
                raise ParameterError(f"{path}: index {i} out of range")
            values[i] = value
            seen[i] = True
            n_rows += 1
    if not seen.all():
        raise ParameterError(f"{path}: missing {int((~seen).sum())} samples")
    if n_rows != spec.size:
        raise ParameterError(f"{path}: {n_rows - spec.size} duplicate indices")
    return _file_function(path, spec, values)
