import csv
import itertools
import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tlmkit as tk
from conftest import scaled, spike_field
from tlmkit import grid
from tlmkit.errors import ParameterError
from tlmkit.grid import _ldexp


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


def test_writers_replace_an_existing_file(tmp_path, spec64, spec256):
    """Writing over a file makes a new file: a hard link to the old one keeps
    the old samples, a shorter write leaves no tail, and a symlink is
    written through."""
    old = tk.random_bandlimited(spec256, 3, 5)
    new = tk.random_bandlimited(spec64, 3, 6)
    for write, read in ((tk.write_binary, tk.read_binary),
                        (tk.write_csv, lambda path: tk.read_csv(path, spec64))):
        path, link = tmp_path / f"f.{write.__name__}", tmp_path / f"old.{write.__name__}"
        write(old, path)
        os.link(path, link)
        old_bytes = link.read_bytes()
        write(new, path)
        assert link.read_bytes() == old_bytes
        assert np.array_equal(read(path).values, new.values)
        via = tmp_path / f"via.{write.__name__}"
        via.symlink_to(link)
        write(new, via)
        assert via.is_symlink() and link.read_bytes() == path.read_bytes()


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


def _csv_writer_bytes(f, path):
    """What csv.writer writes for write_csv's rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im"])
        for i, v in enumerate(f.values.ravel()):
            writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])
    return path.read_bytes()


def _row_loop(path, spec):
    """read_csv through the row loop alone."""
    return grid._file_function(path, spec, grid._csv_samples(*grid._read_csv_rows(path, spec)))


def _outcome(read, path, spec):
    """(dtype, sample bytes) of a read, or the message it refuses with."""
    try:
        values = read(path, spec).values
    except ParameterError as exc:
        return str(exc)
    return values.dtype.str, values.tobytes()


# repr switches to exponent notation at 1e16 and below 1e-4
REPR_EDGES = [1e16, 9999999999999998.0, 1e-4, 9.9e-5, -0.0, 5e-324,
              1.7976931348623157e308, -1.7976931348623157e308]


@pytest.mark.parametrize("real_output", [True, False])
def test_write_csv_matches_csv_writer_across_chunks(tmp_path, real_output):
    f = tk.random_bandlimited(tk.GridSpec(2, 128), 4, 8, real_output=real_output)
    assert f.spec.size > 2 * grid._CSV_CHUNK
    tk.write_csv(f, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == _csv_writer_bytes(f, tmp_path / "ref.csv")
    assert _outcome(tk.read_csv, tmp_path / "f.csv", f.spec) == \
        _outcome(_row_loop, tmp_path / "f.csv", f.spec)


def test_write_csv_at_repr_switch_points(tmp_path):
    spec = tk.GridSpec(1, 8)
    edges = np.array(REPR_EDGES)
    signed_zeros = edges.astype(np.complex128)
    signed_zeros.imag = np.where(np.arange(8) % 2, -0.0, 1.0)
    for values in (edges, edges + 1j * edges[::-1], signed_zeros):
        f = tk.GridFunction(spec, values)
        tk.write_csv(f, tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_bytes() == _csv_writer_bytes(f, tmp_path / "ref.csv")
        assert grid._read_csv_in_order(tmp_path / "f.csv", spec) is not None
        assert _outcome(tk.read_csv, tmp_path / "f.csv", spec) == \
            _outcome(_row_loop, tmp_path / "f.csv", spec)


@pytest.mark.parametrize("real_output", [True, False])
def test_write_binary_bytes(tmp_path, real_output):
    f = tk.random_bandlimited(tk.GridSpec(2, 32), 2, 4, real_output=real_output)
    flat = f.values.ravel()
    data = np.empty(2 * flat.size, dtype="<f8")
    data[0::2] = flat.real
    data[1::2] = flat.imag
    tk.write_binary(f, tmp_path / "f.bin")
    want = struct.pack("<IId", 2, 32, f.spec.length) + data.tobytes()
    assert (tmp_path / "f.bin").read_bytes() == want
    signed = tk.GridFunction(tk.GridSpec(1, 8), np.array(REPR_EDGES) * (1 - 1j))
    tk.write_binary(signed, tmp_path / "s.bin")
    assert np.array_equal(tk.read_binary(tmp_path / "s.bin").values.view(np.uint64),
                          signed.values.view(np.uint64))


# the parts a text round trip may slip on: signed zeros, subnormals, the
# largest finite values and repr's notation switch points
_EDGE_PART = st.sampled_from(REPR_EDGES + [0.0, -5e-324, 2.2250738585072009e-308,
                                           -2.2250738585072014e-308])
_PART = st.one_of(_EDGE_PART, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(re=st.lists(_PART, min_size=8, max_size=8), im=st.lists(_PART, min_size=8, max_size=8),
       order=st.permutations(range(8)).filter(lambda order: order != list(range(8))))
def test_csv_reads_back_the_written_bits_like_bin(tmp_path_factory, re, im, order):
    spec = tk.GridSpec(1, 8)
    values = np.empty(8, dtype=np.complex128)
    values.real, values.imag = re, im
    f = tk.GridFunction(spec, values)
    written = (f.values.dtype.str, f.values.tobytes())
    path = tmp_path_factory.mktemp("rt")
    tk.write_binary(f, path / "f.bin")
    assert _outcome(lambda p, _: tk.read_binary(p), path / "f.bin", spec) == written
    tk.write_csv(f, path / "f.csv")
    assert grid._read_csv_in_order(path / "f.csv", spec) is not None
    assert _outcome(tk.read_csv, path / "f.csv", spec) == written
    # the same rows shuffled: read_csv leaves them to the row loop
    header, *rows = (path / "f.csv").read_bytes().split(b"\r\n")[:-1]
    (path / "f.csv").write_bytes(b"\r\n".join([header] + [rows[i] for i in order] + [b""]))
    assert grid._read_csv_in_order(path / "f.csv", spec) is None
    assert _outcome(tk.read_csv, path / "f.csv", spec) == written


ROWS8 = [f"{i},{v!r},{-v!r}" for i, v in enumerate(REPR_EDGES)]


def _body(rows, eol="\n"):
    return "index,re,im" + eol + "".join(row + eol for row in rows)


def _with(row3):
    return _body(ROWS8[:3] + [row3] + ROWS8[4:])


# files the in-order path must read as the row loop does, or leave to it
CSV_EDGE_CASES = {
    "crlf": _body(ROWS8, "\r\n"),
    "lone-cr": _body(ROWS8, "\r"),
    "no-final-eol": _body(ROWS8)[:-1],
    "blank-rows": _body(ROWS8[:4] + ["", ""] + ROWS8[4:], "\r\n"),
    "whitespace-row": _body(ROWS8[:4] + ["  "] + ROWS8[4:]),
    "tab-row": _body(ROWS8[:4] + ["\t"] + ROWS8[4:]),
    "repeated-header": _body(ROWS8[:4] + ["index,re,im"] + ROWS8[4:]),
    "other-header": "index,x,y\n" + _body(ROWS8).split("\n", 1)[1],
    "no-header": _body(ROWS8).split("\n", 1)[1],
    "extra-column": _body([row + ",7" for row in ROWS8]),
    "trailing-comma": _body([row + "," for row in ROWS8]),
    "quoted": _with('"3","1.0","2.0"'),
    "permuted": _body(ROWS8[::-1]),
    "duplicate": _body(ROWS8 + [ROWS8[2]]),
    "missing": _body(ROWS8[:-1]),
    "no-rows": "index,re,im\n",
    "empty-field": _with("3,,2.0"),
    "index-float": _with("3.0,1.0,2.0"),
    "index-underscore": _body([f"{i}_0,0.5,0.5" if i == 1 else f"{i},0.5,0.5" for i in range(8)]),
    "index-plus": _with("+3,1.0,2.0"),
    "index-spaced": _with(" 3 ,1.0,2.0"),
    "index-unicode-digit": _with("\u0663,1.0,2.0"),
    "index-huge": _with("9" * 400 + ",1.0,2.0"),
    "index-negative-zero": _body(["-0,1.0,2.0"] + ROWS8[1:]),
    "float-underscore": _with("3,1_0,2.0"),
    "float-hex": _with("3,0x10,2.0"),
    "float-fortran": _with("3,1d3,2.0"),
    "float-bare-exponent": _with("3,1e,2.0"),
    "float-complex": _with("3,1j,2.0"),
    "float-unicode-digit": _with("3,\u0661,2.0"),
    "float-spaced": _with("3, 1.5 ,2.0"),
    "float-tabbed": _with("3,\t1.5\t,2.0"),
    "float-separator": _with("3,\x1c1.5,2.0"),
    "index-separator": _with("\x1f3,1.5,2.0"),
    "float-nbsp": _with("3,\xa01.5,2.0"),
    "float-nul": _with("3,1.5\x00,2.0"),
    "float-inf": _with("3,inf,2.0"),
    "float-nan": _with("3,1.0,NaN"),
    "float-overflow": _with("3,1e400,2.0"),
    "float-underflow": _with("3,1e-400,-1e-400"),
    "float-short-forms": _with("3,5.,.5"),
    "float-long-digits": _with("3,2.2250738585072011e-308,9007199254740993"),
    "comment": _with("3,1.0,2.0#x"),
    "cr-inside-row": _with("3,1.0\r,2.0"),
}


@pytest.mark.parametrize("name", sorted(CSV_EDGE_CASES))
def test_read_csv_matches_row_loop_on_edge_files(tmp_path, name):
    spec = tk.GridSpec(1, 8)
    path = tmp_path / "f.csv"
    path.write_bytes(CSV_EDGE_CASES[name].encode())
    assert _outcome(tk.read_csv, path, spec) == _outcome(_row_loop, path, spec)


def test_read_csv_takes_the_in_order_path_only_on_plain_ascii(tmp_path):
    spec = tk.GridSpec(1, 8)
    path = tmp_path / "f.csv"
    for name in ("crlf", "lone-cr", "no-final-eol", "blank-rows", "float-spaced",
                 "index-plus", "float-underflow", "float-long-digits"):
        path.write_bytes(CSV_EDGE_CASES[name].encode())
        assert grid._read_csv_in_order(path, spec) is not None, name
    # loadtxt would read these, float() refuses them
    for name in ("float-separator", "index-separator"):
        path.write_bytes(CSV_EDGE_CASES[name].encode())
        assert grid._read_csv_in_order(path, spec) is None
        with pytest.raises(ParameterError, match="line 5"):
            tk.read_csv(path, spec)


# what an edit may write: field syntax, separators, every kind of whitespace
# and line end, quotes, and non-ASCII digits and spaces; single characters
# are drawn as often as strings of them
MUTATION_ALPHABET = list("0123456789+-._eEdxjinfatyINFATY,\"#' \t\r\n") + [
    "\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x7f", "\x85",
    "\xa0", "\u2028", "\u0663", "\ufffd"]
_EDIT_TEXT = st.one_of(st.sampled_from(MUTATION_ALPHABET),
                       st.text(alphabet=MUTATION_ALPHABET, max_size=3))


def _sample_text(v: float, style: int) -> str:
    return (repr(v), f"{v:.17e}", f"{v:.6g}", f" {v!r} ")[style]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=16, max_size=16),
       style=st.integers(0, 3), eol=st.sampled_from(["\r\n", "\n"]),
       field_edits=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 2), _EDIT_TEXT),
                            max_size=2),
       text_edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 2), _EDIT_TEXT),
                           max_size=2))
def test_read_csv_matches_row_loop(tmp_path_factory, values, style, eol,
                                   field_edits, text_edits):
    spec = tk.GridSpec(1, 8)
    fields = [[str(i), _sample_text(values[2 * i], style), _sample_text(values[2 * i + 1], style)]
              for i in range(8)]
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_bytes(_body([",".join(row) for row in fields], eol).encode())
    assert grid._read_csv_in_order(path, spec) is not None
    # a field edit pads a field in front or behind, or replaces it
    for k, how, new in field_edits:
        row, col = divmod(k, 3)
        old = fields[row][col]
        fields[row][col] = (new + old, old + new, new)[how]
    text = _body([",".join(row) for row in fields], eol)
    # a text edit replaces up to two characters anywhere with up to three
    for where, width, new in text_edits:
        i = where % (len(text) + 1)
        text = text[:i] + new + text[i + width:]
    path.write_bytes(text.encode())
    assert _outcome(tk.read_csv, path, spec) == _outcome(_row_loop, path, spec)


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


def test_a_field_knows_it_is_real(tmp_path, spec64):
    # float64 samples exactly when the imaginary part is zero, -0.0 included
    x = tk.random_bandlimited(spec64, 3, 7).values
    signed = x.astype(np.complex128)
    signed.imag = np.where(np.arange(64) % 2, -0.0, 0.0)
    for values in (x, x.astype(np.complex128), signed, list(x), np.arange(64)):
        f = tk.GridFunction(spec64, values)
        assert f.values.dtype == np.float64 and f.values.flags.c_contiguous
        assert np.array_equal(f.values, np.real(values))
    z = tk.random_bandlimited(spec64, 3, 7, real_output=False)
    assert z.values.dtype == np.complex128 and np.any(z.values.imag)
    assert tk.GridFunction(spec64, z.values).values.dtype == np.complex128
    # spectra stay complex128, whatever the samples
    real = tk.random_bandlimited(spec64, 3, 7)
    assert real.values.dtype == np.float64
    assert real.spectrum.dtype == z.spectrum.dtype == np.complex128
    assert tk.GridFunction(spec64, x, spectrum=np.ones(64)).spectrum.dtype == np.complex128
    # a real field read back from either file format is real again
    for f, want in ((real, np.float64), (z, np.complex128)):
        tk.write_binary(f, tmp_path / "f.bin")
        tk.write_csv(f, tmp_path / "f.csv")
        for g in (tk.read_binary(tmp_path / "f.bin"), tk.read_csv(tmp_path / "f.csv", spec64)):
            assert g.values.dtype == want and np.array_equal(g.values, f.values)


def test_arithmetic_and_ldexp_keep_dtypes_exactly(spec64):
    f = tk.random_bandlimited(spec64, 2, 1)
    g = tk.random_bandlimited(spec64, 2, 2)
    z = tk.random_bandlimited(spec64, 2, 3, real_output=False)
    assert (f + g).values.dtype == (f - g).values.dtype == (2.5 * f).values.dtype == np.float64
    assert np.array_equal((f + g).values, f.values + g.values)
    assert np.array_equal((f - g).values, f.values - g.values)
    assert np.array_equal((2.5 * f).values, 2.5 * f.values)
    assert (f + z).values.dtype == (1j * f).values.dtype == np.complex128
    assert np.array_equal((f + z).values, f.values + z.values)
    assert (f + g).spectrum.dtype == (2.5 * f).spectrum.dtype == np.complex128
    assert np.array_equal((f + g).spectrum, f.spectrum + g.spectrum)
    for h, e in itertools.product((f, z, tk.GridFunction(spec64, f.values)), (-700, -1, 3, 900)):
        scaled_h = _ldexp(h, e)
        assert scaled_h.values.dtype == h.values.dtype
        assert np.array_equal(scaled_h.values.real, np.ldexp(h.values.real, e))
        assert np.array_equal(scaled_h.values.imag, np.ldexp(h.values.imag, e))
        assert np.array_equal(_ldexp(scaled_h, -e).values, h.values)
        if h.spectrum is None:
            assert scaled_h.spectrum is None
        else:
            assert scaled_h.spectrum.dtype == np.complex128
            assert np.array_equal(_ldexp(scaled_h, -e).spectrum, h.spectrum)


@pytest.mark.parametrize("real_output", [True, False])
def test_the_dft_is_computed_once_and_read_only(spec256, fftn_calls, real_output):
    drawn = tk.random_bandlimited(spec256, 4, 11, real_output=real_output)
    assert drawn.coeffs() is drawn.spectrum  # the exact spectrum, never a transform
    f = tk.GridFunction(spec256, drawn.values)
    start = len(fftn_calls)
    coeffs = f.coeffs()
    assert f.coeffs() is coeffs and len(fftn_calls) == start + 1
    assert np.array_equal(coeffs, np.fft.fftn(f.values, norm="ortho"))
    assert coeffs.dtype == np.complex128 and not coeffs.flags.writeable
    with pytest.raises(ValueError):
        coeffs[0] = 0.0
    # arithmetic passes on only exact spectra, so it cannot depend on the cache
    assert (f + f).spectrum is None and (2.0 * f).spectrum is None


@pytest.mark.parametrize("real_output", [True, False])
def test_a_mutated_source_cannot_stale_the_dft(spec64, real_output):
    source = np.array(tk.random_bandlimited(spec64, 3, 5, real_output=real_output).values)
    kept = source.copy()
    f = tk.GridFunction(spec64, source)
    coeffs = np.array(f.coeffs())
    source[0] += 1.0
    assert not np.shares_memory(f.values, source)
    assert np.array_equal(f.values, kept) and np.array_equal(f.coeffs(), coeffs)
    assert not f.values.flags.writeable
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    assert source.flags.writeable  # the caller's array is left as it was


@pytest.mark.parametrize("grid", [(1, 256), (2, 32), (3, 16)])
def test_dyadic_ball_keeps_its_sphere(grid):
    spec = tk.GridSpec(*grid)
    for k in range(3):
        ball = spec.dyadic_ball(k)
        assert np.array_equal(ball, spec.frequency_radius <= 2.0**k * (1.0 + 1e-12))
        # the lattice point at radius exactly 2**k lies inside
        assert ball[(2**k,) + (0,) * (spec.dim - 1)]
        assert not ball[(2**k + 1,) + (0,) * (spec.dim - 1)]
