import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tlmkit.report
from tlmkit import BaselineStore, GridSpec, SuiteConfig, random_bandlimited, write_binary, write_csv
from tlmkit.cli import build_parser, main
from tlmkit.lpaley import FLAVORS
from tlmkit.morrey import WINDOW_SHAPES
from tlmkit.suites import HOLDER_SETUPS
from conftest import spike_field

GRID64 = ["--grid-points", "64"]  # morrey-norm reads no band count
SMALL = GRID64 + ["--jmax", "4"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_morrey_norm_demo_deterministic(capsys):
    code, out, _ = run(["morrey-norm"], capsys)
    assert code == 0
    assert out.startswith("morrey-norm p=4 q=2")
    code2, out2, _ = run(["morrey-norm"], capsys)
    assert out2 == out


def test_morrey_norm_demo_near_oracle(capsys):
    code, out, _ = run(["morrey-norm", "--windows", "ball"], capsys)
    assert code == 0
    value = float(out.split(":")[1])
    assert value == pytest.approx(2.0 ** 0.25, rel=0.05)


def test_tlm_norm_demo(capsys):
    code, out, _ = run(["tlm-norm"] + SMALL, capsys)
    assert code == 0
    value = float(out.split(":")[1])
    assert np.isfinite(value) and value > 0


def test_tlm_norm_rejects_bad_exponents(capsys):
    code, _, err = run(["tlm-norm", "-p", "2", "-q", "4"] + SMALL, capsys)
    assert code == 2
    assert "error:" in err


def test_tlm_norm_inf_r(capsys):
    for spelling in ("inf", "INF", " Infinity "):  # what float() parses
        code, out, _ = run(["tlm-norm", "-r", spelling] + SMALL, capsys)
        assert code == 0
        assert "r=inf" in out


def test_missing_input_is_io_error(capsys, tmp_path):
    code, _, err = run(["morrey-norm", "--input", str(tmp_path / "nope.bin")],
                       capsys)
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("target", ["missing-dir/x.json", "."], ids=["missing-dir", "a-directory"])
def test_out_errors_name_the_given_path(capsys, tmp_path, target):
    out = tmp_path / target
    code, _, err = run(["tlm-norm", "--out", str(out)] + SMALL, capsys)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(out)) in err and ".tmp" not in err
    assert not list(tmp_path.glob("*.tmp"))  # no temp file left behind


@pytest.mark.parametrize("argv", [
    ["verify-all"], ["calibrate", "--force"], ["maximal-suite"], ["scalar-suite"],
    ["tlm-norm"] + SMALL, ["morrey-norm"], ["diamond-check"] + SMALL, ["interp-demo"] + SMALL,
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["missing-dir/x.json", ".", "a-file/x.json"],
                         ids=["missing-dir", "a-directory", "under-a-file"])
def test_bad_out_is_refused_before_any_work(capsys, tmp_path, argv, target):
    # an --out that cannot be written exits 3 at once: nothing computed, nothing printed
    (tmp_path / "a-file").write_text("")
    out = tmp_path / target
    code, stdout, err = run(argv + ["--out", str(out)], capsys)
    assert code == 3
    assert stdout == ""  # no norm, no check line, no "checks:" tally
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(out)) in err


@pytest.mark.parametrize("argv", [["verify-all"], ["tlm-norm"] + SMALL, ["calibrate", "--force"]],
                         ids=lambda argv: argv[0])
def test_empty_out_is_refused_before_any_work(capsys, monkeypatch, argv):
    # an empty --out names no file: exit 3 at once, like any other unwritable --out
    def no_work(*args, **kwargs):
        raise AssertionError("computed before refusing the empty --out")
    for name in ("verify_all", "tlm_norm", "calibrate_constants"):
        monkeypatch.setattr(f"tlmkit.cli.{name}", no_work)
    code, stdout, err = run(argv + ["--out", ""], capsys)
    assert code == 3
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith("''")


def test_binary_and_csv_input_agree(capsys, tmp_path):
    spec = GridSpec(1, 64, 2.0 * np.pi)
    f = random_bandlimited(spec, 3, seed=99)
    bin_path = tmp_path / "f.bin"
    csv_path = tmp_path / "f.csv"
    write_binary(f, str(bin_path))
    write_csv(f, str(csv_path))
    code_b, out_b, _ = run(["morrey-norm", "--input", str(bin_path)] + GRID64,
                           capsys)
    code_c, out_c, _ = run(["morrey-norm", "--input", str(csv_path)] + GRID64,
                           capsys)
    assert code_b == code_c == 0
    assert out_b.split(":")[1] == out_c.split(":")[1]


ROWS = [f"{i},0.5,0.0" for i in range(64)]  # a valid 1-d, 64-point CSV body


def _csv(rows):
    return "index,re,im\n" + "".join(f"{row}\n" for row in rows)


def _bin(points, samples):
    payload = np.zeros(2 * points)
    payload[0:2 * len(samples):2] = samples
    return struct.pack("<IId", 1, points, 2.0 * np.pi) + payload.astype("<f8").tobytes()


@pytest.mark.parametrize("name,content", [
    ("short-row.csv", _csv(ROWS[:3] + ["3,0.5"] + ROWS[4:])),
    ("bad-index.csv", _csv(ROWS[:3] + ["three,0.5,0.0"] + ROWS[4:])),
    ("duplicate.csv", _csv(ROWS + ["5,0.25,0.0"])),
    ("not-utf8.csv", _csv(ROWS).encode().replace(b"3,0.5,0.0", b"3,0.5,\xff", 1)),
    ("nan.csv", _csv(ROWS[:3] + ["3,nan,0.0"] + ROWS[4:])),
    ("ragged.bin", struct.pack("<IId", 1, 64, 2.0 * np.pi) + bytes(4)),
    ("inf.bin", _bin(64, [0.5, 0.5, np.inf])),
    ("grid-mismatch.bin", _bin(128, [0.5])),
    # write_csv's CRLF rows with a quote for the header's LF: the reader
    # swallows every later row into one field
    ("stray-quote.csv", 'index,re,im\r"' + "".join(f"{row}\r\n" for row in ROWS)),
], ids=["short-row", "bad-index", "duplicate-index", "not-utf8", "nan-sample",
        "ragged-payload", "inf-sample", "grid-mismatch", "stray-quote"])
def test_malformed_input_exits_2(capsys, tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, _, err = run(["morrey-norm", "--input", str(path)] + GRID64, capsys)
    assert code == 2
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1
    assert len(err.encode()) < 512


@pytest.fixture(scope="module")
def valid_sample_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    f = random_bandlimited(GridSpec(1, 64), 3, seed=99)
    write_binary(f, str(root / "f.bin"))
    write_csv(f, str(root / "f.csv"))
    return {ext: (root / f"f.{ext}").read_bytes() for ext in ("bin", "csv")}


# run() drains capsys, so the shared fixture starts empty for every example
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ext=st.sampled_from(["bin", "csv"]), where=st.integers(0, 2**16),
       truncate=st.booleans(), byte=st.integers(0, 255))
def test_mutated_input_exits_0_or_names_file(capsys, tmp_path_factory,
                                             valid_sample_files, ext, where,
                                             truncate, byte):
    raw = valid_sample_files[ext]
    i = where % len(raw)
    data = raw[:i] if truncate else raw[:i] + bytes([byte]) + raw[i + 1:]
    path = tmp_path_factory.mktemp("mutated") / f"m.{ext}"
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        code, out, err = run(["morrey-norm", "--input", str(path)] + GRID64, capsys)
    if code == 2:
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1
    else:
        assert code == 0
        assert np.isfinite(float(out.rsplit(":", 1)[1]))
    # a sample blown up near the float64 limit must not overflow the norm
    assert not caught, [str(w.message) for w in caught]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command", ["tlm-norm", "diamond-check"])
def test_out_is_strict_json(capsys, tmp_path, command):
    out_path = tmp_path / "out.json"
    code, _, _ = run([command, "-r", "inf", "--out", str(out_path)] + SMALL, capsys)
    assert code == 0
    text = out_path.read_text()
    json.loads(text, parse_constant=_reject_constant)
    assert '"inf"' in text


def test_diamond_check_expectations(capsys):
    code, out, _ = run(["diamond-check", "--expect", "pass"] + SMALL, capsys)
    assert code == 0
    assert "[pass]" in out

    code, out, _ = run(["diamond-check", "--profile", "persistent",
                        "--expect", "not-decided"] + SMALL, capsys)
    assert code == 0
    assert "[not-decided]" in out

    code, _, err = run(["diamond-check", "--profile", "persistent",
                        "--expect", "pass"] + SMALL, capsys)
    assert code == 1
    assert "expected verdict" in err


def test_calibrate_writes_then_refuses(capsys, tmp_path, small_cfg, small_store):
    out_path = tmp_path / "base.json"
    args = ["calibrate", "--grid-points", str(small_cfg.points),
            "--jmax", str(small_cfg.j_max), "--out", str(out_path)]
    # pre-seed the target: the command must refuse before calibrating
    small_store.save(str(out_path))
    code, _, err = run(args, capsys)
    assert code == 3
    assert "force" in err

    code, out, _ = run(args + ["--force"], capsys)
    assert code == 0
    assert "calibrated" in out
    reloaded = BaselineStore.load(str(out_path))
    assert len(reloaded.constants) >= 20


def test_scalar_suite_with_fresh_baseline(capsys, tmp_path, small_cfg, small_store):
    path = tmp_path / "base.json"
    small_store.save(str(path))
    code, out, _ = run(["scalar-suite", "--baseline", str(path)], capsys)
    assert code == 0
    assert "0 failed" in out


def test_report_json_schema(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(["scalar-suite", "--baseline", "none", "--out", str(out_path)],
                     capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["n_checks"] == len(doc["checks"])
    assert all("check" in r and "verdict" in r for r in doc["checks"])


@pytest.mark.parametrize("argv, keys", [
    (["scalar-suite"], {"seed"}),
    (["maximal-suite", "--grid-points", "64"], {"seed", "points", "length", "window_shape"}),
], ids=["scalar-suite", "maximal-suite"])
def test_suite_report_config_lists_what_the_suites_read(capsys, tmp_path, argv, keys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(argv + ["--baseline", "none", "--out", str(out_path)], capsys)
    assert code == 0
    assert set(json.loads(out_path.read_text())["config"]) == keys


def test_interp_demo_runs(capsys, tmp_path):
    # the 3-D grid needs G's exact spectrum: FFT round-off in its corner
    # frequencies above the top band would fail the coverage check
    for grid in (SMALL, ["--grid-dim", "3", "--grid-points", "16", "--jmax", "2"]):
        out_path = tmp_path / "demo.json"
        code, out, _ = run(["interp-demo", "--out", str(out_path)] + grid, capsys)
        assert code == 0
        assert "reconstruction" in out
        assert "3 passed, 0 failed, 3 not decided" in out
        doc = json.loads(out_path.read_text())
        n_printed = sum(1 for line in out.splitlines() if line.startswith("["))
        assert doc["n_checks"] == len(doc["checks"]) == n_printed == 6
        assert set(doc["config"]) == {"theta", "end0", "end1", "mid"}
        verdicts = {c["check"]: c["verdict"] for c in doc["checks"]}
        assert all(verdicts[c] == "not-decided"
                   for c in ("lipschitz[side=0]", "lipschitz[side=1]", "global-growth"))


@pytest.mark.parametrize("command", ["tlm-norm", "diamond-check", "interp-demo"])
def test_default_jmax_follows_the_grid(capsys, tmp_path, command):
    # 2**(6+1) exceeds the Nyquist band 32 of 64 points, so --jmax defaults to 4
    grid = ["--grid-dim", "2", "--grid-points", "64"]
    out_path = tmp_path / "out.json"
    code, out, err = run([command, "--out", str(out_path)] + grid, capsys)
    assert code == 0 and err == ""
    _, explicit, _ = run([command, "--out", str(out_path)] + grid + ["--jmax", "4"], capsys)
    runtimes_aside = [line.rsplit("(", 1)[0] for line in explicit.splitlines()]
    assert [line.rsplit("(", 1)[0] for line in out.splitlines()] == runtimes_aside
    if command == "tlm-norm":
        assert json.loads(out_path.read_text())["j_max"] == 4


@pytest.mark.parametrize("command", ["tlm-norm", "diamond-check"])
def test_overflowing_blocks_exit_2(capsys, tmp_path, command):
    # with s = 0.5 the weighted blocks of a sample at 1.7e308 leave float64
    path = tmp_path / "spike.bin"
    write_binary(spike_field(GridSpec(1, 64)), str(path))
    code, _, err = run([command, "--input", str(path), "-s", "0.5"] + SMALL, capsys)
    assert code == 2
    assert err.startswith("error: ") and "overflows float64" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["tlm-norm", "-s", "600"],
    ["diamond-check", "-s", "600"],
    ["diamond-check", "--profile", "persistent", "-s", "-400"],
    ["interp-demo", "--s0", "600", "--s1", "600"],
    ["tlm-norm", "-s", "1e308"],
    ["diamond-check", "-s", "1e308"],
    ["interp-demo", "--s0", "1e308", "--s1", "1e308"],
], ids=["tlm-norm", "diamond-check", "persistent-profile", "interp-demo",
        "tlm-norm-s-1e308", "diamond-check-s-1e308", "interp-demo-s-1e308"])
def test_overflowing_weights_exit_2(capsys, argv):
    # the demo field's band-2 block carries the weight 2^(2s) = 2^1200, and
    # 2^(2s) = 2^inf at s = 1e308; the persistent profile's band-j amplitude
    # is 2^(-js) = 2^(400j)
    code, _, err = run(argv + SMALL, capsys)
    assert code == 2
    assert err.startswith("error: ") and "overflows float64" in err
    assert err.count("\n") == 1


def test_persistent_profile_below_float64_normal_range_exits_2(capsys):
    # band 6's amplitude 2^(-6s) is subnormal from s = 1022/6 on and 0 at s = 180,
    # which made the profile's tail vanish and the verdict read pass
    argv = ["diamond-check", "--profile", "persistent", "--expect", "not-decided"]
    code, out, _ = run(argv + ["-s", "170"], capsys)
    assert code == 0 and "[not-decided]" in out
    code, _, err = run(argv + ["-s", "180"], capsys)
    assert code == 2
    assert err.startswith("error: band 6 ") and "normal range" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["tlm-norm", "diamond-check"])
def test_weights_beyond_float64_on_empty_bands(capsys, command):
    # at s = 400 the weights 2^(js) of bands 3 and 4 leave float64, but the
    # demo field's blocks there are exactly zero: the result is finite
    code, out, err = run([command, "-s", "400"] + SMALL, capsys)
    assert code == 0 and err == ""
    if command == "tlm-norm":
        assert 2.0**790 < float(out.rsplit(":", 1)[1]) < np.inf  # band 2: 2^800 |block|


@pytest.mark.parametrize("argv", [
    ["verify-all", "--grid-dim", "2"],
    ["calibrate", "--grid-dim", "2"],
    ["scalar-suite", "--grid-points", "64"],
    ["maximal-suite", "--jmax", "4"],
    ["morrey-norm", "--jmax", "4"],
    ["morrey-norm", "--stride", "2"],
], ids=["verify-all-grid-dim", "calibrate-grid-dim", "scalar-suite-grid-points",
        "maximal-suite-jmax", "morrey-norm-jmax", "morrey-norm-stride"])
def test_flags_a_command_does_not_read_exit_2(capsys, tmp_path, argv):
    if argv[0] == "calibrate":
        argv = argv + ["--out", str(tmp_path / "base.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "base.json").exists()


@pytest.mark.parametrize("argv", [
    ["--grid-points", "16"],
    ["--grid-points", "256", "--grid-length", "100"],
    ["--grid-points", "8"],
], ids=["16-points", "long-torus", "8-points"])
def test_maximal_suite_rejects_grids_too_coarse_for_its_half_grid(capsys, argv):
    code, _, err = run(["maximal-suite", "--baseline", "none", *argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and "--grid-points" in err and "--grid-length" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["tlm-norm", "--grid-length", "1e-200"],
    ["maximal-suite", "--grid-length", "1e-200", "--baseline", "none"],
], ids=["tlm-norm", "maximal-suite"])
def test_grid_length_whose_squared_nyquist_overflows_exits_2(capsys, argv):
    # (pi*N/L)^2 is about 6.5e405 at N = 256, L = 1e-200
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--grid-length" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    (["--grid-length", "1e-100"], 2),
    (["--grid-length", "3"], 2),
    ([], 0),
], ids=["1e-100", "3", "default"])
def test_maximal_suite_needs_its_lowest_band_on_the_torus(capsys, argv, code):
    # its draws start at band 2^1, below the first frequency 2*pi/L once L < pi
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, _, err = run(["maximal-suite", *argv], capsys)
    assert got == code
    if code == 2:
        assert err.startswith("error: ") and "--grid-length" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv, flags", [
    (["verify-all", "--grid-length", "2.5"], ["--grid-length"]),
    (["morrey-norm", "--grid-length", "2.5"], ["--grid-length", "--radii"]),
], ids=["verify-all", "morrey-norm"])
def test_unit_ball_oracle_needs_a_torus_of_side_3(capsys, argv, flags):
    # its radii reach 1.5, beyond L/2 = 1.25
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(argv, capsys)
    assert code == 2 and "L = 2.5" in err
    assert err.startswith("error: ") and all(flag in err for flag in flags)
    assert err.count("\n") == 1


def test_morrey_norm_demo_keeps_given_radii_on_a_short_torus(capsys):
    code, out, _ = run(["morrey-norm", "--grid-length", "2.5", "--radii", "0.5,1"], capsys)
    assert code == 0 and out.startswith("morrey-norm p=4 q=2")


@pytest.mark.parametrize("argv, top", [
    (["verify-all", "--grid-points", "32", "--jmax", "6"], 3),
    (["calibrate", "--grid-points", "64", "--jmax", "6"], 4),
    (["tlm-norm", "--jmax", "7"], 6),
], ids=["verify-all-32", "calibrate-64", "tlm-norm-jmax-7"])
def test_band_count_above_the_grid_names_the_flags(capsys, tmp_path, argv, top):
    code, out, err = run([*argv, "--out", str(tmp_path / "out.json")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"lower --jmax to at most {top} or raise --grid-points" in err


@pytest.mark.parametrize("command", ["tlm-norm", "interp-demo", "diamond-check"])
def test_grid_too_coarse_for_band_1_names_the_flags(capsys, command):
    # the family is built before the demo draw, so its error names the flags
    code, out, err = run([command, "--grid-points", "8", "--grid-length", "100"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "raise --grid-points or lower --grid-length" in err
    assert "--jmax" not in err


@pytest.mark.parametrize("jmax", ["1", "3"])
def test_verify_all_with_few_bands_exits_0(capsys, jmax):
    # every corpus draw and probe stays inside the family's j_max bands
    code, out, err = run(["verify-all", "--jmax", jmax, "--baseline", "none"], capsys)
    assert code == 0 and err == ""
    assert "0 failed" in out


def test_calibrate_with_few_bands_exits_0(capsys, tmp_path):
    code, out, err = run(["calibrate", "--jmax", "3", "--out", str(tmp_path / "b3.json")],
                         capsys)
    assert code == 0 and err == ""
    assert "calibrated" in out


def test_interp_demo_kind_is_an_unknown_option(capsys):
    # one analytic family: the option that chose between two is gone
    with pytest.raises(SystemExit) as exc:
        main(["interp-demo", "--kind", "four-exponent"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --kind" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify-all", "--seed", "-100000"],
    ["tlm-norm", "--seed", "-100"],
    ["scalar-suite", "--seed", "-100"],
    ["maximal-suite", "--seed", "-10000"],
    ["interp-demo", "--seed", "-30"],
], ids=["verify-all", "tlm-norm", "scalar-suite", "maximal-suite", "interp-demo"])
def test_negative_seed_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, '{"schema', '{"schema_version": 2, "constants": {}}',
                                     "[1]"], ids=["missing", "corrupt", "stale", "not-an-object"])
def test_broken_bundled_baseline_exits_3_before_any_check(capsys, monkeypatch, tmp_path,
                                                          content):
    path = tmp_path / "data" / "baseline.json"
    if content is not None:
        path.parent.mkdir()
        path.write_text(content)
    monkeypatch.setattr(tlmkit.report.resources, "files", lambda package: tmp_path)
    code, out, err = run(["verify-all"], capsys)
    assert code == 3
    assert out == ""  # no check ran
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"schema_version": 1, "constants": {"a": 1}, "provenance": [1]},
    {"schema_version": 1, "constants": {"a": True}},
    {"schema_version": 1, "constants": {"a": 10**400}},
    {"schema_version": True, "constants": {"a": 1}},
    {"schema_version": 1.0, "constants": {"a": 1}},
], ids=["a-list", "list-provenance", "boolean-constant", "integer-beyond-float64",
        "boolean-version", "float-version"])
def test_malformed_baseline_document_exits_3(capsys, tmp_path, doc):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify-all", "--baseline", str(path)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("command", ["verify-all", "calibrate", "maximal-suite", "tlm-norm",
                                     "diamond-check", "interp-demo"])
def test_parser_defaults_are_the_suite_config(command):
    parser = build_parser()
    args = parser.parse_args([command])
    cfg = SuiteConfig()
    for field, flag in (("seed", "seed"), ("points", "grid_points"),
                        ("length", "grid_length"), ("window_shape", "windows")):
        if hasattr(args, flag):
            assert getattr(args, flag) == getattr(cfg, field), flag


def _subparser(command):
    (commands,) = (a for a in build_parser()._actions if a.dest == "command")
    return commands.choices[command]


def test_interp_demo_defaults_are_the_first_holder_setup():
    args = build_parser().parse_args(["interp-demo"])
    theta, end0, end1 = HOLDER_SETUPS[0]
    assert args.theta == theta
    assert (args.p0, args.q0, args.r0, args.s0) == end0
    assert (args.p1, args.q1, args.r1, args.s1) == end1


@pytest.mark.parametrize("command, dest, owner", [
    ("tlm-norm", "flavor", FLAVORS),
    *((command, "windows", WINDOW_SHAPES)
      for command in ("verify-all", "calibrate", "maximal-suite", "morrey-norm",
                      "tlm-norm", "diamond-check", "interp-demo")),
])
def test_choice_lists_are_their_owners(command, dest, owner):
    (action,) = (a for a in _subparser(command)._actions if a.dest == dest)
    assert tuple(action.choices) == owner


@pytest.mark.parametrize("command", ["morrey-norm", "tlm-norm", "diamond-check",
                                     "interp-demo"])
def test_radii_beyond_half_the_torus_exit_2(capsys, command):
    # L/2 = pi: the scans refuse the radius 4, naming it
    code, out, err = run([command, "--radii", "0.5,4"] + GRID64, capsys)
    assert code == 2 and out == ""
    assert err == f"error: max radius 4 exceeds L/2 = {np.pi:g}\n"


def test_verify_all_band_count_follows_the_grid(capsys, tmp_path):
    # 2**(6+1) exceeds the Nyquist band 64 of 128 points, so --jmax defaults to 5
    out_path = tmp_path / "verify.json"
    code, out, err = run(["verify-all", "--grid-points", "128", "--out", str(out_path)],
                         capsys)
    assert code == 0 and err == ""
    assert json.loads(out_path.read_text())["config"]["j_max"] == 5


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "tlmkit" in capsys.readouterr().out
