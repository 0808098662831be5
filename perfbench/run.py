"""tlmkit benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the root of a checkout (no install needed, ``src/`` is used):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload all`` runs verify, fields and files one after another, each
in a fresh process, untraced and then traced, and prints the tracing
overhead.  A single workload prints its metrics, one per line with unit
and sample count, and as the last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full record
(environment, working set, per-class latencies, spans) goes to
``perfbench/out/``.

Operation timings in the JSON line are in refs: wall time divided by the
time a fixed reference kernel takes on the same CPU at that moment (see
probe.py), because on a shared host the speed a process gets from its
CPU can change by a third within seconds.  The wall-clock figures
(verify_s, fields_per_s, field_p50_ms, ...) are printed and recorded
beside them.  ``setup_s`` (tlmkit import, median of the input builds,
warm pass) is timed in refs too, then given in seconds at a fixed
nominal kernel time (``probe.NOMINAL_REF_S``).  The kernel streams
through memory for the array-bound workloads only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("verify", "fields", "files")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
# workloads whose reference kernel includes the memory stream (see probe.py)
STREAMING_WORKLOADS = ("fields", "files")
MIN_TAIL_SAMPLES = 10

# the name each workload gives its operation rate and latencies
WORKLOAD_METRIC_NAMES = {
    "verify": ("verify_s", None, None),
    "fields": ("fields_per_s", "field_p50_ms", "field_p90_ms"),
    "files": ("requests_per_s", "request_p50_ms", "request_p90_ms"),
}

# Wrappers (module:binding) each workload must reach in a traced run; one
# that never fires means a call path the tracer does not see.
EXPECTED_BINDINGS = {
    "verify": [
        "cli:main", "report:BaselineStore.bundled",
        *(f"suites:run_{s}_suite" for s in (
            "partition", "morrey", "scalar_exact", "scalar_empirical", "holder",
            "interp", "maximal", "diamond")),
        "interp:family_F", "suites:family_F", "interp:segment_integral",
        "suites:segment_integral", "suites:build_analytic_family",
        "suites:boundary_lipschitz_check", "suites:global_growth_check",
        "interp:sum_space_proxy", "suites:holomorphy_residual",
        "suites:psi_kappa", "suites:phi_kappa", "scalars:psi_kappa",
        "interp:tlm_norm", "suites:tlm_norm", "spaces:tlm_norm",
        "suites:diamond_criterion", "spaces:truncated_square_function",
        "suites:square_function",
        "spaces:project_all", "interp:project_all", "maximal:project_all",
        "suites:build_family", "spaces:reconstruct",
        "morrey:window_sum", "maximal:window_sum",
        "suites:vector_maximal_check", "suites:projection_stability_check",
        "suites:multiplier_maximal_ratio",
        "suites:random_bandlimited", "grid:GridFunction.__post_init__",
        "numpy.fft:fftn", "numpy.fft:ifftn",
    ],
    "fields": [
        "grid:random_bandlimited", "lpaley:build_family",
        "spaces:tlm_norm", "spaces:diamond_criterion",
        "spaces:truncated_square_function", "spaces:project_all",
        "morrey:window_sum", "maximal:window_sum", "maximal:hl_maximal",
        "grid:GridFunction.__post_init__", "numpy.fft:fftn", "numpy.fft:ifftn",
    ],
    "files": [
        "grid:random_bandlimited", "grid:write_csv", "grid:write_binary",
        "cli:read_csv", "cli:read_binary", "cli:main", "cli:write_json",
        "cli:build_family", "cli:tlm_norm", "spaces:project_all",
        "morrey:window_sum", "grid:GridFunction.__post_init__",
        "numpy.fft:fftn", "numpy.fft:ifftn",
    ],
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time measured per run; ops start until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    return parser.parse_args(argv)


def _cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at the CPUs this process may run on; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return {var: nproc for var in THREAD_VARS}


def _import_tlmkit() -> None:
    """Import tlmkit from this checkout's ``src/``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tlmkit", "__init__.py")):
        raise SystemExit(f"error: no tlmkit sources under {src}")
    sys.path.insert(0, src)
    import tlmkit
    if os.path.dirname(os.path.dirname(os.path.abspath(tlmkit.__file__))) != src:
        raise SystemExit(f"error: imported tlmkit from {tlmkit.__file__}, not {src}")


# ------------------------------------------------------------------ statistics

def nearest_rank(sorted_values, pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least MIN_TAIL_SAMPLES samples above it."""
    if n <= MIN_TAIL_SAMPLES:
        return 0
    return int(math.floor(100.0 * (n - MIN_TAIL_SAMPLES) / n))


def latency_summary(values, classes) -> dict:
    """Nearest-rank p50/p90 of per-op values, the class each falls in, and the
    highest percentile with at least MIN_TAIL_SAMPLES samples above it."""
    pairs = sorted(zip(values, classes))
    n = len(pairs)
    tail = tail_percentile(n)
    return {
        "n": n,
        "p50": nearest_rank(pairs, 50)[0],
        "p50_class": nearest_rank(pairs, 50)[1],
        "p90": nearest_rank(pairs, 90)[0],
        "p90_class": nearest_rank(pairs, 90)[1],
        "p90_samples_above": n - math.ceil(0.9 * n),
        "tail_pct": tail,
        "tail": nearest_rank(pairs, tail)[0] if tail else None,
        "per_s": n / sum(values),
    }


# ----------------------------------------------------------------- environment

def _lscpu_caches() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=20, check=True).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return {"error": f"lscpu unavailable: {exc}"}
    caches = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    return caches


def _working_set(workload) -> dict:
    """Bytes of one field and of its band stack per size class, from array sizes."""
    from workloads import top_band
    from tlmkit.grid import GridSpec
    sizes = {}
    for key in getattr(workload, "weights", {}):
        dim, points = key[0], key[1]
        spec = GridSpec(dim, points)
        field = 16 * spec.size  # complex128 samples
        sizes[f"{dim}d-{points}"] = {
            "field_bytes": field,
            "band_stack_bytes": (top_band(spec) + 1) * field,
            "bands": top_band(spec) + 1,
        }
    return {"note": "computed from array sizes (complex128), not measured", "classes": sizes}


def _environment(caps: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": caps,
        "caches": _lscpu_caches(),
    }


# ------------------------------------------------------------------- one run

def _run_one(workload, tracer, i: int, outcome) -> tuple:
    """Run op i and check its output untraced; (completed, start, end)."""
    t0 = time.perf_counter()
    try:
        result = workload.run_op(i)
    except Exception as exc:  # an operation that raised counts as failed
        outcome.expect(False, f"op {i} ({workload.op_class(i)}) raised {exc!r}")
        return False, t0, time.perf_counter()
    t1 = time.perf_counter()
    with tracer.pause():
        outcome.merge(workload.check(i, result))
    return True, t0, t1


def run_workload(args, caps: dict) -> int:
    sys.path.insert(0, HERE)
    import probe  # loads numpy, which is not counted in the import time
    import spans

    tracer = spans.Tracer()
    workload = None
    try:
        # set-up: (start, end) of the import, of each input build and of the warm pass
        stream = args.workload in STREAMING_WORKLOADS
        with probe.SpeedProbe(stream, tracer.exclude) as setup_speed:
            t0 = time.perf_counter()
            _import_tlmkit()
            import_span = (t0, time.perf_counter())
            import workloads
            if args.trace:
                tracer.install()
            os.makedirs(OUT_DIR, exist_ok=True)
            tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
            workload = workloads.WORKLOADS[args.workload](
                args.seed, args.tiny, os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}"))
            prepare_spans = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.prepare()
                prepare_spans.append((t0, time.perf_counter()))
            t0 = time.perf_counter()
            outcome = workload.warm_checks()
            for i in workload.warm_ops():
                _run_one(workload, tracer, i, outcome)
            warm_span = (t0, time.perf_counter())

        # Ops start while less than --seconds has been timed, so a run
        # measures at least that long; a verify pass is most of it.
        spans_of = {}  # op index -> (start, end), for the ops that completed
        timed = 0.0
        i = 0
        with probe.SpeedProbe(stream, tracer.exclude) as speed:
            while timed < args.seconds:
                tracer.op = i
                ok, t0, t1 = _run_one(workload, tracer, i, outcome)
                timed += t1 - t0
                if ok:
                    spans_of[i] = (t0, t1)
                i += 1
        tracer.op = -1
    finally:
        tracer.uninstall()
        if hasattr(workload, "close"):
            workload.close()

    # Set-up in refs, then in seconds at a fixed nominal kernel time: the wall
    # time of a few seconds of set-up, and a run's median kernel time, both
    # swing by up to a third with the CPU speed.
    setup_wall = {
        "import_s": setup_speed.wall(*import_span),
        "prepare_s": [setup_speed.wall(*span) for span in prepare_spans],
        "warm_s": setup_speed.wall(*warm_span),
    }
    setup_refs = (setup_speed.ref_units(*import_span)
                  + statistics.median(setup_speed.ref_units(*span) for span in prepare_spans)
                  + setup_speed.ref_units(*warm_span))
    setup_s = setup_refs * probe.NOMINAL_REF_S[stream]
    # wall seconds without the probe's runs, and the same stretch in refs
    latencies = {i: speed.wall(t0, t1) for i, (t0, t1) in spans_of.items()}
    refs = {i: speed.ref_units(t0, t1) for i, (t0, t1) in spans_of.items()}
    op_class = {i: workload.op_class(i) for i in latencies}
    by_class = {}
    for i, dt in latencies.items():
        by_class.setdefault(op_class[i], []).append(dt)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    classes = list(op_class.values())
    wall = latency_summary(list(latencies.values()), classes) if latencies else None
    ref = latency_summary(list(refs.values()), classes) if latencies else None
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_per_kref": (1e3 * ref["per_s"] if ref else 0.0, "1/kref"),
        "op_p50_ref": (ref["p50"] if ref else 0.0, "ref"),
        "op_p90_ref": (ref["p90"] if ref else 0.0, "ref"),
    }
    missing = []
    layers = {}
    if args.trace:
        from tlmkit import morrey
        layers = tracer.layer_metrics(morrey._ball_stencil_data.cache_info())
        missing = sorted(set(EXPECTED_BINDINGS[args.workload]) - tracer.fired)
    attempted, failures = outcome.attempted, outcome.failures
    correct = not failures and not missing and bool(latencies)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "failures": failures[:50],
        "setup": {**setup_wall, "refs": setup_refs,
                  "wall_s": (setup_wall["import_s"] + statistics.median(setup_wall["prepare_s"])
                             + setup_wall["warm_s"])},
        "wall_s": wall,
        "ref": ref,
        "probe": {"interval_s": probe.INTERVAL, "stream": stream,
                  "samples": len(speed.durations),
                  "kernel_s_median": statistics.median(speed.durations),
                  "setup_samples": len(setup_speed.durations),
                  "setup_kernel_s_median": statistics.median(setup_speed.durations)},
        "latency_by_class_ms": {
            c: {"n": len(v), "median": 1e3 * statistics.median(v)}
            for c, v in sorted(by_class.items())},
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "environment": _environment(caps),
        "working_set": _working_set(workload),
    }
    if args.trace:
        record.update(per_layer={k: v for k, (v, _) in layers.items()},
                      shares_by_class=tracer.class_shares(op_class, latencies),
                      fft_calls_by_size=dict(tracer.fft_sizes.most_common()),
                      wrappers_fired=sorted(tracer.fired),
                      wrappers_missing=missing)
        tracer.write_spans(os.path.join(OUT_DIR, f"{tag}-spans.json"))
    with open(os.path.join(OUT_DIR, f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    _print_human(args, workload, record, end_to_end, layers)
    for what in failures[:10]:
        print(f"FAILED: {what}")
    if missing:
        print(f"FAILED: wrappers never fired: {', '.join(missing)}")
    metrics = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0  # a printed result is a completed run; ``correct`` carries the verdict


def _print_human(args, workload, record, end_to_end, layers) -> None:
    wall, ref = record["wall_s"], record["ref"]
    n = wall["n"] if wall else 0
    name = args.workload
    mode = "traced" if args.trace else "untraced"
    print(f"# {name} seed={args.seed} {mode}: {n} timed ops ({workload.unit}), "
          f"{record['attempted']} checks attempted, {record['failed']} failed")
    print(f"error_rate = {record['failed']}/{record['attempted']} failed/attempted")
    print(f"setup_s = {end_to_end['setup_s'][0]:.4f} s  (import + median of "
          f"{SETUP_REPEATS} input builds + warm pass, at nominal kernel speed; "
          f"wall {record['setup']['wall_s']:.4f} s)")
    print(f"peak_rss_mb = {end_to_end['peak_rss_mb'][0]:.1f} MB  (ru_maxrss)")
    if not wall:
        return
    rate, p50, p90 = WORKLOAD_METRIC_NAMES[name]
    if name == "verify":
        print(f"verify_s = {wall['p50']:.4f} s per pass  (median, n={n}); "
              f"{ref['p50']:.1f} ref")
    else:
        print(f"{rate} = {wall['per_s']:.4f} {workload.unit}/s  (n={n}); "
              f"ops_per_kref = {1e3 * ref['per_s']:.4f}")
        for label, pct in ((p50, "p50"), (p90, "p90")):
            above = f", {wall['p90_samples_above']} above" if pct == "p90" else ""
            print(f"{label} = {1e3 * wall[pct]:.3f} ms  (n={n}{above}, in class "
                  f"{wall[pct + '_class']}); op_{pct}_ref = {ref[pct]:.3f} ref")
    if wall["tail_pct"]:
        print(f"tail: p{wall['tail_pct']} = {1e3 * wall['tail']:.3f} ms  "
              f"(highest percentile with >= {MIN_TAIL_SAMPLES} samples above)")
    for c, v in record["latency_by_class_ms"].items():
        print(f"  class {c}: median {v['median']:.3f} ms over {v['n']}")
    probe_info = record["probe"]
    print(f"reference kernel: {probe_info['samples']} samples, median "
          f"{1e3 * probe_info['kernel_s_median']:.3f} ms (1 ref at that speed)")
    if args.trace:
        untraced = os.path.join(OUT_DIR, f"{name}-seed{args.seed}"
                                f"{'-tiny' if args.tiny else ''}-trace0.json")
        if os.path.exists(untraced):
            with open(untraced) as fh:
                base = json.load(fh)["end_to_end"]
            print("tracing overhead (traced - untraced, same seed):")
            for k, (v, unit) in end_to_end.items():
                print(f"  {k}: {v:.4f} - {base[k]:.4f} = {v - base[k]:+.4f} {unit}")
        print("share of timed op time, per op class:")
        for cls, shares in sorted(record["shares_by_class"].items()):
            top_incl = list(shares["inclusive"].items())[:4]
            top_self = list(shares["self_by_layer"].items())[:4]
            print(f"  {cls}: inclusive " + ", ".join(f"{k} {v:.0%}" for k, v in top_incl)
                  + "; self by layer " + ", ".join(f"{k} {v:.0%}" for k, v in top_self))


# ------------------------------------------------------------------ all three

def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
                print(proc.stderr, file=sys.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    caps = _cap_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, caps)


if __name__ == "__main__":
    sys.exit(main())
