"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Asserts that each run exits 0 with no failed check, that its last line
carries every end-to-end metric (untraced) or every per-layer metric
(traced) named in BENCHMARK.json, and that the per-layer metrics each
workload reaches are non-zero there.  It also runs the benchmark in a
directory holding only BENCHMARK.json and perfbench/, where it must fail
without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

WINDOW_SUMS = [f"morrey.window_sum.{s}.{d}d" for s in ("cube", "ball") for d in (1, 2, 3)]

# per-layer metric prefixes that must read non-zero on each workload
REACHED = {
    "verify": [
        "suites.", "interp.", "scalars.", "spaces.tlm_norm.", "spaces.diamond_criterion.",
        "spaces.truncated_square_function.", "spaces.square_function.", "lpaley.",
        "morrey.window_sum.cube.1d.", "maximal.vector_maximal_check.",
        "maximal.projection_stability_check.", "maximal.multiplier_maximal_ratio.",
        "grid.random_bandlimited.", "grid.GridFunction.init.", "fft.",
        "report.BaselineStore.bundled.", "cli.main.",
    ],
    "fields": [
        "spaces.tlm_norm.", "spaces.diamond_criterion.", "spaces.truncated_square_function.",
        "lpaley.project_all.", "lpaley.build_family.", *(f"{w}." for w in WINDOW_SUMS),
        "morrey.ball_stencil.hit_ratio", "maximal.hl_maximal.", "grid.random_bandlimited.",
        "grid.GridFunction.init.", "fft.",
    ],
    "files": [
        "grid.read_csv.", "grid.write_csv.", "grid.read_binary.", "grid.write_binary.",
        "grid.bytes_", "grid.random_bandlimited.", "cli.main.", "report.write_json.",
        "spaces.tlm_norm.", "lpaley.project_all.", "lpaley.build_family.",
        "morrey.window_sum.cube.2d.", "morrey.window_sum.cube.3d.",
        "grid.GridFunction.init.", "fft.",
    ],
}


def _run(cwd: str, workload: str, trace: int, extra=()) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(bench: dict, workload: str) -> list:
    problems = []
    for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        proc = _run(ROOT, workload, trace, ["--tiny"])
        tag = f"{workload} trace={trace}"
        if proc.returncode != 0:
            problems.append(f"{tag}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{tag}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            problems.append(f"{tag}: correct={result['correct']} "
                            f"failed={result['failed']}/{result['attempted']}")
        metrics = result["metrics"]
        names = [m["name"] for m in declared]
        if sorted(metrics) != sorted(names):
            problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(names) - set(metrics))}, "
                            f"extra {sorted(set(metrics) - set(names))}")
        for m in declared:
            got = metrics.get(m["name"])
            if got is not None and got["unit"] != m["unit"]:
                problems.append(f"{tag}: {m['name']} unit {got['unit']} != {m['unit']}")
        if trace == 0:
            zero = [k for k, v in metrics.items() if not v["value"] > 0]
            if zero:
                problems.append(f"{tag}: end-to-end metrics not positive: {zero}")
            continue
        for prefix in REACHED[workload]:
            hit = [k for k in metrics if k.startswith(prefix)]
            if not hit:
                problems.append(f"{tag}: no per-layer metric starts with {prefix!r}")
            for k in hit:
                if not metrics[k]["value"] > 0:
                    problems.append(f"{tag}: {k} is {metrics[k]['value']}, expected > 0")
    return problems


def check_bare_directory() -> list:
    """Without src/ the benchmark must fail and print no result."""
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "fields", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = check_bare_directory()
    for workload in [w["name"] for w in bench["workloads"]]:
        found = check_workload(bench, workload)
        print(f"{workload}: {'ok' if not found else f'{len(found)} problem(s)'}")
        problems += found
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
