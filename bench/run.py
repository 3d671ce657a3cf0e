"""wgscatter benchmark: closed-loop CLI workloads with an output check.

    python3 bench/run.py --workload figure_csv --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads, metrics and the layer map are
described in bench/spec.json.  The script:

1. times several fresh processes that import wgscatter from ``src`` and
   generate the workload's inputs, each relative to the fixed probe work of
   reference.py run just before and after it, and reports the median as
   ``setup_s``;
2. starts one workload process (bench/worker.py) with BLAS and OpenMP
   pinned to one thread, which runs the closed loop, checks every output
   and times each request relative to probes of fixed work that run while
   it runs (``cmd_norm_s``);
3. prints the metrics, writes a result file under ``.bench_out/``, and
   prints one JSON object as its last line of output.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
commands untraced and then traced and reports the per-layer metrics.  The
exit code is 0 only when every command returned the right exit code and
passed its output check; it is 2 when the checkout has no ``src/wgscatter``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import PROBE_SECONDS, reference_seconds
from worker import SCALES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

#: Measured set-up processes per run, half before and half after the
#: workload so that one slow spell of the shared machine does not set the
#: median.  One more runs first to fill the bytecode and file caches, which
#: users do not pay for on every run.
SETUP_PROBES = 8
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

#: Printed and stored, not gated: raw wall times and rates, which follow
#: the shared machine's slow spells.
INFO_UNITS = {
    "setup_wall_s": "s",
    "rows_per_s": "rows/s",
    "draws_per_s": "draws/s",
    "evals_per_s": "evals/s",
    "fail_ratio": "ratio",
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker_argv(args, out_dir: Path) -> list[str]:
    return [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--root", str(ROOT),
        "--out-dir", str(out_dir),
    ]


def setup_seconds(argv: list[str], env: dict[str, str], deadline: float) -> float:
    """Wall time from starting a fresh worker to its 'ready' line."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv + ["--setup-only"], env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return elapsed


def setup_ratios(count: int, argv: list[str], env: dict[str, str], deadline: float) -> list[tuple[float, float]]:
    """(seconds, seconds over the mean probe time around them) of `count`
    set-up processes; the probes run in this process between them."""
    out = []
    before = reference_seconds()
    for _ in range(count):
        took = setup_seconds(argv, env, deadline)
        after = reference_seconds()
        out.append((took, 2.0 * took / (before + after)))
        before = after
    return out


def run_worker(argv: list[str], env: dict[str, str], deadline: float) -> dict:
    proc = subprocess.run(
        argv, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def spec_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics named in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    return e2e, layers


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="wgscatter closed-loop benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(SCALES), default="full")
    p.add_argument("--out-dir", default=str(ROOT / ".bench_out"))
    args = p.parse_args(argv)

    if not (ROOT / "src" / "wgscatter" / "__init__.py").is_file():
        print(f"error: no src/wgscatter package under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    # One CPU for this process and every process it starts, so that the
    # probes of reference.py run on the core whose speed they stand for.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_dir = Path(args.out_dir)
    env = worker_env()
    cmd = worker_argv(args, out_dir)
    setup: list[tuple[float, float]] = []
    try:
        if not args.trace:
            setup_seconds(cmd, env, deadline)
            setup = setup_ratios(SETUP_PROBES // 2, cmd, env, deadline)
        payload = run_worker(cmd, env, deadline)
        if not args.trace:
            setup += setup_ratios(SETUP_PROBES - len(setup), cmd, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e_units, layer_units = spec_metrics()
    attempted, failed = payload["attempted"], payload["failed"]
    for failure in payload["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} scale={args.scale}")
    print("env " + json.dumps(payload["env"], sort_keys=True))
    if args.trace:
        values = payload["layers"]
        units = layer_units
        print(f"cycles={payload['cycles']} spans={payload['trace_file']}")
        for name, seconds in payload["self_time_ranking"][:8]:
            print(f"self_time {name} {seconds:.6f} s/cycle")
    else:
        e2e = payload["e2e"]
        values = {
            "setup_s": statistics.median(ratio for _, ratio in setup) * PROBE_SECONDS,
            "cmd_norm_s": e2e["cmd_norm_s"],
            "peak_rss_mb": payload["peak_rss_mb"],
        }
        units = e2e_units
        high = e2e.get("cmd_high_percentile")
        tail = f"{high['name']}={high['value']:.6f} s" if high else "no percentile above p50 has 10 samples beyond it"
        print(f"cmd_p50_s={e2e['cmd_p50_s']:.6f} s ({tail}; n={e2e['requests']} requests)")
        info = {k: e2e[k] for k in INFO_UNITS if k in e2e}
        info["setup_wall_s"] = statistics.median(took for took, _ in setup)
        info["fail_ratio"] = failed / attempted
        for name, value in info.items():
            print(f"{name}={value:.6g} {INFO_UNITS[name]}")
        payload["info"] = info
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name}={m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = dict(payload, args=vars(args), setup_s_samples=setup, result=result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
