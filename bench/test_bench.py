"""Smoke tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402
from reference import PROBE_INTERVAL_S, SpeedProbes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported(workload, trace, tmp_path):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--scale", "smoke", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert (tmp_path / f"trace-{workload}-seed3.csv.gz").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "figure_csv", "--seed", "1", "--seconds", "1", "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _busy(seconds: float) -> int:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return 0


def test_request_time_is_taken_relative_to_the_probes_in_it():
    command = worker.Command("validate", [], lambda code, stdout: worker.Outcome(True, 1))
    with SpeedProbes() as probes:
        long = worker.Loop(lambda argv: _busy(6 * PROBE_INTERVAL_S), probes=probes)
        start = time.perf_counter()
        long.request(0, [command])
        wall = time.perf_counter() - start
        short = worker.Loop(lambda argv: 0, probes=probes)
        short.request(0, [command])
    (sample,) = long.samples
    assert len(sample.probes) >= 4
    assert 0 < sample.seconds < wall - sum(sample.probes)
    assert long.request_ratios == {0: [sample.seconds / statistics.fmean(sample.probes)]}
    (quick,) = short.samples
    assert quick.probes == []
    assert short.request_ratios == {0: [quick.seconds / probes.samples[-1].seconds]}


def test_gate_trips_on_tampered_digest(tmp_path):
    cli = worker.load_cli(ROOT)
    digests = json.loads(worker.DIGESTS_FILE.read_text())
    key = worker.digest_key(2, 51)
    digests[key] = dict(digests[key], **{"fig9c.csv": "0" * 64})
    (request,) = worker.build_requests("figure_csv", 1, "smoke", tmp_path, digests)
    loop = worker.Loop(cli.main)
    loop.request(0, request)
    (sample,) = loop.samples
    assert not sample.outcome.ok
    assert "fig9c.csv" in sample.outcome.detail


def _spectrum_csv(path: Path, discrepancy: str, rows: int) -> None:
    lines = ["# family=giant", f"# max_engine_discrepancy={discrepancy}", "delta,phi"]
    path.write_text("\n".join(lines + ["0,0"] * rows) + "\n")


def test_gate_trips_on_engine_discrepancy(tmp_path):
    out = tmp_path / "spectrum.csv"
    check = worker.check_spectrum(out, cells=3)
    _spectrum_csv(out, "1e-10", 3)
    assert check(0, "").ok
    _spectrum_csv(out, f"{math.nextafter(1e-10, 1.0):.17g}", 3)
    assert not check(0, "").ok
    _spectrum_csv(out, "2e-10", 3)
    assert not check(0, "").ok
    _spectrum_csv(out, "0", 2)
    assert not check(0, "").ok
    _spectrum_csv(out, "0", 3)
    assert not check(2, "").ok


def test_gate_trips_on_search_discrepancy(tmp_path):
    out = tmp_path / "search.txt"
    check = worker.check_search(out)
    out.write_text("evaluations=1500\nsolver_discrepancy=1.6e-16\n")
    assert check(0, "").units == 1500
    out.write_text("evaluations=1500\nsolver_discrepancy=2e-10\n")
    assert not check(0, "").ok
    assert not worker.check_validate(10)(0, "validation: FAIL\n").ok


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="near phi2_prime = pi the solver and the closed forms differ by more than "
    "1e-10, so the optimum fails re-verification and main() raises RuntimeError; "
    "the benchmark's search inputs keep a free phi2_prime below 2.5",
)
def test_known_failure_search_optimum_near_phi2_pi(tmp_path):
    cli = worker.load_cli(ROOT)
    doc = worker.spectrum_config(random.Random(0), 0, (2, 11))
    doc["objective"] = {
        "kind": "isolation_contrast",
        "parameters": {
            "gamma1": {"bounds": [0.17105699664793833, 0.8056785330022032]},
            "gamma2": {"fixed": 1.0861231586096858},
            "gamma3": {"linked": "gamma1", "factor": 0.732090533474655},
            "gamma4": {"bounds": [0.18702149183034283, 1.1403415341635599]},
            "phi1_prime": {"fixed": 0.34773871223919994},
            "phi2_prime": {"bounds": [0.0, 6.016183149642931]},
            "tau": {"fixed": 1.79873731904273},
        },
        "min_reverse": 0.10133053308142363,
    }
    cfg = tmp_path / "search.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "search.txt"
    assert cli.main(["search", str(cfg), "--budget", "2000", "--out", str(out)]) == 0
    assert worker.check_search(out)(0, "").ok
