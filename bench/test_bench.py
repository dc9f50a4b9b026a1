"""Tests of the benchmark itself.

    python -m pytest bench

Smoke runs must emit every metric BENCHMARK.json declares, with its
unit; verification must count a corrupted output as a failed job; the
tracer must put every binding it wraps back.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_metrics_and_workloads_match_the_harness():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_same_seed_gives_the_same_inputs(tmp_path):
    builds = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        first, rest = workloads.build("crosscheck", 11, tmp_path / name, smoke=True)
        builds.append([first, *rest])
    for x, y in zip(*builds):
        assert x.argv[:-1] == y.argv[:-1]
        assert {**x.params, "state": None} == {**y.params, "state": None}
        assert np.array_equal(x.rho0, y.rho0)


def _corrupt_sweep(result):
    lines = result["stdout"].splitlines()
    t, mixedness, concurrence = lines[-1].split(",")
    lines[-1] = f"{t},{float(mixedness) + 1e-6:.12g},{concurrence}"
    result["stdout"] = "\n".join(lines) + "\n"


def _corrupt_json(path, delta):
    def corrupt(result):
        payload = json.loads(result["stdout"])
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
        result["stdout"] = json.dumps(payload)
    return corrupt


def _corrupt_rk4(result):
    result["rk4"] = result["rk4"] + 1e-7 * np.eye(4)


CORRUPTIONS = {
    "sweep": ("curves", _corrupt_sweep),
    "crosscheck": ("crosscheck", _corrupt_rk4),
    "ensemble": ("ensemble", _corrupt_json(("max_abs_delta_over_stderr",), 10.0)),
    "evolve": ("points", _corrupt_json(("measures", "concurrence"), 1e-3)),
    "tomography": ("points", _corrupt_json(("frobenius_error_to_input",), 1e-3)),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_a_failure(kind, tmp_path):
    workload, corrupt = CORRUPTIONS[kind]
    _, job_list = workloads.build(workload, 5, tmp_path, smoke=True)
    job = next(j for j in job_list if j.kind == kind)
    good = jobs.run_job(job)

    ledger = run.Ledger(verify.verify, jobs.digest)
    assert ledger.check(job, good)
    bad = dict(good)
    corrupt(bad)
    assert not ledger.check(job, bad)  # a repeat that differs from the verified run

    fresh = run.Ledger(verify.verify, jobs.digest)
    assert not fresh.check(job, bad)  # a first run that fails verification
    assert (ledger.attempted, ledger.failed, fresh.attempted, fresh.failed) == (2, 1, 1, 1)


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    import spinpath
    from spinpath import cli, measures, states

    originals = (states.validate_density_matrix, measures.measure_report)
    _, job_list = workloads.build("curves", 2, tmp_path, smoke=True)
    tracer = Tracer()
    tracer.record = True
    tracer.install()
    try:
        # spinpath, states, lindblad, kraus, interferometer, measures, tomography
        assert tracer.bindings_of("validate_density_matrix") == 7
        assert tracer.bindings_of("measure_report") == 3  # spinpath, measures, cli
        assert jobs.run_job(job_list[0])["code"] == 0
    finally:
        assert tracer.uninstall() == []
    assert (spinpath.validate_density_matrix, cli.measure_report) == originals
    stats = tracer.take()
    assert stats["cli.main"]["calls"] == 1
    assert stats["states.validate_density_matrix"]["calls"] > 0
    ids = {span[0] for span in tracer.spans}
    assert all(parent == -1 or parent in ids for _, _, _, _, parent, _ in tracer.spans)


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "points", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
