"""The benchmark's own tests, on smoke-size inputs.

    python3 -m pytest -q perfbench

Each run starts real worker processes; the whole file takes about a
minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import shims  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


_runs: dict = {}


def smoke(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(detail line, result line) of one smoke run, cached per arguments."""
    key = (workload, seed, trace)
    if key not in _runs:
        done = bench(workload, seed, trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        _runs[key] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return _runs[key]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(workload, trace, kind):
    detail, result = smoke(workload, 1, trace)
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["absent"] == []
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(wanted)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wanted[name]
        assert isinstance(metric["value"], float)
    for fact in ("cores", "python", "numpy", "scipy", "last_level_cache"):
        assert detail["machine"][fact]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_set(workload):
    first, one = smoke(workload, 1, 0)
    second, two = smoke(workload, 2, 0)
    # Pass i runs seed + i: every pass of a run has inputs of its own.
    assert len(set(first["inputs_digests"])) == len(first["inputs_digests"])
    assert first["inputs_digests"][1] == second["inputs_digests"][0]
    assert first["inputs_digests"][0] not in second["inputs_digests"]
    assert set(one["metrics"]) == set(two["metrics"])
    again = json.loads(bench(workload, 1, 0).stdout.strip().splitlines()[-2])
    n = min(len(again["inputs_digests"]), len(first["inputs_digests"]))
    assert again["inputs_digests"][:n] == first["inputs_digests"][:n]
    assert again["answers_digests"][:n] == first["answers_digests"][:n]


def test_module_times_add_up_to_the_traced_scan():
    _, result = smoke("remainder_scan", 1, 1)
    assert 0.95 <= result["metrics"]["trace.covered_frac"]["value"] <= 1.05


def test_missing_shim_target_is_absent_not_fatal():
    import diskspec
    import scipy.special

    jv = scipy.special.jv
    count_lattice = diskspec.spectral.count_lattice
    broken = dict(shims.SHIMS)
    broken["special.jv"] = (["scipy.special:no_such_function"], None)
    broken["zeros.zeros_up_to"] = (["diskspec.zeros:no_such_function"], None)
    tracer = shims.Tracer(broken)
    with tracer.installed():
        assert diskspec.spectral.count_lattice is not count_lattice
        diskspec.count_sample(12.0)
    assert scipy.special.jv is jv
    assert diskspec.spectral.count_lattice is count_lattice
    metrics = shims.layer_metrics(tracer)
    assert metrics["special.jv_s"] is None and metrics["zeros.jv_per_zero"] is None
    assert metrics["zeros.worst_residual"] is None
    # zero_array still stands for the zeros layer.
    assert metrics["zeros.certified"] > 0 and metrics["lattice.count_lattice_s"] > 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("zero_table", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
