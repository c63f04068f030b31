"""diskspec benchmark: time to a certified count, on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Workloads: remainder_scan, zero_table,
point_queries, decay (see README.md in this directory).  Every pass runs
in a fresh interpreter with one thread, which first times its own set-up.
Pass i of a run uses seed N + i, so each pass has its own inputs and its
own pinned answers.  With ``--trace 0`` the run repeats probed passes for
S seconds (at least MIN_PASSES) and reports end-to-end metrics; untraced
times are rescaled to a reference machine speed by the probe in
``probe.py``.  With ``--trace 1`` it alternates plain and traced passes
(at least MIN_TRACED_PAIRS pairs), adds one process for the per-layer
measurements that need calls of their own, and reports per-layer metrics,
each the median over the traced passes.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}, the metrics named and
united as in BENCHMARK.json.  The line before it holds the machine facts,
the answer digests and the names of failed checks.  ``--smoke`` runs tiny
inputs for the benchmark's own tests.  Exits 2 without a result if the
checkout holds no diskspec sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("remainder_scan", "zero_table", "point_queries", "decay")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# Workloads with per-layer measurements that need calls of their own.
EXTRAS = ("remainder_scan", "decay")
# Every child is killed once the run has taken this long, so that a run
# exits well within three minutes even if a child hangs.
DEADLINE_S = 170.0
# One thread per process: numpy's BLAS pools would otherwise take both cores.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def last_level_cache() -> str | None:
    """Size of the highest cache level of cpu0, as the kernel reports it."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    if best is not None:
        return f"L{best[0]} {best[1]}"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("cache size"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "last_level_cache": last_level_cache(),
        "machine": platform.machine(),
    }


def worker(args: argparse.Namespace, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker.py pass in a fresh interpreter and parse its JSON line."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
        *(["--smoke"] if args.smoke else []),
    ]
    env = {**os.environ, **SINGLE_THREAD_ENV}
    done = subprocess.run(
        cmd,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
        check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def repeat(seconds: float, minimum: int, one) -> list:
    """Call ``one(i)`` for i = 0, 1, ... at least ``minimum`` times, then
    while another call of the last one's length still ends within
    ``seconds``."""
    results = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(one(len(results)))
        last = time.monotonic() - t0
        if len(results) >= minimum and time.monotonic() - start + last > seconds:
            return results


def median_layers(traced: list[dict]) -> dict:
    """Median of each per-layer metric over the traced passes; a metric is
    absent (None) if any pass lacked it."""
    names = traced[0]["per_layer"]
    return {
        name: None
        if any(t["per_layer"][name] is None for t in traced)
        else statistics.median(t["per_layer"][name] for t in traced)
        for name in names
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "diskspec" / "__init__.py").is_file():
        print(f"no diskspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S

    def one(mode: str):
        return lambda i: worker(args, args.seed + i, mode, deadline)

    if args.trace:
        plain_one, traced_one = one("plain"), one("traced")
        pairs = repeat(args.seconds, MIN_TRACED_PAIRS, lambda i: (plain_one(i), traced_one(i)))
        passes = [p for pair in pairs for p in pair]
        traced = [t for _, t in pairs]
        values = median_layers(traced)
        values["trace.overhead_frac"] = (
            statistics.median(t["wall_s"] for t in traced)
            / statistics.median(p["wall_s"] for p, _ in pairs)
            - 1.0
        )
        # Layers a workload does not use report 0, as in the traced passes.
        values["spectral.threads2_speedup"] = values["asymptotics.decay_tau_slope"] = 0.0
        if args.workload in EXTRAS:
            values.update(worker(args, args.seed, "extras", deadline)["per_layer"])
        wanted = spec["per_layer"]
        raw = None
    else:
        passes = repeat(args.seconds, MIN_PASSES, one("timed"))
        wanted = spec["end_to_end"]
        # Linear interpolation between order statistics, as numpy's default.
        query_ms = [1e3 * t for p in passes for t in p["query_s"]]
        query_ms = statistics.quantiles(query_ms, n=10, method="inclusive")
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "query_p50_ms": query_ms[4],
            "query_p90_ms": query_ms[8],
        }
        raw = {
            "wall_s": statistics.median(p["wall_raw_s"] for p in passes),
            "setup_s": statistics.median(p["setup_raw_s"] for p in passes),
        }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if values.get(m["name"]) is not None
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_facts(),
        "passes": len(passes),
        "failed_frac": failed / attempted,
        "raw_seconds": raw,
        "failed_checks": sorted({name for p in passes for name in p["failed_checks"]}),
        "inputs_digests": [p["inputs_digest"] for p in passes],
        "answers_digests": [p["answers_digest"] for p in passes],
        "answers_pinned": all(p["pinned"] for p in passes),
        "absent": sorted(m["name"] for m in wanted if values.get(m["name"]) is None),
    }
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
