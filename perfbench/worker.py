"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N
        [--mode timed|plain|traced|extras] [--smoke]

Every mode first sets up: it imports diskspec and makes one minimal call
per layer the workload uses, and times that.  Then:

- ``timed``: one pass, timed under the speed probe, then the checks;
- ``plain``: one pass without probe or tracing, scaled by kernel timings
  just before and after it, then the checks;
- ``traced``: as ``plain``, with the tracing shims installed, plus the
  per-layer metrics of the pass;
- ``extras``: no pass, only the per-layer measurements that need their
  own calls (``threads2_speedup``, ``decay_tau_slope``).

A process runs at most one pass, so nothing one pass leaves in memory can
speed up another.  It prints one JSON line for ``run.py``, which is the
only intended caller.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 10
# The per-module time metrics that together make up a traced pass.
PARTITION = (
    "special.jv_s",
    "zeros.self_s",
    "geometry.g_profile_s",
    "spectral.self_s",
    "lattice.self_s",
    "asymptotics.scan_self_s",
    "asymptotics.fit_envelope_s",
    "asymptotics.oscillatory_decay_s",
)


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def threads2_speedup(ds, inp: dict) -> float:
    """disk_counts_many at threads=1 over threads=2 on the scan's scales."""
    mus = [inp["mu_min"] + i * inp["step"] for i in range(inp["points"])]
    one, _ = timed(lambda: ds.disk_counts_many(mus, threads=1))
    two, _ = timed(lambda: ds.disk_counts_many(mus, threads=2))
    return one / two


def decay_tau_slope(ds, inp: dict) -> float:
    """Log-log slope of oscillatory_decay seconds against tau, one decade
    of the workload's taus (five grid points) per measurement."""
    taus = inp["taus"]
    xs, ys = [], []
    for lo in range(0, len(taus) - 4, 4):
        decade = tuple(taus[lo : lo + 5])
        seconds = 0.0
        for kind, nu in inp["specs"]:
            spec = ds.OscIntegralSpec(kind=kind, nu=nu, taus=decade)
            seconds += timed(ds.oscillatory_decay, spec)[0]
        xs.append(math.log10(math.sqrt(decade[0] * decade[-1])))
        ys.append(math.log10(seconds))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "plain", "traced", "extras"), default="timed")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import diskspec as ds
    import workloads as wl

    if Path(ds.__file__).resolve().parent != ROOT / "src" / "diskspec":
        print(f"diskspec imported from {ds.__file__}, not from this checkout", file=sys.stderr)
        return 2
    work = wl.WORKLOADS[args.workload]
    work.warm()
    setup_raw = time.perf_counter() - start
    import probe

    # Probed right after set-up, since the drift correlates over that gap;
    # the first kernel call pays its own page faults, so it is untimed.
    probe.kernel()
    out = {"setup_s": setup_raw * probe.scale([probe.timed_kernel() for _ in range(SETUP_PROBES)])}
    out["setup_raw_s"] = setup_raw
    inp = work.inputs(args.seed, args.smoke)
    out["inputs_digest"] = wl.digest(inp)

    if args.mode == "extras":
        layers = {}
        if args.workload == "remainder_scan":
            layers["spectral.threads2_speedup"] = threads2_speedup(ds, inp)
        if args.workload == "decay":
            layers["asymptotics.decay_tau_slope"] = decay_tau_slope(ds, inp)
        print(json.dumps({**out, "per_layer": layers}))
        return 0

    ops = wl.Ops()
    if args.mode == "timed":
        with probe.Probe() as running:
            t0 = time.perf_counter()
            answers = work.run(inp, ops)
            t1 = time.perf_counter()
        out["wall_s"] = running.rescaled(t0, t1)
        out["wall_raw_s"] = running.net(t0, t1)
        latencies = [running.rescaled(*span) for span in ops.spans]
    else:
        # No probe interrupts the pass, so no probe time lands in a traced
        # span; kernel timings just before and after give a coarser scale.
        before = [probe.timed_kernel() for _ in range(SETUP_PROBES // 2)]
        if args.mode == "traced":
            import shims

            tracer = shims.Tracer()
            with tracer.installed():
                raw, answers = timed(work.run, inp, ops)
        else:
            raw, answers = timed(work.run, inp, ops)
        after = [probe.timed_kernel() for _ in range(SETUP_PROBES // 2)]
        out["wall_s"] = raw * probe.scale(before + after)
        out["wall_raw_s"] = raw
        latencies = [end - begin for begin, end in ops.spans]
        if args.mode == "traced":
            layers = shims.layer_metrics(tracer)
            # The printed module times against the pass's own clock: near 1
            # unless they overlap, miss a traced call, or glue outside the
            # traced calls grows.
            layers["trace.covered_frac"] = sum(layers[m] or 0.0 for m in PARTITION) / raw
            out["per_layer"] = layers
    out["query_s"] = [out["wall_s"]] if work.pass_is_query else latencies
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = list(work.checks(inp, answers))
    out["answers_digest"] = wl.digest(work.digested(answers))
    key = wl.pin_key(args.workload, args.seed)
    pinned = None if args.smoke or key is None else wl.load_pins().get("answers", {}).get(key)
    if pinned is not None:
        checks.append(("answers.pinned_digest", out["answers_digest"] == pinned))
    out["pinned"] = pinned is not None
    out["attempted"] = ops.attempted + len(checks)
    out["failed"] = ops.failed + sum(not ok for _, ok in checks)
    out["failed_checks"] = [name for name, ok in checks if not ok]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
