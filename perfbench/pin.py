"""Regenerate ``pins.json``: the reference answers the benchmark checks.

    python3 perfbench/pin.py

Runs one full-size pass per input variant of every workload and records
the digest of its integer answers (counts, and (n, k) per zero) and the
fitted decay exponents.  Run it only when an answer is meant to change, and say why in
the change that commits the new pins.  Takes several minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def answers_digest(name: str, seed: int) -> str:
    work = wl.WORKLOADS[name]
    ops = wl.Ops()
    answers = work.run(work.inputs(seed, False), ops)
    if ops.failed:
        raise SystemExit(f"{name} seed {seed}: {ops.failed} operations failed")
    return wl.digest(work.digested(answers))


def main() -> None:
    pins = {"answers": {}}
    answers = pins["answers"]
    for name in sorted(wl.WORKLOADS):
        if name == "decay":
            ops = wl.Ops()
            results = wl.decay_run(wl.decay_inputs(0, False), ops)
            pins["decay_exponents"] = {
                wl.exponent_key(r.spec.kind, r.spec.nu): r.fit.exponent for r in results
            }
            continue
        seeds = [0] if name == "zero_table" else range(wl.VARIANTS)
        for seed in seeds:
            answers[wl.pin_key(name, seed)] = answers_digest(name, seed)
            print(name, seed, answers[wl.pin_key(name, seed)], flush=True)
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
