"""Remainder-scan experiment: both counting routes over one scale grid.

Writes the per-scale CSV (same schema as `diskspec scan`) plus a JSON
summary with the scaled-remainder constants and the block-maxima envelope
fits for the two-term remainder and for the route difference.
"""

import argparse
import json
import sys
import time

from diskspec import DomainError, fit_envelope, scan_remainder


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fit_or_none(samples, block, field):
    try:
        fit = fit_envelope(samples, block_size=block, field_name=field)
    except DomainError as exc:
        return {"error": str(exc)}
    return {
        "exponent": fit.exponent,
        "log_amplitude": fit.log_amplitude,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mu-min", type=float, default=50.0)
    ap.add_argument("--mu-max", type=float, default=1500.0)
    ap.add_argument("--points", type=int, default=200)
    ap.add_argument("--block", type=int, default=20)
    ap.add_argument("--out-csv", default="remainder_scan.csv")
    ap.add_argument("--out-json", default="remainder_scan_summary.json")
    args = ap.parse_args(argv)
    if args.points < 2:
        ap.error("--points must be at least 2")

    step = (args.mu_max - args.mu_min) / (args.points - 1)
    start = time.perf_counter()
    samples = scan_remainder(args.mu_min, args.mu_max, step)
    elapsed = time.perf_counter() - start

    with open(args.out_csv, "w", newline="") as fh:
        fh.write("mu,n_disk,n_lattice,weyl2,remainder,diff\n")
        for s in samples:
            fh.write(
                f"{_fmt(s.mu)},{s.n_disk},{s.n_lattice},{_fmt(s.weyl2)},"
                f"{_fmt(s.remainder)},{s.diff}\n"
            )

    r_ratio = max(abs(s.remainder) / s.mu ** (2.0 / 3.0) for s in samples)
    d_ratio = max(abs(s.diff) / s.mu ** (2.0 / 3.0) for s in samples)
    summary = {
        "mu_min": args.mu_min,
        "mu_max": args.mu_max,
        "points": len(samples),
        "seconds": elapsed,
        "max_scaled_remainder": r_ratio,
        "max_scaled_diff": d_ratio,
        "nonzero_diffs": sum(1 for s in samples if s.diff != 0),
        "remainder_fit": _fit_or_none(samples, args.block, "remainder"),
        "diff_fit": _fit_or_none(samples, args.block, "diff"),
    }
    with open(args.out_json, "w", newline="") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    print(f"scan: {len(samples)} points in {elapsed:.1f} s -> {args.out_csv}")
    print(f"max |R|/mu^(2/3)    = {r_ratio:.4f}")
    print(f"max |diff|/mu^(2/3) = {d_ratio:.4f}")
    for name in ("remainder_fit", "diff_fit"):
        fit = summary[name]
        if "exponent" in fit:
            print(f"{name}: exponent {fit['exponent']:+.4f} (r2 {fit['r_squared']:.3f})")
        else:
            print(f"{name}: {fit['error']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
