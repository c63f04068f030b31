"""Command-line front end.

Subcommands map one-to-one onto the package's experiment surface: zero
tables, single counts, remainder scans, envelope fits, self-check suites,
and the mollified sandwich.  All float output goes through %.17g and all
files end lines with LF, so reruns are byte-identical.

Exit codes: 0 success, 1 verification violation, 2 bad arguments or
domain errors, 3 quadrature or refinement failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .asymptotics import fit_envelope, scan_remainder
from .errors import DomainError, QuadratureError, RefinementError, check_integer, check_real
from .lattice import MollifyConfig, sandwich_check
from .spectral import CountSample, count_sample
from .verify import run_suite
from .zeros import zeros_up_to

__all__ = ["RunConfig", "main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class RunConfig:
    """Validated cross-command options (the output target)."""

    out: str | None = None

    def __post_init__(self) -> None:
        if self.out is not None:
            parent = os.path.dirname(os.path.abspath(self.out))
            if not os.path.isdir(parent):
                raise DomainError(f"output directory does not exist: {parent}")


def _write_lines(cfg: RunConfig, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)


def _cmd_zeros(args: argparse.Namespace) -> int:
    cfg = RunConfig(out=args.out)
    lines = ["n,k,x,residual"]
    for n in range(check_integer(args.n_max, "--n-max", 0) + 1):
        lines.extend(
            f"{z.n},{z.k},{_fmt(z.x)},{_fmt(z.residual)}"
            for z in zeros_up_to(n, args.mu)
        )
    _write_lines(cfg, lines)
    return 0


def _sample_json(s: CountSample) -> str:
    return (
        "{"
        f'"mu": {_fmt(s.mu)}, "n_disk": {s.n_disk}, "n_lattice": {s.n_lattice}, '
        f'"weyl2": {_fmt(s.weyl2)}, "remainder": {_fmt(s.remainder)}, "diff": {s.diff}'
        "}"
    )


def _cmd_count(args: argparse.Namespace) -> int:
    sample = count_sample(args.mu)
    sys.stdout.write(_sample_json(sample) + "\n")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    cfg = RunConfig(out=args.out)
    samples = scan_remainder(args.mu_min, args.mu_max, args.step)
    lines = ["mu,n_disk,n_lattice,weyl2,remainder,diff"]
    for s in samples:
        lines.append(
            f"{_fmt(s.mu)},{s.n_disk},{s.n_lattice},{_fmt(s.weyl2)},"
            f"{_fmt(s.remainder)},{s.diff}"
        )
    _write_lines(cfg, lines)
    return 0


def _read_samples(path: str) -> list[CountSample]:
    import csv

    if not os.path.isfile(path):
        raise DomainError(f"input file does not exist: {path}")
    samples = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            # float() accepts nan and inf; check_real's DomainError is a ValueError.
            try:
                samples.append(
                    CountSample(
                        mu=check_real(float(row["mu"]), "mu"),
                        n_disk=int(row["n_disk"]),
                        n_lattice=int(row["n_lattice"]),
                        weyl2=check_real(float(row["weyl2"]), "weyl2"),
                        remainder=check_real(float(row["remainder"]), "remainder"),
                        diff=int(row["diff"]),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise DomainError(f"malformed scan row in {path}: {exc}")
    if not samples:
        raise DomainError(f"no samples in {path}")
    return samples


def _cmd_fit(args: argparse.Namespace) -> int:
    cfg = RunConfig(out=args.out)
    fit = fit_envelope(
        _read_samples(args.infile), block_size=args.block, field_name=args.column
    )
    line = (
        "{"
        f'"exponent": {_fmt(fit.exponent)}, "log_amplitude": {_fmt(fit.log_amplitude)}, '
        f'"r_squared": {_fmt(fit.r_squared)}, "n_points": {fit.n_points}'
        "}"
    )
    _write_lines(cfg, [line])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, mu=args.mu)
    for r in results:
        line = (
            "{"
            f'"name": "{r.name}", "passed": {str(r.passed).lower()}, '
            f'"measured": {_fmt(r.measured)}, "expected": {_fmt(r.expected)}, '
            f'"tolerance": {_fmt(r.tolerance)}'
            "}"
        )
        sys.stdout.write(line + "\n")
    return 0 if all(r.passed for r in results) else 1


def _cmd_mollify(args: argparse.Namespace) -> int:
    cfg = RunConfig(out=args.out)
    mcfg = MollifyConfig(eps_exponent=args.eps_exp, quad_cells=args.quad_cells)
    res = sandwich_check(args.mu, mcfg)
    line = (
        "{"
        f'"mu": {_fmt(res.mu)}, "eps": {_fmt(res.eps)}, "n_minus": {_fmt(res.n_minus)}, '
        f'"n_exact": {_fmt(res.n_exact)}, "n_plus": {_fmt(res.n_plus)}, '
        f'"holds": {str(res.holds).lower()}'
        "}"
    )
    _write_lines(cfg, [line])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskspec",
        description="Two-term eigenvalue counting for the Dirichlet disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="certified Bessel zero table as CSV")
    p.add_argument("--n-max", type=int, required=True, help="largest order to tabulate")
    p.add_argument("--mu", type=float, required=True, help="upper cutoff for zeros")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("count", help="both counts and the remainder at one scale")
    p.add_argument("--mu", type=float, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("scan", help="remainder scan over an offset grid, CSV")
    p.add_argument("--mu-min", type=float, required=True)
    p.add_argument("--mu-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("fit", help="block-maxima envelope fit of a scan CSV")
    p.add_argument("--in", dest="infile", required=True, help="scan CSV to fit")
    p.add_argument("--block", type=int, default=20)
    p.add_argument("--column", default="remainder")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="run a named self-check suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=["special", "geometry", "lattice", "sandwich", "appendix"],
    )
    p.add_argument("--mu", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mollify", help="mollified sandwich at one scale, JSON")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--eps-exp", type=float, default=1.0 / 3.0)
    p.add_argument("--quad-cells", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mollify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(json.dumps({"error": "DomainError", "message": str(exc)}) + "\n")
        return 2
    except (QuadratureError, RefinementError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
