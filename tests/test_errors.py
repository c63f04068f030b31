"""Boundary table: a bad numeric argument to a public entry point raises
DomainError, whatever its kind (nan, an infinity, a bool, a string, a
non-integer size, an array with a bad element), and the CLI maps that
error to exit code 2."""

import argparse
import json
import math

import numpy as np
import pytest

import diskspec as ds
from diskspec import cli
from diskspec.errors import DomainError

BAD = (math.nan, math.inf, -math.inf, True, "3")


def _spec(**kw):
    return ds.OscIntegralSpec(kind="curved_a", **kw)


def _zeros_cli(n_max, mu=10.0):
    return cli._cmd_zeros(argparse.Namespace(n_max=n_max, mu=mu, out=None))


# One call per argument slot; the bad value goes into that slot.
SLOTS = {
    "psi(s)": lambda v: ds.psi(v),
    "refine_zero(guess)": lambda v: ds.refine_zero(0, v),
    "bessel_quadrature_oracle(x)": lambda v: ds.bessel_quadrature_oracle(0, v),
    "bessel_quadrature_oracle(nodes)": lambda v: ds.bessel_quadrature_oracle(0, 3.0, nodes=v),
    "EvalAccuracy(abs_tol)": lambda v: ds.EvalAccuracy(abs_tol=v),
    "EvalAccuracy(rel_tol)": lambda v: ds.EvalAccuracy(rel_tol=v),
    "EvalAccuracy(max_nodes)": lambda v: ds.EvalAccuracy(max_nodes=v),
    "area_D(abs_tol)": lambda v: ds.area_D(v),
    "scale_function(x)": lambda v: ds.scale_function(v, 1.0),
    "scale_function(y)": lambda v: ds.scale_function(0.1, v),
    "scale_function(y) on the axis": lambda v: ds.scale_function(0.0, v),
    "scale_function(y) at x=0.5": lambda v: ds.scale_function(0.5, v),
    "involution(x)": lambda v: ds.involution((v, 1.0)),
    "involution(y)": lambda v: ds.involution((0.1, v)),
    "CuspDomain(mu)": lambda v: ds.CuspDomain(v),
    "CuspDomain.contains(x)": lambda v: ds.CuspDomain(3.0).contains(v, 1.0),
    "CuspDomain.contains(y)": lambda v: ds.CuspDomain(3.0).contains(1.0, v),
    "in_domain(mu)": lambda v: ds.in_domain(v, (1.0, 1.0)),
    "in_domain(x)": lambda v: ds.in_domain(3.0, (v, 1.0)),
    "in_domain(y)": lambda v: ds.in_domain(3.0, (1.0, v)),
    "MollifyConfig(eps_exponent)": lambda v: ds.MollifyConfig(eps_exponent=v),
    "MollifyConfig(eps_scale)": lambda v: ds.MollifyConfig(eps_scale=v),
    "MollifyConfig(quad_cells)": lambda v: ds.MollifyConfig(quad_cells=v),
    "MollifyConfig(chi_plateau)": lambda v: ds.MollifyConfig(chi_plateau=v),
    "MollifyConfig(chi_support)": lambda v: ds.MollifyConfig(chi_support=v),
    "scan_remainder(mu_min)": lambda v: ds.scan_remainder(v, 30.0, 1.0),
    "scan_remainder(mu_max)": lambda v: ds.scan_remainder(20.0, v, 1.0),
    "scan_remainder(step)": lambda v: ds.scan_remainder(20.0, 30.0, v),
    "fit_envelope(block_size)": lambda v: ds.fit_envelope([], block_size=v),
    "beta_series(beta)": lambda v: ds.beta_series(v, 20),
    "OscIntegralSpec(nu)": lambda v: _spec(nu=v),
    "OscIntegralSpec(tau)": lambda v: _spec(taus=(1e2, v)),
    "OscIntegralSpec(phase_budget)": lambda v: _spec(phase_budget=v),
    "OscIntegralSpec(gl_order)": lambda v: _spec(gl_order=v),
    "linear_segment_integral(xi)": lambda v: ds.linear_segment_integral("vertical", v, 1.0),
    "linear_segment_integral(eta)": lambda v: ds.linear_segment_integral("vertical", 1.0, v),
    "linear_segment_integral(eps)": lambda v: ds.linear_segment_integral(
        "vertical", 1.0, 1.0, eps=v
    ),
    "linear_segment_integral(length)": lambda v: ds.linear_segment_integral(
        "horizontal", 1.0, 1.0, length=v
    ),
    "zeros --n-max": _zeros_cli,
    "zeros --mu": lambda v: _zeros_cli(20, v),
    "count_disk(mu)": lambda v: ds.count_disk(v),
    "disk_counts_many(mus)": lambda v: ds.disk_counts_many([10.0, v]),
    "count_sample(mu)": lambda v: ds.count_sample(v),
    "weyl_two_term(mu)": lambda v: ds.weyl_two_term(v),
    "zero_array(mu)": lambda v: ds.zero_array(0, v),
    "count_lattice(mu)": lambda v: ds.count_lattice(v),
    "column_count(mu)": lambda v: ds.column_count(0, v),
    "brute_force_count(mu)": lambda v: ds.brute_force_count(v),
    "sandwich_check(mu)": lambda v: ds.sandwich_check(v),
}

ARRAY_SLOTS = {
    "g_profile(x)": lambda v: ds.g_profile(v),
    "bessel_j(x)": lambda v: ds.bessel_j(0, v),
    "airy_ai(x)": lambda v: ds.airy_ai(v),
    "rho(x)": lambda v: ds.rho(v, 0.1),
    "rho(y)": lambda v: ds.rho(0.1, v),
    "chi0(x)": lambda v: ds.chi0(v, 0.1),
    "chi0(y)": lambda v: ds.chi0(0.5, v),
    "chi_weight(u)": lambda v: ds.chi_weight(v),
    "amplitude_cutoff(t)": lambda v: ds.amplitude_cutoff(v),
}

SLOTS.update(ARRAY_SLOTS)

# Values named one by one: numeric strings, non-integer sizes, a negative
# count, scan steps that ask for too many points, and arrays with one bad
# element or a non-real dtype.
NAMED = [
    ("scan_remainder(mu_min)", "20"),
    ("psi(s)", "1"),
    ("beta_series(beta)", "0.3"),
    ("linear_segment_integral(xi)", "1"),
    ("MollifyConfig(eps_scale)", "1"),
    ("OscIntegralSpec(nu)", "0.1"),
    ("g_profile(x)", "0.5"),
    ("chi0(x)", "0.5"),
    ("in_domain(x)", "1"),
    ("MollifyConfig(quad_cells)", 64.5),
    ("OscIntegralSpec(gl_order)", 32.5),
    ("bessel_quadrature_oracle(nodes)", 16.5),
    ("EvalAccuracy(max_nodes)", 128.0),
    ("fit_envelope(block_size)", 20.0),
    ("zeros --n-max", -1),
    ("zeros --n-max", 2.0),
    ("scan_remainder(step)", 1e-9),
    ("scan_remainder(step)", 1e-300),
    ("scale_function(y) on the axis", 1e308),
    ("scale_function(y) at x=0.5", 1e308),
    ("g_profile(x)", [0.1, math.nan]),
    ("g_profile(x)", [[0.1], [0.2, 0.3]]),
    ("bessel_j(x)", np.array([1.0, np.inf])),
    ("airy_ai(x)", ["1"]),
    ("rho(x)", np.array([True, False])),
    ("chi_weight(u)", [0.1, 1j]),
    ("amplitude_cutoff(t)", np.array([0.5, -np.inf])),
]

ROWS = [(slot, v) for slot in SLOTS for v in BAD] + NAMED


@pytest.mark.parametrize("slot, bad", ROWS, ids=[f"{s}-{v!r}" for s, v in ROWS])
def test_bad_argument_raises_domain_error_and_exits_2(slot, bad, monkeypatch, capsys):
    call = SLOTS[slot]
    with pytest.raises(DomainError):
        call(bad)

    class Parser:
        def parse_args(self, argv):
            return argparse.Namespace(func=lambda args: call(bad))

    monkeypatch.setattr(cli, "build_parser", Parser)
    assert cli.main([]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def test_array_functions_return_floats_for_scalars_and_arrays_otherwise():
    for slot, call in ARRAY_SLOTS.items():
        for value in (0.5, np.float64(0.5), np.array(0.5), 1):
            assert type(call(value)) is float, (slot, value)
        assert call(np.array([0.5, 0.25])).shape == (2,)
        assert call(np.full((2, 3), 0.5)).shape == (2, 3)
