"""Per-layer tracing from outside the package.

``Tracer.installed()`` replaces each traced entry point, at every module
binding listed in ``SHIMS``, by a wrapper that records a span (inclusive
and self time, call count) and work counters, and puts every original
back on exit.  Nothing under ``src/`` is edited.  A shim whose target no
longer exists is skipped, and the metrics that need it are reported
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _count_jv(tr, args, result):
    elements = int(np.size(result))
    tr.add("special.jv_elements", elements)
    if tr.inside("zeros."):
        tr.add("zeros.jv_elements", elements)


def _count_zeros(tr, args, result):
    found = len(result)
    tr.add("zeros.orders", 1)
    tr.add("zeros.certified", found)
    if tr.inside("spectral."):
        tr.add("spectral.zeros", found)


def _count_zero_records(tr, args, result):
    _count_zeros(tr, args, result)
    for z in result:
        tr.peak("zeros.worst_residual", z.residual)
        tr.peak("zeros.worst_rel_width", z.bracket_width / z.x)


def _count_g(tr, args, result):
    tr.add("geometry.g_profile_elements", int(np.size(args[0])))


def _count_scale(tr, args, result):
    tr.add("spectral.scales", 1)


def _count_scales(tr, args, result):
    tr.add("spectral.scales", len(result))


def _count_columns(tr, args, result):
    tr.add("lattice.columns", 2 * math.floor(args[0]) + 1)


# Span name -> (bindings "module:attribute", work counter).  The first
# binding is where the target is defined; the others are the from-imports
# through which other modules (and the workloads) reach it.
SHIMS = {
    "special.jv": (["scipy.special:jv"], _count_jv),
    "zeros.zero_array": (
        ["diskspec.zeros:zero_array", "diskspec.spectral:zero_array", "diskspec:zero_array"],
        _count_zeros,
    ),
    "zeros.zeros_up_to": (["diskspec.zeros:zeros_up_to", "diskspec:zeros_up_to"], _count_zero_records),
    "geometry.g_profile": (["diskspec.lattice:g_profile", "diskspec.zeros:g_profile"], _count_g),
    "spectral.count_disk": (["diskspec.spectral:count_disk", "diskspec:count_disk"], _count_scale),
    "spectral.disk_counts_many": (
        [
            "diskspec.spectral:disk_counts_many",
            "diskspec.asymptotics:disk_counts_many",
            "diskspec:disk_counts_many",
        ],
        _count_scales,
    ),
    "spectral.count_sample": (["diskspec.spectral:count_sample", "diskspec:count_sample"], None),
    "lattice.count_lattice": (
        [
            "diskspec.lattice:count_lattice",
            "diskspec.spectral:count_lattice",
            "diskspec.asymptotics:count_lattice",
            "diskspec:count_lattice",
        ],
        _count_columns,
    ),
    "lattice.sandwich_check": (["diskspec.lattice:sandwich_check", "diskspec:sandwich_check"], None),
    "asymptotics.scan_remainder": (
        ["diskspec.asymptotics:scan_remainder", "diskspec:scan_remainder"],
        None,
    ),
    "asymptotics.fit_envelope": (["diskspec.asymptotics:fit_envelope", "diskspec:fit_envelope"], None),
    "asymptotics.oscillatory_decay": (
        ["diskspec.asymptotics:oscillatory_decay", "diskspec:oscillatory_decay"],
        None,
    ),
}


class Tracer:
    """Aggregated spans and counters over every traced call while installed."""

    def __init__(self, shims: dict = SHIMS) -> None:
        self.shims = shims
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.longest = defaultdict(float)
        self.counters = defaultdict(float)
        self.peaks = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[list] = []  # [span name, seconds covered by children]

    def add(self, key: str, amount: float) -> None:
        self.counters[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks[key], value)

    def inside(self, prefix: str) -> bool:
        return any(name.startswith(prefix) for name, _ in self._stack)

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.longest[name] = max(self.longest[name], elapsed)
                if self._stack:
                    self._stack[-1][1] += elapsed
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of every shim; restore them all on exit."""
        patched = []
        try:
            for name, (bindings, count) in self.shims.items():
                targets = []
                for binding in bindings:
                    module_name, attr = binding.split(":")
                    try:
                        module = importlib.import_module(module_name)
                    except ImportError:
                        continue
                    if hasattr(module, attr):
                        targets.append((module, attr, getattr(module, attr)))
                if not targets:
                    self.absent.add(name)
                    continue
                original = targets[0][2]
                wrapper = self._wrap(name, original, count)
                for module, attr, value in targets:
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 where the layer did no work on this workload."""
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float | None]:
    """Layer metrics from a tracer that saw one traced pass.

    Each metric needs one or more groups of shims and is None when every
    shim of some group is absent.
    """
    inc, own, cnt, calls = tr.inclusive, tr.self_time, tr.counters, tr.calls
    jv, g = ("special.jv",), ("geometry.g_profile",)
    zeros = ("zeros.zero_array", "zeros.zeros_up_to")
    records = ("zeros.zeros_up_to",)
    counts = ("spectral.count_disk", "spectral.disk_counts_many")
    spectral = counts + ("spectral.count_sample",)
    lattice = ("lattice.count_lattice", "lattice.sandwich_check")
    scan, fit = ("asymptotics.scan_remainder",), ("asymptotics.fit_envelope",)
    decay = ("asymptotics.oscillatory_decay",)
    table = {
        "special.jv_elements": ([jv], lambda: cnt["special.jv_elements"]),
        "special.jv_calls": ([jv], lambda: calls["special.jv"]),
        "special.jv_s": ([jv], lambda: inc["special.jv"]),
        "special.jv_us_per_element": (
            [jv],
            lambda: 1e6 * _ratio(inc["special.jv"], cnt["special.jv_elements"]),
        ),
        "zeros.orders": ([zeros], lambda: cnt["zeros.orders"]),
        "zeros.certified": ([zeros], lambda: cnt["zeros.certified"]),
        "zeros.s": ([zeros], lambda: sum(inc[z] for z in zeros)),
        "zeros.self_s": ([zeros], lambda: sum(own[z] for z in zeros)),
        "zeros.jv_per_zero": (
            [zeros, jv],
            lambda: _ratio(cnt["zeros.jv_elements"], cnt["zeros.certified"]),
        ),
        "zeros.worst_residual": ([records], lambda: tr.peaks["zeros.worst_residual"]),
        "zeros.worst_rel_width": ([records], lambda: tr.peaks["zeros.worst_rel_width"]),
        "spectral.disk_counts_many_s": (
            [counts[1:]],
            lambda: inc["spectral.disk_counts_many"],
        ),
        "spectral.count_disk_s": ([counts[:1]], lambda: inc["spectral.count_disk"]),
        "spectral.zeros_certified_per_scale": (
            [counts, zeros],
            lambda: _ratio(cnt["spectral.zeros"], cnt["spectral.scales"]),
        ),
        "spectral.self_s": ([spectral], lambda: sum(own[s] for s in spectral)),
        "geometry.g_profile_calls": ([g], lambda: calls["geometry.g_profile"]),
        "geometry.g_profile_elements_per_call": (
            [g],
            lambda: _ratio(cnt["geometry.g_profile_elements"], calls["geometry.g_profile"]),
        ),
        "geometry.g_profile_s": ([g], lambda: inc["geometry.g_profile"]),
        "lattice.count_lattice_s": ([lattice[:1]], lambda: inc["lattice.count_lattice"]),
        "lattice.us_per_column": (
            [lattice[:1]],
            lambda: 1e6 * _ratio(inc["lattice.count_lattice"], cnt["lattice.columns"]),
        ),
        "lattice.sandwich_s": ([lattice[1:]], lambda: inc["lattice.sandwich_check"]),
        "lattice.self_s": ([lattice], lambda: sum(own[s] for s in lattice)),
        "asymptotics.scan_self_s": ([scan], lambda: own["asymptotics.scan_remainder"]),
        "asymptotics.fit_envelope_s": ([fit], lambda: inc["asymptotics.fit_envelope"]),
        "asymptotics.oscillatory_decay_s": (
            [decay],
            lambda: inc["asymptotics.oscillatory_decay"],
        ),
        "asymptotics.decay_max_spec_s": (
            [decay],
            lambda: tr.longest["asymptotics.oscillatory_decay"],
        ),
    }
    return {
        name: None if any(all(s in tr.absent for s in group) for group in needs) else value()
        for name, (needs, value) in table.items()
    }
