"""Per-layer tracing from outside the program.

A Tracer replaces each function named in LAYERS, in every ``turbobound``
module namespace that bound it, with a wrapper that times the call as a
span.  A span's self time is its duration minus the durations of the
spans it directly encloses.  Some wrappers also count work from the
arguments and the result (MEASURES); that counting is timed and taken
out of the enclosing span, so it shows only as tracing overhead.
restore() puts every original binding back.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from math import comb

LAYERS = {
    "gf2": ("period",),
    "rsc": ("weight2_parity_response",),
    "puncture": ("classify", "punctured_core_weights"),
    "cwef": ("cwef_w2_punctured", "path_weights"),
    "pccc": ("p2_slice", "combine_uniform_interleaver", "iowef_slice",
             "union_bound_term", "truncated_union_bound",
             "free_effective_distance"),
    "oracle": ("exact_cwef_dp", "brute_force_cwef", "run_case",
               "default_verification_grid"),
    "cli": ("entrypoint",),
}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    keys: set = field(default_factory=set)
    sizes: list[int] = field(default_factory=list)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _cwef_w2_punctured(stat, a, result):
    stat.add("terms_out", len(result.terms))
    stat.keys.add((a["code"], tuple(a["p_u"]), tuple(a["p_z"]), a["n"]))


def _combine(stat, a, result):
    stat.add("pairs", len(a["a1"].terms) * len({z for _, z in a["a2"].terms}))
    stat.add("terms_out", len(result.terms))


def _union_bound_term(stat, a, result):
    stat.add("terms", len(a["b"].coeffs))


def _p2_slice(stat, a, result):
    stat.keys.add(a["config"])
    stat.sizes.append(len(result.coeffs))


def _exact_cwef_dp(stat, a, result):
    d_cap = a["d_max"] if a["d_max"] is not None else a["n"] + a["w_max"]
    stat.add("cells", a["n"] * a["code"].n_states * (a["w_max"] + 1) ** 2 * (d_cap + 1))


def _brute_force_cwef(stat, a, result):
    stat.add("inputs", comb(a["n"], a["w"]))
    stat.add("remerging", result.total())


MEASURES = {
    "cwef.cwef_w2_punctured": _cwef_w2_punctured,
    "pccc.combine_uniform_interleaver": _combine,
    "pccc.union_bound_term": _union_bound_term,
    "pccc.p2_slice": _p2_slice,
    "oracle.exact_cwef_dp": _exact_cwef_dp,
    "oracle.brute_force_cwef": _brute_force_cwef,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._open: list[list[float]] = []   # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, measure=None):
        stat = self.stats.setdefault(name, Stat())
        clock, open_spans = self.clock, self._open
        signature = inspect.signature(fn) if measure else None

        def wrapper(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            end = None
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if measure is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    measure(stat, bound.arguments, result)
            finally:
                stop = clock()
                if end is None:
                    end = stop
                open_spans.pop()
                stat.calls += 1
                stat.self_s += end - start - children[0]
                if open_spans:
                    open_spans[-1][0] += stop - start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS function wherever a turbobound module bound it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "turbobound" or n.startswith("turbobound.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"turbobound.{layer}"]
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(home, fname)
                wrapper = self.wrap(name, original, MEASURES.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def reset(self) -> dict[str, Stat]:
        """Return the statistics so far and zero them in place, since each
        wrapper holds its own Stat."""
        snapshot = {}
        for name, stat in self.stats.items():
            snapshot[name] = Stat(stat.calls, stat.self_s, stat.counts,
                                  stat.keys, stat.sizes)
            stat.calls, stat.self_s = 0, 0.0
            stat.counts, stat.keys, stat.sizes = {}, set(), []
        return snapshot
