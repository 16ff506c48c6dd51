"""Exact enumerators computed two independent ways: a forward trellis
dynamic program over (state, input weight, systematic weight, parity
weight), and exhaustive enumeration of every weight-w input, each
codeword built as the XOR of shifted impulse responses.  Both follow
the terminated-path convention of the closed forms: a path counts only
if it ends the block in the zero state, with no tail appended.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations, product, starmap
from math import comb
from operator import xor

from .cwef import Cwef, cwef_w2_punctured, path_weights
from .gf2 import is_primitive
from .puncture import (Classification, as_row, classify, pseudo_random_pattern,
                       row_from_string, row_to_string)
from .rsc import RscCode, step

BRUTE_FORCE_LIMIT = 10**7
DP_W_LIMIT = 6
DP_D_LIMIT = 512
# without a parity cap the z axis spans the whole block
DP_UNCAPPED_N_LIMIT = 2048
# bytes the trellis pass may hold: its two row buffers and the views
# of its transitions, which grow with the 2^nu states
DP_MEMORY_LIMIT = 1 << 28
# one transition's destination and source views plus their tuple
_DP_VIEW_BYTES = 320


@dataclass(frozen=True)
class DpResult:
    by_weight: dict[int, Cwef]
    truncated: bool
    # prefix-path mass over every state at the final step; with no cap
    # this equals sum_{w <= w_max} C(n, w)
    total_paths: int

    def for_weight(self, w: int) -> Cwef:
        if w not in self.by_weight:
            raise ValueError(f"weight {w} was not enumerated")
        return self.by_weight[w]


def exact_cwef_dp(code: RscCode, p_u, p_z, n: int, w_max: int,
                  d_max: int | None = None, include_w0: bool = False) -> DpResult:
    """Enumerate {(u, z): count} for every input weight up to w_max by a
    forward pass over the punctured trellis.

    With d_max set, paths whose transmitted weight u + z exceeds it are
    dropped and the result is flagged truncated; counts for u + z <= d_max
    stay exact because transmitted weight never decreases along a path.
    """
    import numpy as np  # here, so that only the commands that run the DP load it
    p_u, p_z = as_row(p_u), as_row(p_z)
    if n < 1:
        raise ValueError("block length must be positive")
    if not 1 <= w_max <= DP_W_LIMIT:
        raise ValueError(f"w_max must be in [1, {DP_W_LIMIT}]")
    if d_max is None:
        if n > DP_UNCAPPED_N_LIMIT:
            raise ValueError(
                f"uncapped enumeration only supported for n <= {DP_UNCAPPED_N_LIMIT}; "
                "pass d_max")
        d_cap = n + w_max
    else:
        if not 1 <= d_max <= DP_D_LIMIT:
            raise ValueError(f"d_max must be in [1, {DP_D_LIMIT}]")
        d_cap = d_max
    if sum(comb(n, w) for w in range(w_max + 1)) >= 2**62:
        raise ValueError("path counts would overflow 64-bit accumulation")
    n_states = code.n_states
    # one flat row per state over (w, u, d = u + z), so that a transition
    # adds one contiguous slice at one offset; two spare d cells take
    # what a step pushes past the cap and are cleared every step
    size_u, size_d = w_max + 1, d_cap + 3
    span = size_u * size_u * size_d
    # two int64 rows per state, and 16 transitions per state: two inputs
    # times the 8 (p_u bit, p_z bit, buffer order) keys of moves below
    need = n_states * (2 * 8 * span + 16 * _DP_VIEW_BYTES)
    if need > DP_MEMORY_LIMIT:
        raise ValueError(
            f"the trellis pass over {n_states} states would need about "
            f"{need >> 20} MiB, over its {DP_MEMORY_LIMIT >> 20} MiB limit")
    bufs = np.zeros((2, n_states, span), dtype=np.int64)
    bufs[0, 0, 0] = 1
    # per (p_u bit, p_z bit, buffer order): the destination and source
    # views, source state and d increment of every transition; the
    # offset of a 1 input spans a whole w row, so the source slice stops
    # before row w_max and no path gains weight beyond w_max
    moves = {key: [] for key in product((0, 1), repeat=3)}
    for s, b in product(range(n_states), (0, 1)):
        t, _, parity = step(code, s, b)
        for pu_i, pz_i, flip in moves:
            du = b & pu_i
            dd = du + (parity & pz_i)
            off = (b * size_u + du) * size_d + dd
            moves[pu_i, pz_i, flip].append(
                (bufs[1 - flip, t, off:], bufs[flip, s, :span - off], s, dd))
    truncated = False
    mu, mz = len(p_u), len(p_z)
    for i in range(n):
        cur, new = bufs[i & 1], bufs[1 - (i & 1)]
        transitions = moves[p_u[i % mu], p_z[i % mz], i & 1]
        # d = u + z <= w_max + i after i steps: no path nears the cap sooner
        if not truncated and i + w_max >= d_cap - 1:
            top = cur.reshape(n_states, -1, size_d)[:, :, d_cap - 1:d_cap + 1]
            # per state: is there mass that a d increment of 1 or 2 pushes out
            spills = (None, top[:, :, 1].any(axis=1), top.any(axis=(1, 2)))
            truncated = any(dd and spills[dd][s] for *_, s, dd in transitions)
        new.fill(0)
        for dst, src, _, _ in transitions:
            dst += src
        new.reshape(n_states, -1, size_d)[:, :, d_cap + 1:] = 0
    final = bufs[n & 1, 0].reshape(size_u, size_u, size_d)
    by_weight = {w: Cwef(w, n, {(int(u), int(d - u)): int(final[w, u, d])
                                for u, d in zip(*np.nonzero(final[w]))})
                 for w in range(0 if include_w0 else 1, w_max + 1)}
    return DpResult(by_weight, truncated, int(bufs[n & 1].sum()))


def brute_force_cwef(code: RscCode, p_u, p_z, n: int, w: int) -> Cwef:
    """Encode every weight-w input of length n and tally the punctured
    weights of those ending in the zero state.  The encoder is linear, so
    each codeword is the XOR of the codewords of its single 1s."""
    p_u, p_z = as_row(p_u), as_row(p_z)
    if w < 0 or n < 1:
        raise ValueError("need w >= 0 and n >= 1")
    if w == 0:
        return Cwef(0, n, {(0, 0): 1})
    if comb(n, w) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"C({n},{w}) exceeds the brute-force limit {BRUTE_FORCE_LIMIT}")
    nu, block = code.nu, (1 << n) - 1
    # a single 1 at time 0: the state after each step, the parity bits
    states, resp, state = [], 0, 0
    for t in range(n):
        state, _, parity = step(code, state, int(t == 0))
        states.append(state)
        resp |= parity << t
    # a 1 at position p as one int: its end state in the low nu bits,
    # the n input bits above them, the n parity bits on top
    impulses = [states[n - 1 - p] | 1 << (nu + p) | (resp << p & block) << (nu + n)
                for p in range(n)]
    pu_mask = sum(p_u[i % len(p_u)] << i for i in range(n)) << nu
    pz_mask = sum(p_z[i % len(p_z)] << i for i in range(n)) << (nu + n)
    state_mask = (1 << nu) - 1
    words = (starmap(xor, combinations(impulses, 2)) if w == 2
             else map(partial(reduce, xor), combinations(impulses, w)))
    merged = [word for word in words if not word & state_mask]
    if w == 2:
        # remerge happens exactly at separations that are multiples of
        # the feedback period, never anywhere else
        ones = [word >> nu & block for word in merged]
        if (any((x.bit_length() - (x & -x).bit_length()) % code.period for x in ones)
                or len(ones) != sum(range(n - code.period, 0, -code.period))):
            raise AssertionError("weight-2 remerge structure violated")
    terms = Counter(((word & pu_mask).bit_count(), (word & pz_mask).bit_count())
                    for word in merged)
    return Cwef(w, n, dict(terms))


def diff_cwefs(a: Cwef, b: Cwef, limit: int = 6) -> str | None:
    """None when equal, else a short per-key account of the mismatch."""
    if a.terms == b.terms:
        return None
    parts = []
    for key in sorted(set(a.terms) | set(b.terms)):
        ca, cb = a.terms.get(key, 0), b.terms.get(key, 0)
        if ca != cb:
            parts.append(f"(u={key[0]},z={key[1]}): {ca} vs {cb}")
    shown = "; ".join(parts[:limit])
    if len(parts) > limit:
        shown += f"; ... {len(parts) - limit} more"
    return shown


@dataclass(frozen=True)
class GridCase:
    feedback: str
    feedforward: str
    p_u: str
    p_z: str
    n: int

    def label(self) -> str:
        return (f"{self.feedback}/{self.feedforward} "
                f"pu={self.p_u} pz={self.p_z} n={self.n}")


@dataclass(frozen=True)
class CaseResult:
    case: GridCase
    ok: bool
    brute_checked: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CaseResult, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def passed(self) -> int:
        return sum(r.ok for r in self.results)

    def summary(self) -> str:
        lines = []
        for r in self.results:
            coverage = "" if r.brute_checked else " [dp-only]"
            if r.ok:
                lines.append(f"PASS {r.case.label()}{coverage}")
            else:
                lines.append(f"FAIL {r.case.label()}{coverage} :: {r.detail}")
        lines.append(f"# result = {'PASS' if self.all_ok else 'FAIL'} "
                     f"({self.passed}/{len(self.results)})")
        return "\n".join(lines) + "\n"


GRID_CODES = (("5", "7"), ("7", "5"), ("15", "17"), ("17", "15"), ("23", "35"))
_GRID_PATTERN_TARGET = 29


def _grid_patterns(code: RscCode) -> list[tuple[str, str]]:
    pats: list[tuple[str, str]] = [("1", "1")]
    if code.nu >= 2 and is_primitive(code.feedback):
        for variant in ("A", "B"):
            pset = pseudo_random_pattern(code, variant)
            pats.append((row_to_string(pset.sys), row_to_string(pset.par1)))
            pats.append(("0" * len(pset.par2), row_to_string(pset.par2)))
    else:
        # reuse the published length-7 rows as plain fixed patterns
        pats += [("1000101", "0111010"), ("1111101", "0111010"),
                 ("0" * 7, "0111010")]
    pats += [("0010", "1101"), ("0000", "1111"), ("11", "10"), ("00", "01")]
    seen = set(pats)
    rng = random.Random(0x5EED ^ (code.feedback.bits << 8) ^ code.feedforward.bits)
    while len(pats) < _GRID_PATTERN_TARGET:
        period = rng.randint(1, 8)
        pu = tuple(rng.randint(0, 1) for _ in range(period))
        pz = tuple(rng.randint(0, 1) for _ in range(period))
        pair = (row_to_string(pu), row_to_string(pz))
        if pair in seen:
            continue
        if classify(code, pu, pz) is Classification.CATASTROPHIC:
            continue
        seen.add(pair)
        pats.append(pair)
    return pats


def default_verification_grid() -> tuple[GridCase, ...]:
    """Five codes x >= 25 patterns x five block lengths up to n = 200."""
    cases = []
    for gr, gf in GRID_CODES:
        code = RscCode.from_octals(gr, gf)
        sizes = sorted({code.period + 1, 2 * code.period, 50, 113, 200})
        for pu, pz in _grid_patterns(code):
            for n in sizes:
                cases.append(GridCase(gr, gf, pu, pz, n))
    return tuple(cases)


def _attribute_mismatch(code, p_u, p_z, n, bad_keys, limit=4):
    found = []
    for k in range(1, (n - 1) // code.period + 1):
        for m in range(1, len(p_z) * len(p_u) + 1):
            if path_weights(code, p_u, p_z, k, m) in bad_keys:
                found.append(f"(k={k},m={m})")
                if len(found) >= limit:
                    return " from " + ",".join(found)
    return " from " + ",".join(found) if found else ""


def run_case(case: GridCase, brute_limit: int = BRUTE_FORCE_LIMIT) -> CaseResult:
    code = RscCode.from_octals(case.feedback, case.feedforward)
    p_u = row_from_string(case.p_u)
    p_z = row_from_string(case.p_z)
    closed = cwef_w2_punctured(code, p_u, p_z, case.n)
    trellis = exact_cwef_dp(code, p_u, p_z, case.n, w_max=2).for_weight(2)
    problems = []
    mismatch = diff_cwefs(closed, trellis)
    if mismatch:
        bad = {k for k in set(closed.terms) | set(trellis.terms)
               if closed.terms.get(k, 0) != trellis.terms.get(k, 0)}
        mismatch += _attribute_mismatch(code, p_u, p_z, case.n, bad)
        problems.append(f"closed vs trellis: {mismatch}")
    brute_checked = comb(case.n, 2) <= brute_limit
    if brute_checked:
        brute = brute_force_cwef(code, p_u, p_z, case.n, 2)
        mismatch = diff_cwefs(closed, brute)
        if mismatch:
            problems.append(f"closed vs brute force: {mismatch}")
    return CaseResult(case, not problems, brute_checked, "; ".join(problems))


def run_verification(cases=None, jobs: int = 1,
                     brute_limit: int = BRUTE_FORCE_LIMIT) -> VerificationReport:
    if cases is None:
        cases = default_verification_grid()
    # a pool starts all its workers at once; past the CPUs they only wait
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(partial(run_case, brute_limit=brute_limit),
                                     cases, chunksize=16))
    else:
        results = tuple(run_case(c, brute_limit) for c in cases)
    return VerificationReport(results)
