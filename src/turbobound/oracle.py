"""Exact enumerators computed two independent ways: a forward trellis
dynamic program over (state, input weight, systematic weight, parity
weight), or folded over transmitted weight alone, and exhaustive
enumeration of every weight-w input, each codeword built as the XOR
of shifted impulse responses.  Both follow
the terminated-path convention of the closed forms: a path counts only
if it ends the block in the zero state, with no tail appended.  A
min-weight pass over the same trellis bounds how long an error event
of bounded weight can be.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, combinations, product
from math import comb, gcd, lcm
from operator import xor

from .cwef import Cwef, cwef_w2_punctured, path_weights, weight2_span_minimum
from .gf2 import is_primitive
from .puncture import (Classification, as_row, classify, extend_row,
                       pseudo_random_pattern, row_from_string, row_to_string)
from .rsc import RscCode, step

BRUTE_FORCE_LIMIT = 10**7
_BRUTE_BLOCK = 1 << 13  # bounds the tails in one block of brute_force_cwef
DP_W_LIMIT = 6
DP_D_LIMIT = 512
# without a parity cap the z axis spans the whole block
DP_UNCAPPED_N_LIMIT = 2048
# bytes the trellis pass (row buffers, transition views) or the event-span
# certificate (its arrays) may hold; both grow with the 2^nu states
DP_MEMORY_LIMIT = 1 << 28
# one transition's destination and source views plus their tuple
_DP_VIEW_BYTES = 320
# event_span_bound's bytes per node: two int64 each in pred, add and
# cand, one in dist
_SPAN_NODE_BYTES = 56
# step costs in ns, fit on a 2-CPU Xeon with Python 3.11 and numpy 2.4
# (4-64 states, d_max 60-512, 12-7,936 certificate nodes): a trellis
# step pays per transition and per cell a transition adds, a
# certificate step once and per node it gathers
_DP_TRANSITION_NS, _DP_CELL_NS = 500, 0.39
_SPAN_STEP_NS, _SPAN_NODE_NS = 5500, 4.7
# cwef.Weight3Events's bytes per (orbit phase, column) pair at its peak:
# int64 prefix sums and parity bits over two turns of each cycle, their
# index temporaries, and where each pair sits and what its cycle weighs;
# the tally's tables, two of 8 (d_max + 1) cells at a time, and a chunk
# of families come after the temporaries
_W3_PAIR_BYTES = 64


@dataclass(frozen=True)
class DpResult:
    # {w: Cwef}, or {w: {d: count}} from a folded pass
    by_weight: dict
    truncated: bool
    # prefix-path mass over every state at the final step; with no cap
    # this equals sum_{w <= w_max} C(n, w)
    total_paths: int
    # {step i: the zero-state cells (w, u, d = u + z), u of size 1 when
    # folded, after i steps, of the pass's int32 or int64 dtype} for each
    # step the pass kept; counts_from_cells reads them
    kept: dict = field(default_factory=dict)

    def for_weight(self, w: int):
        if w not in self.by_weight:
            raise ValueError(f"weight {w} was not enumerated")
        return self.by_weight[w]


def check_dp_limits(code: RscCode, n: int, w_max: int, d_max: int | None) -> int:
    """Refuse, with ValueError, a trellis pass of n steps that could not
    be made or counted; otherwise return its d cap."""
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
    need = _dp_bytes(code, w_max, d_cap, w_max + 1)
    if need > DP_MEMORY_LIMIT:
        raise ValueError(
            f"the trellis pass over {code.n_states} states would need about "
            f"{need >> 20} MiB, over its {DP_MEMORY_LIMIT >> 20} MiB limit")
    return d_cap


def _dp_bytes(code: RscCode, w_max: int, d_cap: int, size_u: int) -> int:
    # two int64 rows per state, and 16 transitions per state: two inputs
    # times the 8 (p_u bit, p_z bit, buffer order) keys of the pass
    return code.n_states * (2 * 8 * (w_max + 1) * size_u * (d_cap + 3)
                            + 16 * _DP_VIEW_BYTES)


def span_step_cost(code: RscCode, w_max: int, d_cap: int, m_period: int) -> float:
    """What a step of event_span_bound costs, in steps of the folded
    trellis pass with d cap d_cap."""
    # a step of the folded pass takes two transitions out of every state
    dp_step = 2 * code.n_states * (_DP_TRANSITION_NS + _DP_CELL_NS * (w_max + 1) * (d_cap + 3))
    return (_SPAN_STEP_NS + _SPAN_NODE_NS * w_max * code.n_states * m_period) / dp_step


def event_tables_fit(code: RscCode, w_max: int, d_cap: int, m_period: int) -> bool:
    """Whether the walk tables of cwef.Weight3Events hold no more memory
    than the folded trellis pass with d cap d_cap."""
    return _W3_PAIR_BYTES * code.period * m_period <= _dp_bytes(code, w_max, d_cap, 1)


def exact_cwef_dp(code: RscCode, p_u, p_z, n: int, w_max: int,
                  d_max: int | None = None, *, keep=(), folded: bool = False) -> DpResult:
    """Enumerate {(u, z): count} for every input weight up to w_max by a
    forward pass over the punctured trellis; folded, enumerate only
    {d: count} by transmitted weight d = u + z, the u + z marginal.

    With d_max set, paths whose transmitted weight u + z exceeds it are
    dropped; counts for u + z <= d_max stay exact because transmitted
    weight never decreases along a path.  `truncated` is True exactly
    when some input of weight <= w_max has a prefix whose punctured
    u + z exceeds d_max, whether or not that path would remerge; an
    uncapped pass is never truncated.  The zero-state row after i steps
    is the enumerator of block length i, so for each step i in keep
    the same pass also returns those cells, in `kept`.  They are int32
    when the sum_{w <= w_max} C(n, w) paths, which bound every cell, are
    fewer than 2^31.  The refusals of check_dp_limits are those of the
    unfolded pass either way.
    """
    import numpy as np  # here, so that only the commands that run the DP load it
    p_u, p_z = as_row(p_u), as_row(p_z)
    d_cap = check_dp_limits(code, n, w_max, d_max)
    n_states = code.n_states
    # one flat row per state over (w, u, d = u + z), so that a transition
    # adds one contiguous slice at one offset; folded, the u axis has
    # one cell and a systematic bit moves d alone.  Two spare d cells
    # take what a step pushes past the cap and are cleared every step
    size_w, size_d = w_max + 1, d_cap + 3
    size_u = 1 if folded else size_w
    span = size_w * size_u * size_d
    dtype = np.int32 if sum(comb(n, w) for w in range(size_w)) < 2**31 else np.int64
    bufs = np.zeros((2, n_states, span), dtype=dtype)
    bufs[0, 0, 0] = 1
    # per (p_u bit, p_z bit, buffer order): the destination and source
    # views of every transition; the offset of a 1 input spans a whole
    # w row, so the source slice stops before row w_max and no path
    # gains weight beyond w_max
    moves = {key: [] for key in product((0, 1), repeat=3)}
    for s, b in product(range(n_states), (0, 1)):
        t, _, parity = step(code, s, b)
        for pu_i, pz_i, flip in moves:
            du = b & pu_i
            off = (b * size_u + (0 if folded else du)) * size_d + du + (parity & pz_i)
            moves[pu_i, pz_i, flip].append(
                (bufs[1 - flip, t, off:], bufs[flip, s, :span - off]))
    truncated = False
    mu, mz = len(p_u), len(p_z)
    keep, kept = set(keep), {}
    for i in range(n):
        new = bufs[1 - (i & 1)]
        new.fill(0)
        for dst, src in moves[p_u[i % mu], p_z[i % mz], i & 1]:
            dst += src
        # every path had d <= d_cap and a step adds at most 2, so the
        # spare cells hold exactly the mass pushed past the cap; d <=
        # w_max + i before step i, so none can get there sooner
        spare = new.reshape(n_states, -1, size_d)[:, :, d_cap + 1:]
        if not truncated and i + w_max >= d_cap - 1:
            truncated = bool(spare.any())
        spare[...] = 0
        if i + 1 in keep:
            kept[i + 1] = new[0].reshape(size_w, size_u, size_d).copy()
    final = bufs[n & 1, 0].reshape(size_w, size_u, size_d)
    return DpResult(counts_from_cells(final, n), truncated,
                    int(bufs[n & 1].sum(dtype=np.int64)), kept)


def counts_from_cells(cells, n: int) -> dict:
    """The enumerators of block length n held in zero-state cells laid
    out (w, u, d = u + z) as exact_cwef_dp keeps them, by input weight
    w >= 1: a Cwef each, or {d: count} when the u axis is folded to one
    cell.  The counts may be int32, int64 or Python ints."""
    by_weight = {}
    for w in range(1, cells.shape[0]):
        us, ds = cells[w].nonzero()
        counts = cells[w][us, ds].tolist()
        if cells.shape[1] == 1:
            by_weight[w] = dict(zip(ds.tolist(), counts))
        else:
            keys = zip(us.tolist(), (ds - us).tolist())
            by_weight[w] = Cwef(w, n, dict(zip(keys, counts)))
    return by_weight


def _zero_weight_cycle(code: RscCode, p_z) -> bool:
    """Whether some zero-input cycle through the (state != 0, column)
    pairs transmits no parity bit.

    Zero input walks each nonzero state round its orbit, of some length
    t, while the column walks round the row, of length M.  The cycle
    from orbit position a0 and column c0 visits exactly the pairs with
    a - c = a0 - c0 mod gcd(t, M), so it transmits nothing when no
    position with a parity bit and kept column differ by that residue.
    """
    zero_input = [step(code, s, 0) for s in range(code.n_states)]
    kept = [c for c, bit in enumerate(p_z) if bit]
    seen = {0}
    for s0 in range(1, code.n_states):
        if s0 in seen:
            continue
        ones, s, t = [], s0, 0
        while t == 0 or s != s0:
            seen.add(s)
            s, _, parity = zero_input[s]
            if parity:
                ones.append(t)
            t += 1
        g = gcd(t, len(p_z))
        if len({(a - c) % g for a in ones for c in kept}) < g:
            return True
    return False


def event_span_bound(code: RscCode, p_u, p_z, w_max: int, d_max: int,
                     limit: int) -> int | None:
    """An upper bound S on the span, diverging step to remerging step,
    of every error event of input weight <= w_max whose punctured u + z
    is at most d_max, from any start column, or None when S would
    exceed limit or need not exist.

    S is the first t at which every t-step path that has stayed off the
    zero state has transmitted more than d_max: an event of span l has
    such a prefix of l - 1 steps, which weighs no more than the event.
    So S is also a length past which a single 1 has pushed a pass over
    d_max.  One min-weight pass over (input weight, state, column) finds
    it.  It gives up before allocating anything when limit < 1, when its
    nodes would pass DP_MEMORY_LIMIT, when some zero-input cycle off the
    zero state transmits nothing, or when a weight-2 event of span
    kL + 1, kL >= limit, has u + z <= d_max, which makes S > kL.
    """
    p_u, p_z = as_row(p_u), as_row(p_z)
    m_period = lcm(len(p_u), len(p_z))
    size = w_max * code.n_states * m_period
    if (limit < 1 or size * _SPAN_NODE_BYTES > DP_MEMORY_LIMIT or _zero_weight_cycle(code, p_z)
            or weight2_span_minimum(code, p_u, p_z, -(-limit // code.period)) <= d_max):
        return None
    import numpy as np
    pu = np.array(extend_row(p_u, m_period), dtype=np.int64)
    pz = np.array(extend_row(p_z, m_period), dtype=np.int64)
    n_states = code.n_states
    # node (w, s, c), flat at ((w - 1) n_states + s) M + c: input weight
    # w, state s != 0, next step in column c; a last cell holds d_max + 1
    # and stands in for every predecessor a node lacks
    over = d_max + 1
    pred = np.full((2, size), size, dtype=np.int64)
    add = np.zeros((2, size), dtype=np.int64)
    cols = np.arange(m_period)
    moves = np.array([[step(code, s, b) for b in (0, 1)] for s in range(n_states)])
    for b in (0, 1):
        # every source state that stays off zero, weight w < w_max + 1 - b
        # and column at once, indexed (w, s, c)
        src = np.flatnonzero(moves[:, b, 0])
        src = src[src > 0]
        t, parity = moves[src, b, 0][:, None], moves[src, b, 2][:, None]
        rows = np.arange(w_max - b)[:, None, None] * n_states
        at = (rows + b * n_states + t) * m_period + (cols + 1) % m_period
        pred[b, at] = (rows + src[:, None]) * m_period + cols
        add[b, at] = b * pu + parity * pz
    # least u + z over the paths that diverged t steps ago and have not
    # remerged, from every start column
    dist = np.full(size + 1, over, dtype=np.int64)
    first, _, parity = step(code, 0, 1)
    dist[first * m_period + (cols + 1) % m_period] = pu + parity * pz
    cand = np.empty((2, size), dtype=np.int64)
    t = 1
    while dist.min() <= d_max:
        if t >= limit:
            return None
        dist.take(pred, out=cand)
        cand += add
        np.minimum(cand[0], cand[1], out=dist[:size])
        t += 1
    return t


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
    import numpy as np
    # the state and the parity bit after each step of a single 1 at time 0
    table = [[step(code, s, b) for b in (0, 1)] for s in range(code.n_states)]
    walk = accumulate(range(n - 1), lambda last, _: table[last[0]][0], initial=table[0][1])
    states, _, resp = zip(*walk)
    # a 1 at position p: its end state, its punctured systematic bit and
    # its punctured parity bits p..n-1, packed
    pos = np.arange(n)
    end, sys_bits = np.array(states[::-1]), np.take(p_u, pos, mode="wrap")
    shifted = np.lib.stride_tricks.sliding_window_view(
        np.array((0,) * (n - 1) + resp, dtype=np.uint8), n)[::-1]
    rows = np.packbits(shifted & np.take(p_z, pos, mode="wrap").astype(np.uint8), axis=1)
    byte_ones = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)
    # the tails, the last min(w, 2) 1s of an input, in lexicographic order
    # and in blocks of whole rows, about _BRUTE_BLOCK tails each
    tally = np.zeros((w + 1) * (n + 1), dtype=np.int64)
    for at in np.array_split(pos, -(-n * n // _BRUTE_BLOCK)):
        first, second = np.nonzero(at[:, None] < pos)
        tails = (at.take(first), second) if w > 1 else (at,)
        tail_state = reduce(xor, (end.take(c) for c in tails))
        # a lead's tails start past its last 1, so it ends before the last row
        for lead in combinations(range(at.max(initial=0)), w - len(tails)):
            skip = tails[0].searchsorted(max(lead, default=-1), "right")
            hit = skip + np.flatnonzero(tail_state[skip:] == reduce(xor, end.take(lead), 0))
            ones = [c.take(hit) for c in tails] + [[p] for p in lead]
            if w == 2 and ((ones[1] - ones[0]) % code.period).any():
                # remerge happens exactly at separations that are
                # multiples of the feedback period, never anywhere else
                raise AssertionError("weight-2 remerge structure violated")
            parity = reduce(xor, (rows.take(c, axis=0) for c in ones))
            z = byte_ones.take(parity).sum(axis=1, dtype=np.int64)
            u = sum(sys_bits.take(c) for c in ones)
            tally += np.bincount(u * (n + 1) + z, minlength=tally.size)
    if w == 2 and tally.sum() != sum(range(n - code.period, 0, -code.period)):
        raise AssertionError("weight-2 remerge structure violated")
    u, z = np.divmod(np.flatnonzero(tally), n + 1)
    return Cwef(w, n, dict(zip(zip(u.tolist(), z.tolist()), tally[tally > 0].tolist())))


def diff_cwefs(a: Cwef, b: Cwef) -> str | None:
    """None when equal, else a short per-key account of the mismatch:
    its first 6 keys and a count of the rest."""
    if a.terms == b.terms:
        return None
    parts = []
    for key in sorted(set(a.terms) | set(b.terms)):
        ca, cb = a.terms.get(key, 0), b.terms.get(key, 0)
        if ca != cb:
            parts.append(f"(u={key[0]},z={key[1]}): {ca} vs {cb}")
    shown = "; ".join(parts[:6])
    if len(parts) > 6:
        shown += f"; ... {len(parts) - 6} more"
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
            if r.ok:
                lines.append(f"PASS {r.case.label()}")
            else:
                lines.append(f"FAIL {r.case.label()} :: {r.detail}")
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


def _attribute_mismatch(code, p_u, p_z, n, bad_keys):
    found = []
    for k in range(1, (n - 1) // code.period + 1):
        for m in range(1, len(p_z) * len(p_u) + 1):
            if path_weights(code, p_u, p_z, k, m) in bad_keys:
                found.append(f"(k={k},m={m})")
                if len(found) >= 4:
                    return " from " + ",".join(found)
    return " from " + ",".join(found) if found else ""


def run_case(case: GridCase) -> CaseResult:
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
    # the uncapped trellis pass refused every n past DP_UNCAPPED_N_LIMIT,
    # so C(n, 2) is within BRUTE_FORCE_LIMIT
    mismatch = diff_cwefs(closed, brute_force_cwef(code, p_u, p_z, case.n, 2))
    if mismatch:
        problems.append(f"closed vs brute force: {mismatch}")
    return CaseResult(case, not problems, "; ".join(problems))


def run_verification(cases=None, jobs: int = 1) -> VerificationReport:
    if cases is None:
        cases = default_verification_grid()
    # a pool starts all its workers at once; past the CPUs they only wait
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(run_case, cases, chunksize=16))
    else:
        results = tuple(map(run_case, cases))
    return VerificationReport(results)
