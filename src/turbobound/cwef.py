"""Closed-form conditional weight enumerators for input weight 2.

A weight-2 input diverges from the zero state, walks the feedback
cycle k times, and remerges kL+1 steps later, so every such codeword
is described by its span multiplier k and its starting pattern column
m.  One walk, _span_cycle, gives every such path's (u, z): from each
start column it adds one period's core weight and join bit per span,
over at most one column cycle of lcm(L, M) / L periods.  A path a
cycle longer ends in the same column, with its parity grown by a fixed
step, so the enumerator, the span minimum and the packed screening
table all read that walk, and no trellis is touched.  path_weights is
the independent reference, one path at a time.
"""

from __future__ import annotations

import math
import sys
import warnings
from array import array
from dataclasses import dataclass
from itertools import compress
from math import lcm

from .puncture import Row, as_row, extend_row, probe_length, punctured_core_weights
from .rsc import RscCode, weight2_parity_response


@dataclass(frozen=True)
class Cwef:
    """Sparse enumerator {(systematic weight, parity weight): count} for
    one input weight w and block length n.  Counts are exact ints;
    absent keys mean zero."""

    w: int
    n: int
    terms: dict[tuple[int, int], int]

    def total(self) -> int:
        return sum(self.terms.values())


def min_weights(c: Cwef) -> tuple[int, int]:
    """(minimum u+z, minimum z) over the stored terms."""
    if not c.terms:
        raise ValueError("empty enumerator has no minimum weights")
    return (min(u + z for u, z in c.terms), min(z for _, z in c.terms))


def _parity_profile(code: RscCode, k: int) -> tuple[int, ...]:
    # parity of every transition on the weight-2 path: diverge, kL-1
    # cycle steps, remerge (always 1 since G_F has constant term 1)
    y = weight2_parity_response(code)
    return (code.impulse_parity[0],) + (y * k)[: k * code.period - 1] + (1,)


def path_weights(code: RscCode, p_u, p_z, k: int, m: int) -> tuple[int, int]:
    """Exact (u, z) of the weight-2 path with span multiplier k whose
    first 1 lands in pattern column m (columns beyond the period wrap)."""
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    p_u, p_z = as_row(p_u), as_row(p_z)
    mu, mz = len(p_u), len(p_z)
    span = k * code.period
    u = p_u[(m - 1) % mu] + p_u[(m - 1 + span) % mu]
    z = sum(b * p_z[(m - 1 + t) % mz]
            for t, b in enumerate(_parity_profile(code, k)))
    return u, z


def _span_cycle(code: RscCode, p_u, p_z, k_max: int, horizon: float = math.inf):
    """The one walk of weight-2 paths.  For each start column m0 = 0..M-1
    in turn, yields (paths, step): paths holds the (u, z) of the paths of
    span multiplier k = 1..min(cycle, k_max) from column m0, in order of
    k, with cycle = lcm(L, M) / L; step is the parity walked past the
    diverge bit, which after a whole cycle is what one more column cycle
    adds to any of its paths.

    Period j of a path adds its core weight, then the parity bit of its
    join into period j + 1.  After a cycle of periods the path ends in
    its start column again, so the path of span k + i cycle weighs
    (u, z + i step).  Each column holds O(min(cycle, k_max)).  The open
    path's z never falls and no path from it weighs less, so a column's
    walk stops once that z reaches horizon: then every walked path's
    z + step is at least horizon too.  A walk cut at k_max < cycle has
    no path that fits a cycle past one walked."""
    p_u, p_z = as_row(p_u), as_row(p_z)
    l_period, m_period = code.period, lcm(len(p_u), len(p_z))
    pu, pz = extend_row(p_u, m_period), extend_row(p_z, m_period)
    z_cores = punctured_core_weights(code, pz)
    cycle = lcm(l_period, m_period) // l_period
    walked = min(cycle, k_max)
    diverge, y_last = code.impulse_parity[0], code.impulse_parity[-1]
    for m0 in range(m_period):
        # z of the open path: its diverge bit, then each period's core
        # bits and join bit; col is the column of the latest join
        z = opened = diverge * pz[m0]
        col, paths = m0, []
        for _ in range(walked):
            z += z_cores[(col + 1) % m_period]
            col = (col + l_period) % m_period
            paths.append((pu[m0] + pu[col], z + pz[col]))  # remerge at col
            z += y_last * pz[col]
            if z >= horizon:
                break
        yield paths, z - opened


def _span_weights(walk, k: int) -> tuple[int, int]:
    """(u, z) of the path of span multiplier k <= k_max from one column's
    _span_cycle item."""
    paths, step = walk
    whole, part = divmod(k - 1, len(paths))
    u, z = paths[part]
    return u, z + whole * step


def cwef_w2_punctured(code: RscCode, p_u, p_z, n: int,
                      horizon: float = math.inf) -> Cwef:
    """Weight-2 enumerator of the punctured code: the group multiplicity
    of every (k, m) pair accumulated onto its exact (u, z) weights.

    Each path of the span walk stands for an arithmetic progression of
    paths one column cycle apart: z rises by step per cycle and the
    starts that fit fall by lcm(L, M) / M.  A progression stops when no
    start fits or at its first z of horizon or more, so the enumerator
    is exact at every parity weight below horizon and lacks every term
    at or above it."""
    p_u, p_z = as_row(p_u), as_row(p_z)
    l_period = code.period
    if n <= l_period:
        warnings.warn(f"no weight-2 path fits in n={n} <= L={l_period}; "
                      "enumerator is empty", stacklevel=2)
        return Cwef(2, n, {})
    m_period = lcm(len(p_u), len(p_z))
    lost = lcm(l_period, m_period) // m_period
    terms: dict[tuple[int, int], int] = {}
    walks = _span_cycle(code, p_u, p_z, (n - 1) // l_period, horizon)
    for m0, (paths, step) in enumerate(walks):
        for k, (u, z) in enumerate(paths, 1):
            # the starts t = m0 mod M with t + kL < n
            count = -(-(n - k * l_period - m0) // m_period)
            while count > 0 and z < horizon:
                terms[u, z] = terms.get((u, z), 0) + count
                count -= lost
                z += step
    return Cwef(2, n, terms)


def weight2_total(code: RscCode, n: int) -> int:
    """The number of weight-2 inputs of an n-step block that leave code
    in the zero state, the sum of n - kL over k >= 1: the total() of
    every weight-2 enumerator at n, whatever the pattern."""
    k = (n - 1) // code.period
    return k * n - code.period * k * (k + 1) // 2


def weight2_span_minimum(code: RscCode, p_u, p_z, k: int) -> int:
    """The least u + z of path_weights(code, p_u, p_z, k, m) over the
    start columns m = 1..M, off a span walk of at most one column cycle."""
    return min(sum(_span_weights(walk, k)) for walk in _span_cycle(code, p_u, p_z, k))


def _minima_block(code: RscCode, m_period: int, n: int | None) -> int:
    """The block whose weight-2 paths hold the minima of an n-step block,
    or of any block when n is None: probe_length, or a shorter n."""
    probe = probe_length(code, m_period)
    return min(probe, n or probe)


def weight2_minima(code: RscCode, p_u, p_z, n: int | None = None) -> tuple[int, int]:
    """min_weights over the weight-2 paths of an n-step block, or of any
    block when n is None, as running minima of the span walk at probe_length
    or a shorter n: the source for one row pair, Weight2Table's reference."""
    p_u, p_z = as_row(p_u), as_row(p_z)
    block = _minima_block(code, lcm(len(p_u), len(p_z)), n)
    walks = _span_cycle(code, p_u, p_z, (block - 1) // code.period)
    # the path of span kL + 1 from column m0 fits when m0 + kL < block,
    # and a walked path is the lightest of its progression, as step >= 0
    least = [(min(u + z for u, z in fits), min(z for _, z in fits))
             for m0, (paths, _) in zip(range(block), walks)
             if (fits := paths[:(block - m0 - 1) // code.period])]
    if not least:  # no path fits: the enumerator warns and min_weights refuses
        return min_weights(cwef_w2_punctured(code, p_u, p_z, block))
    return tuple(map(min, zip(*least)))


@dataclass(frozen=True)
class Weight2Table:
    """The weight-2 paths of one block under period-M rows, packed by
    pattern column.  Slot p of z_cols[c], an item of array type `slot`,
    counts the parity ones that path p sends in column c, and slot p of
    u_cols[c] its systematic ones; all the slots take nbytes.  A row
    keeps a set of columns, so the sum of the column ints it keeps holds
    its weight on every path at once.  No slot carries into the next: a
    path of span kL + 1 weighs at most kL + 3, and the slot type is
    chosen to hold the longest."""

    period: int
    slot: str
    nbytes: int
    u_cols: tuple[int, ...]
    z_cols: tuple[int, ...]

    def _least(self, packed: int) -> int:
        return min(memoryview(packed.to_bytes(self.nbytes, sys.byteorder)).cast(self.slot))

    def minima(self, pairs) -> dict[tuple[Row, Row], tuple[int, int]]:
        """weight2_minima of each (p_u, p_z) pair of rows whose lengths
        divide M, keyed by the pair: each distinct row is packed once,
        and each pair then costs one addition and one slot scan."""
        u_packed: dict[Row, int] = {}
        z_packed: dict[Row, tuple[int, int]] = {}
        out = {}
        for p_u, p_z in pairs:
            u = u_packed.get(p_u)
            if u is None:
                u = u_packed[p_u] = sum(compress(self.u_cols, extend_row(p_u, self.period)))
            z_entry = z_packed.get(p_z)
            if z_entry is None:
                z = sum(compress(self.z_cols, extend_row(p_z, self.period)))
                z_entry = z_packed[p_z] = z, self._least(z)
            out[p_u, p_z] = self._least(u + z_entry[0]), z_entry[1]
        return out


def weight2_table(code: RscCode, m_period: int, n: int | None = None) -> Weight2Table:
    """The Weight2Table of the block that weight2_minima reads for
    period-M rows at n.  A path's u and z count the ones it sends in the
    columns a row keeps, so slot p of column c is path p's weight under
    the unit row that keeps column c alone: one span walk per column."""
    l_period = code.period
    block = _minima_block(code, m_period, n)
    if block <= l_period:
        raise ValueError(f"no weight-2 path fits in n={block} <= L={l_period}")
    k_max = (block - 1) // l_period
    # the path from column m0 fits when some start t = m0 mod M has
    # t + kL < block
    paths = [(k, m0) for k in range(1, k_max + 1)
             for m0 in range(min(m_period, block - k * l_period))]
    slot = next(s for s in "BHIQ" if block + 2 < 1 << 8 * array(s).itemsize)

    def packed(slots):
        return int.from_bytes(array(slot, slots).tobytes(), sys.byteorder)

    u_cols, z_cols = [], []
    for c in range(m_period):
        unit = tuple(int(i == c) for i in range(m_period))
        walks = list(_span_cycle(code, unit, unit, k_max))
        u_slots, z_slots = zip(*(_span_weights(walks[m0], k) for k, m0 in paths))
        u_cols.append(packed(u_slots))
        z_cols.append(packed(z_slots))
    return Weight2Table(m_period, slot, len(paths) * array(slot).itemsize,
                        tuple(u_cols), tuple(z_cols))
