"""Closed-form conditional weight enumerators for input weight 2.

A weight-2 input diverges from the zero state, walks the feedback
cycle k times, and remerges kL+1 steps later, so every such codeword
is described by its span multiplier k and its starting pattern column
m.  The functions here turn that structure into sparse {(u, z): count}
enumerators without touching a trellis.
"""

from __future__ import annotations

import math
import sys
import warnings
from array import array
from dataclasses import dataclass
from itertools import compress
from math import lcm

from .puncture import (Row, as_row, extend_row, folded_core_response, probe_length,
                       punctured_core_weights)
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


def cwef_w2_punctured(code: RscCode, p_u, p_z, n: int,
                      horizon: float = math.inf) -> Cwef:
    """Weight-2 enumerator of the punctured code: accumulate the group
    multiplicity of every (k, m) pair onto its exact (u, z) weights.

    A path's parity weight is at least the core sum of its start column,
    which grows with k.  So the k loop stops once every column's core
    sum has reached horizon: the enumerator is exact at every parity
    weight below horizon, and may lack terms at or above it."""
    p_u, p_z = as_row(p_u), as_row(p_z)
    l_period = code.period
    if n <= l_period:
        warnings.warn(f"no weight-2 path fits in n={n} <= L={l_period}; "
                      "enumerator is empty", stacklevel=2)
        return Cwef(2, n, {})
    m_period = lcm(len(p_u), len(p_z))
    pu = extend_row(p_u, m_period)
    pz = extend_row(p_z, m_period)
    z_cores = punctured_core_weights(code, pz)
    diverge, y_last = code.impulse_parity[0], code.impulse_parity[-1]

    terms: dict[tuple[int, int], int] = {}
    core_acc = [0] * m_period   # sum of shifted core weights over j = 0..k-1
    wrap_acc = [0] * m_period   # sum of p_z at interior period joins, j = 1..k-1
    for k in range(1, (n - 1) // l_period + 1):
        base = (k - 1) * l_period
        for m0 in range(m_period):
            core_acc[m0] += z_cores[(m0 + 1 + base) % m_period]
            if k >= 2:
                wrap_acc[m0] += pz[(m0 + base) % m_period]
        if horizon <= min(core_acc):
            break
        count_q, count_r = divmod(n - k * l_period, m_period)
        span = k * l_period
        for m0 in range(m_period):
            count = count_q + 1 if m0 < count_r else count_q
            if count == 0:
                continue
            end = (m0 + span) % m_period
            u = pu[m0] + pu[end]
            z = diverge * pz[m0] + core_acc[m0] + y_last * wrap_acc[m0] + pz[end]
            terms[(u, z)] = terms.get((u, z), 0) + count
    return Cwef(2, n, terms)


def weight2_total(code: RscCode, n: int) -> int:
    """The number of weight-2 inputs of an n-step block that leave code
    in the zero state, the sum of n - kL over k >= 1: the total() of
    every weight-2 enumerator at n, whatever the pattern."""
    k = (n - 1) // code.period
    return k * n - code.period * k * (k + 1) // 2


def weight2_span_minimum(code: RscCode, p_u, p_z, k: int) -> int:
    """The least u + z of path_weights(code, p_u, p_z, k, m) over the
    start columns m = 1..M.  A span's column sums repeat every
    lcm(L, M) / L periods, so each column costs one such cycle, not k."""
    p_u, p_z = as_row(p_u), as_row(p_z)
    l_period, m_period = code.period, lcm(len(p_u), len(p_z))
    pu, pz = extend_row(p_u, m_period), extend_row(p_z, m_period)
    z_cores = punctured_core_weights(code, pz)
    cycle = lcm(l_period, m_period) // l_period
    whole, part = divmod(k, cycle)
    diverge, y_last = code.impulse_parity[0], code.impulse_parity[-1]
    best = math.inf
    for m0 in range(m_period):
        # period j of the path starts in column m0 + jL: its core weight
        # and the parity bit at its join, over j < min(k, cycle)
        cols = [(m0 + j * l_period) % m_period for j in range(min(k, cycle))]
        cores = [z_cores[(c + 1) % m_period] for c in cols]
        joins = [pz[c] for c in cols]
        core = whole * sum(cores) + sum(cores[:part])
        # the joins of periods 1..k-1, between the diverge and the remerge
        wrap = whole * sum(joins) + sum(joins[:part]) - pz[m0]
        end = (m0 + k * l_period) % m_period
        z = diverge * pz[m0] + core + y_last * wrap + pz[end]
        best = min(best, pu[m0] + pu[end] + z)
    return best


def _minima_block(code: RscCode, m_period: int, n: int | None) -> int:
    """The block whose weight-2 paths hold the minima of an n-step block,
    or of any block when n is None: probe_length, or a shorter n."""
    probe = probe_length(code, m_period)
    return min(probe, n or probe)


def weight2_minima(code: RscCode, p_u, p_z, n: int | None = None) -> tuple[int, int]:
    """min_weights over the weight-2 paths of an n-step block, or of any
    block when n is None, from the enumerator at probe_length or at a
    shorter n: the one source of the minima that commands reading one
    row pair at a time use, and the reference for Weight2Table."""
    p_u, p_z = as_row(p_u), as_row(p_z)
    block = _minima_block(code, lcm(len(p_u), len(p_z)), n)
    return min_weights(cwef_w2_punctured(code, p_u, p_z, block))


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
    period-M rows at n, built from the folded core response in
    O(L + K M^2) for the K span multipliers that fit, without walking
    any path's parity profile."""
    l_period = code.period
    block = _minima_block(code, m_period, n)
    if block <= l_period:
        raise ValueError(f"no weight-2 path fits in n={block} <= L={l_period}")
    folded = folded_core_response(code, m_period)
    diverge, y_last = code.impulse_parity[0], code.impulse_parity[-1]
    # opened[m0][c]: the parity ones in column c of the first kL steps of
    # the path from column m0, all of the span-kL + 1 path but its remerge
    opened = [[diverge * (c == m0) for c in range(m_period)] for m0 in range(m_period)]
    u_paths, z_paths = [], []
    for k in range(1, (block - 1) // l_period + 1):
        base = (k - 1) * l_period
        for m0, ones in enumerate(opened):
            # period k - 1 of the path: its join bit, then its core bits
            if k >= 2:
                ones[(m0 + base) % m_period] += y_last
            shift = m0 + base + 1
            for c in range(m_period):
                ones[c] += folded[(c - shift) % m_period]
        # the path from column m0 fits when some start t = m0 mod M has
        # t + kL < block
        for m0 in range(min(m_period, block - k * l_period)):
            end = (m0 + k * l_period) % m_period
            z_paths.append([b + (c == end) for c, b in enumerate(opened[m0])])
            u_paths.append([(c == m0) + (c == end) for c in range(m_period)])
    slot = next(s for s in "BHIQ" if block + 2 < 1 << 8 * array(s).itemsize)

    def columns(paths):
        return tuple(int.from_bytes(array(slot, col).tobytes(), sys.byteorder)
                     for col in zip(*paths))

    return Weight2Table(m_period, slot, len(z_paths) * array(slot).itemsize,
                        columns(u_paths), columns(z_paths))
