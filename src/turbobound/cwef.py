"""Closed-form conditional weight enumerators for input weight 2.

A weight-2 input diverges from the zero state, walks the feedback
cycle k times, and remerges kL+1 steps later, so every such codeword
is described by its span multiplier k and its starting pattern column
m.  The functions here turn that structure into sparse {(u, z): count}
enumerators without touching a trellis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from math import lcm

from .puncture import as_row, extend_row, probe_length, punctured_core_weights
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


def weight2_minima(code: RscCode, p_u, p_z, n: int | None = None) -> tuple[int, int]:
    """min_weights over the weight-2 paths of an n-step block, or of any
    block when n is None, from the enumerator at probe_length or at a
    shorter n: the one source of the minima every command reads."""
    p_u, p_z = as_row(p_u), as_row(p_z)
    probe = probe_length(code, lcm(len(p_u), len(p_z)))
    return min_weights(cwef_w2_punctured(code, p_u, p_z, min(probe, n or probe)))
