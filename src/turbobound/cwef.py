"""Closed-form conditional weight enumerators for input weight 2.

A weight-2 input diverges from the zero state, walks the feedback
cycle k times, and remerges kL+1 steps later, so every such codeword
is described by its span multiplier k and its starting pattern column
m.  The functions here turn that structure into sparse {(u, z): count}
enumerators without touching a trellis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import lcm

from .puncture import as_row, extend_row, punctured_core_weights
from .rsc import RscCode, core_weight, weight2_parity_response


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

    def to_text(self) -> str:
        lines = [f"{self.w} {self.n}"]
        lines += [f"{u} {z} {c}" for (u, z), c in sorted(self.terms.items())]
        return "\n".join(lines) + "\n"


def min_weights(c: Cwef) -> tuple[int, int]:
    """(minimum u+z, minimum z) over the stored terms.  At probe_length
    these are the constituent's minima over every weight-2 path, the one
    source that classify, patterns and search read."""
    if not c.terms:
        raise ValueError("empty enumerator has no minimum weights")
    return (min(u + z for u, z in c.terms), min(z for _, z in c.terms))


def group_multiplicity(n: int, k: int, l_period: int, m_period: int, m: int) -> int:
    """Number of weight-2 paths of span k*l_period + 1 that start in
    pattern column m within a block of n steps."""
    if k < 1 or not 1 <= m <= m_period:
        raise ValueError("need k >= 1 and 1 <= m <= m_period")
    if n <= k * l_period:
        return 0
    q, r = divmod(n - k * l_period, m_period)
    return q + 1 if m <= r else q


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


def cwef_w2_unpunctured(code: RscCode, n: int) -> Cwef:
    """Weight-2 enumerator of the parent rate-1/2 code: one term per
    span, z(k) = k*z_core + 2 when G_F has full degree, with multiplicity
    n - kL."""
    l_period = code.period
    if n <= l_period:
        warnings.warn(f"no weight-2 path fits in n={n} <= L={l_period}; "
                      "enumerator is empty", stacklevel=2)
        return Cwef(2, n, {})
    z_core = core_weight(code)
    y_last = weight2_parity_response(code)[-1]
    terms: dict[tuple[int, int], int] = {}
    for k in range(1, (n - 1) // l_period + 1):
        # y_last correction covers feedforward polynomials of degree < nu
        z = k * z_core + 2 + (k - 2) * y_last
        key = (2, z)
        terms[key] = terms.get(key, 0) + (n - k * l_period)
    return Cwef(2, n, terms)


def cwef_w2_punctured(code: RscCode, p_u, p_z, n: int) -> Cwef:
    """Weight-2 enumerator of the punctured code: accumulate the group
    multiplicity of every (k, m) pair onto its exact (u, z) weights."""
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
