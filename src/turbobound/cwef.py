"""Closed-form conditional weight enumerators for input weights 2 and 3.

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

A terminated weight-3 input is one error event too, since no event has
input weight 1.  Between its 1s the state walks the zero-input orbit of
the single 1, so Weight3Events reads every event's (u, z) off one
table of zero-input walks over (orbit phase, column), and counts its
starts in closed form: cwef_w3_punctured is exact at every n.
"""

from __future__ import annotations

import math
import sys
import warnings
from array import array
from dataclasses import dataclass
from itertools import compress
from math import lcm

from .puncture import Row, _core_weights, as_row, extend_row, probe_length
from .rsc import RscCode, weight2_parity_response
from .rsc import step as rsc_step


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


def _span_cycle(code: RscCode, p_u: Row, p_z: Row, k_max: int, horizon: float = math.inf):
    """The one walk of weight-2 paths, over rows its callers validated.
    For each start column m0 = 0..M-1 in turn, yields (paths, step):
    paths holds the (u, z) of the paths of span multiplier
    k = 1..min(cycle, k_max) from column m0, in order of k, with
    cycle = lcm(L, M) / L; step is the parity walked past the diverge
    bit, which after a whole cycle is what one more column cycle adds to
    any of its paths.

    Period j of a path adds its core weight, then the parity bit of its
    join into period j + 1.  After a cycle of periods the path ends in
    its start column again, so the path of span k + i cycle weighs
    (u, z + i step).  Each column holds O(min(cycle, k_max)).  The open
    path's z never falls and no path from it weighs less, so a column's
    walk stops once that z reaches horizon: then every walked path's
    z + step is at least horizon too.  A walk cut at k_max < cycle has
    no path that fits a cycle past one walked."""
    l_period, m_period = code.period, lcm(len(p_u), len(p_z))
    pu, pz = extend_row(p_u, m_period), extend_row(p_z, m_period)
    z_cores = _core_weights(code, pz)
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
    if n <= code.period:
        warnings.warn(f"no weight-2 path fits in n={n} <= L={code.period}; "
                      "enumerator is empty", stacklevel=2)
    return _cwef_w2(code, as_row(p_u), as_row(p_z), n, horizon)


def _weight2_counts(code: RscCode, p_z: Row, m_period: int, n: int,
                    horizon: float = math.inf):
    """(m0, c, their (z, count) below horizon) of the paths from column m0
    to remerge column c, whose u is p_u[m0] + p_u[c] in _cwef_w2(code, p_u,
    p_z, n, horizon) for any p_u of period m_period: one walk of p_z."""
    l_period = code.period
    lost = lcm(l_period, m_period) // m_period
    walks = _span_cycle(code, (0,) * m_period, p_z, (n - 1) // l_period, horizon)
    for m0, (paths, step) in enumerate(walks):
        for k, (_, z) in enumerate(paths, 1):
            # the starts t = m0 mod M with t + kL < n
            count = -(-(n - k * l_period - m0) // m_period)
            if count <= 0 or z >= horizon:
                continue
            c = (m0 + k * l_period) % m_period
            if step == 0:
                # no parity per column cycle: the J terms count, count - lost,
                # ... all land on z, summed at once
                j = -(-count // lost)
                yield m0, c, ((z, j * count - lost * j * (j - 1) // 2),)
                continue
            # per column cycle z rises by step and the starts that fit fall
            # by lost: at most count cycles, and those below horizon
            z_stop = math.ceil(min(horizon, z + step * count))
            yield m0, c, zip(range(z, z_stop, step), range(count, 0, -lost))


def _cwef_w2(code: RscCode, p_u: Row, p_z: Row, n: int,
             horizon: float = math.inf) -> Cwef:
    """cwef_w2_punctured over rows its callers validated, with no warning."""
    m_period = lcm(len(p_u), len(p_z))
    pu = extend_row(p_u, m_period)
    terms: dict[tuple[int, int], int] = {}
    for m0, c, progression in _weight2_counts(code, p_z, m_period, n, horizon):
        u = pu[m0] + pu[c]
        for z, count in progression:
            terms[u, z] = terms.get((u, z), 0) + count
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
    walks = _span_cycle(code, as_row(p_u), as_row(p_z), k)
    return min(sum(_span_weights(walk, k)) for walk in walks)


def _minima_block(code: RscCode, m_period: int, n: int | None) -> int:
    """The block whose weight-2 paths hold the minima of an n-step block,
    or of any block when n is None: probe_length, or a shorter n.
    Refuses a block that no weight-2 path fits in."""
    probe = probe_length(code, m_period)
    block = probe if n is None else min(probe, n)
    if block <= code.period:
        raise ValueError(f"no weight-2 path fits in n={block} <= L={code.period}")
    return block


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


def weight2_table(code: RscCode, m_period: int, n: int) -> Weight2Table:
    """The Weight2Table of the block that weight2_minima reads for
    period-M rows at n.  A path's u and z count the ones it sends in the
    columns a row keeps, so slot p of column c is path p's weight under
    the unit row that keeps column c alone: one span walk per column."""
    l_period = code.period
    block = _minima_block(code, m_period, n)
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


# Weight3Events builds about _W3_CHUNK families at once, which bounds its arrays
_W3_CHUNK = 1 << 12


def _restored(size: int, at, stride: int, steps, values, runs):
    """A table of size int64 cells 4 z + u: values added at at + 4 stride
    step, then summed forward along each stride of runs in z in turn.
    The sums run forward, so the last cell takes what lands past it."""
    import numpy as np
    table = np.zeros(size, dtype=np.int64)
    np.add.at(table, np.minimum(np.concatenate([at + 4 * stride * t for t in steps]), size - 1),
              np.concatenate(values))
    for w in runs:
        view = table[:size // (4 * w) * 4 * w].reshape(-1, 4 * w)
        np.cumsum(view, axis=0, out=view)
    return table


class Weight3Events:
    """The weight-3 events of an n-step block whose u + z is at most
    d_max, tallied by family.

    Write the input as 1s at t, t + a and t + b, 0 < a < b, with start
    column c0 = t mod M, and call the state q steps after a single 1
    phase q of its zero-input orbit, of length L.  The state the second
    1 leaves depends on a mod L alone.  The third 1 remerges exactly when
    that state is some phase r and b - a = L - r + iL, i >= 0: one table
    of r over a mod L lists every event.  An event's z sums its diverge
    bit, the zero-input walk of a - 1 steps from phase 0, the second 1's
    parity, the walk of b - a - 1 steps from phase r and the remerge
    parity; its u the three systematic bits.  A walk of l steps from
    phase q in column c visits (q + s mod L, c + s mod M), s < l, on a
    cycle of P = lcm(L, M) pairs, so it weighs (l div P) times the
    cycle's weight plus a difference of the cycle's prefix sums.  An
    event (c0, a, b) has (n - 1 - b - c0) div M + 1 starts that fit.

    Moving a or b - a by P changes no column or phase: the event weighs
    the cycle weight W1 or W2 of its first or second walk more and has
    P/M fewer starts.  So the events fall into families, one per c0,
    a <= P and b - a - 1 < P, at most M P (P/L) of them whatever n and
    d_max: each a triangle of events i P and m P further apart, whose
    u + z grows with i and m.  `lone` is the u + z of a single 1 at
    step 0 walked to step n - 1."""

    def __init__(self, code: RscCode, p_u: Row, p_z: Row, n: int, d_max: int):
        if n < 1 or d_max < 0:
            raise ValueError("need n >= 1 and d_max >= 0")
        # the C(n, 3) weight-3 inputs bound every count the tally holds
        if math.comb(n, 3) >= 2**63:
            raise ValueError("weight-3 counts would overflow 64-bit accumulation")
        import numpy as np  # here, so that only the commands that count events load it
        self._n, self._d_max = n, d_max
        self._l, self._m = l_period, m_period = code.period, lcm(len(p_u), len(p_z))
        self._pu = pu = np.array(extend_row(p_u, m_period), dtype=np.int64)
        self._pz = pz = np.array(extend_row(p_z, m_period), dtype=np.int64)
        orbit = [rsc_step(code, 0, 1)[0]]
        while len(orbit) < l_period:
            orbit.append(rsc_step(code, orbit[-1], 0)[0])
        phase = {s: q for q, s in enumerate(orbit)}
        # the second 1 after a - 1 zero steps, from phase (a - 1) mod L:
        # the phase it leaves, -1 for zero or a state off the orbit, and
        # its parity; phase L - 1 is the state a 1 sends to zero
        second = [rsc_step(code, s, 1) for s in orbit]
        self._phase = np.array([phase.get(s, -1) for s, _, _ in second])
        self._parity = np.array([p for _, _, p in second])
        self._diverge, self._remerge = code.impulse_parity[0], second[-1][2]
        # one row of prefix sums per cycle of (phase, column) pairs, over
        # two turns of it; _at is where pair q M + c sits in them
        self._cycle = cycle = lcm(l_period, m_period)
        k = np.arange(l_period * m_period // cycle)[:, None]
        s = np.arange(2 * cycle)
        bits = np.array(code.impulse_parity[1:])[s % l_period] * pz[(k + s) % m_period]
        prefix = np.zeros((k.size, 2 * cycle + 1), dtype=np.int64)
        np.cumsum(bits, axis=1, out=prefix[:, 1:])
        whole = prefix[:, cycle].copy()
        self._prefix = prefix.ravel()
        s = s[:cycle]
        self._at = np.empty(l_period * m_period, dtype=np.int64)
        self._at[s % l_period * m_period + (k + s) % m_period] = k * (2 * cycle + 1) + s
        self._whole = whole[self._at // (2 * cycle + 1)]
        self.lone = int(pu[0] + self._diverge * pz[0]
                        + self._walk(np.array([1 % m_period]), np.array([n - 1]))[0])

    def _walk(self, qc, length):
        """The parity sent by a zero-input walk of each length from each
        pair index qc = q M + c."""
        at = self._at[qc]
        whole, part = divmod(length, self._cycle)
        return whole * self._whole[qc] + self._prefix[at + part] - self._prefix[at]

    def _families(self):
        """The families that some event fits, about _W3_CHUNK at a time,
        as arrays: x, the tally cell 4 z + u of the lightest event; s, its
        starts; k, the most steps i + m that leave a start; low and gap,
        the lesser cycle weight of its two walks and how far the other's
        exceeds it.  A pair (c0, a) whose first two 1s pass d_max has none."""
        import numpy as np
        n, d_max, l_period, m_period, cycle = self._n, self._d_max, self._l, self._m, self._cycle
        pu, pz, prefix = self._pu, self._pz, self._prefix
        # b - a - 1 = L - 1 - r + h L and a are at least h L and 1, and
        # a + 1 + (b - a - 1) is at most n - 1
        last = max(min(cycle, n - 2), 0)
        heads = min(cycle // l_period, max((n - 3) // l_period + 1, 0))
        step = max(_W3_CHUNK // max(heads, 1), 1)
        for lo in range(0, m_period * last, _W3_CHUNK):
            c0, a = np.divmod(np.arange(lo, min(lo + _W3_CHUNK, m_period * last)), last)
            a += 1
            q = (a - 1) % l_period
            r, ca, first = self._phase[q], (c0 + a) % m_period, (c0 + 1) % m_period
            u = pu[c0] + pu[ca]
            z = self._diverge * pz[c0] + self._walk(first, a - 1) + self._parity[q] * pz[ca]
            fits = (r >= 0) & (u + z <= d_max)
            r, ca, u, z, first = (v[fits] for v in (r, ca, u, z, first))
            # the walk after the second 1, of L - 1 - r + h L < P steps,
            # starts at pair `then`, which sits at `at` in the prefix sums;
            # an event whose walk has length l has (rest - l) div M starts
            then = r * m_period + (ca + 1) % m_period
            at = self._at[then]
            z -= prefix[at]
            rest = n - 2 + m_period - c0[fits] - a[fits]
            w1, w2 = self._whole[first], self._whole[then]
            low, gap = np.minimum(w1, w2), abs(w1 - w2)
            for p in range(0, r.size, step):
                i = np.repeat(np.arange(p, min(p + step, r.size)), heads)
                length = l_period - 1 - r[i] + np.arange(i.size) % heads * l_period
                col = (ca[i] + 1 + length) % m_period
                uf = u[i] + pu[col]
                zf = z[i] + prefix[at[i] + length] + self._remerge * pz[col]
                s = (rest[i] - length) // m_period
                fits = (s > 0) & (uf + zf <= d_max)
                i, s = i[fits], s[fits]
                yield 4 * zf[fits] + uf[fits], s, (s - 1) // (cycle // m_period), low[i], gap[i]

    def cwef(self) -> Cwef:
        """The weight-3 enumerator {(u, z): count} over u + z <= d_max.

        A family with s starts at its lightest event, tally cell x, lost
        = P/M and k as _families gives is the triangle i, m >= 0, i + m
        <= k, whose event (i, m) has s - (i + m) lost starts at x + i W1
        + m W2.  Take W1 <= W2, gap D = W2 - W1 and P_W(y) = sum over
        t <= k of (s - t lost) X^(y + t W).  Summed along its
        anti-diagonals t = i + m, the triangle times 1 - X^D is P_W1(x) -
        P_W2(x + D); P_W has four second differences along stride W, and
        P_0 is one cell.  Where D = 0 the family is (t + 1)(s - t lost)
        at x + t W1, whose third differences along W1 sit at t = 0, 1 and
        k + 1 to k + 3, and where W1 = W2 = 0 one cell.  Each class (W1,
        D) of a chunk is restored in tables of twice the tally's width,
        whose far half only takes what the forward sums carry past d_max.
        int64 sums may wrap between, but each final count is below C(n,
        3) < 2^63."""
        import numpy as np
        d_max, lost = self._d_max, self._cycle // self._m
        size = 4 * (d_max + 1)
        tally = np.zeros(size, dtype=np.int64)

        def progression(x, stride, s, k, gap):
            # P_stride(x), restored and summed along gap
            return _restored(2 * size, x, stride, (0, 1, k + 1, k + 2), (s, -lost - s,
                             (k + 1) * lost - s, s - k * lost), (stride, stride, gap))

        for x, s, k, low, gap in self._families():
            while low.size:
                w, d = int(low[0]), int(gap[0])
                cls = (low == w) & (gap == d)
                at, c, j = x[cls], s[cls], k[cls]
                x, s, k, low, gap = (v[~cls] for v in (x, s, k, low, gap))
                if w == d == 0:
                    np.add.at(tally, at, (j + 1) * c + (c - lost) * (j * (j + 1) // 2)
                              - lost * (j * (j + 1) * (2 * j + 1) // 6))
                    continue
                if d == 0:
                    # its terms at t = k + 1 and k + 2, were it not cut
                    end, past = (j + 2) * (c - (j + 1) * lost), (j + 3) * (c - (j + 2) * lost)
                    table = _restored(2 * size, at, w, (0, 1, j + 1, j + 2, j + 3),
                                      (c, -c - 2 * lost, -end, 3 * end - past,
                                       2 * lost - 2 * end + past), (w, w, w))
                elif w:
                    table = progression(at, w, c, j, d)
                else:
                    table = _restored(2 * size, at, 0, (0,),
                                      ((j + 1) * c - lost * (j * (j + 1) // 2),), (d,))
                if d:
                    table -= progression(at + 4 * d, w + d, c, j, d)
                tally += table[:size]
        counts = tally.reshape(d_max + 1, 4).T
        u, z = np.nonzero(counts)
        fits = u + z <= d_max
        return Cwef(3, self._n, dict(zip(zip(u[fits].tolist(), z[fits].tolist()),
                                         counts[u[fits], z[fits]].tolist())))


def cwef_w3_punctured(code: RscCode, p_u, p_z, n: int, d_max: int) -> Cwef:
    """Weight-3 enumerator {(u, z): count} of the punctured code over
    u + z <= d_max, exact at every n: Weight3Events, expanded."""
    return Weight3Events(code, as_row(p_u), as_row(p_z), n, d_max).cwef()
