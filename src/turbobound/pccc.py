"""Bit-error bound machinery for the parallel concatenation.

The two constituent enumerators are joined through the uniform
interleaver average, collapsed to a distance spectrum, and fed into the
union bound on bit-error probability.  Behind the uniform interleaver
every weight-w coefficient is an integer count over the one denominator
C(n, w), so enumerators and spectra hold exact int counts, and each term
is divided by C(n, w) only where it meets the Gaussian tail factor.
"""

from __future__ import annotations

import math
import sys
import warnings
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress
from math import comb, lcm

from .cwef import (Cwef, Weight3Events, _cwef_w2, _weight2_counts, weight2_minima,
                   weight2_total)
from .oracle import (check_dp_limits, counts_from_cells, event_span_bound, event_tables_fit,
                     exact_cwef_dp, span_step_cost)
from .puncture import PcccPunctureSet, code_rate, extend_row
from .rsc import RscCode


@dataclass(frozen=True)
class PcccConfig:
    """Two constituent codes behind a uniform interleaver of size n."""

    code1: RscCode
    code2: RscCode
    punctures: PcccPunctureSet
    n: int
    rate: Fraction = field(init=False)

    def __post_init__(self) -> None:
        longest = max(self.code1.period, self.code2.period)
        if self.n < longest + 1:
            raise ValueError(
                f"interleaver size {self.n} cannot hold a weight-2 event; "
                f"need at least {longest + 1}")
        r = code_rate(self.punctures)
        if not 0 < r < 1:
            raise ValueError(f"code rate {r} outside (0, 1)")
        object.__setattr__(self, "rate", r)

    def constituents(self):
        """(code, p_u, p_z) of each of the two constituent encoders."""
        c1, c2 = self.punctures.constituent1(), self.punctures.constituent2()
        return (self.code1, c1.p_u, c1.p_z), (self.code2, c2.p_u, c2.p_z)

    @cached_property
    def minima(self) -> tuple[tuple[int, int], ...]:
        """The two constituents' weight2_minima in an n-step block, walked
        once per config.  Constituent 1's smallest u + z plus constituent
        2's smallest z is the smallest weight-2 distance, also when
        either of them is 0."""
        return tuple(weight2_minima(*c, self.n) for c in self.constituents())


@dataclass(frozen=True)
class IowefSlice:
    """Distance spectrum {d: count} of input weight w.  Behind a uniform
    interleaver of size n the coefficient of distance d is
    count / C(n, w)."""

    w: int
    coeffs: dict[int, int]


@dataclass(frozen=True)
class BoundPoint:
    ebn0_db: float
    value: float
    clamped: bool
    raw: float


@dataclass(frozen=True)
class BoundCurve:
    points: tuple[BoundPoint, ...]
    label: str

    def to_csv(self) -> str:
        lines = ["ebn0_db,value,clamped,label"]
        for p in self.points:
            lines.append(f"{p.ebn0_db:g},{p.value:.11e},{int(p.clamped)},{self.label}")
        return "\n".join(lines) + "\n"


def _slot_width(largest: int) -> int:
    """Bytes per slot of a packed product none of whose slots passes
    largest: 8, or wide byte slots past 64 bits."""
    return 8 if largest < 1 << 64 else largest.bit_length() // 8 + 1


def _pack(counts: dict[int, int], low: int, high: int, width: int) -> int:
    """Kronecker substitution: one int whose little-endian slot i, width
    bytes wide, holds counts[low + i] (absent keys are zero slots)."""
    if width == 8:
        slots = array("Q", bytes(8 * (high - low + 1)))
        for z, c in counts.items():
            slots[z - low] = c
        if sys.byteorder == "big":
            slots.byteswap()
        return int.from_bytes(slots, "little")
    buf = bytearray(width * (high - low + 1))
    for z, c in counts.items():
        at = (z - low) * width
        buf[at:at + width] = c.to_bytes(width, "little")
    return int.from_bytes(buf, "little")


def _unpack(packed: int, slots: float, width: int):
    """The nonzero (i, count), i < slots, of a _pack int of slot width, or
    of a product of two, in order."""
    slots = min(slots, packed.bit_length() // (8 * width) + 1)
    raw = (packed & ((1 << 8 * width * slots) - 1)).to_bytes(width * slots, "little")
    if width == 8:
        counts = array("Q", raw)
        if sys.byteorder == "big":
            counts.byteswap()
    else:
        raw = memoryview(raw)
        counts = [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(slots)]
    return compress(enumerate(counts), counts)


def _convolve(x: dict[int, int], y: dict[int, int]):
    """Exact convolution of two sparse non-negative count vectors as one
    big-int product; yields its nonzero (index, count) pairs in order,
    none when either vector is empty."""
    if not x or not y:
        return
    # a product slot sums at most min(|x|, |y|) products of two counts,
    # so it stays below 256**width and never carries into the next slot
    width = _slot_width(max(x.values()) * max(y.values()) * min(len(x), len(y)))
    x_low, x_high, y_low, y_high = min(x), max(x), min(y), max(y)
    for i, c in _unpack(_pack(x, x_low, x_high, width) * _pack(y, y_low, y_high, width),
                        x_high - x_low + y_high - y_low + 1, width):
        yield x_low + y_low + i, c


def _weight2_marginals(code: RscCode, n: int, width: int):
    """marginal(p_u, p_z, h), whose width-byte slots below h are those of
    _marginal(_cwef_w2(code, p_u, p_z, n, h), 1, h): p_z's paths by z in
    one group per start and remerge column, each packed once and moved
    up by its u."""
    @cache
    def groups(p_z, m_period, h):
        by_columns: dict[tuple[int, int], dict[int, int]] = {}
        for m0, c, progression in _weight2_counts(code, p_z, m_period, n, h):
            group = by_columns.setdefault((m0, c), {})
            for z, count in progression:
                group[z] = group.get(z, 0) + count
        return [(m0, c, _pack(g, 0, max(g), width)) for (m0, c), g in by_columns.items()]

    @cache
    def marginal(p_u, p_z, h):
        m_period = lcm(len(p_u), len(p_z))
        pu = extend_row(p_u, m_period)
        return sum(g << 8 * width * (pu[m0] + pu[c]) for m0, c, g in groups(p_z, m_period, h))
    return marginal


def weight2_spectra(code1: RscCode, code2: RscCode, n: int):
    """spectrum(p_u, p_z1, p_z2, h), equal to distance_spectrum of the
    _cwef_w2 pair of rows (p_u, p_z1) and (0, p_z2) at n below h, for
    many row triples at once: each distinct parity row is walked once
    per h, and each spectrum is one product of two packed marginals."""
    # a product's slots sum to at most both codes' whole counts
    width = _slot_width(weight2_total(code1, n) * weight2_total(code2, n))
    marginal1 = _weight2_marginals(code1, n, width)
    marginal2 = marginal1 if code2 is code1 else _weight2_marginals(code2, n, width)

    def spectrum(p_u, p_z1, p_z2, h):
        product = marginal1(p_u, p_z1, h) * marginal2((0,) * len(p_z2), p_z2, h)
        return IowefSlice(2, dict(_unpack(product, h, width)))
    return spectrum


def _check_pair(a1: Cwef, a2: Cwef, n: int, w: int) -> None:
    if a1.w != w or a2.w != w:
        raise ValueError(f"weight mismatch: {a1.w}, {a2.w} vs requested {w}")
    if a1.n != n or a2.n != n:
        raise ValueError(f"length mismatch: {a1.n}, {a2.n} vs requested {n}")


def _marginal(a: Cwef, u_weight: int, horizon: float = math.inf) -> dict[int, int]:
    """Counts of a summed by u_weight * u + z: by distance u + z for 1,
    by parity weight alone for 0; only the keys below horizon."""
    out: dict[int, int] = {}
    for (u, z), c in a.terms.items():
        key = u_weight * u + z
        if key < horizon:
            out[key] = out.get(key, 0) + c
    return out


def combine_uniform_interleaver(a1: Cwef, a2: Cwef, n: int, w: int) -> Cwef:
    """Average the pair of constituent enumerators over all interleavers.

    a2 is projected onto its parity weight alone, since the second
    encoder's systematic bits are never transmitted.  For each
    systematic weight u of a1 the two parity-count vectors are then
    convolved exactly.  The result holds summed counts: the averaged
    coefficient of (u, z) is its count over C(n, w), the number of
    weight-w inputs.
    """
    _check_pair(a1, a2, n, w)
    terms: dict[tuple[int, int], int] = {}
    if not a1.terms or not a2.terms:
        return Cwef(w, n, terms)
    z_marginal = _marginal(a2, 0)
    by_u: dict[int, dict[int, int]] = {}
    for (u1, z1), c in a1.terms.items():
        by_u.setdefault(u1, {})[z1] = c
    for u in sorted(by_u):
        for z, c in _convolve(by_u[u], z_marginal):
            terms[(u, z)] = c
    return Cwef(w, n, terms)


def distance_spectrum(a1: Cwef, a2: Cwef, horizon: float = math.inf) -> IowefSlice:
    """Distance spectrum of the concatenation behind the uniform
    interleaver, iowef_slice(combine_uniform_interleaver(a1, a2, a1.n,
    a1.w)), in one product: a1 projected onto d = u + z convolved with
    a2 projected onto z.  Only the distances below horizon are kept, and
    only the terms that can reach them take part in the product."""
    _check_pair(a1, a2, a1.n, a1.w)
    coeffs: dict[int, int] = {}
    for d, c in _convolve(_marginal(a1, 1, horizon), _marginal(a2, 0, horizon)):
        if d >= horizon:
            break
        coeffs[d] = c
    return IowefSlice(a1.w, coeffs)


def iowef_slice(a: Cwef) -> IowefSlice:
    """Distance spectrum of a combined enumerator: the counts of equal
    u + z summed, in ascending distance."""
    counts = _marginal(a, 1)
    return IowefSlice(a.w, {d: counts[d] for d in sorted(counts)})


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = erfc(x / sqrt(2)) / 2, with erfc
    from the platform C library."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("q_function needs a finite argument")
    if x < 0.0:
        return 1.0 - q_function(-x)
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _scale(rate, ebn0_db: float) -> float:
    """2 R Eb/N0: Q(sqrt(scale * d)) is the pairwise error probability
    of a codeword at distance d."""
    return 2.0 * float(rate) * 10.0 ** (ebn0_db / 10.0)


def _q_at(scale: float, d) -> float:
    """Q(sqrt(scale * d)), as the union sum computes it."""
    return q_function(math.sqrt(scale * d))


def _first_below(scale: float, d: int, target: float) -> float:
    """The first distance past d whose Q(sqrt(scale * distance)) is below
    target, where Q at d is not: found by doubling the step from d and
    then halving it.  inf when Q at 2**1000 is not 0.0 (scale * distance
    turns a distance into a float, below 2**1024)."""
    if math.isfinite(scale * 2**1000) and _q_at(scale, 2**1000) > 0.0:
        return math.inf
    step = 1
    while _q_at(scale, d + step) >= target:
        step *= 2
    lo, hi = d + step // 2, d + step  # Q(lo) >= target > Q(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _q_at(scale, mid) < target:
            hi = mid
        else:
            lo = mid
    return hi


def q_horizon(rate, ebn0_db: float) -> float:
    """D*, the smallest distance d whose Q(sqrt(2 R Eb/N0 d)) is exactly
    0.0 in floats, or inf when no d up to 2**1000 reaches 0.0.

    Q falls as d or Eb/N0 grows, so over a grid that starts at ebn0_db
    no term at a distance of D* or more adds to a union sum, and every
    spectrum may be clipped there.  D* is about 1481 / (2 R Eb/N0):
    1481 at 0 dB and rate 1/2."""
    # Q(0) = 0.5, and below the least positive float is 0.0 alone
    return _first_below(_scale(rate, ebn0_db), 0, math.ulp(0.0))


def certified_horizon(rate, ebn0_db: float, d_min: int, total: int) -> float:
    """A distance h <= D* at which a weight-2 spectrum may be clipped for
    a grid that starts at ebn0_db: the smallest h whose
    Q(sqrt(2 R Eb/N0 h)) is below 2**-62 Q(sqrt(2 R Eb/N0 d_min)) / total,
    where d_min is the spectrum's smallest distance and total its whole
    count.  Past h all total counts together then weigh below a 2**-62
    share of the term at d_min.  h only bounds the spectrum built:
    union_bound_curve stops each point at its own proved distance and
    proves each clipped sum, and certified_p2 falls back to D*.  D* when
    that target is 0.0, inf when D* is."""
    scale = _scale(rate, ebn0_db)
    target = 2.0**-62 * _q_at(scale, d_min) / total
    if target == 0.0:
        return q_horizon(rate, ebn0_db)
    return _first_below(scale, d_min, target)


def union_bound_curve(b: IowefSlice, n: int, rate, ebn0_db, rest: int = 0,
                      horizon: float = math.inf,
                      q_tables: dict | None = None) -> tuple[float, ...] | None:
    """Contribution P(w) of one input weight to the union bound at each
    Eb/N0 of a grid: the sum over d of
    (w / n) * (count_d / C(n, w)) * Q(sqrt(2 R Eb/N0 d)).  Each
    coefficient is divided once for the whole grid.

    rest counts more, each at a distance of horizon or more, may be left
    out of b.  Then each sum is returned only when it provably equals
    the sum with them, and None is returned otherwise: together they
    weigh at most R = 4 (w rest / denom) Q(horizon), so the sum is proved
    when adding R rounds to the same float (fsum is correctly rounded,
    hence monotone; the 4 covers the roundings of each coefficient, Q
    and product).  Each point stops at the first Q of exactly 0.0, or at
    the first d where B = 16 Q(d) fsum(the coefficients from d on) and R
    added to the terms so far round to their sum: Q falls with d, so B
    bounds every term left out, subnormal roundings too.  No stop is
    tried short of a distance that refuses a non-finite argument, so
    each call raises or returns None just as a walk over every term.
    q_tables, a dict that calls at the same points may share, holds each
    Q computed, by 2 R Eb/N0 and distance."""
    rate = Fraction(rate)
    if not 0 < rate < 1:
        raise ValueError(f"rate {rate} outside (0, 1)")
    if n < 1:
        raise ValueError("block length must be positive")
    denom = n * comb(n, b.w)
    items = sorted(b.coeffs.items())
    # scale * d converts an int d to float anyway; do it once per grid
    distances = [float(d) for d, _ in items]
    # int / int is correctly rounded: float(Fraction(b.w * c, denom))
    coefficients = [b.w * c / denom for _, c in items]
    rest_coefficient = b.w * rest / denom
    top, far, rate = math.fsum(coefficients), max(distances, default=0.0), float(rate)
    sqrt, erfc, inf, root2 = math.sqrt, math.erfc, math.inf, math.sqrt(2.0)
    sums = []
    for db in ebn0_db:
        scale = _scale(rate, db)
        known = {} if q_tables is None else q_tables.setdefault(scale, {})
        if rest and horizon not in known:
            known[horizon] = _q_at(scale, horizon)
        tail = [4.0 * rest_coefficient * known[horizon]] if rest else []
        # a stop short of a distance that refuses would hide the refusal
        share = 2.0**-58 if scale * far < inf else 0.0
        head, floor = [], inf
        for d, coefficient in zip(distances, coefficients):
            if (q := known.get(d)) is None:
                # _q_at, inline: a call per term would cost a quarter of the sum
                x = sqrt(scale * d)
                if not x < inf:
                    raise ValueError("q_function needs a finite argument")
                q = known[d] = 0.5 * erfc(x / root2)
            if q == 0.0:
                break
            # the first term sets floor; under it, B <= 16 q top may pass
            if q * top < floor:
                if not head:
                    floor = share * coefficient * q
                else:
                    bound = 16.0 * math.fsum(coefficients[len(head):]) * q
                    if math.fsum(head + [bound] + tail) == math.fsum(head):
                        break
            head.append(coefficient * q)
        value = math.fsum(head)
        if tail and math.fsum(head + tail) != value:
            return None
        sums.append(value)
    return tuple(sums)


def union_bound_term(b: IowefSlice, n: int, rate, ebn0_db: float) -> float:
    """Contribution P(w) of one input weight to the union bound at one
    Eb/N0: union_bound_curve on a one-point grid."""
    return union_bound_curve(b, n, rate, (ebn0_db,))[0]


def p2_slice(config: PcccConfig, horizon: float = math.inf) -> IowefSlice:
    """Distance spectrum of the dominant weight-2 term below horizon,
    closed forms only."""
    a1, a2 = (_cwef_w2(*c, config.n, horizon) for c in config.constituents())
    return distance_spectrum(a1, a2, horizon)


def certified_p2(spectrum, total: int, n: int, rate, ebn0_db, horizon: float,
                 q_tables: dict | None = None) -> tuple[float, ...]:
    """P(2) at each point of a grid, from spectrum(h), the weight-2
    distance spectrum below h of a block whose whole spectrum holds
    total counts.  It is clipped at horizon, a certified_horizon, and
    each sum is proved to equal that of the whole spectrum; when a proof
    fails the spectrum is rebuilt up to D* of the lowest point, where no
    term adds to any sum.  Both sums share q_tables."""
    b = spectrum(horizon)
    sums = union_bound_curve(b, n, rate, ebn0_db, total - sum(b.coeffs.values()),
                             horizon, q_tables)
    if sums is None:
        sums = union_bound_curve(spectrum(q_horizon(rate, min(ebn0_db))),
                                 n, rate, ebn0_db, q_tables=q_tables)
    return sums


def _as_points(raw_values, ebn0_db) -> tuple[BoundPoint, ...]:
    return tuple(
        BoundPoint(db, min(v, 1.0), v > 1.0, v)
        for db, v in zip(ebn0_db, raw_values))


def p2_approximation(config: PcccConfig, ebn0_db) -> BoundCurve:
    """Dominant-term approximation of the bit-error union bound.  The
    clipping horizon is chosen from the spectrum's smallest distance,
    read off config.minima."""
    ebn0_db = tuple(float(db) for db in ebn0_db)
    if not ebn0_db:
        raise ValueError("need at least one SNR point")
    (m1, _), (_, z2) = config.minima
    total = weight2_total(config.code1, config.n) * weight2_total(config.code2, config.n)
    horizon = certified_horizon(config.rate, min(ebn0_db), m1 + z2, total)
    raw = certified_p2(lambda h: p2_slice(config, h), total, config.n,
                       config.rate, ebn0_db, horizon, {})
    return BoundCurve(_as_points(raw, ebn0_db), label="p2")


def constituent_cwefs(code: RscCode, p_u, p_z, n: int, w_max: int,
                      d_max: int) -> tuple[dict[int, dict[int, int]], bool]:
    """The {d: count} by input weight and the truncated flag of the
    folded exact_cwef_dp(code, p_u, p_z, n, w_max, d_max), from the
    closed forms at w_max = 3 wherever they settle the flag, else from a
    pass much shorter than n wherever event_span_bound, asked once, finds
    the span within a step budget that keeps both below the pass at n.

    The closed forms are cwef_w2_punctured and Weight3Events, exact at
    every n.  The path of a single 1 at step 0 is a prefix of n steps,
    so when it weighs more than d_max the trellis's flag is True, and
    the closed forms run unless their walk tables would outgrow the
    pass; when it does not, the trellis computes the flag.

    A terminated path of weight w <= w_max is at most j = w_max // 2
    error events, each at most S = event_span_bound(...) steps long when
    its u + z is at most d_max.  Past j S + M steps, M the pattern
    period, each (w, d) count is therefore a sum of event placement
    counts C(n - l + j, j) over the M residues: on each residue class of
    n mod M a polynomial in n of degree <= j.  So the pass stops at
    n0 + j M, with n0 >= j S + M in n's class, keeps the zero-state
    counts at n0, n0 + M, ..., n0 + j M, and reads each count at n off
    Newton's forward-difference formula in exact ints.  The flag is
    the one at n: a pass of S steps or more drops the path of a single
    1, and a pass of n drops every prefix a shorter pass drops.
    Refusals are those of the pass at n.
    """
    d_cap = check_dp_limits(code, n, w_max, d_max)
    m_period, j = lcm(len(p_u), len(p_z)), w_max // 2
    if w_max == 3 and event_tables_fit(code, w_max, d_cap, m_period):
        weight3 = Weight3Events(code, p_u, p_z, n, d_max)
        if weight3.lone > d_max:
            weight2 = _cwef_w2(code, p_u, p_z, n, d_max + 1)
            return {1: {}, 2: _marginal(weight2, 1, d_max + 1),
                    3: _marginal(weight3.cwef(), 1)}, True
    # the certificate walks at most limit steps, the last argument, each
    # worth cost steps of the trellis pass, and the pass after it takes at
    # most j limit + (j + 2) M - 1 steps: together fewer than the pass at n
    cost = span_step_cost(code, w_max, d_cap, m_period)
    span = event_span_bound(code, p_u, p_z, w_max, d_max,
                            int((n - (j + 2) * m_period) // (j + cost)))
    if span is None:
        res = exact_cwef_dp(code, p_u, p_z, n, w_max, d_max, folded=True)
        return res.by_weight, res.truncated
    n0 = j * span + m_period
    n0 += (n - n0) % m_period
    steps = [n0 + i * m_period for i in range(j + 1)]
    res = exact_cwef_dp(code, p_u, p_z, steps[-1], w_max, d_max, keep=steps, folded=True)
    # Newton: f(q) = sum_k C(q, k) d^k f(0), where the k-th forward
    # difference d^k f(0) = sum_i (-1)^(k-i) C(k, i) f(i); gathered into
    # one integer weight per sample f(i), summed in Python ints
    q = (n - n0) // m_period
    weights = [sum((-1) ** (k - i) * comb(q, k) * comb(k, i) for k in range(i, j + 1))
               for i in range(j + 1)]
    cells = sum(weight * res.kept[i].astype(object) for weight, i in zip(weights, steps))
    return counts_from_cells(cells, n), res.truncated


@dataclass(frozen=True)
class TruncatedBound:
    curve: BoundCurve
    truncated: bool
    # raw per-weight contributions, same ordering as curve.points
    per_weight: dict[int, tuple[float, ...]]


def truncated_union_bound(config: PcccConfig, w_max: int, d_max: int,
                          ebn0_db) -> TruncatedBound:
    """Union bound over input weights 2..w_max, distances capped at d_max.

    Constituent counts by d = u + z come from constituent_cwefs, off
    the closed forms or the exact folded trellis pass read at n, so
    every retained term is exact; dropped mass is reported via the
    flag.  Constituent 2 sends no systematic bit, so its d is its
    parity weight z.
    """
    ebn0_db = tuple(float(db) for db in ebn0_db)
    if not ebn0_db:
        raise ValueError("need at least one SNR point")
    if w_max < 2:
        raise ValueError("w_max must be at least 2")
    if d_max < 1:
        raise ValueError("d_max must be positive")
    (m1, _), (_, z2) = config.minima
    if m1 + z2 > d_max:
        raise ValueError(
            f"d_max={d_max} is below the smallest weight-2 distance; "
            "the bound would be vacuous")
    c1, c2 = config.constituents()
    assert not any(c2[1]), "constituent 2 sends a systematic bit"
    (e1, t1), (e2, t2) = (constituent_cwefs(*c, config.n, w_max, d_max) for c in (c1, c2))
    truncated = t1 or t2
    per_weight: dict[int, tuple[float, ...]] = {}
    q_tables: dict = {}  # every weight reads the same Q values
    for w in range(2, w_max + 1):
        spectrum = dict(_convolve(e1[w], e2[w]))
        kept = {d: c for d, c in spectrum.items() if d <= d_max}
        truncated |= len(kept) < len(spectrum)
        per_weight[w] = union_bound_curve(IowefSlice(w, kept), config.n, config.rate,
                                          ebn0_db, q_tables=q_tables)
    totals = [math.fsum(per_weight[w][i] for w in per_weight)
              for i in range(len(ebn0_db))]
    curve = BoundCurve(_as_points(totals, ebn0_db), label=f"union_w{w_max}")
    return TruncatedBound(curve, truncated, per_weight)


def d_free_eff(m1: tuple[int, int], m2: tuple[int, int]) -> int:
    """Weight-2 effective free distance from the two constituents'
    min_weights pairs: the smallest u + z of constituent 1 plus the
    smallest z of constituent 2, whose systematic bits are never sent.
    Returns 0 when either minimum is 0, the catastrophic-puncturing
    case."""
    d1, z2 = m1[0], m2[1]
    return 0 if d1 == 0 or z2 == 0 else d1 + z2


def free_effective_distance(config: PcccConfig) -> int:
    """Smallest transmitted weight reachable by a weight-2 input pair,
    from config.minima.

    Returns 0 (with a warning) when either constituent admits a
    zero-weight event, the catastrophic-puncturing case.
    """
    dfree = d_free_eff(*config.minima)
    if dfree == 0:
        warnings.warn("catastrophic puncturing: weight-2 event with zero "
                      "transmitted weight", stacklevel=2)
    return dfree
