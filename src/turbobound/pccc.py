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
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from operator import mul

from .cwef import (Cwef, cwef_w2_punctured, weight2_minima, weight2_span_minimum,
                   weight2_total)
from .oracle import (check_dp_limits, counts_from_cells, event_span_bound, exact_cwef_dp,
                     span_step_cost)
from .puncture import PcccPunctureSet, code_rate
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


def _pack(counts: dict[int, int], low: int, high: int, width: int) -> int:
    """Kronecker substitution: one int whose little-endian slot i, width
    bytes wide, holds counts[low + i] (absent keys are zero slots)."""
    buf = bytearray(width * (high - low + 1))
    for z, c in counts.items():
        at = (z - low) * width
        buf[at:at + width] = c.to_bytes(width, "little")
    return int.from_bytes(buf, "little")


def _convolve(x: dict[int, int], y: dict[int, int]):
    """Exact convolution of two sparse non-negative count vectors as one
    big-int product; yields its nonzero (index, count) pairs in order,
    none when either vector is empty."""
    if not x or not y:
        return
    # a product slot sums at most min(|x|, |y|) products of two counts,
    # so it stays below 256**width and never carries into the next slot
    largest = max(x.values()) * max(y.values()) * min(len(x), len(y))
    width = largest.bit_length() // 8 + 1
    x_low, x_high, y_low, y_high = min(x), max(x), min(y), max(y)
    slots = x_high - x_low + y_high - y_low + 1
    product = _pack(x, x_low, x_high, width) * _pack(y, y_low, y_high, width)
    raw = memoryview(product.to_bytes(slots * width, "little"))
    for i in range(slots):
        c = int.from_bytes(raw[i * width:(i + 1) * width], "little")
        if c:
            yield x_low + y_low + i, c


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
    return 2.0 * float(Fraction(rate)) * 10.0 ** (ebn0_db / 10.0)


def _tails(scale: float, distances) -> list[float]:
    """Q(sqrt(scale * d)) for each d of an ascending sequence, up to the
    first that is exactly 0.0: Q does not increase with d, so every
    later one is 0.0 too.  Each is q_function's expression, inline."""
    sqrt, erfc, inf, root2 = math.sqrt, math.erfc, math.inf, math.sqrt(2.0)
    out = []
    for d in distances:
        x = sqrt(scale * d)
        if not x < inf:
            raise ValueError("q_function needs a finite argument")
        q = 0.5 * erfc(x / root2)
        if q == 0.0:
            break
        out.append(q)
    return out


def _q_at(scale: float, d) -> float:
    """Q(sqrt(scale * d)) as the union sum computes it."""
    return sum(_tails(scale, (d,)), 0.0)


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
    share of the term at d_min.  h is only a choice:
    union_bound_curve proves each clipped sum, and certified_p2 falls
    back to D*.  D* when that target is 0.0, inf when D* is."""
    scale = _scale(rate, ebn0_db)
    target = 2.0**-62 * _q_at(scale, d_min) / total
    if target == 0.0:
        return q_horizon(rate, ebn0_db)
    return _first_below(scale, d_min, target)


def union_bound_curve(b: IowefSlice, n: int, rate, ebn0_db, rest: int = 0,
                      horizon: float = math.inf) -> tuple[float, ...] | None:
    """Contribution P(w) of one input weight to the union bound at each
    Eb/N0 of a grid: the sum over d of
    (w / n) * (count_d / C(n, w)) * Q(sqrt(2 R Eb/N0 d)).  Each
    coefficient is divided once for the whole grid.

    rest counts more, each at a distance of horizon or more, may be left
    out of b.  Then each sum is returned only when it provably equals
    the sum with them, and None is returned otherwise: together they
    weigh at most B = (w rest / denom) Q(horizon), so the sum is proved
    when adding 4 B rounds to the same float (fsum is correctly rounded,
    hence monotone; the 4 covers the roundings of each coefficient, Q
    and product)."""
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
    sums = []
    for db in ebn0_db:
        scale = _scale(rate, db)
        # map stops at the shorter list: Q past the first 0.0 adds nothing
        head = list(map(mul, coefficients, _tails(scale, distances)))
        value = math.fsum(head)
        if rest:
            head.append(4.0 * rest_coefficient * _q_at(scale, horizon))
            if math.fsum(head) != value:
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
    a1, a2 = (cwef_w2_punctured(*c, config.n, horizon)
              for c in config.constituents())
    return distance_spectrum(a1, a2, horizon)


def certified_p2(spectrum, total: int, n: int, rate, ebn0_db,
                 horizon: float) -> tuple[float, ...]:
    """P(2) at each point of a grid, from spectrum(h), the weight-2
    distance spectrum below h of a block whose whole spectrum holds
    total counts.  It is clipped at horizon, a certified_horizon, and
    each sum is proved to equal that of the whole spectrum; when a proof
    fails the spectrum is rebuilt up to D* of the lowest point, where no
    term adds to any sum."""
    b = spectrum(horizon)
    sums = union_bound_curve(b, n, rate, ebn0_db, total - sum(b.coeffs.values()),
                             horizon)
    if sums is None:
        sums = union_bound_curve(spectrum(q_horizon(rate, min(ebn0_db))),
                                 n, rate, ebn0_db)
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
                       config.rate, ebn0_db, horizon)
    return BoundCurve(_as_points(raw, ebn0_db), label="p2")


def constituent_cwefs(code: RscCode, p_u, p_z, n: int, w_max: int,
                      d_max: int) -> tuple[dict[int, dict[int, int]], bool]:
    """The {d: count} by input weight and the truncated flag of the
    folded exact_cwef_dp(code, p_u, p_z, n, w_max, d_max), from a pass
    much shorter than n wherever the event span allows one and the
    certificate that finds the span costs less than it saves.

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
    # the certificate walks at most limit steps, each worth cost steps of
    # the trellis pass, and the pass after it takes at most
    # j limit + (j + 2) M - 1 steps: together fewer than the pass at n
    cost = span_step_cost(code, w_max, d_cap, m_period)
    limit = 0 if cost is None else int((n - (j + 2) * m_period) // (j + cost))
    # a weight-2 event of span kL + 1 whose u + z is at most d_max makes
    # S > kL, so when one reaches the limit the walk can only give up
    span = None
    if limit > 0 and weight2_span_minimum(code, p_u, p_z, -(-limit // code.period)) > d_max:
        span = event_span_bound(code, p_u, p_z, w_max, d_max, limit)
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

    Constituent counts by d = u + z come from the exact folded trellis
    pass, read at n by constituent_cwefs, so every retained term is
    exact; dropped mass is reported via the flag.  Constituent 2 sends
    no systematic bit, so its d is its parity weight z.
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
    for w in range(2, w_max + 1):
        spectrum = dict(_convolve(e1[w], e2[w]))
        kept = {d: c for d, c in spectrum.items() if d <= d_max}
        truncated |= len(kept) < len(spectrum)
        per_weight[w] = union_bound_curve(IowefSlice(w, kept), config.n, config.rate,
                                          ebn0_db)
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
