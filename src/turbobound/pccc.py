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
from math import comb
from operator import mul

from .cwef import Cwef, cwef_w2_punctured, weight2_minima
from .oracle import exact_cwef_dp
from .puncture import PcccPunctureSet, code_rate
from .rsc import RscCode

DEFAULT_W_MAX = 3
DEFAULT_D_MAX = 120


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
    big-int product; yields its nonzero (index, count) pairs in order."""
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


def distance_spectrum(a1: Cwef, a2: Cwef, n: int, w: int,
                      horizon: float = math.inf) -> IowefSlice:
    """Distance spectrum of the concatenation behind the uniform
    interleaver, iowef_slice(combine_uniform_interleaver(a1, a2, n, w)),
    in one product: a1 projected onto d = u + z convolved with a2
    projected onto z.  Only the distances below horizon are kept, and
    only the terms that can reach them take part in the product."""
    _check_pair(a1, a2, n, w)
    d1, z2 = _marginal(a1, 1, horizon), _marginal(a2, 0, horizon)
    coeffs: dict[int, int] = {}
    if d1 and z2:
        for d, c in _convolve(d1, z2):
            if d >= horizon:
                break
            coeffs[d] = c
    return IowefSlice(w, coeffs)


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


def q_horizon(rate, ebn0_db: float) -> float:
    """D*, the smallest distance d whose Q(sqrt(2 R Eb/N0 d)) is exactly
    0.0 in floats, or inf when no d up to 2**1000 reaches 0.0.

    Q falls as d or Eb/N0 grows, so over a grid that starts at ebn0_db
    no term at a distance of D* or more adds to a union sum, and every
    spectrum may be clipped there.  D* is about 1481 / (2 R Eb/N0):
    1481 at 0 dB and rate 1/2."""
    scale = _scale(rate, ebn0_db)

    def underflows(d: int) -> bool:
        return not _tails(scale, (d,))

    hi = 1
    while not underflows(hi):
        hi *= 2
        if hi > 2**1000:  # scale * d turns d into a float, below 2**1024
            return math.inf
    lo = hi // 2  # Q(lo) > 0; Q(0) = 0.5
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if underflows(mid):
            hi = mid
        else:
            lo = mid
    return hi


def union_bound_curve(b: IowefSlice, n: int, rate, ebn0_db) -> tuple[float, ...]:
    """Contribution P(w) of one input weight to the union bound at each
    Eb/N0 of a grid: the sum over d of
    (w / n) * (count_d / C(n, w)) * Q(sqrt(2 R Eb/N0 d)).  Each
    coefficient is divided once for the whole grid."""
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
    # map stops at the shorter list: Q past the first 0.0 adds nothing
    return tuple(
        math.fsum(map(mul, coefficients, _tails(_scale(rate, db), distances)))
        for db in ebn0_db)


def union_bound_term(b: IowefSlice, n: int, rate, ebn0_db: float) -> float:
    """Contribution P(w) of one input weight to the union bound at one
    Eb/N0: union_bound_curve on a one-point grid."""
    return union_bound_curve(b, n, rate, (ebn0_db,))[0]


def p2_slice(config: PcccConfig, horizon: float = math.inf) -> IowefSlice:
    """Distance spectrum of the dominant weight-2 term below horizon,
    closed forms only."""
    a1, a2 = (cwef_w2_punctured(*c, config.n, horizon)
              for c in config.constituents())
    return distance_spectrum(a1, a2, config.n, 2, horizon)


def _as_points(raw_values, ebn0_db) -> tuple[BoundPoint, ...]:
    return tuple(
        BoundPoint(db, min(v, 1.0), v > 1.0, v)
        for db, v in zip(ebn0_db, raw_values))


def p2_approximation(config: PcccConfig, ebn0_db) -> BoundCurve:
    """Dominant-term approximation of the bit-error union bound."""
    ebn0_db = tuple(float(db) for db in ebn0_db)
    if not ebn0_db:
        raise ValueError("need at least one SNR point")
    # no distance at or past D* of the lowest point adds to any P(2)
    sl = p2_slice(config, q_horizon(config.rate, min(ebn0_db)))
    raw = union_bound_curve(sl, config.n, config.rate, ebn0_db)
    return BoundCurve(_as_points(raw, ebn0_db), label="p2")


@dataclass(frozen=True)
class TruncatedBound:
    curve: BoundCurve
    truncated: bool
    # raw per-weight contributions, same ordering as curve.points
    per_weight: dict[int, tuple[float, ...]]


def truncated_union_bound(config: PcccConfig, w_max: int = DEFAULT_W_MAX,
                          d_max: int = DEFAULT_D_MAX, ebn0_db=()) -> TruncatedBound:
    """Union bound over input weights 2..w_max, distances capped at d_max.

    Constituent enumerators come from the exact trellis pass, so every
    retained term is exact; dropped mass is reported via the flag.
    """
    ebn0_db = tuple(float(db) for db in ebn0_db)
    if not ebn0_db:
        raise ValueError("need at least one SNR point")
    if w_max < 2:
        raise ValueError("w_max must be at least 2")
    if d_max < 1:
        raise ValueError("d_max must be positive")
    # the smallest weight-2 distance: constituent 1's smallest u + z plus
    # constituent 2's smallest z, also when either of them is 0
    m1, m2 = (weight2_minima(*c, config.n) for c in config.constituents())
    if m1[0] + m2[1] > d_max:
        raise ValueError(
            f"d_max={d_max} is below the smallest weight-2 distance; "
            "the bound would be vacuous")
    r1, r2 = (exact_cwef_dp(*c, config.n, w_max, d_max)
              for c in config.constituents())
    truncated = r1.truncated or r2.truncated
    per_weight: dict[int, tuple[float, ...]] = {}
    for w in range(2, w_max + 1):
        sl = distance_spectrum(r1.for_weight(w), r2.for_weight(w), config.n, w)
        kept = {d: c for d, c in sl.coeffs.items() if d <= d_max}
        if len(kept) < len(sl.coeffs):
            truncated = True
        sl = IowefSlice(w, kept)
        per_weight[w] = union_bound_curve(sl, config.n, config.rate, ebn0_db)
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
    """Smallest transmitted weight reachable by a weight-2 input pair.

    Returns 0 (with a warning) when either constituent admits a
    zero-weight event, the catastrophic-puncturing case.
    """
    dfree = d_free_eff(*(weight2_minima(*c, config.n) for c in config.constituents()))
    if dfree == 0:
        warnings.warn("catastrophic puncturing: weight-2 event with zero "
                      "transmitted weight", stacklevel=2)
    return dfree
