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
from functools import lru_cache
from math import comb

from .cwef import Cwef, cwef_w2_punctured, min_weights
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


@dataclass(frozen=True)
class IowefSlice:
    """Distance spectrum {d: count} of input weight w.  Behind a uniform
    interleaver of size n the coefficient of distance d is
    count / C(n, w)."""

    w: int
    coeffs: dict[int, int]

    def min_distance(self) -> int:
        if not self.coeffs:
            raise ValueError("empty distance spectrum")
        return min(self.coeffs)


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


def _marginal(a: Cwef, u_weight: int) -> dict[int, int]:
    """Counts of a summed by u_weight * u + z: by distance u + z for 1,
    by parity weight alone for 0."""
    out: dict[int, int] = {}
    for (u, z), c in a.terms.items():
        key = u_weight * u + z
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


def distance_spectrum(a1: Cwef, a2: Cwef, n: int, w: int) -> IowefSlice:
    """Distance spectrum of the concatenation behind the uniform
    interleaver, iowef_slice(combine_uniform_interleaver(a1, a2, n, w)),
    in one product: a1 projected onto d = u + z convolved with a2
    projected onto z."""
    _check_pair(a1, a2, n, w)
    if not a1.terms or not a2.terms:
        return IowefSlice(w, {})
    return IowefSlice(w, dict(_convolve(_marginal(a1, 1), _marginal(a2, 0))))


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


def union_bound_term(b: IowefSlice, n: int, rate, ebn0_db: float) -> float:
    """Contribution P(w) of one input weight to the union bound: the sum
    over d of (w / n) * (count_d / C(n, w)) * Q(sqrt(2 R Eb/N0 d))."""
    rate = Fraction(rate)
    if not 0 < rate < 1:
        raise ValueError(f"rate {rate} outside (0, 1)")
    if n < 1:
        raise ValueError("block length must be positive")
    scale = 2.0 * float(rate) * 10.0 ** (ebn0_db / 10.0)
    denom = n * comb(n, b.w)
    summands = []
    for d, c in sorted(b.coeffs.items()):
        q = q_function(math.sqrt(scale * d))
        if q == 0.0:
            # Q does not increase with d, so every later summand is 0.0
            break
        # int / int is correctly rounded: float(Fraction(b.w * c, denom))
        summands.append(b.w * c / denom * q)
    return math.fsum(summands)


# one entry: `bound` asks for d_free_eff and then for P(2) of one config
@lru_cache(maxsize=1)
def constituent_cwefs_w2(config: PcccConfig) -> tuple[Cwef, Cwef]:
    c1 = config.punctures.constituent1()
    c2 = config.punctures.constituent2()
    return (cwef_w2_punctured(config.code1, c1.p_u, c1.p_z, config.n),
            cwef_w2_punctured(config.code2, c2.p_u, c2.p_z, config.n))


def p2_slice(config: PcccConfig) -> IowefSlice:
    """Distance spectrum of the dominant weight-2 term, closed forms only."""
    a1, a2 = constituent_cwefs_w2(config)
    return distance_spectrum(a1, a2, config.n, 2)


def _as_points(raw_values, ebn0_db) -> tuple[BoundPoint, ...]:
    return tuple(
        BoundPoint(db, min(v, 1.0), v > 1.0, v)
        for db, v in zip(ebn0_db, raw_values))


def p2_approximation(config: PcccConfig, ebn0_db) -> BoundCurve:
    """Dominant-term approximation of the bit-error union bound."""
    ebn0_db = tuple(float(db) for db in ebn0_db)
    if not ebn0_db:
        raise ValueError("need at least one SNR point")
    sl = p2_slice(config)
    raw = [union_bound_term(sl, config.n, config.rate, db) for db in ebn0_db]
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
    c1 = config.punctures.constituent1()
    c2 = config.punctures.constituent2()
    r1 = exact_cwef_dp(config.code1, c1.p_u, c1.p_z, config.n, w_max, d_max)
    r2 = exact_cwef_dp(config.code2, c2.p_u, c2.p_z, config.n, w_max, d_max)
    truncated = r1.truncated or r2.truncated
    per_weight: dict[int, tuple[float, ...]] = {}
    for w in range(2, w_max + 1):
        sl = distance_spectrum(r1.for_weight(w), r2.for_weight(w), config.n, w)
        kept = {d: c for d, c in sl.coeffs.items() if d <= d_max}
        if len(kept) < len(sl.coeffs):
            truncated = True
        if w == 2 and not kept:
            raise ValueError(
                f"d_max={d_max} is below the smallest weight-2 distance; "
                "the bound would be vacuous")
        sl = IowefSlice(w, kept)
        per_weight[w] = tuple(
            union_bound_term(sl, config.n, config.rate, db) for db in ebn0_db)
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
    dfree = d_free_eff(*map(min_weights, constituent_cwefs_w2(config)))
    if dfree == 0:
        warnings.warn("catastrophic puncturing: weight-2 event with zero "
                      "transmitted weight", stacklevel=2)
    return dfree
