"""Puncturing patterns: parsing, pseudo-random construction, rates,
shifted core weights, and catastrophic/semi-catastrophic screening.

A pattern row is a tuple of keep flags (1 = transmit, 0 = drop), the
leftmost entry being column m = 1.  Rows repeat periodically:
p_{i,m+jM} = p_{i,m}.  as_row validates a row; the helpers that take a
Row trust it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm

from .gf2 import lfsr_sequence
from .rsc import RscCode, weight2_parity_response

Row = tuple[int, ...]


def as_row(row) -> Row:
    out = tuple(int(b) for b in row)
    if not out or any(b not in (0, 1) for b in out):
        raise ValueError("pattern row must be non-empty with 0/1 entries")
    return out


def row_from_string(text: str) -> Row:
    """Parse a bit-string row such as "0111010" (leftmost = column 1)."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"pattern row must be a non-empty 0/1 string, got {text!r}")
    return tuple(int(c) for c in text)


def row_to_string(row: Row) -> str:
    return "".join(str(b) for b in row)


def complement_row(row: Row) -> Row:
    return tuple(1 - b for b in row)


def extend_row(row: Row, length: int) -> Row:
    if length % len(row):
        raise ValueError(f"cannot extend a period-{len(row)} row to length {length}")
    return row * (length // len(row))


@dataclass(frozen=True)
class PuncturingPattern:
    """A 2 x M keep/drop matrix: systematic row over parity row."""

    p_u: Row
    p_z: Row

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_u", as_row(self.p_u))
        object.__setattr__(self, "p_z", as_row(self.p_z))
        if len(self.p_u) != len(self.p_z):
            raise ValueError("pattern rows must share one period")

    @property
    def period(self) -> int:
        return len(self.p_u)


@dataclass(frozen=True)
class PcccPunctureSet:
    """Keep/drop rows for the three transmitted streams of a PCCC.

    The second encoder's systematic output is never transmitted, so its
    constituent pattern carries an all-zero systematic row.
    """

    sys: Row
    par1: Row
    par2: Row

    def __post_init__(self) -> None:
        object.__setattr__(self, "sys", as_row(self.sys))
        object.__setattr__(self, "par1", as_row(self.par1))
        object.__setattr__(self, "par2", as_row(self.par2))

    @property
    def period(self) -> int:
        return lcm(len(self.sys), len(self.par1), len(self.par2))

    def constituent1(self) -> PuncturingPattern:
        m = lcm(len(self.sys), len(self.par1))
        return PuncturingPattern(extend_row(self.sys, m), extend_row(self.par1, m))

    def constituent2(self) -> PuncturingPattern:
        m = len(self.par2)
        return PuncturingPattern((0,) * m, self.par2)


def code_rate(punctures: PcccPunctureSet) -> Fraction:
    """Information bits per transmitted bit over one full period, exact."""
    m = punctures.period
    kept = sum(extend_row(punctures.sys, m)) + \
        sum(extend_row(punctures.par1, m)) + sum(extend_row(punctures.par2, m))
    if kept == 0:
        raise ValueError("all outputs punctured: code rate is degenerate")
    return Fraction(m, kept)


def punctured_core_weights(code: RscCode, p_z) -> list[int]:
    """Parity weight of the open weight-2 excursion under each of the M
    circular shifts of the parity row: z_core^m for m = 1..M.

    Each z_core^m reads the response bits y_1..y_{L-1} against the row
    from column m on, wrapping round.  So the response is first folded
    by residue mod M, in O(L): entry r counts the ones that an excursion
    entered in column m sends in column m + 1 + r.  Only the first
    min(L - 1, M) entries can be nonzero, and the M sums, the cyclic
    correlation of the folded response with the row, read just those,
    in O(M min(L, M))."""
    return _core_weights(code, as_row(p_z))


def _core_weights(code: RscCode, p_z: Row) -> list[int]:
    """punctured_core_weights over a row its caller validated."""
    m_period = len(p_z)
    core = weight2_parity_response(code)[:code.period - 1]
    width = min(len(core), m_period)
    folded = [sum(core[r::m_period]) for r in range(width)]
    doubled = p_z + p_z
    # the row is 0/1, so each product sum is a sum of selected entries
    return [sum(compress(folded, doubled[m0:m0 + width]))
            for m0 in range(m_period)]


def pseudo_random_pattern(code: RscCode, variant: str,
                          keep_zero: int | None = None) -> PcccPunctureSet:
    """Build the rate-1/2 pseudo-random puncturing set for a primitive
    feedback polynomial.

    The parity row is the encoder's own m-sequence rotated one step
    right, which places the guaranteed zero readout of state 1 at
    column 1.  Variant A transmits the complement of that row on the
    systematic stream and leaves the second parity stream unpunctured.
    Variant B punctures both parity streams with the same row and keeps
    a single systematic zero; by default the zero in the highest
    column survives.  keep_zero selects a different surviving column
    (1-based; it must be a zero of the complement row).
    """
    seq = tuple(lfsr_sequence(code.feedback, code.period))
    p_z = (seq[-1],) + seq[:-1]
    comp = complement_row(p_z)
    if variant == "A":
        return PcccPunctureSet(comp, p_z, (1,) * code.period)
    if variant == "B":
        zero_columns = [m0 + 1 for m0, b in enumerate(comp) if b == 0]
        if keep_zero is None:
            keep = zero_columns[-1]
        elif keep_zero in zero_columns:
            keep = keep_zero
        else:
            raise ValueError(
                f"keep_zero must be one of {zero_columns}, got {keep_zero}")
        sys_row = tuple(0 if m0 + 1 == keep else 1 for m0 in range(code.period))
        return PcccPunctureSet(sys_row, p_z, p_z)
    raise ValueError(f"pseudo-random variant must be 'A' or 'B', got {variant!r}")


class Classification(enum.Enum):
    CATASTROPHIC = "Catastrophic"
    SEMI_CATASTROPHIC = "SemiCatastrophic"
    NORMAL = "Normal"

    def __str__(self) -> str:
        return self.value


def probe_length(code: RscCode, pattern_span: int) -> int:
    """Block length at which a weight-2 enumerator holds the smallest
    weights of the pattern: every span k*L + 1 with k up to one column
    cycle, lcm(L, M) / L, fits at every one of the M start columns.  A
    longer span ends in the same column as one cycle shorter, with
    non-negative weight added, so it never lowers a minimum."""
    cycle = lcm(code.period, pattern_span) // code.period
    return max(4 * code.period + 1,
               cycle * code.period + max(code.period + 1, pattern_span))


def classification(d_min: int, core_weights) -> Classification:
    """Catastrophic: some weight-2 path transmits zero total weight
    (d_min = 0).  Semi-catastrophic: some shift m leaves z_core^m = 0."""
    if d_min == 0:
        return Classification.CATASTROPHIC
    if min(core_weights) == 0:
        return Classification.SEMI_CATASTROPHIC
    return Classification.NORMAL


def classify(code: RscCode, p_u, p_z) -> Classification:
    """Screen a constituent pattern for catastrophic behaviour."""
    from .cwef import weight2_minima

    return classification(weight2_minima(code, p_u, p_z)[0],
                          punctured_core_weights(code, p_z))
