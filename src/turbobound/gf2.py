"""Binary polynomial arithmetic over GF(2) and m-sequence generation.

A polynomial is stored as a nonnegative integer whose bit j is the
coefficient of D^j.  Octal notation follows the same rule, so "15"
(binary 1101) denotes D^3 + D^2 + 1 and "17" denotes D^3 + D^2 + D + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_DEGREE = 24


@dataclass(frozen=True)
class BinaryPolynomial:
    """Polynomial over GF(2), bit j of ``bits`` = coefficient of D^j."""

    bits: int

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError("polynomial must be non-zero")
        if self.degree > MAX_DEGREE:
            raise ValueError(f"degree {self.degree} exceeds supported maximum {MAX_DEGREE}")

    @property
    def degree(self) -> int:
        return self.bits.bit_length() - 1

    @property
    def constant_term(self) -> int:
        return self.bits & 1

    def to_octal(self) -> str:
        return format(self.bits, "o")


def from_octal(text: str) -> BinaryPolynomial:
    """Parse an octal generator string such as "15" or "17"."""
    text = text.strip()
    if not text or any(c not in "01234567" for c in text):
        raise ValueError(f"not an octal generator string: {text!r}")
    value = int(text, 8)
    if value == 0:
        raise ValueError("zero polynomial is not a valid generator")
    return BinaryPolynomial(value)


def period(p: BinaryPolynomial) -> int:
    """Smallest L >= 1 such that p divides D^L + 1: the order of D modulo p.

    Defined for polynomials with a non-zero constant term.  Walks the
    powers D^L mod p one by one, so it costs O(L) steps, at most
    2^nu - 1 of them.
    """
    if p.degree < 1:
        raise ValueError("period is undefined for constant polynomials")
    if p.constant_term == 0:
        raise ValueError("period requires a non-zero constant term (D must not divide p)")
    bound = (1 << p.degree) - 1
    r = 1
    for ell in range(1, bound + 1):
        r <<= 1
        if r.bit_length() == p.bits.bit_length():
            r ^= p.bits
        if r == 1:
            return ell
    raise AssertionError("unreachable: order of D exceeds 2^nu - 1")


def is_primitive(p: BinaryPolynomial) -> bool:
    """A polynomial with a non-zero constant term is primitive exactly
    when D has order 2^nu - 1 modulo it (Lidl & Niederreiter, Finite
    Fields, ch. 3): D then generates every non-zero residue, so the
    residues form a field and p is irreducible."""
    if p.degree < 1:
        raise ValueError("primitivity is undefined for constant polynomials")
    if p.constant_term == 0:
        return False
    return period(p) == (1 << p.degree) - 1


def lfsr_sequence(p: BinaryPolynomial, length: int) -> list[int]:
    """Output of the Fibonacci LFSR whose characteristic polynomial is p.

    The register is seeded with the state reached from all-zero by a
    single 1 input (state 2^(nu-1)); each step emits the top register
    bit and shifts.  For primitive p the output is a maximal-length
    sequence of period 2^nu - 1 containing 2^(nu-1) ones per period,
    and the last bit of each period is 0.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if p.degree < 2:
        raise ValueError("LFSR sequence requires degree >= 2")
    if not is_primitive(p):
        raise ValueError(f"polynomial {p.to_octal()} (octal) is not primitive")
    nu = p.degree
    taps = p.bits & ((1 << nu) - 1)
    state = 1 << (nu - 1)
    out = []
    for _ in range(length):
        out.append((state >> (nu - 1)) & 1)
        fb = (state & taps).bit_count() & 1
        state = (fb << (nu - 1)) | (state >> 1)
    return out
