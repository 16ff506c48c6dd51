"""Rate-1/2 recursive systematic convolutional (RSC) encoder.

State convention: the state integer packs the register contents with the
most recently shifted-in bit as the most significant of nu bits.  A
single 1 input from the all-zero state therefore lands in state
2^(nu-1).  The register taps read the generator coefficients from the
high end, so with zero input the state recursion is the Fibonacci LFSR
whose characteristic polynomial is the feedback generator itself; the
encoder run with zero input literally is the pseudo-random generator of
its feedback polynomial.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

from .gf2 import BinaryPolynomial, from_octal, period


@dataclass(frozen=True)
class RscCode:
    """A (1, G_F/G_R) systematic recursive convolutional encoder."""

    feedback: BinaryPolynomial
    feedforward: BinaryPolynomial

    def __post_init__(self) -> None:
        if self.feedback.degree < 1:
            raise ValueError("feedback polynomial must have degree >= 1")
        if self.feedback.constant_term != 1 or self.feedforward.constant_term != 1:
            raise ValueError("generator polynomials must have constant term 1")
        if self.feedforward.degree > self.feedback.degree:
            raise ValueError("feedforward degree must not exceed the encoder memory")
        if self.feedback == self.feedforward:
            warnings.warn("feedback equals feedforward: parity reduces to the input",
                          stacklevel=2)

    @classmethod
    def from_octals(cls, feedback: str, feedforward: str) -> "RscCode":
        return cls(from_octal(feedback), from_octal(feedforward))

    @property
    def nu(self) -> int:
        """Memory size (number of delay elements)."""
        return self.feedback.degree

    @cached_property
    def period(self) -> int:
        """Period L of the feedback polynomial: the zero-input state cycle length."""
        return period(self.feedback)

    @cached_property
    def impulse_parity(self) -> tuple[int, ...]:
        """Parity bits y_0..y_L of a single 1 input from the zero state
        followed by L zero inputs; y_0 is the parity of the diverging
        transition."""
        state, _, first = step(self, 0, 1)
        resp = [first]
        for _ in range(self.period):
            state, _, p = step(self, state, 0)
            resp.append(p)
        if state != 1 << (self.nu - 1):
            raise AssertionError("state cycle did not close after one period")
        return tuple(resp)

    @property
    def n_states(self) -> int:
        return 1 << self.nu

    def label(self) -> str:
        return f"{self.feedback.to_octal()}/{self.feedforward.to_octal()}"


def step(code: RscCode, state: int, bit: int) -> tuple[int, int, int]:
    """Advance one time step; returns (next_state, systematic, parity)."""
    nu = code.nu
    if not 0 <= state < (1 << nu):
        raise ValueError(f"state {state} out of range for nu={nu}")
    if bit not in (0, 1):
        raise ValueError("input bit must be 0 or 1")
    low = (1 << nu) - 1
    a = bit ^ ((state & (code.feedback.bits & low)).bit_count() & 1)
    par = ((code.feedforward.bits >> nu) & a) ^ \
        ((state & (code.feedforward.bits & low)).bit_count() & 1)
    return (a << (nu - 1)) | (state >> 1), bit, par


def encode(code: RscCode, bits) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Encode an input block from the all-zero state, no termination tail."""
    state = 0
    sys_out, par_out = [], []
    for b in bits:
        state, s, p = step(code, state, b)
        sys_out.append(s)
        par_out.append(p)
    return tuple(sys_out), tuple(par_out)


def weight2_parity_response(code: RscCode) -> tuple[int, ...]:
    """Parity bits y_1..y_L of the L zero-input steps after a single 1 input.

    The state walks 2^(nu-1) -> ... -> 1 -> 2^(nu-1), so y_L is the
    parity of the transition out of state 1; it is 0 whenever the
    feedforward polynomial has full degree nu.  Computed once per code.
    """
    return code.impulse_parity[1:]


def core_weight(code: RscCode) -> int:
    """Parity weight of the open weight-2 excursion, diverge and remerge
    transitions excluded: sum of y_1..y_{L-1}.  Equals 2^(nu-1) for a
    primitive feedback polynomial with G_F != G_R."""
    return sum(weight2_parity_response(code)[:-1])
