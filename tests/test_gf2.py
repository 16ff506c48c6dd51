"""Polynomial arithmetic and m-sequence generation."""

import pytest

from turbobound.gf2 import (BinaryPolynomial, from_octal, is_primitive,
                            lfsr_sequence, period)


def poly_mod(a, b):
    """Remainder of a modulo b, both taken as GF(2) polynomials."""
    db = b.bit_length()
    while a and a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def is_irreducible(bits):
    """Trial division by every polynomial of degree 1..deg/2."""
    nu = bits.bit_length() - 1
    return nu >= 1 and all(poly_mod(bits, q) for q in range(2, 1 << (nu // 2 + 1)))


def order_of_d(bits):
    """Smallest L with p | D^L + 1: the first L where D^L mod p is 1."""
    ell, r = 1, poly_mod(2, bits)
    while r != 1:
        ell, r = ell + 1, poly_mod(r << 1, bits)
    return ell


def test_octal_round_trip():
    p = from_octal("15")
    assert p.bits == 0o15
    assert p.to_octal() == "15"
    assert p.degree == 3
    assert p.constant_term == 1


@pytest.mark.parametrize("bad", ["", "  ", "8", "19", "0x5", "0"])
def test_from_octal_rejects(bad):
    with pytest.raises(ValueError):
        from_octal(bad)


def test_polynomial_bounds():
    with pytest.raises(ValueError):
        BinaryPolynomial(0)
    with pytest.raises(ValueError):
        BinaryPolynomial(-3)
    with pytest.raises(ValueError):
        BinaryPolynomial(1 << 25)  # degree 25 > supported 24
    BinaryPolynomial(1 << 24)  # degree 24 is the last accepted


# irreducibility and primitivity of the generators used elsewhere:
# 17 = (1+D)^3, 5 = (1+D)^2, 35 = (1+D)(1+D+D^3),
# 37 = D^4+D^3+D^2+D+1 is irreducible but has order 5
@pytest.mark.parametrize("octal,irred,prim", [
    ("7", True, True),
    ("15", True, True),
    ("13", True, True),
    ("23", True, True),
    ("31", True, True),
    ("45", True, True),
    ("5", False, False),
    ("17", False, False),
    ("35", False, False),
    ("37", True, False),
])
def test_irreducible_primitive(octal, irred, prim):
    p = from_octal(octal)
    assert is_irreducible(p.bits) is irred
    assert is_primitive(p) is prim


def test_period_and_primitivity_exhaustive():
    # every polynomial of degree 1..10 with constant term 1, against
    # remainders of D^L + 1 and trial-division irreducibility
    for bits in range(3, 1 << 11, 2):
        p = BinaryPolynomial(bits)
        ell = order_of_d(bits)
        assert period(p) == ell, bits
        full = (1 << p.degree) - 1
        assert is_primitive(p) is (is_irreducible(bits) and ell == full), bits


@pytest.mark.parametrize("octal,expected", [
    ("3", 1),
    ("7", 3),
    ("5", 2),
    ("15", 7),
    ("17", 4),
    ("23", 15),
    ("35", 7),
    ("37", 5),
])
def test_period(octal, expected):
    assert period(from_octal(octal)) == expected


def test_period_rejects():
    with pytest.raises(ValueError):
        period(BinaryPolynomial(1))  # constant
    with pytest.raises(ValueError):
        period(BinaryPolynomial(2))  # divisible by D


def test_lfsr_golden_sequences():
    assert lfsr_sequence(from_octal("15"), 7) == [1, 1, 1, 0, 1, 0, 0]
    assert lfsr_sequence(from_octal("7"), 6) == [1, 1, 0, 1, 1, 0]
    # the sequence repeats with period 2^nu - 1
    assert lfsr_sequence(from_octal("15"), 14) == [1, 1, 1, 0, 1, 0, 0] * 2


@pytest.mark.parametrize("octal", ["7", "15", "13", "23", "31", "45", "103"])
def test_lfsr_msequence_properties(octal):
    p = from_octal(octal)
    nu = p.degree
    length = (1 << nu) - 1
    seq = lfsr_sequence(p, 3 * length)
    assert seq[length:2 * length] == seq[:length]
    assert sum(seq[:length]) == 1 << (nu - 1)
    assert seq[length - 1] == 0
    # two-level autocorrelation of the +/-1 mapped sequence
    pm = [1 - 2 * b for b in seq[:length]]
    for shift in range(length):
        corr = sum(pm[i] * pm[(i + shift) % length] for i in range(length))
        assert corr == (length if shift == 0 else -1)


def test_lfsr_rejects():
    with pytest.raises(ValueError):
        lfsr_sequence(from_octal("15"), 0)
    with pytest.raises(ValueError):
        lfsr_sequence(from_octal("3"), 5)  # degree 1
    with pytest.raises(ValueError, match="not primitive"):
        lfsr_sequence(from_octal("5"), 5)
    with pytest.raises(ValueError, match="not primitive"):
        lfsr_sequence(from_octal("17"), 5)
