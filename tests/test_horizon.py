"""The Q horizon D*: clipped weight-2 spectra against the unclipped union
sum.

D* is the first distance at which Q(sqrt(2 R Eb/N0 d)) is exactly 0.0 at
the lowest point of a grid.  No term at or past it can change a union
sum anywhere on the grid, so `bound` and `search` clip every P(2)
spectrum there, and each value must stay == the union sum of the whole
spectrum, float for float.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from turbobound import cli
from turbobound.cwef import cwef_w2_punctured
from turbobound.gf2 import BinaryPolynomial
from turbobound.pccc import (IowefSlice, PcccConfig, distance_spectrum,
                             free_effective_distance, p2_approximation,
                             q_function, q_horizon, union_bound_curve,
                             union_bound_term)
from turbobound.puncture import PcccPunctureSet, pseudo_random_pattern
from turbobound.rsc import RscCode

CODE_23_35 = RscCode.from_octals("23", "35")


def run(capsys, *argv):
    code = cli.entrypoint(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unclipped_p2(config, ebn0_db):
    # the whole n-length spectrum, one union_bound_term per grid point
    a1, a2 = (cwef_w2_punctured(*c, config.n) for c in config.constituents())
    b = distance_spectrum(a1, a2, config.n, 2)
    return [union_bound_term(b, config.n, config.rate, db) for db in ebn0_db]


def q_at(rate, ebn0_db, d):
    return q_function(math.sqrt(2.0 * float(rate) * 10.0 ** (ebn0_db / 10.0) * d))


@pytest.mark.parametrize("rate", [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)])
@pytest.mark.parametrize("ebn0_db", [-10.0, -2.0, 0.0, 0.5, 6.0, 20.0, 34.0])
def test_q_horizon_is_the_first_underflow(rate, ebn0_db):
    d_star = q_horizon(rate, ebn0_db)
    assert q_at(rate, ebn0_db, d_star) == 0.0
    assert q_at(rate, ebn0_db, d_star - 1) > 0.0


def test_q_horizon_values():
    assert q_horizon(Fraction(1, 2), 0.0) == 1481
    assert 14_700 < q_horizon(Fraction(1, 2), -10.0) < 14_900
    # far below 0 dB D* outgrows every block; at -4000 dB 2 R Eb/N0 is
    # 0.0 in floats, Q is 0.5 at every distance and nothing is clipped
    assert 10**102 < q_horizon(Fraction(1, 2), -1000.0) < 10**104
    assert q_horizon(Fraction(1, 2), -4000.0) == math.inf
    with pytest.raises(ValueError, match="finite"):
        q_horizon(Fraction(1, 2), math.nan)


@st.composite
def configs(draw):
    nu = draw(st.integers(1, 4))
    feedback = 1 | 1 << nu | draw(st.integers(0, (1 << (nu - 1)) - 1)) << 1
    feedforward = 1 | draw(st.integers(0, (1 << nu) - 1)) << 1
    assume(feedforward != feedback)
    code = RscCode(BinaryPolynomial(feedback), BinaryPolynomial(feedforward))
    row = st.integers(1, 6).flatmap(lambda m: st.tuples(*[st.integers(0, 1)] * m))
    pset = PcccPunctureSet(draw(row), draw(row), draw(row))
    n = draw(st.integers(code.period + 1, 3000))
    try:
        return PcccConfig(code, code, pset, n)
    except ValueError:  # nothing kept, or a rate of 1 or more
        assume(False)


@settings(max_examples=150, deadline=None)
@given(configs(), st.integers(0, 300))
def test_clipped_enumerators_and_spectrum_are_exact_below_the_horizon(
        config, horizon):
    # the span loop may stop early, but every term below the horizon stays
    n = config.n
    full = [cwef_w2_punctured(*c, n) for c in config.constituents()]
    clipped = [cwef_w2_punctured(*c, n, horizon) for c in config.constituents()]
    for a, b in zip(full, clipped):
        assert ({key: c for key, c in b.terms.items() if key[1] < horizon}
                == {key: c for key, c in a.terms.items() if key[1] < horizon})
    whole = distance_spectrum(*full, n, 2).coeffs
    assert distance_spectrum(*clipped, n, 2, horizon).coeffs == {
        d: c for d, c in whole.items() if d < horizon}


@settings(max_examples=120, deadline=None)
@given(configs(), st.floats(-8.0, 30.0), st.integers(1, 6),
       st.sampled_from((0.25, 0.5, 3.0)))
@example(PcccConfig(CODE_23_35, CODE_23_35,
                    pseudo_random_pattern(CODE_23_35, "A"), 2000),
         -2.0, 5, 0.5)
def test_horizon_p2_equals_the_unclipped_sum(config, start, points, step):
    grid = tuple(start + i * step for i in range(points))
    got = [p.raw for p in p2_approximation(config, grid).points]
    assert got == unclipped_p2(config, grid)


def test_d_free_eff_past_the_horizon():
    # 23/35 pseudo A has d_free_eff 16; from 30 dB on D* is 2, so the
    # clipped spectrum is empty and every P(2) is 0.0 either way
    config = PcccConfig(CODE_23_35, CODE_23_35,
                        pseudo_random_pattern(CODE_23_35, "A"), 5000)
    grid = (30.0, 40.0, 3000.0)
    assert q_horizon(config.rate, grid[0]) <= free_effective_distance(config)
    got = [p.raw for p in p2_approximation(config, grid).points]
    assert got == unclipped_p2(config, grid) == [0.0, 0.0, 0.0]


spectra = st.lists(
    st.dictionaries(st.integers(0, 3000), st.integers(1, 2**80), max_size=30)
    .map(lambda coeffs: IowefSlice(2, coeffs)),
    max_size=8)


@settings(max_examples=150, deadline=None)
@given(spectra, st.floats(-3.0, 40.0), st.sampled_from((Fraction(1, 2), Fraction(2, 3))))
def test_spectrum_clipped_at_d_star_keeps_each_term(bs, ebn0_db, rate):
    # search clips every contender at its chunk's D*; spectra reach past it
    d_star = q_horizon(rate, ebn0_db)
    for b in bs:
        clipped = IowefSlice(b.w, {d: c for d, c in b.coeffs.items() if d < d_star})
        assert (union_bound_term(clipped, 5000, rate, ebn0_db)
                == union_bound_term(b, 5000, rate, ebn0_db))


def test_union_bound_curve_is_pointwise():
    b = IowefSlice(3, {d: d**3 for d in range(5, 900)})
    grid = (-3.0, 0.0, 2.5, 7.0, 21.0)
    assert union_bound_curve(b, 1000, Fraction(1, 2), grid) == tuple(
        union_bound_term(b, 1000, Fraction(1, 2), db) for db in grid)


@pytest.mark.parametrize("db", [6.0, 0.0, -1000.0, 3000.0])
def test_search_tie_break_equals_union_bound_term(db):
    code = RscCode.from_octals("15", "17")
    chunk = [((1, 0, 1), (0, 1, 1), (1, 1, 0)), ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
             ((0, 1, 1), (1, 0, 1), (1, 1, 0)), ((1, 0, 0), (0, 1, 1), (1, 1, 1))]
    n, rate = 600, Fraction(1, 2)
    want = []
    for rows in chunk:
        config = PcccConfig(code, code, PcccPunctureSet(*rows), n)
        assert config.rate == rate
        want += unclipped_p2(config, (db,))
    assert cli._search_p2((code, code, chunk, n, rate, db)) == want


@pytest.mark.parametrize("argv", [
    ("search", "--gr1", "15", "--gf1", "17", "--rate", "1/2", "--period", "4",
     "--n", "1000"),
    ("bound", "--gr1", "23", "--gf1", "35", "--pseudo", "A", "--n", "1000",
     "--wmax", "2"),
])
@pytest.mark.parametrize("snr", ["--snr=-1000", "--snr=-4000"])
def test_far_below_0_db_finishes_quickly(capsys, argv, snr):
    # D* is about 10^103 at -1000 dB and infinite at -4000 dB: no Q table
    # or spectrum may be sized by it
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, snr)
    assert time.perf_counter() - start < 5.0
    assert code == 0 and err == ""
