"""The Q horizon D* and the certified horizon: clipped weight-2 spectra
against the unclipped union sum.

D* is the first distance at which Q(sqrt(2 R Eb/N0 d)) is exactly 0.0 at
the lowest point of a grid.  No term at or past it can change a union
sum anywhere on the grid.  `bound` and `search` clip every P(2) spectrum
at a certified horizon h <= D*, prove that the counts past h cannot
change a sum, and rebuild up to D* when the proof fails, so each value
must stay == the union sum of the whole spectrum, float for float.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from turbobound import cli
from turbobound.cwef import cwef_w2_punctured, weight2_total
from turbobound.oracle import GRID_CODES
from turbobound.pccc import (IowefSlice, PcccConfig, certified_horizon,
                             certified_p2, distance_spectrum,
                             free_effective_distance, p2_approximation,
                             p2_slice, q_function, q_horizon,
                             union_bound_curve, union_bound_term)
from turbobound.puncture import PcccPunctureSet, pseudo_random_pattern
from turbobound.rsc import RscCode
from test_oracle_differential import codes
from test_spectrum_arithmetic import walked_union_curve

CODE_23_35 = RscCode.from_octals("23", "35")
CODE_15_17 = RscCode.from_octals("15", "17")


def run(capsys, *argv):
    code = cli.entrypoint(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unclipped_p2(config, ebn0_db):
    # the whole n-length spectrum, each point walked to its first Q of 0.0
    a1, a2 = (cwef_w2_punctured(*c, config.n) for c in config.constituents())
    b = distance_spectrum(a1, a2)
    return list(walked_union_curve(b, config.n, config.rate, ebn0_db))


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
    """Rows of period <= 6, catastrophic ones too; encoder 2 is encoder 1
    or another code, as --gr2/--gf2 give it; n is often the least
    block, L + 1."""
    code = draw(codes())
    code2 = draw(st.one_of(st.just(code), codes()))
    row = st.integers(1, 6).flatmap(lambda m: st.tuples(*[st.integers(0, 1)] * m))
    pset = PcccPunctureSet(draw(row), draw(row), draw(row))
    least = max(code.period, code2.period) + 1
    n = draw(st.one_of(st.just(least), st.integers(least, 3000)))
    try:
        return PcccConfig(code, code2, pset, n)
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
    whole = distance_spectrum(*full).coeffs
    assert distance_spectrum(*clipped, horizon).coeffs == {
        d: c for d, c in whole.items() if d < horizon}


@settings(max_examples=200, deadline=None)
@given(configs(), st.floats(-8.0, 40.0), st.integers(1, 6),
       st.sampled_from((0.25, 0.5, 3.0)))
@example(PcccConfig(CODE_23_35, CODE_23_35,
                    pseudo_random_pattern(CODE_23_35, "A"), 2000),
         -2.0, 5, 0.5)
# catastrophic: a zero-weight event in each constituent, d_min = 0
@example(PcccConfig(CODE_15_17, CODE_15_17,
                    PcccPunctureSet((0, 0, 0, 1, 1, 1, 1), (0, 0, 1, 0, 0, 0, 1),
                                    (0, 0, 0, 1, 0, 0, 1)), 300), -8.0, 6, 3.0)
# --gr2/--gf2: encoder 2 differs, and n is its least block
@example(PcccConfig(CODE_15_17, CODE_23_35, PcccPunctureSet((1,), (1, 0), (0, 1)),
                    16), 0.0, 6, 3.0)
def test_horizon_p2_equals_the_unclipped_sum(config, start, points, step):
    grid = tuple(start + i * step for i in range(points))
    got = [p.raw for p in p2_approximation(config, grid).points]
    assert got == unclipped_p2(config, grid)


@settings(max_examples=100, deadline=None)
@given(configs(), st.floats(-8.0, 40.0), st.integers(0, 400))
def test_search_p2_equals_the_unclipped_sum_whatever_its_d_min(config, db, d_min):
    # d_min only steers the horizon: too small a one risks a rebuild at
    # D*, too large a one keeps more of the spectrum
    rows = (config.punctures.sys, config.punctures.par1, config.punctures.par2)
    assert cli._search_p2(config.code1, config.code2, [rows], config.n, config.rate,
                          db, d_min) == unclipped_p2(config, (db,))


def test_a_rest_that_could_change_a_sum_forces_the_rebuild_at_d_star():
    config = PcccConfig(CODE_23_35, CODE_23_35,
                        pseudo_random_pattern(CODE_23_35, "A"), 4000)
    grid = (0.0, 2.0, 4.0)
    total = weight2_total(CODE_23_35, 4000) ** 2
    horizon = certified_horizon(config.rate, grid[0], 16, total)
    assert 16 < horizon < q_horizon(config.rate, grid[0]) == 1481
    clipped = p2_slice(config, horizon)
    rest = total - sum(clipped.coeffs.values())
    assert rest > 0
    assert union_bound_curve(clipped, 4000, config.rate, grid, rest, horizon) == tuple(
        unclipped_p2(config, grid))
    # a rest 2**200 times too large cannot be proved harmless
    assert union_bound_curve(clipped, 4000, config.rate, grid, rest << 200, horizon) is None
    built = []

    def spectrum(h):
        built.append(h)
        return p2_slice(config, h)

    got = certified_p2(spectrum, total << 200, 4000, config.rate, grid, horizon)
    assert built == [horizon, 1481]
    assert list(got) == unclipped_p2(config, grid)


@pytest.mark.parametrize("rate", [Fraction(1, 2), Fraction(2, 3)])
@pytest.mark.parametrize("ebn0_db", [-4000.0, -1000.0, -3.0, 0.0, 6.0, 40.0])
@pytest.mark.parametrize("d_min", [0, 16, 5000])
def test_certified_horizon_is_the_first_distance_under_the_target(rate, ebn0_db, d_min):
    total = 10**12
    d_star = q_horizon(rate, ebn0_db)
    h = certified_horizon(rate, ebn0_db, d_min, total)
    target = 2.0**-62 * q_at(rate, ebn0_db, d_min) / total
    if d_star == math.inf or target == 0.0:
        assert h == d_star  # the whole spectrum, or everything Q keeps
        return
    assert d_min < h <= d_star
    assert q_at(rate, ebn0_db, h) < target <= q_at(rate, ebn0_db, h - 1)


@pytest.mark.parametrize("octals", GRID_CODES, ids="/".join)
def test_weight2_total_counts_every_enumerator(octals):
    code = RscCode.from_octals(*octals)
    # at 10^5 the all-zero rows add no parity per column cycle, so their
    # progressions run through thousands of cycles
    for n in (*range(code.period + 1, 301), 10**5):
        want = weight2_total(code, n)
        for p_u, p_z in (((1,), (1,)), ((0, 1), (1, 1, 0)), ((0,), (0,))):
            assert cwef_w2_punctured(code, p_u, p_z, n).total() == want


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
    contenders = [((1, 0, 1), (0, 1, 1), (1, 1, 0)), ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
                  ((0, 1, 1), (1, 0, 1), (1, 1, 0)), ((1, 0, 0), (0, 1, 1), (1, 1, 1))]
    n, rate = 600, Fraction(1, 2)
    want = []
    for rows in contenders:
        config = PcccConfig(code, code, PcccPunctureSet(*rows), n)
        assert config.rate == rate
        want += unclipped_p2(config, (db,))
    assert cli._search_p2(code, code, contenders, n, rate, db, 0) == want


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
