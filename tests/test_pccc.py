"""Uniform-interleaver combination, Gaussian tails and the bound pipeline."""

import math
import warnings
from fractions import Fraction
from math import comb

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from turbobound.cwef import Cwef, cwef_w2_punctured, min_weights
from turbobound.oracle import GRID_CODES
from turbobound.pccc import (BoundPoint, IowefSlice, PcccConfig, _convolve,
                             combine_uniform_interleaver, constituent_cwefs,
                             d_free_eff, free_effective_distance, iowef_slice,
                             p2_approximation, p2_slice, q_function, q_horizon,
                             truncated_union_bound, union_bound_term)
from turbobound.puncture import (PcccPunctureSet, code_rate, probe_length,
                                 pseudo_random_pattern)
from turbobound.rsc import RscCode, step

CODE_15_17 = RscCode.from_octals("15", "17")
PA = pseudo_random_pattern(CODE_15_17, "A")
PB = pseudo_random_pattern(CODE_15_17, "B")


def config_for(pattern, n, code=CODE_15_17):
    return PcccConfig(code, code, pattern, n)


def rel_err(got, want):
    return abs(got - want) / abs(want)


def test_config_validation():
    cfg = config_for(PA, 50)
    assert cfg.rate == Fraction(1, 2)
    assert config_for(PcccPunctureSet((1,), (1,), (1,)), 8).rate == Fraction(1, 3)
    with pytest.raises(ValueError, match="weight-2 event"):
        config_for(PA, 7)
    with pytest.raises(ValueError, match="degenerate"):
        config_for(PcccPunctureSet((0,), (0,), (0,)), 50)
    with pytest.raises(ValueError, match="outside"):
        # more information bits than transmitted bits
        config_for(PcccPunctureSet((0, 0), (1, 0), (0, 0)), 50)


def test_combine_single_terms():
    n = 12
    a1 = Cwef(2, n, {(2, 3): 4})
    a2 = Cwef(2, n, {(0, 5): 7})
    out = combine_uniform_interleaver(a1, a2, n, 2)
    # counts over the common denominator C(n, 2)
    assert out.terms == {(2, 8): 28}
    assert out.total() == 28
    sl = iowef_slice(out)
    assert sl.coeffs == {10: 28}
    assert min(sl.coeffs) == 10


def test_combine_projects_second_systematic():
    # the second encoder's systematic column never reaches the channel
    n = 10
    a1 = Cwef(2, n, {(2, 1): 1})
    a2 = Cwef(2, n, {(2, 4): 3, (0, 4): 2})
    out = combine_uniform_interleaver(a1, a2, n, 2)
    assert out.terms == {(2, 5): 5}


def test_combine_rejects():
    a1 = Cwef(2, 10, {})
    with pytest.raises(ValueError, match="weight mismatch"):
        combine_uniform_interleaver(a1, Cwef(3, 10, {}), 10, 2)
    with pytest.raises(ValueError, match="length mismatch"):
        combine_uniform_interleaver(a1, Cwef(2, 12, {}), 10, 2)


def enumerate_weight2(code, pu_row, pz_row, n):
    # literal walk over every pair of 1 positions, no closed forms
    terms = {}
    mu, mz = len(pu_row), len(pz_row)
    for i in range(n):
        for j in range(i + 1, n):
            state, z = 0, 0
            for t in range(n):
                state, _, p = step(code, state, 1 if t in (i, j) else 0)
                z += p * pz_row[t % mz]
            if state == 0:
                u = pu_row[i % mu] + pu_row[j % mu]
                terms[(u, z)] = terms.get((u, z), 0) + 1
    return terms


def test_combine_matches_double_enumeration():
    # both constituents enumerated pair by pair, then averaged by hand
    n = 50
    t1 = enumerate_weight2(CODE_15_17, PA.sys, PA.par1, n)
    t2 = enumerate_weight2(CODE_15_17, (0,) * 7, PA.par2, n)
    a1 = cwef_w2_punctured(CODE_15_17, PA.sys, PA.par1, n)
    a2 = cwef_w2_punctured(CODE_15_17, (0,) * 7, PA.par2, n)
    assert a1.terms == t1
    assert a2.terms == t2
    expected = {}
    for (u1, z1), c1 in t1.items():
        for (_, z2), c2 in t2.items():
            key = (u1, z1 + z2)
            expected[key] = expected.get(key, 0) + c1 * c2
    got = combine_uniform_interleaver(a1, a2, n, 2)
    assert got.terms == expected


def test_min_distance_matches_free_effective():
    assert min(p2_slice(config_for(PA, 50)).coeffs) == 10
    assert min(p2_slice(config_for(PB, 50)).coeffs) == 6


def test_q_function_basics():
    assert q_function(0.0) == 0.5
    for x in (0.3, 1.7, 4.2):
        assert q_function(-x) == 1.0 - q_function(x)
    xs = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0]
    vals = [q_function(x) for x in xs]
    assert vals == sorted(vals, reverse=True)
    assert all(v > 0.0 for v in vals)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            q_function(bad)


def test_q_function_against_integration():
    # oracle: numerically integrate the Gaussian density
    mp.mp.dps = 30
    want = mp.quad(lambda t: mp.e ** (-t * t / 2), [1, mp.inf]) / mp.sqrt(2 * mp.pi)
    assert rel_err(q_function(1.0), float(want)) < 1e-13


@pytest.mark.parametrize("x", [0.01, 0.3, 0.66, 1.5, 3.0, 5.0, 5.7, 10.0, 25.0])
def test_q_function_all_regimes(x):
    mp.mp.dps = 30
    want = float(mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2)
    assert rel_err(q_function(x), want) < 1e-12


def test_union_bound_term_single_coefficient():
    # one distance-10 codeword pair at n=100, rate 1/2, 2 dB: a count
    # of C(n, 2) over the denominator C(n, 2)
    sl = IowefSlice(2, {10: comb(100, 2)})
    got = union_bound_term(sl, 100, Fraction(1, 2), 2.0)
    mp.mp.dps = 30
    arg = mp.sqrt(2 * mp.mpf("0.5") * mp.mpf(10) ** mp.mpf("0.2") * 10)
    want = mp.mpf(2) / 100 * mp.erfc(arg / mp.sqrt(2)) / 2
    assert rel_err(got, float(want)) < 1e-12


def test_union_bound_term_edges():
    assert union_bound_term(IowefSlice(2, {}), 100, Fraction(1, 2), 3.0) == 0.0
    sl = IowefSlice(2, {6: 1})
    with pytest.raises(ValueError):
        union_bound_term(sl, 100, Fraction(0), 3.0)
    with pytest.raises(ValueError):
        union_bound_term(sl, 100, Fraction(1), 3.0)
    with pytest.raises(ValueError):
        union_bound_term(sl, 0, Fraction(1, 2), 3.0)


# frozen output of an independent pipeline: controller-form encoder
# realization, explicit pair enumeration, exact rationals and 50-digit
# Gaussian tails
P2_PSEUDO_A_1000_4DB = 1.0028892141423305e-9
P2_PSEUDO_A_10000_6DB = 4.8891808573532805e-14


def test_p2_frozen_goldens():
    got = p2_approximation(config_for(PA, 1000), (4.0,)).points[0]
    assert rel_err(got.value, P2_PSEUDO_A_1000_4DB) < 1e-12
    got = p2_approximation(config_for(PA, 10000), (6.0,)).points[0]
    assert rel_err(got.value, P2_PSEUDO_A_10000_6DB) < 1e-12


def test_p2_curve_shape():
    cfg = config_for(PA, 200)
    grid = (0.0, 2.0, 4.0, 6.0)
    curve = p2_approximation(cfg, grid)
    assert curve.label == "p2"
    assert tuple(p.ebn0_db for p in curve.points) == grid
    vals = [p.value for p in curve.points]
    assert vals == sorted(vals, reverse=True)
    assert not any(p.clamped for p in curve.points)
    with pytest.raises(ValueError):
        p2_approximation(cfg, ())


def test_bound_clamps_at_low_snr():
    # weight-2 alone never pushes past 1, but the full truncated sum does
    tb = truncated_union_bound(config_for(PA, 80), w_max=6, d_max=200,
                               ebn0_db=(-10.0,))
    pt = tb.curve.points[0]
    assert pt.clamped and pt.value == 1.0 and pt.raw > 1.0


def test_bound_curve_csv():
    curve = p2_approximation(config_for(PA, 100), (3.0,))
    lines = curve.to_csv().splitlines()
    assert lines[0] == "ebn0_db,value,clamped,label"
    assert lines[1].startswith("3,") and lines[1].endswith(",0,p2")


def test_truncated_bound_w2_equals_p2():
    cfg = config_for(PB, 80)
    grid = (2.0, 5.0)
    tb = truncated_union_bound(cfg, w_max=2, d_max=200, ebn0_db=grid)
    p2 = p2_approximation(cfg, grid)
    assert not tb.truncated
    assert [p.value for p in tb.curve.points] == [p.value for p in p2.points]
    assert tb.curve.label == "union_w2"
    assert set(tb.per_weight) == {2}


def test_truncated_bound_dominates_p2():
    cfg = config_for(PB, 80)
    grid = (2.0, 4.0, 6.0)
    tb = truncated_union_bound(cfg, w_max=3, d_max=200, ebn0_db=grid)
    p2 = p2_approximation(cfg, grid)
    assert set(tb.per_weight) == {2, 3}
    for tbp, p2p in zip(tb.curve.points, p2.points):
        assert tbp.raw > p2p.raw
    # the weight-2 share equals the dominant-term curve exactly
    assert list(tb.per_weight[2]) == [p.raw for p in p2.points]


def test_truncated_bound_flags_dropped_terms():
    cfg = config_for(PB, 80)
    full = truncated_union_bound(cfg, w_max=3, d_max=200, ebn0_db=(5.0,))
    tight = truncated_union_bound(cfg, w_max=3, d_max=30, ebn0_db=(5.0,))
    assert not full.truncated
    assert tight.truncated
    assert tight.curve.points[0].raw < full.curve.points[0].raw


def test_truncated_bound_and_ratio_in_60_digits():
    # the truncated-bound and ratio columns of `bound --gr1 23 --gf1 35
    # --pseudo A --n 100000 --wmax 3 --dmax 120` against the same exact
    # counts summed in 60-digit arithmetic; criterion 8's tolerance
    code = RscCode.from_octals("23", "35")
    cfg = PcccConfig(code, code, pseudo_random_pattern(code, "A"), 10**5)
    grid = tuple(0.5 * i for i in range(17))
    tb = truncated_union_bound(cfg, 3, 120, grid)
    p2 = p2_approximation(cfg, grid)
    (e1, _), (e2, _) = (constituent_cwefs(*c, cfg.n, 3, 120) for c in cfg.constituents())
    spectra = {w: [(d, c) for d, c in _convolve(e1[w], e2[w]) if d <= 120]
               for w in (2, 3)}
    # Q at D*, the horizon at 0 dB, is below 2^-1074, so the terms past
    # it change no sum in its first 60 digits
    whole = p2_slice(cfg, q_horizon(cfg.rate, 0.0)).coeffs.items()

    def union_sum(w, terms, db):
        scale = 2 * mp.mpf(cfg.rate.numerator) / cfg.rate.denominator \
            * mp.mpf(10) ** (mp.mpf(db) / 10)
        weight = mp.mpf(w) / (cfg.n * comb(cfg.n, w))
        return mp.fsum(weight * c * mp.erfc(mp.sqrt(scale * d / 2)) / 2
                       for d, c in terms)

    with mp.workdps(60):
        for db, tbp, p2p in zip(grid, tb.curve.points, p2.points):
            bound = union_sum(2, spectra[2], db) + union_sum(3, spectra[3], db)
            assert rel_err(tbp.raw, float(bound)) < 1e-12, db
            ratio = union_sum(2, whole, db) / bound
            assert rel_err(p2p.raw / tbp.raw, float(ratio)) < 1e-12, db


def test_truncated_bound_past_the_block_adds_zero():
    # a block of n holds no input of weight w > n, so those weights add
    # 0.0 and the bound is the one at w_max = n
    code = RscCode.from_octals("7", "5")
    cfg = PcccConfig(code, code, PcccPunctureSet((1,), (1,), (1,)), 4)
    grid = (0.0, 3.0, 6.0)
    at_n = truncated_union_bound(cfg, 4, 10, grid)
    past = truncated_union_bound(cfg, 6, 10, grid)
    assert past.per_weight == {**at_n.per_weight, 5: (0.0,) * 3, 6: (0.0,) * 3}
    assert past.curve.points == at_n.curve.points
    assert past.truncated == at_n.truncated
    assert union_bound_term(IowefSlice(5, {}), 4, Fraction(1, 3), 3.0) == 0.0


def test_truncated_bound_rejects():
    cfg = config_for(PB, 80)
    with pytest.raises(ValueError, match="at least one SNR"):
        truncated_union_bound(cfg, 3, 120, ())
    with pytest.raises(ValueError):
        truncated_union_bound(cfg, 1, 120, (3.0,))
    with pytest.raises(ValueError):
        truncated_union_bound(cfg, 3, 0, (3.0,))
    with pytest.raises(ValueError, match="vacuous"):
        # smallest weight-2 distance is 6
        truncated_union_bound(cfg, 2, 5, (3.0,))


@pytest.mark.parametrize("pattern", [
    PA, PB,
    # catastrophic: constituent 1 has a zero-weight event, so the smallest
    # distance is constituent 2's smallest z alone
    PcccPunctureSet((1, 0), (0, 0), (1, 1)),
])
def test_vacuous_dmax_is_the_smallest_spectrum_distance(pattern):
    cfg = config_for(pattern, 60)
    d_min = min(p2_slice(cfg).coeffs)
    with pytest.raises(ValueError, match="vacuous"):
        truncated_union_bound(cfg, 3, d_min - 1, (3.0,))
    tb = truncated_union_bound(cfg, 3, d_min, (3.0,))
    assert tb.per_weight[2][0] > 0.0


@pytest.mark.parametrize("pattern,expected", [
    (PA, 10),
    (PB, 6),
])
def test_free_effective_distance_15_17(pattern, expected):
    assert free_effective_distance(config_for(pattern, 100)) == expected


def test_free_effective_distance_other_codes():
    code = RscCode.from_octals("7", "5")
    pb = pseudo_random_pattern(code, "B")
    assert free_effective_distance(PcccConfig(code, code, pb, 60)) == 5
    code = RscCode.from_octals("23", "35")
    pa = pseudo_random_pattern(code, "A")
    pb = pseudo_random_pattern(code, "B")
    assert free_effective_distance(PcccConfig(code, code, pa, 100)) == 16
    assert free_effective_distance(PcccConfig(code, code, pb, 100)) == 10


@st.composite
def configs(draw):
    """A grid code, random rows of period <= 8, and a block length on
    either side of the constituents' probe lengths."""
    code = RscCode.from_octals(*draw(st.sampled_from(GRID_CODES)))
    pset = PcccPunctureSet(*[draw(st.integers(1, 8).flatmap(
        lambda m: st.tuples(*[st.integers(0, 1)] * m))) for _ in range(3)])
    # rates outside (0, 1) are refused by PcccConfig
    assume(sum(pset.sys) + sum(pset.par1) + sum(pset.par2) > 0)
    assume(0 < code_rate(pset) < 1)
    probe = max(probe_length(code, c.period)
                for c in (pset.constituent1(), pset.constituent2()))
    n = draw(st.integers(code.period + 1, probe + 2 * code.period))
    return PcccConfig(code, code, pset, n)


@settings(max_examples=150, deadline=None)
@given(configs())
def test_free_effective_distance_is_the_minimum_at_n(cfg):
    # the probe-length minima give the same d_free_eff as the pair of
    # enumerators at n itself, whether n is below or above the probe
    c1, c2 = cfg.punctures.constituent1(), cfg.punctures.constituent2()
    at_n = [min_weights(cwef_w2_punctured(code, c.p_u, c.p_z, cfg.n))
            for code, c in ((cfg.code1, c1), (cfg.code2, c2))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert free_effective_distance(cfg) == d_free_eff(*at_n)


def test_free_effective_distance_catastrophic():
    # parity column 6 alone misses the k=1 excursion entirely
    pattern = PcccPunctureSet((0,) * 7, (0, 0, 0, 0, 0, 1, 0), (1,) * 7)
    cfg = config_for(pattern, 50)
    with pytest.warns(UserWarning, match="catastrophic"):
        assert free_effective_distance(cfg) == 0


def test_point_fields():
    pt = BoundPoint(3.0, 0.25, False, 0.25)
    assert (pt.ebn0_db, pt.value, pt.clamped, pt.raw) == (3.0, 0.25, False, 0.25)
