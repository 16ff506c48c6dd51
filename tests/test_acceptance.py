"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Budgets are wall-clock seconds measured around the computation under
test; tolerances are pinned next to each assertion.
"""

import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import mpmath as mp
import pytest

from turbobound.cli import entrypoint
from turbobound.gf2 import BinaryPolynomial, is_primitive, lfsr_sequence
from turbobound.oracle import run_verification
from turbobound.pccc import (PcccConfig, p2_approximation, p2_slice,
                             q_function, truncated_union_bound)
from turbobound.puncture import (PcccPunctureSet, pseudo_random_pattern,
                                 punctured_core_weights)
from turbobound.rsc import RscCode, core_weight

CODE_15_17 = RscCode.from_octals("15", "17")
CODE_7_5 = RscCode.from_octals("7", "5")
REF_A = PcccPunctureSet((0, 0, 1, 0), (1, 1, 0, 1), (1, 1, 1, 1))
REF_B = PcccPunctureSet((1, 1), (1, 0), (0, 1))
SNR_GRID = tuple(2.0 + 0.5 * i for i in range(13))  # 2..8 dB


_REPORTER = None


@pytest.fixture(autouse=True)
def _terminal_reporter(request):
    # print through pytest's own stream: fd-level capture would swallow a
    # plain print even via sys.__stdout__
    global _REPORTER
    _REPORTER = request.config.pluginmanager.getplugin("terminalreporter")
    yield


def report(num, ok, elapsed, budget, what):
    verdict = "PASS" if ok and (budget is None or elapsed < budget) else "FAIL"
    line = f"acceptance {num}: {verdict} ({elapsed:.2f}s) :: {what}"
    if _REPORTER is not None:
        _REPORTER.ensure_newline()
        _REPORTER.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, line


def primitive_polys(degree):
    out = []
    for bits in range(1 << degree | 1, 1 << (degree + 1), 2):
        p = BinaryPolynomial(bits)
        if is_primitive(p):
            out.append(p)
    return out


def pattern_report(tmp_path, variant):
    out = tmp_path / f"patterns_{variant}.txt"
    assert entrypoint(["patterns", "--gr1", "15", "--gf1", "17",
                       "--pseudo", variant, "--out", str(out)]) == 0
    return out.read_text()


def test_criterion_1_pattern_vectors(tmp_path):
    t0 = time.perf_counter()
    rep_a = pattern_report(tmp_path, "A")
    rep_b = pattern_report(tmp_path, "B")
    ok = all(line in rep_a for line in
             ("sys  = [1000101]", "par1 = [0111010]", "par2 = [1111111]",
              "rate = 1/2")) \
        and all(line in rep_b for line in
                ("sys  = [1111101]", "par1 = [0111010]", "par2 = [0111010]",
                 "rate = 1/2"))
    report(1, ok, time.perf_counter() - t0, 1.0,
           "pattern subcommand emits the standard rate-1/2 vectors")


def test_criterion_2_closed_form_distances():
    from turbobound.pccc import free_effective_distance

    t0 = time.perf_counter()
    dfree = []
    for code, variant in ((CODE_15_17, "A"), (CODE_15_17, "B"), (CODE_7_5, "B")):
        pat = pseudo_random_pattern(code, variant)
        dfree.append(free_effective_distance(PcccConfig(code, code, pat, 100)))
    ok = dfree == [10, 6, 5]
    # core parity weight 2^(nu-1) for every primitive feedback and every
    # full-degree feedforward, by stepping the encoder
    for nu in range(2, 7):
        for gr in primitive_polys(nu):
            for ff_low in range(1, 1 << nu, 2):
                gf = BinaryPolynomial(1 << nu | ff_low)
                if gf == gr:
                    continue
                code = RscCode(gr, gf)
                ok = ok and core_weight(code) == 1 << (nu - 1)
    report(2, ok, time.perf_counter() - t0, 1.0,
           "d_free_eff 10/6/5 and core weight 2^(nu-1) across nu=2..6")


def test_criterion_3_autocorrelation():
    t0 = time.perf_counter()
    ok = True
    for nu in range(2, 7):
        length = (1 << nu) - 1
        for gr in primitive_polys(nu):
            seq = lfsr_sequence(gr, length)
            pm = [1 - 2 * b for b in seq]
            phi = [sum(pm[i] * pm[(i + j) % length] for i in range(length))
                   for j in range(length)]
            ok = ok and phi[0] == length and all(v == -1 for v in phi[1:])
            # punctured core weights of the pattern built from this
            # sequence: one peak of 2^(nu-1), the rest 2^(nu-2)
            code = RscCode(gr, BinaryPolynomial(gr.bits ^ 0b10))
            pset = pseudo_random_pattern(code, "A")
            zc = sorted(punctured_core_weights(code, pset.par1))
            want = [1 << (nu - 2)] * (length - 1) + [1 << (nu - 1)]
            ok = ok and zc == want
    report(3, ok, time.perf_counter() - t0, 1.0,
           "two-level autocorrelation and shifted core weight profile")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    rep = run_verification(jobs=4)
    ok = rep.all_ok and len(rep.results) == 725
    report(4, ok, time.perf_counter() - t0, 120.0,
           f"closed form == trellis DP == brute force on {len(rep.results)} cases")


def weight_shares(n):
    cfg = PcccConfig(CODE_15_17, CODE_15_17, REF_B, n)
    tb = truncated_union_bound(cfg, w_max=3, d_max=120, ebn0_db=SNR_GRID)
    return tb.per_weight[2], tb.per_weight[3]


def test_criterion_5_weight2_dominance():
    t0 = time.perf_counter()
    ratios = {}
    for n in (1000, 10000):
        p2, p3 = weight_shares(n)
        ratios[n] = [a / (a + b) for a, b in zip(p2, p3)]
    ok = all(big > small for big, small
             in zip(ratios[10000], ratios[1000]))
    ok = ok and all(r > 0.9 for db, r in zip(SNR_GRID, ratios[10000])
                    if db >= 4.0)
    report(5, ok, time.perf_counter() - t0, 300.0,
           "P(2)/(P(2)+P(3)) grows with interleaver size, >0.9 beyond 4 dB")


def test_criterion_6_bound_ratio_approaches_one():
    t0 = time.perf_counter()

    def ratios(n, grid):
        cfg = PcccConfig(CODE_15_17, CODE_15_17, REF_B, n)
        p2 = p2_approximation(cfg, grid)
        tb = truncated_union_bound(cfg, w_max=3, d_max=120, ebn0_db=grid)
        return [a.raw / b.raw for a, b in zip(p2.points, tb.curve.points)]

    pointwise_small = ratios(1000, SNR_GRID)
    pointwise_big = ratios(10000, SNR_GRID)
    ok = all(b > s for b, s in zip(pointwise_big, pointwise_small))
    at_5db = [ratios(n, (5.0,))[0] for n in (1000, 3000, 10000)]
    ok = ok and at_5db[0] < at_5db[1] < at_5db[2] < 1.0
    report(6, ok, time.perf_counter() - t0, 600.0,
           "P(2)/truncated-bound rises toward 1 as N grows")


def test_criterion_7_pattern_ordering():
    t0 = time.perf_counter()

    def p2_at(pattern):
        cfg = PcccConfig(CODE_15_17, CODE_15_17, pattern, 1000)
        return p2_approximation(cfg, (6.0,)).points[0].raw

    pseudo_a = p2_at(pseudo_random_pattern(CODE_15_17, "A"))
    pseudo_b = p2_at(pseudo_random_pattern(CODE_15_17, "B"))
    ref_a = p2_at(REF_A)
    ref_b = p2_at(REF_B)
    ok = pseudo_b < ref_b and 0.1 <= pseudo_a / ref_a <= 10.0
    report(7, ok, time.perf_counter() - t0, 60.0,
           "pseudo B beats the fixed B pattern; A variants within 10x")


def test_criterion_8_numerical_hygiene():
    t0 = time.perf_counter()
    mp.mp.dps = 30
    gauss = mp.sqrt(2 * mp.pi)

    def integrated_tail(x):
        # substitute t = x + s so the quadrature sees an O(1) integrand;
        # the huge prefactor is then exact
        x = mp.mpf(x)
        body = mp.quad(lambda s: mp.e ** (-x * s - s * s / 2), [0, 1, mp.inf])
        return mp.e ** (-x * x / 2) / gauss * body

    ok = True
    for i in range(1000):
        x = 40.0 * i / 999.0
        oracle = integrated_tail(x)
        got = q_function(x)
        if oracle >= mp.mpf("1e-300"):
            ok = ok and abs(got - float(oracle)) / float(oracle) <= 1e-9
        else:
            # below the double-precision subnormal range the float
            # pipeline may underflow to 0
            ok = ok and abs(got) <= 1e-300
    # exact-rational spectrum evaluated in 60-digit arithmetic vs the
    # shipped float pipeline
    mp.mp.dps = 60
    cases = [
        (PcccConfig(CODE_15_17, CODE_15_17, pseudo_random_pattern(CODE_15_17, "A"), 1000)),
        (PcccConfig(CODE_15_17, CODE_15_17, pseudo_random_pattern(CODE_15_17, "B"), 1000)),
        (PcccConfig(CODE_15_17, CODE_15_17, REF_B, 200)),
        (PcccConfig(CODE_7_5, CODE_7_5, pseudo_random_pattern(CODE_7_5, "B"), 120)),
    ]
    for cfg in cases:
        sl = p2_slice(cfg)
        for db in (2.0, 4.0, 6.0, 8.0):
            scale = 2 * mp.mpf(cfg.rate.numerator) / cfg.rate.denominator \
                * mp.mpf(10) ** (mp.mpf(db) / 10)
            def exact(c):
                f = Fraction(2 * c, cfg.n * comb(cfg.n, 2))
                return mp.mpf(f.numerator) / f.denominator

            want = mp.fsum(
                exact(c) * mp.erfc(mp.sqrt(scale * d) / mp.sqrt(2)) / 2
                for d, c in sl.coeffs.items())
            got = p2_approximation(cfg, (db,)).points[0].raw
            ok = ok and abs(got - float(want)) / float(want) < 1e-12
    report(8, ok, time.perf_counter() - t0, None,
           "tail function within 1e-9 of integration; pipelines within 1e-12")


def run_cli(tmp_path, name, *argv):
    out = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-m", "turbobound", *argv, "--out", str(out)],
        capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    return out.read_bytes()


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    runs = {
        "bound.csv": ("bound", "--gr1", "15", "--gf1", "17", "--pseudo", "A",
                      "--n", "1000"),
        "patterns.txt": ("patterns", "--gr1", "15", "--gf1", "17",
                         "--pseudo", "B"),
        "search.csv": ("search", "--gr1", "15", "--gf1", "17",
                       "--rate", "1/2", "--period", "2", "--n", "200",
                       "--snr", "6"),
    }
    ok = True
    for name, argv in runs.items():
        first = run_cli(tmp_path, name, *argv)
        second = run_cli(tmp_path, name, *argv)
        ok = ok and first == second and len(first) > 0
    verify = subprocess.run(
        [sys.executable, "-m", "turbobound", "verify", "--jobs", "4"],
        capture_output=True, timeout=600)
    ok = ok and verify.returncode == 0
    ok = ok and verify.stdout.decode().rstrip().endswith("# result = PASS (725/725)")
    report(9, ok, time.perf_counter() - t0, None,
           "byte-identical reruns; shipped verification grid exits 0")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
