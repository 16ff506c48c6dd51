"""Command-line interface: parsing, exit codes, reports, reproducibility."""

from fractions import Fraction
from functools import cache
from itertools import combinations

import concurrent.futures
import os
import subprocess
import sys
import time

import pytest

import turbobound.cli as cli
import turbobound.cwef as cwef
import turbobound.oracle as oracle
import turbobound.pccc as pccc
import turbobound.puncture as puncture
from turbobound.cli import entrypoint
from turbobound.cwef import cwef_w2_punctured, min_weights
from turbobound.oracle import GRID_CODES, CaseResult, GridCase, VerificationReport
from turbobound.pccc import (PcccConfig, d_free_eff, free_effective_distance,
                             p2_approximation)
from turbobound.puncture import (Classification, PcccPunctureSet, classify,
                                 probe_length, row_from_string,
                                 row_to_string)
from turbobound.rsc import RscCode


# metadata keys that map straight back onto command-line flags
_METADATA_FLAGS = ("gr1", "gf1", "gr2", "gf2", "sys", "par1", "par2",
                   "n", "snr", "wmax", "dmax", "rate", "period", "top")


def argv_from_metadata(text: str) -> list[str]:
    """Rebuild an equivalent command line from a report header."""
    sub = None
    flags: list[str] = []
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "=" not in body:
            continue
        key, _, value = (part.strip() for part in body.partition("="))
        if key == "subcommand":
            sub = value
        elif key in _METADATA_FLAGS:
            flags += [f"--{key}", value]
    if sub is None:
        raise ValueError("no subcommand recorded in the metadata header")
    return [sub] + flags


def run(capsys, *argv):
    code = entrypoint(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_and_usage_errors():
    with pytest.raises(SystemExit) as exc:
        entrypoint(["--version"])
    assert exc.value.code == 0
    for argv in ([], ["frobnicate"], ["bound", "--does-not-exist"],
                 ["bound", "--gr1", "15", "--gf1", "17"]):
        with pytest.raises(SystemExit) as exc:
            entrypoint(argv)
        assert exc.value.code == 1


@pytest.mark.parametrize("argv,fragment", [
    (["bound", "--gr1", "15", "--gf1", "17", "--n", "100",
      "--snr", "nope"], "START:STOP:STEP"),
    (["bound", "--gr1", "15", "--gf1", "17", "--n", "100",
      "--snr", "5:1:1"], "must not precede"),
    (["bound", "--gr1", "15", "--gf1", "17", "--n", "100",
      "--snr", "1:5:0"], "step must be positive"),
    (["bound", "--gr1", "15", "--gf1", "17", "--n", "7"], "--n must lie"),
    (["bound", "--gr1", "15", "--gf1", "17", "--n", "2000000"], "--n must lie"),
    (["bound", "--gr1", "15", "--gf1", "17", "--n", "100",
      "--wmax", "9"], "--wmax"),
    (["bound", "--gr1", "15", "--gf1", "17", "--n", "100",
      "--dmax", "0"], "--dmax"),
    (["bound", "--gr1", "19", "--gf1", "17", "--n", "100"], "octal"),
    (["bound", "--gr1", "15", "--gf1", "17", "--n", "100",
      "--pseudo", "A", "--sys", "1"], "not both"),
    (["bound", "--gr1", "15", "--gf1", "17", "--n", "100",
      "--pseudo", "A", "--keep-zero", "3"], "only applies"),
    (["bound", "--gr1", "15", "--gf1", "17", "--n", "100",
      "--keep-zero", "3"], "only applies"),
    (["bound", "--gr1", "15", "--gf1", "17", "--n", "100",
      "--sys", "1", "--par1", "1"], "all three"),
    (["patterns", "--gr1", "17", "--gf1", "15", "--pseudo", "A"],
     "not primitive"),
    # degree 20, L = 1,048,575: no block length is both longer and allowed
    (["bound", "--gr1", "4000011", "--gf1", "1", "--n", "1000"],
     "encoder period 1048575 exceeds 1000000, the largest --n"),
])
def test_domain_errors_exit_2(capsys, argv, fragment):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "turbobound: error:" in err
    assert fragment in err


def test_bound_stdout_w2(capsys):
    code, out, _ = run(capsys, "bound", "--gr1", "15", "--gf1", "17",
                       "--pseudo", "A", "--n", "1000", "--snr", "4",
                       "--wmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# turbobound 0.1.0"
    assert "# subcommand = bound" in lines
    assert "# code_rate = 1/2" in lines
    assert "# d_free_eff = 10" in lines
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "ebn0_db,p2,p2_clamped"
    fields = lines[-1].split(",")
    assert fields[0] == "4" and fields[2] == "0"
    assert float(fields[1]) == pytest.approx(1.0028892141423305e-9, rel=1e-11)


def test_bound_w3_columns(capsys):
    code, out, _ = run(capsys, "bound", "--gr1", "15", "--gf1", "17",
                       "--pseudo", "B", "--n", "100", "--snr", "2:4:1")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "ebn0_db,p2,truncated_bound,ratio,p2_clamped,bound_clamped"
    assert len(lines) == 4
    for row in lines[1:]:
        db, p2, tb, ratio, c1, c2 = row.split(",")
        assert 0.0 < float(ratio) <= 1.0
        assert float(p2) <= float(tb)
        assert c1 == "0" and c2 == "0"
    assert "# terms_dropped = 0" in out


def test_bound_deterministic_and_atomic(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    argv = ("bound", "--gr1", "15", "--gf1", "17", "--pseudo", "A",
            "--n", "300", "--snr", "0:6:0.5", "--out", str(target))
    assert run(capsys, *argv)[0] == 0
    first = target.read_bytes()
    assert run(capsys, *argv)[0] == 0
    assert target.read_bytes() == first
    assert b"\r" not in first
    assert first.endswith(b"\n")
    assert not list(tmp_path.glob(".tb-*"))  # no temp files left behind


def test_bound_jobs_is_inert(tmp_path, capsys):
    argv = ("bound", "--gr1", "15", "--gf1", "17", "--pseudo", "B",
            "--n", "200", "--snr", "0:6:0.5", "--wmax", "3")
    outputs = []
    for jobs in ("1", "2"):
        target = tmp_path / f"jobs{jobs}.csv"
        assert run(capsys, *argv, "--jobs", jobs, "--out", str(target))[0] == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


def count_cwef_builds(monkeypatch, *modules):
    """Record the arguments of every cwef_w2_punctured call made through
    the given modules' bindings."""
    calls = []
    real = cwef_w2_punctured

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, "cwef_w2_punctured", counted)
    return calls


def test_bound_computes_constituent_cwefs_once(monkeypatch, capsys):
    # d_free_eff reads the two probe-length minima, P(2) builds the pair
    # at n once, and no cache carries either over to the next command
    calls = count_cwef_builds(monkeypatch, cwef, pccc)
    for _ in range(2):
        calls.clear()
        code, out, _ = run(capsys, "bound", "--gr1", "23", "--gf1", "35",
                           "--pseudo", "A", "--n", "1234", "--snr", "2:4:1",
                           "--wmax", "2")
        assert code == 0 and "# d_free_eff = 16" in out
        assert sorted(args[3] for args in calls) == [61, 61, 1234, 1234]


def test_bound_refuses_before_building_at_n(monkeypatch, capsys):
    # the trellis DP's 64-bit guard fires before any P(2) enumerator
    def built_at_n(*_):
        raise AssertionError("enumerator built at n before the refusal")

    calls = count_cwef_builds(monkeypatch, cwef)
    monkeypatch.setattr(pccc, "cwef_w2_punctured", built_at_n)
    code, out, err = run(capsys, "bound", "--gr1", "23", "--gf1", "35",
                         "--pseudo", "A", "--n", "1000000", "--wmax", "4")
    assert code == 2 and out == ""
    assert "path counts would overflow 64-bit accumulation" in err
    # d_free_eff and the --dmax vacuity check each read the two minima
    assert [args[3] for args in calls] == [61, 61, 61, 61]


def test_bound_refuses_vacuous_dmax_before_the_dp(monkeypatch, capsys):
    def no_dp(*_):
        raise AssertionError("trellis DP ran before the vacuity refusal")

    monkeypatch.setattr(pccc, "exact_cwef_dp", no_dp)
    code, out, err = run(capsys, "bound", "--gr1", "23", "--gf1", "35",
                         "--pseudo", "A", "--n", "100000", "--wmax", "3",
                         "--dmax", "5")
    assert code == 2 and out == ""
    assert err == ("turbobound: error: d_max=5 is below the smallest weight-2 "
                   "distance; the bound would be vacuous\n")


def test_bound_refuses_a_dp_that_cannot_fit(capsys):
    # 1+D^16 has period 16 but 65,536 states: the pass would need 2.2 GiB
    start = time.perf_counter()
    code, out, err = run(capsys, "bound", "--gr1", "200001", "--gf1", "1",
                         "--n", "200", "--wmax", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "65536 states would need about 2288 MiB" in err


@pytest.mark.parametrize("snr", ["0:inf:1", "nan", "1e400", "0:5:0.0005",
                                 "0:3083:1000"])
def test_bound_rejects_bad_snr_grid(capsys, snr):
    # non-finite values and grids past MAX_SNR_POINTS (10001 points here)
    # are refused before any point is built
    code, out, err = run(capsys, "bound", "--gr1", "15", "--gf1", "17",
                         "--pseudo", "A", "--n", "100", "--wmax", "2",
                         "--snr", snr)
    assert code == 2 and out == ""
    assert "turbobound: error: --snr" in err


@pytest.mark.parametrize("argv", [
    ("bound", "--gr1", "15", "--gf1", "17", "--pseudo", "A", "--n", "100",
     "--wmax", "2"),
    ("search", "--gr1", "15", "--gf1", "17", "--rate", "1/2", "--period", "2",
     "--n", "100"),
])
@pytest.mark.parametrize("snr,want", [("3000", 0), ("3083", 2), ("4000", 2),
                                      ("1e300", 2)])
def test_snr_ceiling(capsys, argv, snr, want):
    # 10 ** (dB / 10) overflows a float past about 3083 dB
    code, out, err = run(capsys, *argv, "--snr", snr)
    assert code == want
    if want:
        assert out == ""
        assert "--snr values must not exceed 3000 dB" in err
    else:
        assert err == ""


def test_bound_metadata_round_trip(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    assert run(capsys, "bound", "--gr1", "15", "--gf1", "17", "--pseudo", "B",
               "--n", "250", "--snr", "1:5:0.5", "--wmax", "3",
               "--dmax", "100", "--out", str(target))[0] == 0
    first = target.read_text()
    argv = argv_from_metadata(first)
    assert argv[0] == "bound"
    assert run(capsys, *argv, "--out", str(target))[0] == 0
    assert target.read_text() == first


def test_bound_negative_snr_start(tmp_path, capsys):
    # a grid starting below 0 dB parses as the flag's value in both forms
    argv = ("bound", "--gr1", "15", "--gf1", "17", "--pseudo", "A",
            "--n", "300")
    outputs = []
    for snr in (("--snr", "-2:2:1"), ("--snr=-2:2:1",)):
        target = tmp_path / f"curve{len(outputs)}.csv"
        assert run(capsys, *argv, *snr, "--out", str(target))[0] == 0
        outputs.append(target.read_text())
    assert outputs[0] == outputs[1]
    assert "# snr = -2.0:2.0:1.0" in outputs[0]
    # the header's negative grid round-trips as a separate argument too
    replay = tmp_path / "replay.csv"
    assert run(capsys, *argv_from_metadata(outputs[0]),
               "--out", str(replay))[0] == 0
    assert replay.read_text() == outputs[0]


def test_argv_from_metadata_rejects_headerless():
    with pytest.raises(ValueError, match="no subcommand"):
        argv_from_metadata("ebn0_db,p2\n1,0.5\n")


PATTERNS_A_BODY = """\
sys  = [1000101]
par1 = [0111010]
par2 = [1111111]
period = 7
rate = 1/2
constituent 1 (15/17): Normal
  core_weights = [4, 2, 2, 2, 2, 2, 2]
  d_min = 4, z_min = 2
constituent 2 (15/17): Normal
  core_weights = [4, 4, 4, 4, 4, 4, 4]
  z_min = 6
d_free_eff = 10
"""

PATTERNS_B_BODY = """\
sys  = [1111101]
par1 = [0111010]
par2 = [0111010]
period = 7
rate = 1/2
constituent 1 (15/17): Normal
  core_weights = [4, 2, 2, 2, 2, 2, 2]
  d_min = 4, z_min = 2
constituent 2 (15/17): Normal
  core_weights = [4, 2, 2, 2, 2, 2, 2]
  z_min = 2
d_free_eff = 6
"""


@pytest.mark.parametrize("variant,body", [("A", PATTERNS_A_BODY),
                                          ("B", PATTERNS_B_BODY)])
def test_patterns_pseudo_reports(capsys, variant, body):
    code, out, _ = run(capsys, "patterns", "--gr1", "15", "--gf1", "17",
                       "--pseudo", variant)
    assert code == 0
    assert out.endswith(body)
    assert "# n_probe = 29" in out


def test_patterns_keep_zero(capsys):
    code, out, _ = run(capsys, "patterns", "--gr1", "15", "--gf1", "17",
                       "--pseudo", "B", "--keep-zero", "2")
    assert code == 0
    assert "sys  = [1011111]" in out


def test_patterns_all_punctured_still_reports(capsys):
    code, out, _ = run(capsys, "patterns", "--gr1", "15", "--gf1", "17",
                       "--sys", "0000000", "--par1", "0000000",
                       "--par2", "0000000")
    assert code == 0
    assert "rate = undefined" in out
    assert out.count("Catastrophic") == 2
    assert "d_free_eff = 0" in out


def test_patterns_unpunctured_default(capsys):
    # no rows and no --pseudo: the rate-1/3 base code
    code, out, _ = run(capsys, "patterns", "--gr1", "15", "--gf1", "17")
    assert code == 0
    assert "rate = 1/3" in out
    assert "d_free_eff = 14" in out


def test_patterns_catastrophic_period_beyond_cycle(capsys):
    # M = 5 > L + 1 = 3: the span k = 5 closes the column cycle, and it
    # only fits at every start column from n = 15 on
    code, out, _ = run(capsys, "patterns", "--gr1", "5", "--gf1", "7",
                       "--sys", "11101", "--par1", "00000", "--par2", "11111")
    assert code == 0
    assert "constituent 1 (5/7): Catastrophic" in out
    assert "  d_min = 0, z_min = 0\n" in out
    assert "\nd_free_eff = 0\n" in out
    assert "# n_probe = 15" in out


def test_patterns_refuses_a_period_past_the_largest_block(monkeypatch, capsys):
    # nu = 20, L = 1,048,575: refused like bound and search, before the
    # m-sequence row is built; building it ran for minutes
    def no_pattern(*_):
        raise AssertionError("pseudo-random row built before the refusal")

    monkeypatch.setattr(cli, "pseudo_random_pattern", no_pattern)
    start = time.perf_counter()
    code, out, err = run(capsys, "patterns", "--gr1", "4000011", "--gf1", "1",
                         "--pseudo", "A")
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err == ("turbobound: error: encoder period 1048575 exceeds "
                   "1000000, the largest --n\n")


def test_out_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "patterns", "--gr1", "15", "--gf1", "17",
                         "--pseudo", "A", "--out", str(target))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert f"--out {target}" in err and ".tb-" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [
    ("search", "--gr1", "15", "--gf1", "17", "--rate", "1/2", "--period", "4"),
    ("verify",),
])
@pytest.mark.parametrize("where,reason", [
    ("missing/x", "No such file or directory"),
    (".", "Is a directory"),
])
def test_out_refused_before_the_work(monkeypatch, tmp_path, capsys, argv,
                                     where, reason):
    def no_work(*_):
        raise AssertionError("work started before --out was checked")

    for module in (cli, cwef):
        monkeypatch.setattr(module, "cwef_w2_punctured", no_work)
    monkeypatch.setattr(oracle, "run_case", no_work)
    target = tmp_path / where
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err == f"turbobound: error: cannot write --out {target}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_out_backstop_message_matches(tmp_path):
    # the early check and the write itself name a bad path the same way
    for target in (tmp_path / "missing" / "x", tmp_path):
        with pytest.raises(ValueError) as early:
            cli._check_out(str(target))
        with pytest.raises(ValueError) as late:
            cli._write_text(str(target), "text")
        assert str(early.value) == str(late.value)
    assert list(tmp_path.iterdir()) == []


def test_patterns_round_trip(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert run(capsys, "patterns", "--gr1", "7", "--gf1", "5",
               "--pseudo", "B", "--out", str(target))[0] == 0
    first = target.read_text()
    assert run(capsys, *argv_from_metadata(first), "--out", str(target))[0] == 0
    assert target.read_text() == first


def test_search_period2(capsys):
    code, out, _ = run(capsys, "search", "--gr1", "15", "--gf1", "17",
                       "--rate", "1/2", "--period", "2", "--n", "200",
                       "--snr", "6", "--top", "5")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "rank,sys,par1,par2,d_free_eff,p2"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
    dists = [int(r[4]) for r in rows]
    assert dists == sorted(dists, reverse=True)
    # within one distance class P(2) is ascending
    for a, b in zip(rows, rows[1:]):
        if a[4] == b[4]:
            assert float(a[5]) <= float(b[5])
    assert "# candidates = 15" in out
    assert "# top = 5" in out


def test_search_reports_known_pattern(capsys):
    # the fixed (11, 10, 01) rate-1/2 pattern must appear with its
    # library P(2) value
    code, out, _ = run(capsys, "search", "--gr1", "15", "--gf1", "17",
                       "--rate", "1/2", "--period", "2", "--n", "200",
                       "--snr", "6", "--top", "15")
    assert code == 0
    row = next(l for l in out.splitlines() if ",11,10,01," in l)
    cfg = PcccConfig(RscCode.from_octals("15", "17"),
                     RscCode.from_octals("15", "17"),
                     PcccPunctureSet((1, 1), (1, 0), (0, 1)), 200)
    want = p2_approximation(cfg, (6.0,)).points[0].raw
    assert row.split(",")[5] == f"{want:.11e}"
    assert row.split(",")[4] == "6"


def test_search_deterministic(tmp_path, capsys):
    target = tmp_path / "rank.csv"
    argv = ("search", "--gr1", "7", "--gf1", "5", "--rate", "1/2",
            "--period", "3", "--n", "120", "--snr", "5", "--top", "10",
            "--out", str(target))
    assert run(capsys, *argv)[0] == 0
    first = target.read_bytes()
    assert run(capsys, *argv)[0] == 0
    assert target.read_bytes() == first


def test_search_round_trip(tmp_path, capsys):
    target = tmp_path / "rank.csv"
    assert run(capsys, "search", "--gr1", "7", "--gf1", "5", "--rate", "2/3",
               "--period", "2", "--n", "100", "--snr", "4",
               "--out", str(target))[0] == 0
    first = target.read_text()
    assert run(capsys, *argv_from_metadata(first), "--out", str(target))[0] == 0
    assert target.read_text() == first


@pytest.mark.parametrize("gr,gf", GRID_CODES)
def test_d_free_eff_agrees_across_commands(capsys, gr, gf):
    # search screening, the patterns report and the library share one rule
    code, out, _ = run(capsys, "search", "--gr1", gr, "--gf1", gf,
                       "--rate", "1/2", "--period", "2", "--n", "300",
                       "--top", "15")
    assert code == 0 and "# candidates = 15" in out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    assert f"# feasible = {len(rows)}" in out
    rsc = RscCode.from_octals(gr, gf)
    for _, sys_row, par1, par2, dfree, _ in rows:
        code, report, _ = run(capsys, "patterns", "--gr1", gr, "--gf1", gf,
                              "--sys", sys_row, "--par1", par1, "--par2", par2)
        assert code == 0
        assert f"\nd_free_eff = {dfree}\n" in report
        pset = PcccPunctureSet(*map(row_from_string, (sys_row, par1, par2)))
        assert free_effective_distance(PcccConfig(rsc, rsc, pset, 300)) == int(dfree)


def test_search_jobs_splits_work(monkeypatch, tmp_path, capsys):
    # every worker gets a chunk even when the candidates are few
    sizes = []
    real_pool_map = cli._pool_map

    def counting_pool_map(fn, payloads, jobs):
        sizes.append((jobs, len(payloads)))
        return real_pool_map(fn, payloads, jobs)

    monkeypatch.setattr(cli, "_pool_map", counting_pool_map)
    reports = []
    for jobs in ("1", "2"):
        target = tmp_path / f"rank{jobs}.csv"
        assert run(capsys, "search", "--gr1", "15", "--gf1", "17",
                   "--rate", "1/2", "--period", "4", "--n", "200",
                   "--top", "10", "--jobs", jobs, "--out", str(target))[0] == 0
        reports.append(target.read_bytes())
    assert reports[0] == reports[1]
    assert sizes[:2] == [(1, 1), (1, 1)]
    assert sizes[2] == (2, 2)   # screening of C(12, 6) = 924 candidates


def naive_ranking(gr, gf, rate, m, n, db, top):
    # every candidate triple on its own: both enumerators rebuilt, the
    # library distance rule, the library P(2) of every surviving triple
    code = RscCode.from_octals(gr, gf)
    probe = probe_length(code, m)
    kept = m * rate.denominator // rate.numerator
    ranked = []
    for pos in combinations(range(3 * m), kept):
        bits = tuple(int(i in pos) for i in range(3 * m))
        rows = (bits[:m], bits[m:2 * m], bits[2 * m:])
        a1 = cwef_w2_punctured(code, rows[0], rows[1], probe)
        a2 = cwef_w2_punctured(code, (0,) * m, rows[2], probe)
        d = d_free_eff(min_weights(a1), min_weights(a2))
        if d > 0:
            config = PcccConfig(code, code, PcccPunctureSet(*rows), n)
            p2 = p2_approximation(config, (db,)).points[0].raw
            ranked.append((-d, p2, tuple(map(row_to_string, rows))))
    ranked.sort()
    body = [",".join((str(i + 1), *strings, str(-d), f"{p2:.11e}"))
            for i, (d, p2, strings) in enumerate(ranked[:top])]
    return len(ranked), body


@pytest.mark.parametrize("gr,gf", GRID_CODES)
def test_search_matches_naive_ranking(tmp_path, capsys, gr, gf):
    for rate, m in (("1/2", 2), ("1/2", 3), ("2/3", 2), ("3/4", 3)):
        feasible, body = naive_ranking(gr, gf, Fraction(rate), m, 150, 5.0, 10)
        for jobs in ("1", "2"):
            target = tmp_path / f"rank{jobs}.csv"
            assert run(capsys, "search", "--gr1", gr, "--gf1", gf,
                       "--rate", rate, "--period", str(m), "--n", "150",
                       "--snr", "5", "--top", "10", "--jobs", jobs,
                       "--out", str(target))[0] == 0
            lines = target.read_text().splitlines()
            assert f"# feasible = {feasible}" in lines
            header = lines.index("rank,sys,par1,par2,d_free_eff,p2")
            assert lines[header + 1:] == body, (rate, m, jobs)


def test_search_builds_each_row_once(monkeypatch, capsys):
    # screening builds one probe-length enumerator per distinct
    # constituent-1 pair and par2 row, and P(2) one per distinct row at n
    calls = count_cwef_builds(monkeypatch, cli, cwef)
    code, out, _ = run(capsys, "search", "--gr1", "15", "--gf1", "17",
                       "--rate", "2/3", "--period", "4", "--n", "200")
    assert code == 0 and "# candidates = 924" in out
    probe = [args for args in calls if args[3] != 200]
    at_n = [args for args in calls if args[3] == 200]
    assert probe and at_n
    code15 = RscCode.from_octals("15", "17")
    assert {args[3] for args in probe} == {probe_length(code15, 4)}
    assert len(probe) <= 2**8 + 2**4
    assert len(set(probe)) == len(probe)
    assert len(set(at_n)) == len(at_n)


def test_patterns_builds_each_constituent_once(monkeypatch, capsys):
    # the classification and the minima lines read one enumerator and one
    # core-weight list per constituent
    calls = count_cwef_builds(monkeypatch, cwef)
    cores = []
    real_cores = puncture.punctured_core_weights

    def counted_cores(*args):
        cores.append(args)
        return real_cores(*args)

    monkeypatch.setattr(puncture, "punctured_core_weights", counted_cores)
    monkeypatch.setattr(cli, "punctured_core_weights", counted_cores)
    code, out, _ = run(capsys, "patterns", "--gr1", "15", "--gf1", "17",
                       "--pseudo", "B")
    assert code == 0 and "constituent 2 (15/17): Normal" in out
    assert len(calls) == 2 and len(cores) == 2


@pytest.mark.parametrize("argv", [
    ["search", "--gr1", "15", "--gf1", "17", "--rate", "1/2", "--period", "3"],
    ["patterns", "--gr1", "23", "--gf1", "35", "--pseudo", "A"],
    ["bound", "--gr1", "23", "--gf1", "35", "--pseudo", "A", "--n", "500",
     "--wmax", "2"],
])
def test_commands_without_the_dp_leave_numpy_unloaded(argv):
    # only the trellis DP imports numpy
    script = ("import sys; from turbobound.cli import entrypoint; "
              f"code = entrypoint({argv!r}); "
              "sys.exit(code or 'numpy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr


def test_catastrophic_bound_warning_location_on_stderr():
    # stderr is part of a run's bytes: each warning is one line in the
    # form of an error line, with no source path or line number, so that
    # moving code does not change it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for argv, warning in (
            (["bound", "--gr1", "15", "--gf1", "17", "--sys", "0000000",
              "--par1", "0000010", "--par2", "1111111", "--n", "50",
              "--wmax", "2"],
             "catastrophic puncturing: weight-2 event with zero transmitted weight"),
            (["patterns", "--gr1", "17", "--gf1", "17"],
             "feedback equals feedforward: parity reduces to the input")):
        done = subprocess.run(
            [sys.executable, "-m", "turbobound", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0
        assert done.stderr == f"turbobound: warning: {warning}\n"


def test_warnings_come_before_the_error_line(capsys):
    # the DP refusal of a vacuous --dmax follows the catastrophic warning
    code, out, err = run(capsys, "bound", "--gr1", "15", "--gf1", "17",
                         "--sys", "0000000", "--par1", "0000010",
                         "--par2", "1111111", "--n", "100", "--wmax", "3",
                         "--dmax", "1")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "turbobound: warning: catastrophic puncturing: weight-2 event with "
        "zero transmitted weight",
        "turbobound: error: d_max=1 is below the smallest weight-2 distance; "
        "the bound would be vacuous"]


def test_search_ranks_no_catastrophic_pattern(tmp_path, capsys):
    # at M = 6 > L + 1 = 3 a probe of (cycle + 1) L + 1 steps missed start
    # columns and let 40 catastrophic triples into the ranking
    target = tmp_path / "rank.csv"
    assert run(capsys, "search", "--gr1", "5", "--gf1", "7", "--rate", "1/2",
               "--period", "6", "--n", "200", "--top", "20000",
               "--out", str(target))[0] == 0
    lines = target.read_text().splitlines()
    assert "# feasible = 16019" in lines
    header = lines.index("rank,sys,par1,par2,d_free_eff,p2")
    rows = [line.split(",")[1:4] for line in lines[header + 1:]]
    assert len(rows) == 16019
    code = RscCode.from_octals("5", "7")

    @cache
    def catastrophic(p_u, p_z):
        return classify(code, row_from_string(p_u), row_from_string(p_z)) \
            is Classification.CATASTROPHIC

    assert not any(catastrophic(sys_row, par1) or catastrophic("000000", par2)
                   for sys_row, par1, par2 in rows)


def test_search_infeasible_rate(capsys):
    code, _, err = run(capsys, "search", "--gr1", "15", "--gf1", "17",
                       "--rate", "3/7", "--period", "2")
    assert code == 2
    assert "no pattern of period 2 meets rate 3/7" in err
    # rate below 1/3 would need more than 3 kept bits per column
    code, _, err = run(capsys, "search", "--gr1", "15", "--gf1", "17",
                       "--rate", "1/4", "--period", "2")
    assert code == 2


@pytest.mark.parametrize("argv,fragment", [
    (["search", "--gr1", "15", "--gf1", "17", "--rate", "1/2",
      "--period", "12"], "exceeds"),
    (["search", "--gr1", "15", "--gf1", "17", "--rate", "1/2",
      "--period", "0"], "--period"),
    (["search", "--gr1", "15", "--gf1", "17", "--rate", "1/2",
      "--period", "2", "--snr", "2:6:2"], "single"),
    (["search", "--gr1", "15", "--gf1", "17", "--rate", "1/2",
      "--period", "2", "--top", "0"], "--top"),
    (["search", "--gr1", "15", "--gf1", "17", "--rate", "7/2",
      "--period", "2"], "--rate"),
    (["search", "--gr1", "15", "--gf1", "17", "--rate", "x",
      "--period", "2"], "--rate"),
    (["search", "--gr1", "4000011", "--gf1", "1", "--rate", "1/2",
      "--period", "2"], "encoder period 1048575 exceeds 1000000"),
])
def test_search_rejects(capsys, argv, fragment):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert fragment in err


def fake_report(ok):
    case = GridCase("7", "5", "1", "1", 20)
    detail = "" if ok else "closed vs trellis: (u=2,z=4): 1 vs 2"
    return VerificationReport((CaseResult(case, ok, True, detail),))


def test_verify_pass(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_verification",
                        lambda jobs: fake_report(True))
    target = tmp_path / "verify.txt"
    code, out, _ = run(capsys, "verify", "--out", str(target))
    assert code == 0
    assert out == "# result = PASS (1/1)\n"
    assert target.read_text().splitlines()[0] == "PASS 7/5 pu=1 pz=1 n=20"


def test_verify_fail_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_verification",
                        lambda jobs: fake_report(False))
    code, out, _ = run(capsys, "verify")
    assert code == 3
    assert "FAIL" in out and "# result = FAIL (0/1)" in out


@pytest.fixture
def pools(monkeypatch):
    """ProcessPoolExecutor replaced by a fake that runs serially, on a
    machine of 3 CPUs; the list holds the max_workers of each pool."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["bound", "--gr1", "15", "--gf1", "17", "--n", "100", "--wmax", "2"],
    ["search", "--gr1", "15", "--gf1", "17", "--rate", "1/2", "--period", "2"],
    ["verify"],
])
def test_jobs_below_one_refused(capsys, pools, argv, jobs):
    assert run(capsys, *argv, "--jobs", jobs) == (
        2, "", "turbobound: error: --jobs must be at least 1\n")
    assert pools == []


def test_search_workers_capped_at_cpu_count(monkeypatch, capsys, pools):
    argv = ("search", "--gr1", "7", "--gf1", "5", "--rate", "1/2",
            "--period", "3", "--n", "120", "--top", "10")
    want = run(capsys, *argv)
    assert want[0] == 0 and pools == []
    # screening and tie-break each start one pool of the 3 CPUs
    assert run(capsys, *argv, "--jobs", "64") == want
    assert pools == [3, 3]
    # an unknown CPU count means one CPU: no pool at all
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run(capsys, *argv, "--jobs", "64") == want
    assert pools == [3, 3]


def test_verify_workers_capped_at_cpu_count(pools):
    cases = oracle.default_verification_grid()[:4]
    want = oracle.run_verification(cases).summary()
    assert oracle.run_verification(cases, jobs=1000).summary() == want
    assert pools == [3]


def test_parse_snr_grid():
    assert cli._parse_snr("3") == (3.0,)
    grid = cli._parse_snr("0:8:0.5")
    assert len(grid) == 17
    assert grid[0] == 0.0 and grid[-1] == 8.0
    assert cli._parse_snr("2:2:1") == (2.0,)


def test_parse_rate():
    assert cli._parse_rate("1/2") == Fraction(1, 2)
    assert cli._parse_rate("4/6") == Fraction(2, 3)
    for bad in ("0/5", "5/5", "7/5", "1/0", "half"):
        with pytest.raises(ValueError):
            cli._parse_rate(bad)
