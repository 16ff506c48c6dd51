"""Command-line front end.

Subcommands: bound (CSV union-bound curves), patterns (pattern report),
search (exhaustive period-M pattern ranking), verify (oracle
cross-check grid).  Every run is deterministic; report headers carry
enough '#' metadata to reproduce the run byte for byte.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile
import warnings
from fractions import Fraction
from functools import cache, partial
from heapq import nlargest
from itertools import combinations
from math import comb

from . import __version__
from .cwef import weight2_heads, weight2_least, weight2_minima, weight2_total
from .oracle import DP_D_LIMIT, DP_W_LIMIT, run_verification
from .pccc import (PcccConfig, certified_horizon, certified_p2, d_free_eff,
                   free_effective_distance, p2_approximation, truncated_union_bound,
                   weight2_spectra)
# not called here; the benchmark harness self-test traces cli.p2_slice
from .pccc import p2_slice  # noqa: F401
from .puncture import (PcccPunctureSet, classification, code_rate,
                       probe_length, pseudo_random_pattern,
                       punctured_core_weights, row_from_string, row_to_string)
from .rsc import RscCode

MAX_BLOCK = 10**6
MAX_SNR_POINTS = 10**4
# 10 ** (dB / 10) overflows a float past about 3083 dB, while every
# union-bound term of nonzero distance is exactly 0.0 from about 34 dB on
MAX_SNR_DB = 3000
SEARCH_CANDIDATE_LIMIT = 1_000_000
_PROB = "{:.11e}"  # 12 significant digits, fixed width

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a minus before a digit starts a value, not an option, so that a
        # grid such as --snr -2:10:0.25 parses like a negative number
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits 2 on usage problems; this tool reserves 2 for
    # domain errors, so remap to 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_snr(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(
            f"--snr wants START:STOP:STEP or a single value, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"--snr values must be finite, got {text!r}")
    # the single value, or the start and stop of a grid
    if max(values[:2]) > MAX_SNR_DB:
        raise ValueError(f"--snr values must not exceed {MAX_SNR_DB} dB, got {text!r}")
    if len(values) == 1:
        return (values[0],)
    start, stop, step = values
    if step <= 0:
        raise ValueError("--snr step must be positive")
    if stop < start:
        raise ValueError("--snr stop must not precede start")
    # compared as a float, so that a huge quotient is refused before it
    # becomes a point count (an infinite one cannot become an int at all)
    span = (stop - start) / step + 1e-9
    if not span < MAX_SNR_POINTS:
        raise ValueError(f"--snr grid has more than {MAX_SNR_POINTS} points")
    return tuple(start + i * step for i in range(int(span) + 1))


def _snr_text(text: str) -> str:
    """An --snr value as parsed, which parses back to the same grid."""
    return ":".join(repr(float(p)) for p in text.split(":"))


def _parse_rate(text: str) -> Fraction:
    try:
        num, _, den = text.partition("/")
        rate = Fraction(int(num), int(den)) if den else Fraction(int(num))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--rate wants P/Q, got {text!r}") from None
    if not 0 < rate < 1:
        raise ValueError(f"--rate must lie in (0, 1), got {rate}")
    return rate


def _codes(args) -> tuple[RscCode, RscCode]:
    code1 = RscCode.from_octals(args.gr1, args.gf1)
    code2 = RscCode.from_octals(args.gr2 or args.gr1, args.gf2 or args.gf1)
    return code1, (code1 if code2 == code1 else code2)  # one period walk for both


def _resolve_rows(args, code1: RscCode) -> PcccPunctureSet:
    explicit = (args.sys, args.par1, args.par2)
    if args.pseudo:
        if any(r is not None for r in explicit):
            raise ValueError("give either --pseudo or explicit rows, not both")
        if args.pseudo == "A" and args.keep_zero is not None:
            raise ValueError("--keep-zero only applies to --pseudo B")
        return pseudo_random_pattern(code1, args.pseudo, args.keep_zero)
    if args.keep_zero is not None:
        raise ValueError("--keep-zero only applies to --pseudo B")
    if all(r is None for r in explicit):
        # no puncturing at all: the rate-1/3 base code
        return PcccPunctureSet((1,), (1,), (1,))
    if any(r is None for r in explicit):
        raise ValueError("explicit patterns need all three of --sys --par1 --par2")
    return PcccPunctureSet(row_from_string(args.sys),
                           row_from_string(args.par1),
                           row_from_string(args.par2))


def _check_period(code1: RscCode, code2: RscCode) -> int:
    """The shortest block that holds a weight-2 event of both encoders;
    a period that leaves no valid --n is refused."""
    floor = max(code1.period, code2.period) + 1
    if floor > MAX_BLOCK:
        raise ValueError(f"encoder period {floor - 1} exceeds {MAX_BLOCK}, the largest --n")
    return floor


def _check_block(n: int, code1: RscCode, code2: RscCode) -> None:
    floor = _check_period(code1, code2)
    if not floor <= n <= MAX_BLOCK:
        raise ValueError(f"--n must lie in [{floor}, {MAX_BLOCK}]")


def _metadata(subcommand: str, codes, entries: dict) -> list[str]:
    lines = [f"# turbobound {__version__}", f"# subcommand = {subcommand}"]
    for i, code in enumerate(codes, 1):
        lines += [f"# gr{i} = {code.feedback.to_octal()}",
                  f"# gf{i} = {code.feedforward.to_octal()}"]
    lines.extend(f"# {key} = {value}" for key, value in entries.items())
    return lines


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tb-")
        try:
            with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        # a missing directory or a directory as target is a usage problem,
        # not a failure inside the tool: name the path the user gave
        raise ValueError(f"cannot write --out {path}: {exc.strerror or exc}") from None


def _check_out(path: str) -> None:
    """Refuse, before any work, an --out in a missing directory or one
    that is itself a directory, with the error _write_text gives it."""
    target = os.path.abspath(path)
    if not os.path.isdir(os.path.dirname(target)) or (
            os.path.isdir(target) and not os.path.islink(target)):
        _write_text(path, "")  # raises, and leaves no file behind


def cmd_bound(args) -> int:
    codes = code1, code2 = _codes(args)
    pset = _resolve_rows(args, code1)
    _check_block(args.n, code1, code2)
    if not 2 <= args.wmax <= DP_W_LIMIT:
        raise ValueError(f"--wmax must lie in [2, {DP_W_LIMIT}]")
    if not 1 <= args.dmax <= DP_D_LIMIT:
        raise ValueError(f"--dmax must lie in [1, {DP_D_LIMIT}]")
    grid = _parse_snr(args.snr)
    config = PcccConfig(code1, code2, pset, args.n)
    dfree = free_effective_distance(config)
    # the DP refuses what it cannot count before any P(2) work is done
    if args.wmax > 2:
        tb = truncated_union_bound(config, args.wmax, args.dmax, grid)
    p2_curve = p2_approximation(config, grid)

    entries = {
        "sys": row_to_string(pset.sys), "par1": row_to_string(pset.par1),
        "par2": row_to_string(pset.par2), "n": args.n,
        "snr": _snr_text(args.snr), "wmax": args.wmax, "dmax": args.dmax,
        "code_rate": config.rate, "d_free_eff": dfree,
    }
    rows = []
    if args.wmax > 2:
        entries["terms_dropped"] = int(tb.truncated)
        header = "ebn0_db,p2,truncated_bound,ratio,p2_clamped,bound_clamped"
        for p2p, tbp in zip(p2_curve.points, tb.curve.points):
            # ratio of unclamped sums; 1 when the bound underflows to 0
            ratio = 1.0 if tbp.raw == 0.0 else p2p.raw / tbp.raw
            rows.append(",".join((
                f"{p2p.ebn0_db:g}", _PROB.format(p2p.value),
                _PROB.format(tbp.value), _PROB.format(ratio),
                str(int(p2p.clamped)), str(int(tbp.clamped)))))
    else:
        header = "ebn0_db,p2,p2_clamped"
        for p2p in p2_curve.points:
            rows.append(",".join((
                f"{p2p.ebn0_db:g}", _PROB.format(p2p.value),
                str(int(p2p.clamped)))))
    text = "\n".join(_metadata("bound", codes, entries) + [header] + rows) + "\n"
    _write_text(args.out, text)
    return 0


def cmd_patterns(args) -> int:
    codes = code1, code2 = _codes(args)
    _check_period(code1, code2)
    pset = _resolve_rows(args, code1)
    c1 = pset.constituent1()
    c2 = pset.constituent2()
    m1 = weight2_minima(code1, c1.p_u, c1.p_z)
    m2 = weight2_minima(code2, c2.p_u, c2.p_z)
    core1 = punctured_core_weights(code1, c1.p_z)
    core2 = punctured_core_weights(code2, c2.p_z)
    entries = {
        "sys": row_to_string(pset.sys), "par1": row_to_string(pset.par1),
        "par2": row_to_string(pset.par2),
        "n_probe": max(probe_length(code1, c1.period),
                       probe_length(code2, c2.period)),
    }
    try:
        rate = str(code_rate(pset))
    except ValueError:
        # every output punctured; still report the classification
        rate = "undefined"
    body = [
        f"sys  = [{row_to_string(pset.sys)}]",
        f"par1 = [{row_to_string(pset.par1)}]",
        f"par2 = [{row_to_string(pset.par2)}]",
        f"period = {pset.period}",
        f"rate = {rate}",
        f"constituent 1 ({code1.label()}): {classification(m1[0], core1)}",
        f"  core_weights = {core1}",
        f"  d_min = {m1[0]}, z_min = {m1[1]}",
        f"constituent 2 ({code2.label()}): {classification(m2[0], core2)}",
        f"  core_weights = {core2}",
        f"  z_min = {m2[1]}",
        f"d_free_eff = {d_free_eff(m1, m2)}",
    ]
    text = "\n".join(_metadata("patterns", codes, entries) + body) + "\n"
    _write_text(args.out, text)
    return 0


def _search_p2(code1, code2, contenders, n, rate, db, d_min):
    """P(2) of each contender, from the spectrum, union sum and proof that
    `bound` uses at one certified horizon: each distinct parity row is
    walked once, each spectrum is one product of two packed marginals,
    and every contender reads one table of Q values.  d_min, the largest
    weight-2 distance among the contenders, steers the horizon: a smaller
    one only makes rebuilds at D* likelier."""
    total = weight2_total(code1, n) * weight2_total(code2, n)
    horizon = certified_horizon(rate, db, d_min, total)
    spectrum = weight2_spectra(code1, code2, n)  # held for this command only
    q_tables, out = {}, []
    for rows in contenders:
        out += certified_p2(partial(spectrum, *rows), total, n, rate, (db,), horizon, q_tables)
    return out


def _rows(length: int, ones: int) -> list[tuple[int, ...]]:
    """Every 0/1 row of the given length and weight, in combinations order."""
    out = []
    for pos in combinations(range(length), ones):
        bits = [0] * length
        for p in pos:
            bits[p] = 1
        out.append(tuple(bits))
    return out


def cmd_search(args) -> int:
    codes = code1, code2 = _codes(args)
    rate = _parse_rate(args.rate)
    m = args.period
    if not 1 <= m <= 12:
        raise ValueError("--period must lie in [1, 12]")
    _check_block(args.n, code1, code2)
    grid = _parse_snr(args.snr)
    if len(grid) != 1:
        raise ValueError("search ranks at a single --snr value")
    if args.top < 1:
        raise ValueError("--top must be positive")
    kept, rem = divmod(m * rate.denominator, rate.numerator)
    if rem or not m <= kept <= 3 * m:
        raise ValueError(f"no pattern of period {m} meets rate {rate}")
    count = comb(3 * m, kept)
    if count > SEARCH_CANDIDATE_LIMIT:
        raise ValueError(
            f"search space C({3 * m},{kept}) = {count} exceeds "
            f"{SEARCH_CANDIDATE_LIMIT}; reduce --period")

    # candidates by the weight k of (sys, par1): every pair of weight k
    # meets every par2 row of weight kept - k
    classes = []
    for k in range(max(0, kept - m), min(2 * m, kept) + 1):
        pairs = [(bits[:m], bits[m:]) for bits in _rows(2 * m, k)]
        classes.append((pairs, _rows(m, kept - k)))

    # behind the uniform interleaver d_free_eff splits into a constituent-1
    # part and a par2 part, so each distinct (sys, par1) pair and par2 row
    # is screened once, off the weight-2 heads of the block that `bound`
    # reads, walked once per distinct parity row and code
    heads = {code: cache(partial(weight2_heads, code, m_period=m, n=args.n)) for code in codes}
    heads1, heads2 = heads[code1], heads[code2]
    m1s = {}
    for pairs, _ in classes:
        for sys_row, par1 in pairs:
            rows = heads1(par1)
            m1s[sys_row, par1] = weight2_least(rows, sys_row), rows[0][0]
    # constituent 2 keeps no systematic bit, so both its minima are the least z
    m2s = {par2: (heads2(par2)[0][0],) * 2 for _, rows in classes for par2 in rows}

    def triples():
        """Every candidate with its two constituents' minima."""
        for pairs, rows in classes:
            row_minima = [(par2, m2s[par2]) for par2 in rows]
            for pair in pairs:
                m1 = m1s[pair]
                for par2, m2 in row_minima:
                    yield (*pair, par2), m1, m2

    dfree = [d_free_eff(m1, m2) for _, m1, m2 in triples()]
    feasible = sum(d > 0 for d in dfree)
    if not feasible:
        raise ValueError(f"no non-catastrophic pattern of period {m} at rate {rate}")

    # P(2) is only needed for distance classes that can reach the top-K cut
    threshold = nlargest(min(args.top, feasible), dfree)[-1]
    contenders = [(d, rows) for d, (rows, _, _) in zip(dfree, triples())
                  if d >= threshold]
    p2_values = _search_p2(code1, code2, [rows for _, rows in contenders],
                           args.n, rate, grid[0], max(dfree))
    ranked = sorted(
        ((d, p2, rows) for (d, rows), p2 in zip(contenders, p2_values)),
        key=lambda item: (-item[0], item[1], item[2]))

    entries = {
        "rate": rate, "period": m, "n": args.n, "snr": _snr_text(args.snr),
        "top": args.top, "candidates": count, "feasible": feasible,
    }
    header = "rank,sys,par1,par2,d_free_eff,p2"
    rows_out = [
        ",".join((str(i + 1), row_to_string(sys_row), row_to_string(par1_row),
                  row_to_string(par2_row), str(d), _PROB.format(p2)))
        for i, (d, p2, (sys_row, par1_row, par2_row))
        in enumerate(ranked[:args.top])
    ]
    text = "\n".join(_metadata("search", codes, entries) + [header] + rows_out) + "\n"
    _write_text(args.out, text)
    return 0


def cmd_verify(args) -> int:
    report = run_verification(jobs=args.jobs)
    text = report.summary()
    _write_text(args.out, text)
    if args.out is not None:
        sys.stdout.write(text.splitlines()[-1] + "\n")
    return 0 if report.all_ok else 3


def _add_code_flags(p) -> None:
    p.add_argument("--gr1", required=True, metavar="OCT",
                   help="encoder 1 feedback polynomial, octal, lsb first")
    p.add_argument("--gf1", required=True, metavar="OCT",
                   help="encoder 1 feedforward polynomial, octal")
    p.add_argument("--gr2", metavar="OCT",
                   help="encoder 2 feedback (default: same as encoder 1)")
    p.add_argument("--gf2", metavar="OCT",
                   help="encoder 2 feedforward (default: same as encoder 1)")


def _add_pattern_flags(p) -> None:
    p.add_argument("--sys", metavar="BITS", help="systematic keep/drop row")
    p.add_argument("--par1", metavar="BITS", help="first parity keep/drop row")
    p.add_argument("--par2", metavar="BITS", help="second parity keep/drop row")
    p.add_argument("--pseudo", choices=("A", "B"),
                   help="derive a rate-1/2 pattern from the feedback m-sequence "
                        "(needs a primitive feedback polynomial)")
    p.add_argument("--keep-zero", type=int, metavar="COL",
                   help="variant B: 1-based column of the single kept "
                        "systematic zero (default: the last zero column)")


def _add_out_flag(p) -> None:
    p.add_argument("--out", metavar="PATH",
                   help="write the report here (default: stdout); the file is "
                        "replaced atomically")


@cache  # built once per process: it holds no state from any input
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="turbobound",
        description="Union-bound analysis of punctured parallel turbo codes.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "bound", help="dominant-term and truncated union-bound curves as CSV",
        description="Emit CSV bound curves. Columns: ebn0_db, p2 and, when "
                    "--wmax exceeds 2, the truncated union bound plus the "
                    "ratio p2/bound taken before clamping to 1.")
    _add_code_flags(p)
    _add_pattern_flags(p)
    p.add_argument("--n", type=int, required=True, help="interleaver size")
    p.add_argument("--snr", default="0:8:0.5", metavar="GRID",
                   help="Eb/N0 grid in dB, START:STOP:STEP or one value "
                        "(default %(default)s)")
    p.add_argument("--wmax", type=int, default=3,
                   help="largest input weight in the truncated bound "
                        "(default %(default)s)")
    p.add_argument("--dmax", type=int, default=120,
                   help="largest retained distance (default %(default)s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; bound runs single-threaded")
    _add_out_flag(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser(
        "patterns", help="report rows, rate, classification and distances",
        description="Resolve a puncturing pattern and report its rows, rate, "
                    "classification, core parity weights and minimum "
                    "distances.")
    _add_code_flags(p)
    _add_pattern_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser(
        "search", help="exhaustively rank period-M patterns at a target rate",
        description="Enumerate every (sys, par1, par2) row triple of the "
                    "given period meeting the target rate exactly, discard "
                    "catastrophic ones, and rank the rest: effective free "
                    "distance descending, then P(2) at --snr ascending, then "
                    "lexicographic row order.")
    _add_code_flags(p)
    p.add_argument("--rate", required=True, metavar="P/Q", help="target code rate")
    p.add_argument("--period", type=int, required=True, metavar="M",
                   help="puncturing period")
    p.add_argument("--n", type=int, default=1000,
                   help="interleaver size for the P(2) tie-break "
                        "(default %(default)s)")
    p.add_argument("--snr", default="6", metavar="DB",
                   help="single Eb/N0 in dB for the tie-break (default %(default)s)")
    p.add_argument("--top", type=int, default=20,
                   help="how many patterns to emit (default %(default)s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; search runs single-threaded")
    _add_out_flag(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "verify", help="cross-check closed forms against both oracles",
        description="Run the fixed verification grid: closed-form weight-2 "
                    "enumerators against the trellis dynamic program and "
                    "brute force. Exits 3 on any mismatch.")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per CPU")
    _add_out_flag(p)
    p.set_defaults(func=cmd_verify)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one stderr line in the form of an error line: the
    message alone, with no source location."""
    print(f"turbobound: warning: {message}", file=sys.stderr)


def entrypoint(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            if args.out is not None:
                _check_out(args.out)
            if getattr(args, "jobs", 1) < 1:
                raise ValueError("--jobs must be at least 1")
            return args.func(args)
        except ValueError as exc:
            print(f"turbobound: error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(entrypoint())
