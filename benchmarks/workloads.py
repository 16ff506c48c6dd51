"""The three benchmark workloads: seeded inputs, one operation per input
through a public entry point, and the checks that decide whether an
operation failed.

Every program function is reached through its module attribute
(``cli.entrypoint``, ``puncture.classify``, ...) so that the traced run
sees the calls made here, including those made while generating inputs.

Inputs are generated in blocks whose composition is the same for every
seed: each block runs every (code, pattern kind) or (code, rate,
period) combination once, in a fixed order, with sizes from fixed
slices.  The seed picks the sizes within a slice and the SNR, so runs
of different seeds do the same mix of work on different inputs.  No
input identity repeats within a pool, so the package's lru_caches
(``p2_slice``, the trellis DP) never serve a measured operation.
"""

from __future__ import annotations

import math
import os
import random
import re
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from turbobound import cli, gf2, oracle, puncture
from turbobound.rsc import RscCode

SNR_GRID = "0:8:0.5"
SNR_POINTS = tuple(f"{0.5 * i:g}" for i in range(17))
REL_TOL = 1e-9


class OpFailed(Exception):
    """An entry point returned a non-zero exit code."""


def _call_cli(argv: list[str], out: str) -> str:
    code = cli.entrypoint(argv + ["--out", out])
    if code != 0:
        raise OpFailed(f"exit {code} from {' '.join(argv)}")
    with open(out, encoding="ascii") as fh:
        text = fh.read()
    os.unlink(out)
    return text


def parse_report(text: str) -> tuple[dict[str, str], list[str]]:
    """Split a report into its '# key = value' header and its body lines."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        else:
            body.append(line)
    return meta, body


def quartiles(values) -> list[float]:
    values = list(values)
    if len(values) < 2:
        return values * 3
    return [round(q, 3) for q in statistics.quantiles(values, n=4)]


# ---------------------------------------------------------------------------
# bound-curves

BOUND_N_RANGE = (500, 4000)
BOUND_SWEEP = 3     # ops per sweep: low, middle and high third of the range
BOUND_BLOCKS = 20
BOUND_WMAX3_SHARE = 4   # one op in four asks for the --wmax 3 bound


@dataclass(frozen=True)
class BoundOp:
    gr: str
    gf: str
    kind: str                    # "unpunctured", "A", "B" or "random"
    rows: tuple[str, str, str]   # resolved sys, par1, par2
    n: int
    wmax: int

    @property
    def key(self):
        return (self.gr, self.gf, self.rows, self.n)

    def label(self) -> str:
        return (f"bound {self.gr}/{self.gf} {self.kind} "
                f"{','.join(self.rows)} n={self.n} wmax={self.wmax}")

    def argv(self) -> list[str]:
        argv = ["bound", "--gr1", self.gr, "--gf1", self.gf]
        if self.kind in ("A", "B"):
            argv += ["--pseudo", self.kind]
        elif self.kind == "random":
            argv += ["--sys", self.rows[0], "--par1", self.rows[1],
                     "--par2", self.rows[2]]
        argv += ["--n", str(self.n), "--snr", SNR_GRID, "--wmax", str(self.wmax)]
        if self.wmax == 3:
            argv += ["--dmax", "120"]
        return argv + ["--jobs", "1"]


def _random_rows(rng: random.Random, code: RscCode) -> tuple[str, str, str]:
    """Explicit rows of period <= 8, rate below 1, neither constituent
    catastrophic, so every operation on them succeeds."""
    while True:
        m = rng.randint(1, 8)
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(3))
        if sum(map(sum, rows)) <= m:
            continue
        pset = puncture.PcccPunctureSet(*rows)
        c1, c2 = pset.constituent1(), pset.constituent2()
        if puncture.Classification.CATASTROPHIC in (
                puncture.classify(code, c1.p_u, c1.p_z),
                puncture.classify(code, c2.p_u, c2.p_z)):
            continue
        return tuple(puncture.row_to_string(r) for r in rows)


def _fixed_rows(code: RscCode, kind: str) -> tuple[str, str, str]:
    if kind == "unpunctured":
        return ("1", "1", "1")
    pset = puncture.pseudo_random_pattern(code, kind)
    return tuple(puncture.row_to_string(r) for r in (pset.sys, pset.par1, pset.par2))


def _bound_combos() -> list[tuple[str, str, RscCode, str]]:
    """Every (code, pattern kind), grouped by kind so that expensive and
    cheap codes alternate and a run that stops inside a block has run
    the same ops whatever the seed."""
    combos = []
    for kind in ("unpunctured", "random", "A", "B"):
        for gr, gf in oracle.GRID_CODES:
            code = RscCode.from_octals(gr, gf)
            if kind in ("A", "B") and not (
                    code.nu >= 2 and gf2.is_primitive(code.feedback)):
                continue
            combos.append((gr, gf, code, kind))
    return combos


def bound_pool(seed: int, blocks: int = BOUND_BLOCKS) -> list[BoundOp]:
    """Sweeps of three ops sharing one code and pattern at ascending n,
    one from each third of the log-uniform range [500, 4000].

    Each block runs every (code, pattern kind) once, in a fixed order.
    Each third is cut into as many equal slices as there are sweeps; a
    fixed rotation gives every sweep its own slice, different from block
    to block, and the seed picks n within the slice.  A quarter of each
    third uses --wmax 3, on sweeps spread evenly along the code list.
    So every seed runs the same mix of codes, patterns and sizes, and
    the seed changes the exact n."""
    rng = random.Random(f"bound-curves:{seed}")
    # Random rows come from one fixed stream, not from the seed: their
    # cost spans three orders of magnitude, and drawing them per seed
    # moved the median op cost by 16% between seeds.
    rows_rng = random.Random("bound-curves:rows")
    combos = _bound_combos()
    width = len(combos)
    lo, hi = (math.log(v) for v in BOUND_N_RANGE)
    seen = set()
    ops = []
    for block in range(blocks):
        for index in range(width):
            gr, gf, code, kind = combos[index]
            rows = (_random_rows(rows_rng, code) if kind == "random"
                    else _fixed_rows(code, kind))
            for third in range(BOUND_SWEEP):
                piece = (7 * index + 5 * block + 3 * third) % width
                share = BOUND_WMAX3_SHARE
                wmax = 3 if index % share == (block + third) % share else 2
                while True:
                    u = (third + (piece + rng.random()) / width) / BOUND_SWEEP
                    n = min(BOUND_N_RANGE[1], int(math.exp(lo + u * (hi - lo))))
                    op = BoundOp(gr, gf, kind, rows, n, wmax)
                    if op.key not in seen:
                        break
                seen.add(op.key)
                ops.append(op)
    return ops


def check_bound(op: BoundOp, outputs: list[str]) -> list[str]:
    meta, body = parse_report(outputs[0])
    problems = []
    if meta.get("subcommand") != "bound" or meta.get("n") != str(op.n):
        problems.append("header does not echo the request")
    if int(meta.get("d_free_eff", "0")) <= 0:
        problems.append("d_free_eff is not positive")
    if op.wmax == 3:
        want = "ebn0_db,p2,truncated_bound,ratio,p2_clamped,bound_clamped"
    else:
        want = "ebn0_db,p2,p2_clamped"
    if not body or body[0] != want:
        return problems + [f"CSV header {body[:1]} is not {want!r}"]
    rows = [line.split(",") for line in body[1:]]
    if [r[0] for r in rows] != list(SNR_POINTS):
        return problems + ["SNR column differs from the 0:8:0.5 grid"]
    if any(len(r) != len(want.split(",")) for r in rows):
        return problems + ["ragged CSV row"]
    try:
        p2 = [float(r[1]) for r in rows]
        tb = [float(r[2]) for r in rows] if op.wmax == 3 else []
        ratio = [float(r[3]) for r in rows] if op.wmax == 3 else []
    except ValueError as exc:
        return problems + [f"CSV does not parse: {exc}"]
    for name, curve in (("p2", p2), ("truncated_bound", tb)):
        if not all(0.0 < v <= 1.0 for v in curve):
            problems.append(f"{name} leaves (0, 1]")
        if any(b > a for a, b in zip(curve, curve[1:])):
            problems.append(f"{name} increases with SNR")
    if not all(0.0 < v <= 1.0 for v in ratio):
        problems.append("p2/bound ratio leaves (0, 1]")
    return problems


# ---------------------------------------------------------------------------
# verify-batches

VERIFY_BATCH = 5


@dataclass(frozen=True)
class VerifyOp:
    cases: tuple[oracle.GridCase, ...]

    @property
    def key(self):
        return self.cases

    def label(self) -> str:
        return "verify " + "; ".join(c.label() for c in self.cases)


def verify_warmup_cases(grid) -> tuple[oracle.GridCase, ...]:
    """The smallest case of each grid code: cheap, and it fills the
    per-code transition tables before timing starts."""
    first = {}
    for case in grid:
        code = (case.feedback, case.feedforward)
        if code not in first or case.n < first[code].n:
            first[code] = case
    return tuple(first.values())


def verify_pool(seed: int, grid) -> list[VerifyOp]:
    """Batches drawn without replacement from the grid minus the warm-up
    cases, so no case repeats and the trellis DP cache never hits.

    Every (code, pattern) of the grid comes at five block lengths, and
    brute force costs grow as n^3, so each batch takes one case of each
    length rank.  Otherwise the p90 would hinge on how many n = 200
    cases chance puts in one batch.  The 20 cases left over once the
    rank with the fewest cases is used up are not run."""
    warm = set(verify_warmup_cases(grid))
    sizes = {}
    for case in grid:
        sizes.setdefault((case.feedback, case.feedforward), set()).add(case.n)
    ranks = [[] for _ in range(VERIFY_BATCH)]
    for case in grid:
        if case not in warm:
            code_sizes = sorted(sizes[(case.feedback, case.feedforward)])
            ranks[code_sizes.index(case.n)].append(case)
    rng = random.Random(f"verify-batches:{seed}")
    for rank in ranks:
        rng.shuffle(rank)
    return [VerifyOp(batch) for batch in zip(*ranks)]


def check_verify(op: VerifyOp, outputs: list[str]) -> list[str]:
    meta, body = parse_report(outputs[0])
    problems = []
    want = [f"PASS {c.label()}" for c in op.cases]
    if body != want:
        bad = [line for line in body if line not in want]
        problems.append(f"case lines differ from all-PASS with brute force: {bad[:2]}")
    if meta.get("result") != f"PASS ({len(want)}/{len(want)})":
        problems.append(f"result line reads {meta.get('result')!r}")
    return problems


# ---------------------------------------------------------------------------
# pattern-design

DESIGN_CODES = (("15", "17"), ("17", "15"), ("23", "35"))
DESIGN_SHAPES = (("1/2", 2), ("1/2", 3), ("1/2", 4),
                 ("2/3", 2), ("2/3", 4), ("3/4", 3))
DESIGN_N = (200, 400)
DESIGN_SNR = (4, 5, 6, 7)
DESIGN_TOP = 10
DESIGN_FOLLOW_UP = 3
DESIGN_BLOCKS = 50


@dataclass(frozen=True)
class DesignOp:
    gr: str
    gf: str
    rate: str
    period: int
    n: int
    snr: int

    @property
    def key(self):
        # --snr is left out: p2_slice caches on (codes, rows, n) alone
        return (self.gr, self.gf, self.rate, self.period, self.n)

    @property
    def kept(self) -> int:
        rate = Fraction(self.rate)
        return self.period * rate.denominator // rate.numerator

    def label(self) -> str:
        return (f"search {self.gr}/{self.gf} rate={self.rate} "
                f"period={self.period} n={self.n} snr={self.snr}")

    def argv(self) -> list[str]:
        return ["search", "--gr1", self.gr, "--gf1", self.gf,
                "--rate", self.rate, "--period", str(self.period),
                "--n", str(self.n), "--snr", str(self.snr),
                "--top", str(DESIGN_TOP), "--jobs", "1"]


def design_pool(seed: int, blocks: int = DESIGN_BLOCKS) -> list[DesignOp]:
    """Each block runs every (code, rate, period) once, in a fixed order.
    [200, 400] is cut into one slice per combination; a fixed rotation
    gives each combination its own slice, different from block to block,
    and the seed picks n within the slice and --snr from {4, 5, 6, 7}."""
    rng = random.Random(f"pattern-design:{seed}")
    combos = [(gr, gf, rate, m) for gr, gf in DESIGN_CODES
              for rate, m in DESIGN_SHAPES]
    lo, hi = DESIGN_N
    width = (hi - lo + 1) / len(combos)
    seen = set()
    ops = []
    for block in range(blocks):
        for index in range(len(combos)):
            piece = (7 * index + 5 * block) % len(combos)
            while True:
                n = lo + int((piece + rng.random()) * width)
                op = DesignOp(*combos[index], n, rng.choice(DESIGN_SNR))
                if op.key not in seen:
                    break
            seen.add(op.key)
            ops.append(op)
    return ops


def _search_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in parse_report(text)[1][1:]]


def run_design(op: DesignOp, out: str) -> list[str]:
    outputs = [_call_cli(op.argv(), out)]
    for row in _search_rows(outputs[0])[:DESIGN_FOLLOW_UP]:
        outputs.append(_call_cli(
            ["patterns", "--gr1", op.gr, "--gf1", op.gf,
             "--sys", row[1], "--par1", row[2], "--par2", row[3]], out))
    return outputs


def check_design(op: DesignOp, outputs: list[str]) -> list[str]:
    meta, body = parse_report(outputs[0])
    problems = []
    if meta.get("candidates") != str(math.comb(3 * op.period, op.kept)):
        problems.append(f"candidates = {meta.get('candidates')}, "
                        f"not C({3 * op.period},{op.kept})")
    if not body or body[0] != "rank,sys,par1,par2,d_free_eff,p2":
        return problems + ["search CSV header is wrong"]
    rows = _search_rows(outputs[0])
    feasible = int(meta.get("feasible", "0"))
    if len(rows) != min(DESIGN_TOP, feasible):
        problems.append(f"{len(rows)} rows for {feasible} feasible patterns")
    keys = []
    for i, row in enumerate(rows):
        try:
            rank, d, p2 = int(row[0]), int(row[4]), float(row[5])
        except (ValueError, IndexError):
            return problems + [f"search row {row} does not parse"]
        bits = row[1:4]
        if rank != i + 1 or d <= 0 or not 0.0 < p2 < math.inf:
            problems.append(f"bad rank, distance or P(2) in row {row}")
        if any(len(b) != op.period or set(b) - {"0", "1"} for b in bits):
            problems.append(f"row {row} is not three period-{op.period} rows")
        elif sum(b.count("1") for b in bits) != op.kept:
            problems.append(f"row {row} misses rate {op.rate}")
        keys.append((-d, p2))
    if keys != sorted(keys):
        problems.append("search rows are out of rank order")
    if len(outputs) != 1 + min(DESIGN_FOLLOW_UP, len(rows)):
        return problems + ["missing patterns reports"]
    for row, text in zip(rows, outputs[1:]):
        pmeta, lines = parse_report(text)
        if (pmeta.get("sys"), pmeta.get("par1"), pmeta.get("par2")) != tuple(row[1:4]):
            problems.append(f"patterns report is not about row {row}")
        want = {f"period = {op.period}", f"rate = {Fraction(op.rate)}",
                f"d_free_eff = {row[4]}"}
        if not want <= set(lines):
            problems.append(f"patterns report disagrees with search row {row}: "
                            f"missing {sorted(want - set(lines))}")
        if any(line.endswith(": Catastrophic") for line in lines):
            problems.append(f"search ranked a catastrophic row {row}")
    return problems


# ---------------------------------------------------------------------------
# reference comparison

_SEPARATORS = re.compile(r"([\s,=\[\]():/]+)")


def _same_token(a: str, b: str) -> bool:
    if a == b:
        return True
    if not any(c in a for c in ".eE") or not any(c in b for c in ".eE"):
        return False  # integers and row strings match exactly
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare_lines(want: list[str], got: list[str]) -> list[str]:
    """Compare report bodies token by token: integers and row strings
    exactly, probabilities to relative 1e-9."""
    if len(want) != len(got):
        return [f"{len(got)} body lines where the reference has {len(want)}"]
    for i, (a, b) in enumerate(zip(want, got)):
        ta, tb = _SEPARATORS.split(a), _SEPARATORS.split(b)
        if len(ta) != len(tb) or not all(map(_same_token, ta, tb)):
            return [f"line {i} reads {b!r}, reference {a!r}"]
    return []


def body_lines(outputs: list[str]) -> list[str]:
    lines = []
    for text in outputs:
        lines += parse_report(text)[1] + ["--"]
    return lines


# ---------------------------------------------------------------------------
# workload table


class Workload:
    """One workload: pool(), warmup(), run(op, out), check(op, outputs)
    and traffic(ops), all for the seed given at construction."""

    name: str

    def __init__(self, seed: int):
        self.seed = seed


class BoundCurves(Workload):
    name = "bound-curves"

    def pool(self):
        return bound_pool(self.seed)

    def warmup(self):
        # n = 499 lies below the measured range, so it never repeats an input
        rows = _fixed_rows(RscCode.from_octals("15", "17"), "A")
        return BoundOp("15", "17", "A", rows, 499, 3)

    def run(self, op, out):
        return [_call_cli(op.argv(), out)]

    check = staticmethod(check_bound)

    def traffic(self, ops):
        return {
            "ops_per_code_kind": dict(Counter(f"{o.gr}/{o.gf} {o.kind}" for o in ops)),
            "n_quartiles": quartiles(o.n for o in ops),
            "wmax3_share": round(sum(o.wmax == 3 for o in ops) / max(1, len(ops)), 4),
            "random_row_period_quartiles": quartiles(
                len(o.rows[0]) for o in ops if o.kind == "random"),
        }


class VerifyBatches(Workload):
    name = "verify-batches"

    def __init__(self, seed):
        super().__init__(seed)
        self.grid = oracle.default_verification_grid()

    def pool(self):
        return verify_pool(self.seed, self.grid)

    def warmup(self):
        return VerifyOp(verify_warmup_cases(self.grid))

    def run(self, op, out):
        return [oracle.run_verification(cases=op.cases, jobs=1).summary()]

    check = staticmethod(check_verify)

    def traffic(self, ops):
        cases = [c for o in ops for c in o.cases]
        return {
            "cases": len(cases),
            "grid_share": round(len(cases) / len(self.grid), 4),
            "cases_per_code": dict(Counter(f"{c.feedback}/{c.feedforward}"
                                           for c in cases)),
            "n_quartiles": quartiles(c.n for c in cases),
            "pattern_period_quartiles": quartiles(
                math.lcm(len(c.p_u), len(c.p_z)) for c in cases),
        }


class PatternDesign(Workload):
    name = "pattern-design"

    def pool(self):
        return design_pool(self.seed)

    def warmup(self):
        # n = 199 lies below the measured range, so it never repeats an input
        return DesignOp("15", "17", "1/2", 2, 199, 6)

    run = staticmethod(run_design)
    check = staticmethod(check_design)

    def traffic(self, ops):
        return {
            "ops_per_code": dict(Counter(f"{o.gr}/{o.gf}" for o in ops)),
            "ops_per_rate_period": dict(Counter(f"{o.rate}@{o.period}" for o in ops)),
            "n_quartiles": quartiles(o.n for o in ops),
            "snr_counts": dict(Counter(str(o.snr) for o in ops)),
            "candidates_quartiles": quartiles(
                math.comb(3 * o.period, o.kept) for o in ops),
        }


WORKLOADS = {cls.name: cls for cls in (BoundCurves, VerifyBatches, PatternDesign)}
