#!/usr/bin/env python3
"""Closed-loop benchmark of the turbobound package.

    python3 benchmarks/run.py --workload bound-curves --seed 0 --seconds 30 --trace 0

One client calls a public entry point with --jobs 1, waits for it to
return, checks the output, and only then sends the next input: a closed
loop with one client.  --trace 0 prints the end-to-end metrics listed in
BENCHMARK.json; --trace 1 is a separate run that traces every layer and
prints the per-layer metrics, including the tracing overhead against an
untraced replay of the same inputs.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Run it
from the root of a checkout; it imports the package from src/.
The workloads module imports turbobound, so it is imported only once
the set-up clock runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE_DIR = BENCH_DIR / "reference"
DEFAULT_SEED = 0
REFERENCE_OPS = 24
SETUP_SAMPLES = 5          # this process plus four fresh child processes
TAIL_PERCENT = 90
TAIL_SAMPLES = 10
LOOP_CAP_S = 120.0         # keeps one run well inside three minutes
CHILD_TIMEOUT_S = 150.0


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(sorted_values, percent: float) -> float:
    """Harrell-Davis estimate of a percentile: a Beta-weighted mean of all
    order statistics, centred on the percentile's rank.  Unlike a single
    order statistic it does not jump when noise reorders the samples
    next to the rank, which matters where op costs cluster with gaps."""
    n = len(sorted_values)
    a, b = (n + 1) * percent / 100.0, (n + 1) * (1.0 - percent / 100.0)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return math.fsum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], sorted_values))


def samples_beyond(count: int, percent: int) -> int:
    """How many of `count` distinct samples lie above the nearest-rank percentile."""
    return count - max(-(-percent * count // 100), 1)


def min_samples(percent: int, tail: int) -> int:
    count = 1
    while samples_beyond(count, percent) < tail:
        count += 1
    return count


MIN_SAMPLES = min_samples(TAIL_PERCENT, TAIL_SAMPLES)


def import_program():
    """Import turbobound from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import turbobound
    if Path(turbobound.__file__).resolve().parent != SRC / "turbobound":
        raise ImportError(f"turbobound came from {turbobound.__file__}, not {SRC}")


@dataclass
class Loop:
    ops: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    exhausted: bool = True      # the pool ran out before the time did

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def check_op(workload, op, outputs, reference, index) -> list[str]:
    try:
        problems = workload.check(op, outputs)
    except Exception as exc:  # a malformed output can break a parser
        return [f"output check raised {type(exc).__name__}: {exc}"]
    if not problems and reference is not None and index < len(reference):
        from workloads import body_lines, compare_lines  # loaded by set_up
        entry = reference[index]
        if entry["label"] != op.label():
            problems = [f"reference is for {entry['label']!r}"]
        else:
            problems = compare_lines(entry["lines"], body_lines(outputs))
    return problems


def closed_loop(workload, pool, tmp, seconds, min_count=1, max_ops=None,
                reference=None) -> Loop:
    loop = Loop()
    out = os.path.join(tmp, "report.out")
    start, cpu_start = time.perf_counter(), time.process_time()
    for index, op in enumerate(pool):
        elapsed = time.perf_counter() - start
        if max_ops is not None:
            stop = index >= max_ops
        else:
            stop = (elapsed >= seconds and index >= min_count) or elapsed >= LOOP_CAP_S
        if stop:
            loop.exhausted = False
            break
        t0 = time.perf_counter()
        try:
            outputs = workload.run(op, out)
        except (Exception, SystemExit) as exc:   # argparse exits on bad argv
            outputs, problems = None, [f"{type(exc).__name__}: {exc}"]
        loop.latencies.append(time.perf_counter() - t0)
        if outputs is not None:
            problems = check_op(workload, op, outputs, reference, index)
        loop.ops.append(op)
        if problems:
            loop.failures.append((op.label(), problems))
    loop.wall_s = time.perf_counter() - start
    loop.cpu_s = time.process_time() - cpu_start
    return loop


def set_up(name: str, seed: int, tmp: str, tracer=None):
    """Input generation and one checked warm-up operation (after import)."""
    import workloads
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[name](seed)
    pool = workload.pool()
    warm = workload.warmup()
    problems = workload.check(warm, workload.run(warm, os.path.join(tmp, "warmup.out")))
    if problems:
        raise RuntimeError(f"warm-up {warm.label()} failed: {problems}")
    return workload, pool


def run_child(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())] + args,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child run {args} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "turbobound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(args) -> dict:
    import numpy
    return {
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
    }


def load_reference(name: str, seed: int):
    path = REFERENCE_DIR / f"{name}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    return json.loads(path.read_text())["ops"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(loop: Loop, setup_samples: list[float]) -> dict[str, float]:
    ms = sorted(1000.0 * t for t in loop.latencies)
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(ms) / loop.busy_s,
        "latency_p50_ms": harrell_davis(ms, 50),
        "latency_p90_ms": harrell_davis(ms, TAIL_PERCENT),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(loop: Loop, stats: dict, setup_stats: dict,
              untraced_ops_per_s: float) -> dict[str, float]:
    values = {}
    busy = loop.busy_s
    for layer, names in LAYERS.items():
        share = setup = 0.0
        for fname in names:
            name = f"{layer}.{fname}"
            stat = stats[name]
            values[f"{name}.calls"] = stat.calls
            values[f"{name}.self_s"] = stat.self_s
            share += stat.self_s
            setup += setup_stats[name].self_s
        values[f"{layer}.self_share"] = share / busy
        values[f"setup.{layer}.self_s"] = setup

    def ratio(num, den):
        return num / den if den else 0.0

    cwef, p2 = stats["cwef.cwef_w2_punctured"], stats["pccc.p2_slice"]
    combine, brute = stats["pccc.combine_uniform_interleaver"], stats["oracle.brute_force_cwef"]
    values.update({
        "cwef.cwef_w2_punctured.terms_out": cwef.counts.get("terms_out", 0),
        "cwef.cwef_w2_punctured.unique_ratio": ratio(len(cwef.keys), cwef.calls),
        "pccc.combine_uniform_interleaver.pairs": combine.counts.get("pairs", 0),
        "pccc.combine_uniform_interleaver.terms_out": combine.counts.get("terms_out", 0),
        "pccc.union_bound_term.terms": stats["pccc.union_bound_term"].counts.get("terms", 0),
        "pccc.p2_slice.unique_ratio": ratio(len(p2.keys), p2.calls),
        "oracle.exact_cwef_dp.cells": stats["oracle.exact_cwef_dp"].counts.get("cells", 0),
        "oracle.brute_force_cwef.inputs": brute.counts.get("inputs", 0),
        "oracle.brute_force_cwef.useful_ratio": ratio(brute.counts.get("remerging", 0),
                                                      brute.counts.get("inputs", 0)),
        "run.ops": len(loop.latencies),
        "run.cpu_ratio": loop.cpu_s / loop.wall_s,
        "run.attributed_share": sum(s.self_s for s in stats.values()) / busy,
        "run.ops_per_s_traced": len(loop.latencies) / busy,
        "run.ops_per_s_untraced": untraced_ops_per_s,
    })
    values["run.trace_overhead_ops_per_s"] = (values["run.ops_per_s_traced"]
                                             - untraced_ops_per_s)
    return values


def emit(values: dict, spec_metrics: list[dict]) -> dict:
    metrics = {}
    for m in spec_metrics:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    return metrics


def record_reference(workload, pool, tmp) -> None:
    from workloads import body_lines
    entries = []
    for op in pool[:REFERENCE_OPS]:
        outputs = workload.run(op, os.path.join(tmp, "report.out"))
        problems = workload.check(op, outputs)
        if problems:
            raise RuntimeError(f"not recording a failing output: {op.label()}: {problems}")
        entries.append({"label": op.label(), "lines": body_lines(outputs)})
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.json"
    with open(path, "w", encoding="ascii") as fh:
        fh.write('{"workload": %s, "seed": %d, "ops": [\n' % (
            json.dumps(workload.name), DEFAULT_SEED))
        fh.write(",\n".join(json.dumps(e) for e in entries))
        fh.write("\n]}\n")
    print(f"recorded {len(entries)} reference outputs in {path}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in json.loads(SPEC.read_text())["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print it (internal)")
    p.add_argument("--ops", type=int,
                   help="run exactly this many operations, one set-up (internal)")
    p.add_argument("--record-reference", action="store_true",
                   help=f"store the outputs of the first {REFERENCE_OPS} "
                        f"operations of seed {DEFAULT_SEED}")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its scratch directory and children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    try:
        import_program()
    except ImportError as exc:
        print(f"benchmark: cannot import turbobound from {SRC}: {exc}", file=sys.stderr)
        return 1
    spec = json.loads(SPEC.read_text())
    tracer = Tracer() if args.trace else None
    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        workload, pool = set_up(args.workload, args.seed, tmp, tracer)
        setup_s = time.perf_counter() - started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.record_reference:
            if args.seed != DEFAULT_SEED:
                raise SystemExit("references are recorded for the default seed only")
            record_reference(workload, pool, tmp)
            return 0
        reference = load_reference(args.workload, args.seed)
        setup_stats = tracer.reset() if tracer else None
        if tracer:
            # the untraced replay of the same operations takes the other half
            loop = closed_loop(workload, pool, tmp, args.seconds / 2,
                               reference=reference)
        else:
            loop = closed_loop(workload, pool, tmp, args.seconds,
                               min_count=1 if args.ops else MIN_SAMPLES,
                               max_ops=args.ops, reference=reference)
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(tmp, ignore_errors=True)

    from workloads import quartiles
    print("metadata " + json.dumps(run_metadata(args)))
    traffic = workload.traffic(loop.ops)
    traffic["pool_exhausted"] = loop.exhausted
    rule = "traced" if tracer else f"p{TAIL_PERCENT} needs {MIN_SAMPLES}"
    print(f"samples {len(loop.latencies)} ({rule}); "
          f"busy {loop.busy_s:.3f} s of {loop.wall_s:.3f} s wall")
    for label, problems in loop.failures[:5]:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    attempted, failed = len(loop.latencies), len(loop.failures)
    print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")

    if tracer:
        stats = tracer.reset()
        replay = run_child(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", "0",
                            "--ops", str(attempted)])
        untraced = replay["metrics"]["ops_per_s"]["value"]
        traffic["p2_spectrum_size_quartiles"] = quartiles(stats["pccc.p2_slice"].sizes)
        print("traffic " + json.dumps(traffic, sort_keys=True))
        metrics = emit(per_layer(loop, stats, setup_stats, untraced), spec["per_layer"])
    else:
        print("traffic " + json.dumps(traffic, sort_keys=True))
        samples = [setup_s]
        if args.ops is None:
            samples += [run_child(["--workload", args.workload, "--seed", str(args.seed),
                                   "--setup-only"])["setup_s"]
                        for _ in range(SETUP_SAMPLES - 1)]
        print("setup_samples_s " + json.dumps([round(s, 4) for s in samples]))
        metrics = emit(end_to_end(loop, samples), spec["end_to_end"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
