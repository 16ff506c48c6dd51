"""Self-tests of the benchmark harness.

    python3 -m pytest -q benchmarks/test_harness.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_program()
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_percentile_rule_and_sample_count():
    assert run.MIN_SAMPLES == 100
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.samples_beyond(110, 90) == 11


def test_harrell_davis_percentiles():
    assert run.beta_cdf(0.5, 3.0, 3.0) == pytest.approx(0.5, abs=1e-12)
    assert run.beta_cdf(0.3, 1.0, 1.0) == pytest.approx(0.3, abs=1e-12)
    assert run.beta_cdf(0.2, 2.0, 1.0) == pytest.approx(0.04, abs=1e-12)
    assert run.beta_cdf(0.9, 90.9, 10.1) + run.beta_cdf(0.1, 10.1, 90.9) == (
        pytest.approx(1.0, abs=1e-12))
    values = [float(v) for v in range(1, 101)]
    assert run.harrell_davis(values, 50) == pytest.approx(50.5, abs=1e-9)
    assert 89.0 < run.harrell_davis(values, 90) < 92.0
    assert run.harrell_davis([7.0], 90) == pytest.approx(7.0)
    assert run.harrell_davis([4.0] * 37, 90) == pytest.approx(4.0)
    # one sample moving across the median shifts the estimate a little,
    # where the plain median would jump by the whole gap
    gap = [1.0] * 50 + [10.0] * 51
    moved = [1.0] * 51 + [10.0] * 50
    assert abs(run.harrell_davis(gap, 50) - run.harrell_davis(moved, 50)) < 1.0


def test_self_time_subtracts_nested_spans():
    ticks = iter([0.0, 1.0, 4.0, 4.0, 10.0, 10.0, 11.0, 11.5, 11.5])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()      # spans 0..10 around 1..4
    inner()      # top-level span 11..11.5
    assert tracer.stats["outer"].self_s == pytest.approx(7.0)
    assert tracer.stats["inner"].self_s == pytest.approx(3.5)
    assert tracer.stats["inner"].calls == 2


def test_failed_span_is_still_subtracted():
    ticks = iter([0.0, 2.0, 5.0, 9.0, 9.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("no")

    inner = tracer.wrap("inner", boom)

    def body():
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("outer", body)()
    assert tracer.stats["inner"].self_s == pytest.approx(3.0)
    assert tracer.stats["outer"].self_s == pytest.approx(6.0)


def _bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "turbobound" or name.startswith("turbobound.")
            for attr, value in vars(module).items()}


def test_wrappers_cover_every_binding_and_are_restored(tmp_path):
    from turbobound import cli, pccc
    before = _bindings()
    original = pccc.p2_slice
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pccc.p2_slice is not original
        assert cli.p2_slice is pccc.p2_slice
        assert sum(v is original for v in _bindings().values()) == 0
        cli.entrypoint(["bound", "--gr1", "15", "--gf1", "17", "--n", "40",
                        "--snr", "3", "--wmax", "2", "--out", str(tmp_path / "out")])
        assert tracer.stats["pccc.p2_slice"].calls >= 1
        assert tracer.stats["cli.entrypoint"].calls == 1
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_never_repeat(name):
    for seed in (0, 1, 7):
        workload = workloads.WORKLOADS[name](seed)
        pool = workload.pool()
        keys = [op.key for op in pool]
        assert len(keys) == len(set(keys))
        assert workload.warmup().key not in set(keys)
        if name == "verify-batches":
            cases = [c for op in pool for c in op.cases]
            cases += list(workload.warmup().cases)
            assert len(cases) == len(set(cases)) == len(workload.grid) - 20
            assert all(sorted(c.n for c in op.cases)[-1] == 200 for op in pool)
    again = workloads.WORKLOADS[name](0).pool()
    assert [op.label() for op in again] == [op.label() for op in
                                            workloads.WORKLOADS[name](0).pool()]


def test_bound_mix_is_the_same_for_every_seed():
    mixes = []
    for seed in (0, 1):
        ops = workloads.bound_pool(seed, blocks=1)
        mixes.append(sorted((o.gr, o.gf, o.kind) for o in ops))
        assert sum(o.wmax == 3 for o in ops) * 4 == len(ops)
        assert all(500 <= o.n <= 4000 for o in ops)
    assert mixes[0] == mixes[1]


def test_reference_matches_the_default_seed_inputs():
    for name, cls in workloads.WORKLOADS.items():
        ref = run.load_reference(name, run.DEFAULT_SEED)
        assert ref is not None, f"no reference for {name}"
        pool = cls(run.DEFAULT_SEED).pool()
        assert [e["label"] for e in ref] == [op.label() for op in pool[:len(ref)]]


@pytest.fixture()
def bound_case(tmp_path):
    workload = workloads.BoundCurves(0)
    op = workload.warmup()
    return workload, op, workload.run(op, str(tmp_path / "out"))


def test_checker_accepts_a_good_bound_report(bound_case):
    workload, op, outputs = bound_case
    assert workload.check(op, outputs) == []
    assert workloads.compare_lines(workloads.body_lines(outputs),
                                   workloads.body_lines(outputs)) == []


def _replace_field(text, row, column, value):
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    target = body[1 + row]
    cells = lines[target].split(",")
    cells[column] = value
    lines[target] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checker_rejects_corrupted_bound_reports(bound_case):
    workload, op, (text,) = bound_case
    rising = _replace_field(text, 16, 1, "9.9e-01")
    assert workload.check(op, [rising])
    above_one = _replace_field(text, 0, 1, "1.5e+00")
    assert workload.check(op, [above_one])
    ratio = _replace_field(text, 3, 3, "1.00000000001e+00")
    assert workload.check(op, [ratio])
    assert workload.check(op, [text.replace("ebn0_db,p2", "ebn0_db,p3")])


def test_reference_compare_tolerance(bound_case):
    _, _, (text,) = bound_case
    want = workloads.body_lines([text])
    value = float(want[5].split(",")[1])
    nudged = _replace_field(text, 4, 1, f"{value * (1 + 1e-12):.11e}")
    assert workloads.compare_lines(want, workloads.body_lines([nudged])) == []
    moved = _replace_field(text, 4, 1, f"{value * (1 + 1e-6):.11e}")
    assert workloads.compare_lines(want, workloads.body_lines([moved]))
    flag = _replace_field(text, 4, 4, "1")
    assert workloads.compare_lines(want, workloads.body_lines([flag]))


def test_checker_rejects_corrupted_verify_and_design_reports(tmp_path):
    verify = workloads.VerifyBatches(0)
    op = verify.warmup()
    (summary,) = verify.run(op, str(tmp_path / "out"))
    assert verify.check(op, [summary]) == []
    assert verify.check(op, [summary.replace("PASS", "FAIL", 1)])
    assert verify.check(op, [summary.replace("n=3", "n=3 [dp-only]", 1)])

    design = workloads.PatternDesign(0)
    op = design.warmup()
    outputs = design.run(op, str(tmp_path / "out"))
    assert design.check(op, outputs) == []
    assert design.check(op, outputs[:1] + outputs[2:])
    assert design.check(op, [outputs[0]] + [t.replace("d_free_eff = ", "d_free_eff = 9")
                                            for t in outputs[1:]])
    first = outputs[0].splitlines()
    head = [i for i, line in enumerate(first) if line.startswith("rank")][0]
    first[head + 1], first[head + 2] = first[head + 2], first[head + 1]
    assert design.check(op, ["\n".join(first) + "\n"] + outputs[1:])


def test_closed_loop_counts_every_kind_of_failure(tmp_path):
    class Fake:
        def run(self, op, out):
            if op.kind == "raise":
                raise RuntimeError("boom")
            if op.kind == "exit":
                raise SystemExit(1)
            return ["bad" if op.kind == "bad" else "good"]

        def check(self, op, outputs):
            return [] if outputs == ["good"] else ["wrong output"]

    class Op:
        def __init__(self, kind):
            self.kind = kind

        def label(self):
            return self.kind

    pool = [Op(k) for k in ("good", "raise", "exit", "bad", "good")]
    loop = run.closed_loop(Fake(), pool, str(tmp_path), seconds=60)
    assert len(loop.latencies) == 5
    assert [label for label, _ in loop.failures] == ["raise", "exit", "bad"]
    assert loop.exhausted


def test_spec_names_every_metric_the_run_computes():
    spec = json.loads(run.SPEC.read_text())
    layer = {m["name"] for m in spec["per_layer"]}
    for module, names in tracing.LAYERS.items():
        for fname in names:
            assert {f"{module}.{fname}.calls", f"{module}.{fname}.self_s"} <= layer
        assert f"{module}.self_share" in layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"}
