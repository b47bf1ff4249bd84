"""Tests of the benchmark's own code: tracing arithmetic, golden
comparison, seeded inputs and failure counting."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench_tasks  # noqa: E402
import bench_trace  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_children_including_nested_same_layer_calls():
    clock = FakeClock()
    tracer = bench_trace.Tracer(clock=clock)
    inner = tracer.wrap("fp_linalg.row_space_basis", lambda: clock.advance(3.0))
    other = tracer.wrap("scalars.is_prime", lambda: clock.advance(1.0))

    def body():
        clock.advance(2.0)
        inner()
        clock.advance(1.0)
        other()
        clock.advance(3.0)

    tracer.wrap("fp_linalg.kernel_basis", body)()
    stats = bench_trace.summarize(tracer.spans)
    assert stats["fp_linalg.kernel_basis.self_s"] == 6.0
    assert stats["fp_linalg.row_space_basis.self_s"] == 3.0
    assert stats["layer.fp_linalg.self_s"] == 9.0
    assert stats["layer.scalars.self_s"] == 1.0
    # Only the outermost call of the layer counts as a layer call.
    assert stats["fp_linalg.outer_calls"] == 1
    assert stats["fp_linalg.outer_s"] == 10.0
    assert stats["fp_linalg.row_space_basis.total_s"] == 3.0


def test_recursive_calls_count_once_in_total_but_split_self_time():
    clock = FakeClock()
    tracer = bench_trace.Tracer(clock=clock)

    def power(k):
        clock.advance(1.0)
        if k:
            traced(k - 1)

    traced = tracer.wrap("group_ring.mul", power)
    traced(2)
    stats = bench_trace.summarize(tracer.spans)
    assert stats["group_ring.mul.calls"] == 3
    assert stats["group_ring.mul.self_s"] == 3.0
    assert stats["group_ring.mul.total_s"] == 3.0


def test_probe_time_is_not_charged_to_the_enclosing_span():
    clock = FakeClock()
    tracer = bench_trace.Tracer(clock=clock)

    def probe(a, b):
        clock.advance(5.0)
        return a * b

    mul = tracer.wrap("group_ring.mul", lambda a, b: clock.advance(1.0), probe=probe)

    def invert():
        clock.advance(2.0)
        mul(2, 3)
        mul(4, 5)

    tracer.wrap("group_ring.invert", invert)()
    stats = bench_trace.summarize(tracer.spans)
    assert stats["group_ring.invert.self_s"] == 2.0
    assert stats["group_ring.mul.probe"] == 26
    metrics = bench_trace.layer_metrics(stats, mul_table_entries=0)
    assert metrics["group_ring.invert.muls_per_call"] == 2.0
    assert metrics["group_ring.mul.coeff_pairs"] == 26
    assert metrics["layer.group_ring.self_s"] == 4.0


def test_golden_comparison_looks_only_at_golden_keys():
    golden = {"module": "h1x", "groups": {"h0": {"dim": 1}}, "rows": [{"passed": True}]}
    actual = {
        "module": "h1x",
        "groups": {"h0": {"dim": 1, "kernel_dim": 1}},
        "rows": [{"passed": True, "seconds": 0.1}],
        "timings": {"total": 0.2},
        "tables_sha256": "00",
    }
    assert bench_tasks.matches_golden(golden, actual)
    assert not bench_tasks.matches_golden(golden, {**actual, "module": "h1u"})
    assert not bench_tasks.matches_golden(golden, {k: v for k, v in actual.items() if k != "groups"})
    assert not bench_tasks.matches_golden(golden, {**actual, "rows": [{"passed": 1}]})
    assert not bench_tasks.matches_golden(golden, {**actual, "rows": actual["rows"] * 2})


def test_golden_paper_cli_records_the_expected_exit_code_one():
    commands = bench_tasks.load_golden("paper_cli.json")["commands"]
    codes = {" ".join(c["argv"]): c["exit_code"] for c in commands}
    assert codes["reproduce-paper --json"] == 1
    assert codes["cohomology --validate-paper --json"] == 1
    assert sorted(set(codes.values())) == [0, 1]


def test_same_seed_gives_byte_identical_inputs():
    for make in (bench_tasks.ladder_group_ring_inputs, bench_tasks.ladder_cohomology_inputs):
        assert json.dumps(make(7)).encode() == json.dumps(make(7)).encode()
        assert json.dumps(make(7)) != json.dumps(make(8))


def test_a_raising_task_counts_as_failed_and_the_run_goes_on():
    import fermat_homology

    non_unit = {"kind": "invert", "ring": "zmod", "n": 5, "arity": 1, "coeffs": [1, 4, 0, 0, 0]}
    unit = {"kind": "invert", "ring": "zmod", "n": 5, "arity": 1, "coeffs": [1, 1, 0, 0, 0]}
    tasks = [
        (bench_tasks.label(spec), lambda spec=spec: bench_tasks.group_ring_task(fermat_homology, spec))
        for spec in (non_unit, unit)
    ]
    result = bench_tasks.run_tasks(tasks)
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert result["failures"][0]["error"].startswith("NotAUnit")
    assert list(result["digests"]) == [bench_tasks.label(unit)]


def test_a_wrong_digest_counts_as_failed():
    result = bench_tasks.run_tasks([("a", lambda: [1]), ("b", lambda: [2])])
    bench_tasks.check_digests(result, {"a": bench_tasks.digest([1]), "b": "0" * 64})
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["failures"] == [{"task": "b", "error": "output digest differs from golden"}]


def test_traced_run_reports_the_per_layer_metrics_benchmark_json_lists():
    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    reported = list(bench_trace.layer_metrics({}, 0)) + ["startup.import_s", "trace.overhead_s"]
    assert [m["name"] for m in declared["per_layer"]] == reported
    assert all(m["unit"] == bench_trace.metric_unit(m["name"]) for m in declared["per_layer"])
