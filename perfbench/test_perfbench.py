"""Cheap checks of the benchmark's own machinery: A2/A3, paper36 and one
non-default seed, so they add well under a second to the test suite."""

import io
import json
import random
from pathlib import Path

import benchtrace
import benchwork
import run
from torslat import silting

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def small_workload():
    """A2 and A3 through tors_lattice plus the paper36 spectrum inputs."""
    rng = random.Random(SEED)
    cases = [
        benchwork._tors_case("A2", benchwork.dynkin(rng, "A", 2), 5),
        benchwork._tors_case("A3", benchwork.dynkin(rng, "A", 3), 14),
    ]
    spectra = benchwork.make_workload("spectra-lattices", SEED, ROOT)
    cases += [c for c in spectra.cases if c.name.startswith("paper36")]
    return benchwork.Workload("small", tuple(cases), "A3")


def test_same_seed_same_inputs():
    for name in benchwork.WORKLOADS:
        first = benchwork.make_workload(name, SEED, ROOT)
        again = benchwork.make_workload(name, SEED, ROOT)
        assert [c.input for c in first.cases] == [c.input for c in again.cases]
        assert first.largest in [c.name for c in first.cases]
    ladder = [c.input for c in benchwork.make_workload("silting-ladder", SEED, ROOT).cases]
    default = [c.input for c in benchwork.make_workload("silting-ladder", 1, ROOT).cases]
    assert ladder != default


def test_tamari_references():
    assert len(benchwork.tamari(4)) == benchwork.tors_count_a(3) == 14
    leq = benchwork._spec_leq("V")
    assert benchwork.count_monotone(leq, benchwork.tamari(4)) == 488
    assert benchwork.count_monotone(benchwork._spec_leq("antichain4"), benchwork.tamari(3)) == 625
    assert benchwork.count_up_sets(leq) == 5


def test_traced_counts_repeat_and_wrappers_come_off():
    workload = small_workload()
    original = silting.int_nullspace
    assert run.run_pass(workload).failed == 0
    assert benchtrace.wrapped_bindings() == []
    tracers = []
    for _ in range(2):
        tracer = benchtrace.Tracer()
        with tracer:
            # the binding silting copied from linalg is wrapped too
            assert silting.int_nullspace is not original
            assert run.run_pass(workload).failed == 0
        tracers.append(tracer)
    assert benchtrace.wrapped_bindings() == []
    assert silting.int_nullspace is original
    first, second = tracers
    assert first.calls == second.calls and first.counts == second.counts
    assert first.calls["algebras.mul_dicts"] > 0
    assert first.calls["linalg.int_nullspace"] > 0
    assert first.calls["spectra.enumerate_compatible"] > 0
    assert first.counts["silting.objects"] == 5 + 14


def test_wrong_reference_is_a_failure():
    case = small_workload().cases[0]
    wrong = benchwork.Case(case.name, case.input, case.call, case.expected + 1)
    out = io.StringIO()
    result = run.run_pass(benchwork.Workload("wrong", (wrong,), case.name), out=out)
    assert (result.attempted, result.failed) == (1, 1)
    assert out.getvalue().startswith("FAIL wrong/A2")


def test_benchmark_json_matches_record():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = json.loads(run.RECORD.read_text(encoding="utf-8"))
    assert [m["name"] for m in bench["per_layer"]] == run.layer_metrics(record)
    assert [w["name"] for w in bench["workloads"]] == list(benchwork.WORKLOADS)
    assert list(record["workloads"]) == list(benchwork.WORKLOADS)
    spans = {f"{name}.{kind}" for name in benchtrace.SPANS for kind in ("calls", "self_s")}
    counts = {*benchtrace.RESULT_COUNTS, *benchtrace.REFUSALS, "trace.overhead_s"}
    assert set(run.layer_metrics(record)) <= spans | counts


def test_probe_scaling():
    probe = run.SpeedProbe()  # not started: samples are set by hand
    loop = run.REFERENCE_S
    # a core at half the reference speed around [1, 2], one loop inside it
    probe.starts = [0.95, 1.5, 2.05]
    probe.seconds = [2 * loop, 2 * loop, 2 * loop]
    assert abs(probe.scaled(1.0, 2.0) - (1.0 - 2 * loop) / 2) < 1e-12
    # nothing within the window: the nearest samples stand in
    assert abs(probe.scaled(10.0, 10.5) - 0.25) < 1e-12
