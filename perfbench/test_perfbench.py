"""Tests of the benchmark's own code: generator determinism, tracer
arithmetic and bindings, oracle rejection, and BENCHMARK.json agreement.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys
import warnings

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_gen  # noqa: E402
import bench_oracle  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for workload in bench_gen.WORKLOADS:
        first = [bench_gen.scenario(workload, 5, i) for i in range(12)]
        again = [bench_gen.scenario(workload, 5, i) for i in range(12)]
        other = [bench_gen.scenario(workload, 6, i) for i in range(12)]
        assert first == again
        assert [t for _, _, t in first] != [t for _, _, t in other]
        # same kinds in the same order on every seed
        assert [k for k, _, _ in first] == [k for k, _, _ in other]


def test_every_generated_scenario_parses():
    from epsensor.scenarios import parse_scenario
    for workload in bench_gen.WORKLOADS:
        for seed in (1, 2):
            ops = [bench_gen.scenario(workload, seed, i)
                   for i in range(2 * len(bench_gen.CYCLES[workload]))]
            ops += bench_gen.warmup_scenarios(workload, seed)
            ops += bench_gen.probe_scenarios(workload, seed)
            for _, name, text in ops:
                assert parse_scenario(text, name_hint=name).output == f"{name}.csv"


def test_whole_cycles():
    n = len(bench_gen.CYCLES["sensing"])
    assert bench_gen.whole_cycles("sensing", n)
    assert not bench_gen.whole_cycles("sensing", n + 1)
    assert bench_gen.whole_cycles("lossy", 2 * len(bench_gen.CYCLES["lossy"]))
    assert not bench_gen.whole_cycles("spectra", 0)


def test_self_time_of_synthetic_nested_call():
    ticks = iter(range(100))
    tracer = bench_trace.Tracer(clock=lambda: float(next(ticks)))

    leaf_w = tracer.wrap("m.leaf", lambda: 1)
    outer_w = tracer.wrap("m.outer", lambda: leaf_w() + leaf_w())
    assert outer_w() == 2
    # clock: outer 0..5, leaf 1..2, leaf 3..4
    assert [s[:4] for s in tracer.spans] == [
        ["m.outer", 0.0, 5.0, -1], ["m.leaf", 1.0, 2.0, 0], ["m.leaf", 3.0, 4.0, 0]]
    times = bench_trace.self_times(tracer.spans)
    assert times["m.outer"] == (1, 3.0)
    assert times["m.leaf"] == (2, 2.0)


def test_observer_time_is_not_charged_to_the_caller():
    clock = [0.0]

    def tick(seconds):
        clock[0] += seconds

    tracer = bench_trace.Tracer(clock=lambda: clock[0])
    tracer.observers["m.leaf"] = lambda args, kwargs, result: tick(10.0)
    leaf_w = tracer.wrap("m.leaf", lambda: tick(1.0))
    outer_w = tracer.wrap("m.outer", lambda: (tick(2.0), leaf_w()))
    outer_w()
    # outer spans 13 s: its own 2 s, the leaf's 1 s and the observer's 10 s
    times = bench_trace.self_times(tracer.spans)
    assert times["m.outer"] == (1, 2.0)
    assert times["m.leaf"] == (1, 1.0)


def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if mod is not None and (name == "epsensor" or name.startswith("epsensor."))
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_wraps_every_binding_and_restores_originals(tmp_path):
    import epsensor.gaussian
    import epsensor.metrology
    import epsensor.scenarios
    import epsensor.spectral
    before = _bindings()
    original = epsensor.spectral.eigensolve
    tracer = bench_trace.Tracer()
    with tracer:
        for mod in (epsensor.spectral, epsensor.gaussian, epsensor.metrology,
                    epsensor.scenarios):
            assert mod.eigensolve is not original
        kind, name, text = bench_gen.scenario("sensing", 3, 1)   # evolve_trace
        record = run.run_op(1, kind, name, text, str(tmp_path), tracer)
    assert record.error is None
    names = {span[0] for span in tracer.spans}
    assert {"scenarios.run_scenario", "gaussian.propagator", "spectral.eigensolve"} <= names
    assert _bindings() == before


def _op_output(workload, index, tmp_path, seed=9):
    kind, name, text = bench_gen.scenario(workload, seed, index)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        record = run.run_op(index, kind, name, text, str(tmp_path))
    assert record.error is None
    with open(tmp_path / f"{name}.csv", "rb") as fh:
        return kind, text, fh.read()


def _set_cell(data, row, column, value):
    lines = data.decode().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = repr(value)
    lines[header + 1 + row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("workload,index,column,check_name", [
    ("spectra", 0, "re_lambda1", "eigenvalues_lapack"),
    ("sensing", 1, "var_obs", "lossless_state"),
    ("lossy", 1, "noise_var", "lossy_state"),
])
def test_perturbed_output_is_rejected(tmp_path, workload, index, column, check_name):
    kind, text, data = _op_output(workload, index, tmp_path)
    assert all(c.passed for c in bench_oracle.check(kind, text, data, index))
    _, rows = bench_oracle.parse_csv(data)
    bad = _set_cell(data, 0, column, rows[0][column] * (1.0 + 1e-4))
    failed = {c.name for c in bench_oracle.check(kind, text, bad, index) if not c.passed}
    assert check_name in failed


def test_known_defect_needs_its_signature(tmp_path):
    """A cramer_rao failure counts as the known defect only where the QFI is
    not positive or its shortfall is within the attainable accuracy of the
    difference quotient; a QFI far below the bound stays a gate. On this seed
    the first point (t = 0.081 near g = 0.9993) is 5% short of the bound."""
    kind, text, data = _op_output("sensing", 3, tmp_path, seed=2036012833)   # qfi_trace
    assert kind == "qfi_trace"
    _, rows = bench_oracle.parse_csv(data)
    last = len(rows) - 1
    bound = rows[last]["inverse_delta_eps"] ** 2

    def cramer_rao(csv, row):
        checks = [c for c in bench_oracle.check(kind, text, csv, 3) if c.name == "cramer_rao"]
        return checks[row]

    fd_limited = cramer_rao(data, 0)
    assert not fd_limited.passed and fd_limited.known
    assert cramer_rao(data, last).passed
    negative = cramer_rao(_set_cell(data, last, "qfi", -1.0), last)
    assert not negative.passed and negative.known
    too_small = cramer_rao(_set_cell(data, last, "qfi", 0.5 * bound), last)
    assert not too_small.passed and not too_small.known


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench_gen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_spec()
