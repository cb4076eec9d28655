#!/usr/bin/env python3
"""epsensor benchmark: seeded scenario workloads, oracle-checked, with an
outside-in layer trace.

    python3 perfbench/run.py --workload spectra|sensing|lossy|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src). One process, one client, closed loop: each operation generates one
scenario text from the seed, parses it with `parse_scenario` and runs it
with `run_scenario` into a scratch directory, the path `epsensor run`
takes minus interpreter start-up (measured as `setup_s`). After the timed
loop every written CSV is read back and checked against an independent
oracle (bench_oracle.py).

Times are reference CPU seconds. Each operation's process CPU time (for
set-up, the child interpreter's) is scaled by CALIBRATION_REF_S over the CPU
time of a fixed calibration kernel run just before and just after it (one
kernel run sits between two operations and serves both). On
the shared host this benchmark was built on, the process was often
descheduled, so wall time was unusable, and the CPU itself changed speed
by up to 1.8x within minutes. The same scenario's CPU time then had an
interquartile range of 47% of its median over 40 s, and 11-14% once
scaled. The program is single-threaded (BLAS pinned to one thread). The
raw CPU and wall-clock medians and the calibration range are printed
beside the metrics.

--trace 0 prints the end-to-end metrics; --trace 1 runs every operation
twice, untraced and then traced, and prints per-layer metrics (calls and
self time of the wrapped functions, counters, import breakdown, tracing
overhead from the paired runs).
`--workload all` runs every workload in a child process and prints one
table. The last line of standard output is always one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from importlib import metadata

import bench_gen
import bench_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
TRACE_DIR = os.path.join(ROOT, ".perfbench_trace")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_LAUNCHES = 11
WALL_CAP = 3.0                # the timed loop's wall-time limit, in --seconds
CHILD_TIMEOUT_S = 170
CALIBRATION_REF_S = 0.012     # see the module docstring and Calibration

# Defects the program has today, by the oracle check that shows them. A
# failure of one of these checks counts in fail_frac and is named; it does
# not make `correct` false only when it has the defect's signature (the
# oracle's Check.known), so any other failure of the same check stays a gate.
KNOWN_DEFECTS = {
    "crb_saturation_readout_loss":
        "ROADMAP 'The QCRB ignores readout loss': the QFI is taken before the "
        "readout loss eta < 1; known only where delta_eps sqrt(eta QFI) = 1 +- 1%",
    "valid_regime":
        "ROADMAP 'SensitivityReport.valid_regime is always true': the flag "
        "tests the fd step, not the operating perturbation eps vs 0.1 chi^3; "
        "known only where the flag is true and should be false",
    "cramer_rao":
        "found by this benchmark: near the EP at long times (g = 0.99986, "
        "t = 515) qfi_parts returns QFI = -1.5e24; known only where QFI <= 0",
    "susceptibility_criterion4_tol":
        "found by this benchmark: the fd susceptibility (step 1e-9) misses "
        "criterion 4's 1e-4 near the EP at short times (1.5e-3 at g = 0.99989, "
        "t = 1.66); known only within the attainable fd accuracy",
}

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("points_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
)

MODULES = tuple(bench_trace.WRAPPED)


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in print order."""
    spec = []
    for name in bench_trace.traced_names():
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_s", "s", "lower"))
    spec += [(f"{m}.self_frac", "1", "lower") for m in MODULES]
    spec += [
        ("spectral.eigensolve.distinct_frac", "1", "higher"),
        ("spectral.collapse_multiple_roots.hit_frac", "1", "higher"),
        ("gaussian.propagator.expm_frac", "1", "lower"),
        ("gaussian.propagator.cond_max", "1", "lower"),
        ("metrology.qfi_parts.not_ok_frac", "1", "lower"),
        ("metrology.scaling_fit.excluded", "count", "lower"),
        ("scenarios.atomic_write.bytes", "B", "lower"),
        ("import.numpy_s", "s", "lower"),
        ("import.scipy_linalg_s", "s", "lower"),
        ("import.epsensor_s", "s", "lower"),
        ("oracle.worst_rel_err", "1", "lower"),
        ("oracle.fail_frac", "1", "lower"),
        ("trace.overhead_frac", "1", "lower"),
    ]
    return spec


# ---------------------------------------------------------------------------
# set-up: fresh interpreters importing the package

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch_import(extra=()):
    """CPU seconds a fresh interpreter spends from its launch to `import
    epsensor` returning (the child reports its own process time), and the
    child's standard error."""
    code = "import time, epsensor; print(repr(time.process_time()))"
    proc = subprocess.run([sys.executable, *extra, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return float(proc.stdout.split()[-1]), proc.stderr


def import_breakdown():
    """Cumulative import seconds of numpy, scipy.linalg and epsensor from
    `python -X importtime`."""
    _, stderr = launch_import(("-X", "importtime"))
    wanted = {"numpy": "import.numpy_s", "scipy.linalg": "import.scipy_linalg_s",
              "epsensor": "import.epsensor_s"}
    out = {v: 0.0 for v in wanted.values()}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        key = wanted.get(name.strip())
        if key is not None and cumulative.strip().isdigit():
            out[key] = int(cumulative) * 1e-6
    return out


def environment():
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"), "loadavg": list(os.getloadavg())}


class Calibration:
    """A fixed kernel of the kinds of work the program does, timed on the
    process CPU clock: small numpy linear algebra (4x4 SVDs, a 6x6 complex
    eigensolve and solve) and Python-level complex arithmetic (Aberth sweeps
    on a fixed quintic). It uses no epsensor code, so a change to the
    program cannot move it. `scale_since()` runs it again and turns CPU
    seconds measured since the previous run into reference seconds: seconds
    on a machine where the kernel takes CALIBRATION_REF_S."""

    COEFFS = (1.0, -2.0, 3.0, -1.0, 0.5, 0.25)

    def __init__(self):
        import numpy as np
        self._np = np
        self._a = np.arange(16.0).reshape(4, 4) + np.eye(4)
        self._c = (np.arange(36.0).reshape(6, 6) % 7) + 1j * np.eye(6)
        self.samples = []

    def _aberth(self):
        z = [complex(0.4, 0.9) ** k for k in range(len(self.COEFFS) - 1)]
        for _ in range(20):
            for i, zi in enumerate(z):
                p = dp = 0j
                for c in self.COEFFS:
                    dp, p = dp * zi + p, p * zi + c
                w = p / dp
                s = sum(1.0 / (zi - zj) for j, zj in enumerate(z) if j != i)
                z[i] = zi - w / (1.0 - w * s)
        return z

    def measure(self):
        np, a, c = self._np, self._a, self._c
        start = time.process_time()
        for _ in range(250):
            np.linalg.svd(a)
            sum(i * i for i in range(50))
        for _ in range(13):
            self._aberth()
            np.linalg.svd(a)
            np.linalg.eig(c)
            np.linalg.solve(c @ c, c[:, 0])
        cost = time.process_time() - start
        self.samples.append(cost)
        return cost

    def scale_since(self):
        """Reference seconds per CPU second since the previous measure()."""
        return 2.0 * CALIBRATION_REF_S / (self.samples[-1] + self.measure())

    def summary(self):
        ms = sorted(1e3 * c for c in self.samples)
        return (f"calibration kernel median {statistics.median(ms):.3f} ms, range "
                f"{ms[0]:.3f}-{ms[-1]:.3f} ms over {len(ms)} samples "
                f"(reference {1e3 * CALIBRATION_REF_S:g} ms)")


def measure_setup(cal):
    """Reference seconds of each of SETUP_LAUNCHES fresh interpreters."""
    out = []
    cal.measure()
    for _ in range(SETUP_LAUNCHES):
        child = launch_import()[0]
        out.append(child * cal.scale_since())
    return out


# ---------------------------------------------------------------------------
# the closed loop

class Record:
    """One operation: `latency` in reference seconds (raw CPU seconds
    without a calibration), `cpu` and `wall` as measured."""
    __slots__ = ("index", "kind", "name", "text", "latency", "cpu", "wall", "rows", "error")

    def __init__(self, index, kind, name, text, latency, cpu, wall, rows, error):
        self.index, self.kind, self.name, self.text = index, kind, name, text
        self.latency, self.cpu, self.wall = latency, cpu, wall
        self.rows, self.error = rows, error


def run_op(index, kind, name, text, out_dir, tracer=None, cal=None):
    from epsensor.scenarios import parse_scenario, run_scenario
    if tracer is not None:
        tracer.op = index
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        rows, error = run_scenario(parse_scenario(text, name_hint=name), out_dir)["rows"], None
    except Exception as exc:  # a failed operation is counted, not fatal
        rows, error = 0, f"{type(exc).__name__}: {exc}"
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    latency = cpu if cal is None else cpu * cal.scale_since()
    return Record(index, kind, name, text, latency, cpu, wall, rows, error)


def run_loop(workload, seed, out_dir, seconds, cal, tracer=None):
    """Operations 0, 1, 2, ... until they have taken `seconds` reference
    seconds, so that the same inputs give the same operations on a faster,
    slower or loaded host, and the last cycle of kinds is complete. WALL_CAP
    times `seconds` of wall time also ends the loop, which keeps a run on a
    heavily loaded host within its time limit. With a tracer, each operation runs
    untraced and then traced. Returns (records, untraced records)."""
    records, untraced = [], []
    start, busy = time.perf_counter(), 0.0
    cal.measure()
    while (busy < seconds and time.perf_counter() - start < WALL_CAP * seconds) or \
            not bench_gen.whole_cycles(workload, len(records)):
        index = len(records)
        kind, name, text = bench_gen.scenario(workload, seed, index)
        if tracer is not None:
            untraced.append(run_op(index, kind, name, text, out_dir, cal=cal))
            busy += untraced[-1].latency
            with tracer:
                records.append(run_op(index, kind, name, text, out_dir, tracer, cal))
        else:
            records.append(run_op(index, kind, name, text, out_dir, cal=cal))
        busy += records[-1].latency
    return records, untraced


def warm_up(workload, seed, out_dir):
    """Untimed: the warm-up scenarios, then the probes, whose records are
    returned for the oracle (both let first-call set-up finish)."""
    for kind, name, text in bench_gen.warmup_scenarios(workload, seed):
        run_op(-1, kind, name, text, out_dir)
    return [run_op(0, kind, name, text, out_dir)
            for kind, name, text in bench_gen.probe_scenarios(workload, seed)]


# ---------------------------------------------------------------------------
# oracle

def check_outputs(records, out_dir):
    """Per-check tallies and per-operation outcomes of the oracle."""
    import bench_oracle
    tally = {}            # check name: [count, failed, failed as known, worst err]
    outcome = []          # per record: "ok", "error", "gate", "known"
    worst = 0.0
    for rec in records:
        if rec.error is not None:
            outcome.append("error")
            continue
        try:
            with open(os.path.join(out_dir, rec.name + ".csv"), "rb") as fh:
                checks = bench_oracle.check(rec.kind, rec.text, fh.read(), rec.index)
        except Exception as exc:  # malformed output fails its check, not the run
            checks = [bench_oracle.Check("oracle_error", False, 0.0)]
            print(f"oracle error on {rec.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        state = "ok"
        for c in checks:
            entry = tally.setdefault(c.name, [0, 0, 0, 0.0])
            entry[0] += 1
            entry[3] = max(entry[3], c.err)
            worst = max(worst, c.err)
            if not c.passed:
                entry[1] += 1
                if c.known and c.name in KNOWN_DEFECTS:
                    entry[2] += 1
                    if state == "ok":
                        state = "known"
                else:
                    state = "gate"
        outcome.append(state)
    return tally, outcome, worst


def print_checks(tally, errors):
    for name in sorted(tally):
        count, failed, known, worst = tally[name]
        mark = "FAIL" if failed > known else ("known-defect" if failed else "ok")
        note = f" ({known} with the known-defect signature)" if known else ""
        print(f"#   {mark:12s} {name}: {failed}/{count} failed{note}, "
              f"worst rel err {worst:.3g}")
    for name, why in KNOWN_DEFECTS.items():
        if tally.get(name, [0, 0, 0])[2]:
            print(f"#   known defect {name}: {why}")
    for err in errors[:5]:
        print(f"#   raised: {err}")


# ---------------------------------------------------------------------------
# metrics

def fail_frac(outcome):
    """Operations that raised or missed any check, known defects included."""
    return sum(o != "ok" for o in outcome) / len(outcome)


def latency_stats(records):
    lat = sorted(r.latency for r in records)
    n = len(lat)
    p50 = statistics.median(lat)
    # the highest percentile with at least ten operations beyond it
    if n > 10:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = lat[-1], 100.0
    return p50, tail, pct


def end_to_end(records, setup, rss_mb):
    p50, tail, pct = latency_stats(records)
    rows = sum(r.rows for r in records)
    busy = sum(r.latency for r in records)
    values = {"setup_s": statistics.median(setup), "latency_p50_ms": 1e3 * p50,
              "latency_tail_ms": 1e3 * tail, "points_per_s": rows / busy,
              "peak_rss_mb": rss_mb}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    cpu_p50 = statistics.median(r.cpu for r in records)
    wall_p50 = statistics.median(r.wall for r in records)
    notes = {"latency_p50_ms": f"raw CPU median {1e3 * cpu_p50:.4g} ms, "
                               f"wall-clock median {1e3 * wall_p50:.4g} ms",
             "latency_tail_ms": f"p{pct:.4g} of {len(records)} operations",
             "points_per_s": f"{rows} rows in {busy:.3f} reference s "
                             f"({sum(r.wall for r in records):.3f} wall s)",
             "setup_s": f"median of {len(setup)} launches: "
                        + ", ".join(f"{s:.3f}" for s in setup)}
    return metrics, notes


def layer_metrics(tracer, counters, traced, untraced, worst, fail_frac, imports):
    times = bench_trace.self_times(tracer.spans)
    total = sum(r.wall for r in traced)          # the spans' clock
    metrics = {}
    for name in bench_trace.traced_names():
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for module in MODULES:
        share = sum(times.get(f"{module}.{fn}", (0, 0.0))[1]
                    for fn in bench_trace.WRAPPED[module])
        metrics[f"{module}.self_frac"] = share / total if total else 0.0

    def frac(num, den):
        return num / den if den else 0.0

    c = counters
    metrics.update({
        "spectral.eigensolve.distinct_frac": frac(c["eig_distinct"], c["eig_calls"]),
        "spectral.collapse_multiple_roots.hit_frac": frac(c["collapse_hits"], c["collapse_calls"]),
        "gaussian.propagator.expm_frac": frac(c["prop_expm"], c["prop_calls"]),
        "gaussian.propagator.cond_max": c["prop_cond_max"],
        "metrology.qfi_parts.not_ok_frac": frac(c["qfi_not_ok"], c["qfi_calls"]),
        "metrology.scaling_fit.excluded": c["scaling_excluded"],
        "scenarios.atomic_write.bytes": c["bytes"],
        **imports,
        "oracle.worst_rel_err": worst,
        "oracle.fail_frac": fail_frac,
        "trace.overhead_frac": statistics.median(
            t.latency / u.latency for t, u in zip(traced, untraced)) - 1.0,
    })
    units = {name: unit for name, unit, _ in per_layer_spec()}
    return {name: (float(metrics[name]), units[name]) for name, _, _ in per_layer_spec()}


def install_counters(tracer):
    """Observers for the per-layer ratios; eigensolve keys are counted
    within each operation."""
    import numpy as np
    from epsensor.config import SystemConfig
    from epsensor.model import DynamicalMatrix

    c = dict.fromkeys(("eig_calls", "eig_distinct", "collapse_calls", "collapse_hits",
                       "prop_calls", "prop_expm", "prop_cond_max", "qfi_calls",
                       "qfi_not_ok", "scaling_excluded", "bytes"), 0)
    seen = {"op": None, "keys": set()}

    def matrix_key(system):
        cfg = system.config if isinstance(system, DynamicalMatrix) else system
        if isinstance(cfg, SystemConfig):
            return (cfg.n, cfg.m, cfg.g, cfg.kappa, cfg.detuning_eff, cfg.gamma, cfg.Gamma)
        return np.asarray(system).tobytes()

    def eigensolve(args, kwargs, result):
        if seen["op"] != tracer.op:
            seen["op"], seen["keys"] = tracer.op, set()
        key = matrix_key(args[0] if args else kwargs["system"])
        c["eig_calls"] += 1
        if key not in seen["keys"]:
            seen["keys"].add(key)
            c["eig_distinct"] += 1

    def collapse(args, kwargs, result):
        c["collapse_calls"] += 1
        c["collapse_hits"] += bool(np.any(result != np.asarray(args[0])))

    def propagator(args, kwargs, result):
        c["prop_calls"] += 1
        c["prop_expm"] += result.method == "expm"
        if np.isfinite(result.condition_number):
            c["prop_cond_max"] = max(c["prop_cond_max"], result.condition_number)

    def qfi_parts(args, kwargs, result):
        c["qfi_calls"] += 1
        c["qfi_not_ok"] += not result[3]

    def scaling_fit(args, kwargs, result):
        c["scaling_excluded"] += len(result.excluded)

    def atomic_write(args, kwargs, result):
        c["bytes"] += len(args[1] if len(args) > 1 else kwargs["data"])

    tracer.observers.update({
        "spectral.eigensolve": eigensolve,
        "spectral.collapse_multiple_roots": collapse,
        "gaussian.propagator": propagator,
        "metrology.qfi_parts": qfi_parts,
        "metrology.scaling_fit": scaling_fit,
        "scenarios.atomic_write": atomic_write,
    })
    return c


# ---------------------------------------------------------------------------
# drivers

def print_metrics(workload, metrics, notes):
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"# {workload:8s} {name:48s} {value:14.6g} {unit:7s} {note}")


def run_workload(args):
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    marks = [("start", time.perf_counter())]    # wall time by stage
    cal = Calibration()
    setup = measure_setup(cal)
    marks.append(("set-up", time.perf_counter()))

    sys.path.insert(0, SRC)
    import epsensor  # noqa: F401  (loads every module the tracer wraps)
    import epsensor.scenarios  # noqa: F401

    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        with warnings.catch_warnings():
            # solver warnings would print once per distinct message; the
            # traced run counts them through qfi_parts and scaling_fit instead
            warnings.simplefilter("ignore")
            probes = warm_up(args.workload, args.seed, out_dir)
            marks.append(("warm-up and probes", time.perf_counter()))
            if not args.trace:
                records, _ = run_loop(args.workload, args.seed, out_dir, args.seconds, cal)
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                marks.append(("timed loop", time.perf_counter()))
                tally, outcome, worst = check_outputs(probes + records, out_dir)
                marks.append(("oracle", time.perf_counter()))
                metrics, notes = end_to_end(records, setup, rss_mb)
            else:
                tracer = bench_trace.Tracer()
                counters = install_counters(tracer)
                records, untraced = run_loop(args.workload, args.seed, out_dir,
                                             args.seconds, cal, tracer)
                marks.append(("timed loop", time.perf_counter()))
                tally, outcome, worst = check_outputs(probes + records, out_dir)
                marks.append(("oracle", time.perf_counter()))
                metrics = layer_metrics(tracer, counters, records, untraced, worst,
                                        fail_frac(outcome), import_breakdown())
                notes = {}
                os.makedirs(TRACE_DIR, exist_ok=True)
                tracer.write(os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass

    print(f"# {cal.summary()}")
    print("# wall time by stage: " + ", ".join(
        f"{label} {end - begin:.1f} s" for (_, begin), (label, end) in zip(marks, marks[1:])))
    print_checks(tally, [r.error for r in probes + records if r.error])
    print_metrics(args.workload, metrics, notes)
    print_metrics(args.workload, {"fail_frac": (fail_frac(outcome), "1")},
                  {"fail_frac": f"of {len(outcome)} operations (raised or missed any "
                                "check, known defects included)"})
    failed = sum(o in ("error", "gate") for o in outcome)
    return {"correct": failed == 0, "attempted": len(outcome), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args):
    """Every workload in its own interpreter, one table at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in bench_gen.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {workload} failed with exit code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=bench_gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    # one BLAS/OpenMP thread here (numpy is not imported yet) and in every
    # interpreter this process starts
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if not os.path.isfile(os.path.join(SRC, "epsensor", "__init__.py")):
        print(f"error: no epsensor package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
