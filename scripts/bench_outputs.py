#!/usr/bin/env python3
"""Write the outputs of benchmark operations and name each failing check:

    python scripts/bench_outputs.py WORKLOAD SEED COUNT OUT_DIR

Runs operations 0 .. COUNT-1 of a perfbench workload (perfbench/bench_gen.py,
the same scenario texts perfbench/run.py times for that seed) through
parse_scenario and run_scenario into OUT_DIR, checks each output with
bench_oracle.check, and prints one line per failed check: the operation's
index, its kind, the check and its relative error, or the error an
operation raised. A failure with a known defect's signature (run.KNOWN_DEFECTS)
is marked and does not gate, as in run.py. Exits 1 if any operation raised or
failed a gating check. The OUT_DIRs of two trees can be compared with
scripts/compare_outputs.py.
"""

import os
import sys

sys.dont_write_bytecode = True      # leave perfbench/ as it is
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import bench_gen  # noqa: E402
import bench_oracle  # noqa: E402
import run  # noqa: E402


def main(workload, seed, count, out_dir):
    sys.path.insert(0, run.SRC)
    os.makedirs(out_dir, exist_ok=True)
    gating = 0
    for index in range(count):
        kind, name, text = bench_gen.scenario(workload, seed, index)
        record = run.run_op(index, kind, name, text, out_dir)
        if record.error is not None:
            print(f"op {index} {kind}: raised {record.error}")
            gating += 1
            continue
        try:
            with open(os.path.join(out_dir, name + ".csv"), "rb") as fh:
                checks = bench_oracle.check(kind, text, fh.read(), index)
        except Exception as exc:  # malformed output fails its check, as in run.py
            print(f"op {index} {kind}: oracle_error {type(exc).__name__}: {exc}")
            gating += 1
            continue
        for check in checks:
            if not check.passed:
                known = check.known and check.name in run.KNOWN_DEFECTS
                gating += not known
                print(f"op {index} {kind}: {check.name} failed, rel err {check.err:.3g}"
                      + (" (known defect)" if known else ""))
    print(f"{workload} seed {seed}: {count} operations, {gating} gating failures "
          f"-> {out_dir}")
    return 1 if gating else 0


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] not in bench_gen.WORKLOADS:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]))
