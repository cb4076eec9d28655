"""Command-line front end.

    epsensor run SCENARIO [SCENARIO ...] [--out DIR] [--format csv|json]
    epsensor accept [--out DIR] [--only IDS]

Exit codes: 0 success, 1 acceptance criteria failed, 2 configuration error,
3 numerical error.
"""

import argparse
import json
import os
import sys

from .acceptance import run_acceptance
from .config import ConfigurationError, NumericalError
from .scenarios import atomic_write, load_scenario, run_scenario

EXIT_OK = 0
EXIT_CRITERIA_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="epsensor",
        description="Exceptional-point magnon-cavity sensor simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute scenario files")
    runp.add_argument("scenarios", nargs="+", help="scenario file paths")
    runp.add_argument("--out", default=".", help="output directory")
    runp.add_argument("--format", choices=("csv", "json"), default=None,
                      help="override the scenario's output format")

    accp = sub.add_parser("accept", help="run the acceptance suite")
    accp.add_argument("--out", default=".", help="directory for the JSON report")
    accp.add_argument("--only", default="",
                      help="comma-separated criterion ids to run")
    return parser


def _cmd_run(args):
    scenarios = [load_scenario(path) for path in args.scenarios]
    results = [run_scenario(s, args.out, args.format) for s in scenarios]
    for res in sorted(results, key=lambda r: r["name"]):
        extras = {k: v for k, v in res.items()
                  if k not in ("name", "experiment", "output", "rows")}
        tail = "".join(f" {k}={v}" for k, v in sorted(extras.items()))
        print(f"ok {res['name']} [{res['experiment']}] rows={res['rows']} "
              f"-> {res['output']}{tail}")
    return EXIT_OK


def _cmd_accept(args):
    try:
        only = {int(x) for x in args.only.split(",") if x.strip()}
    except ValueError:
        raise ConfigurationError(
            f"--only: expected comma-separated criterion ids, got {args.only!r}") from None
    report = run_acceptance(only=only)
    for crit in report["criteria"]:
        status = "PASS" if crit["passed"] else "FAIL"
        print(f"{status} criterion {crit['id']}: {crit['title']}")
        for check in crit["checks"]:
            mark = "ok " if check["passed"] else "BAD"
            print(f"    {mark} {check['name']}: {check['measured']:.8g} "
                  f"(target {check['target']})")
        if crit["notes"]:
            print(f"    note: {crit['notes']}")
    path = os.path.join(args.out, "acceptance_report.json")
    atomic_write(path, (json.dumps(report, indent=1, sort_keys=True) + "\n").encode())
    n_pass = sum(c["passed"] for c in report["criteria"])
    print(f"{n_pass}/{len(report['criteria'])} criteria passed -> {path}")
    return EXIT_OK if report["passed"] else EXIT_CRITERIA_FAILED


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_accept(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
