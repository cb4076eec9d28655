"""Scenario files and experiment drivers for the command-line front end.

A scenario is a flat key = value text file (one pair per line, '#' comments,
arrays comma-separated) that names a system configuration, an experiment
type, a sweep, and an output target. Outputs are deterministic: floats are
formatted with 17 significant digits and files are written atomically, so
re-running a scenario reproduces the bytes exactly.

Experiment types: spectrum_sweep, discriminant_map, puiseux, evolve_trace,
sensitivity_sweep, qfi_trace, scaling, loss_sweep. See the scenarios/
directory for one worked example of each.
"""

import json
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import metrology
from .config import ConfigurationError, SystemConfig
from .gaussian import coherent_init, evolve, excitation_numbers, propagator
from .metrology import (SensitivityReport, observable, sensitivity,
                        working_point_time)
from .spectral import (coupling_shift, cubic_discriminant, eigensolve,
                       match_branches, puiseux_fit, same_detuning_shift,
                       single_detuning_shift)

EXPERIMENTS = ("spectrum_sweep", "discriminant_map", "puiseux", "evolve_trace",
               "sensitivity_sweep", "qfi_trace", "scaling", "loss_sweep")


def fmt(value):
    """Stable text form: 17 significant digits for floats."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return str(value)


@dataclass(frozen=True)
class Scenario:
    name: str
    experiment: str
    system: SystemConfig
    sweep_param: str = ""
    sweep_grid: tuple = ()
    output: str = ""
    out_format: str = "csv"
    observable: str = "X1-X2"
    time: str = "working:1"
    perturbation: str = "same"
    family: str = "ep3"


def parse_grid(text):
    """Grid grammar: explicit 'a, b, c', 'linspace:start:stop:num', or
    'logspace:log10_start:log10_stop:num'."""
    text = text.strip()
    if text.startswith("linspace:") or text.startswith("logspace:"):
        kind, *parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"bad grid spec {text!r}: need start:stop:num")
        a, b, num = float(parts[0]), float(parts[1]), int(parts[2])
        if num < 1:
            raise ConfigurationError(f"bad grid spec {text!r}: num must be >= 1")
        grid = np.linspace(a, b, num) if kind == "linspace" else np.logspace(a, b, num)
        return tuple(float(x) for x in grid)
    values = tuple(float(x) for x in text.split(",") if x.strip())
    if not values:
        raise ConfigurationError(f"empty grid {text!r}")
    return values


def _parse_kv(text):
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _floats(text):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _complexes(text):
    return tuple(complex(x.replace(" ", "")) for x in text.split(",") if x.strip())


def parse_scenario(text, name_hint="scenario"):
    """Validate and build a Scenario from key = value text.

    Raises ConfigurationError with a field-level message on any problem.
    """
    kv = _parse_kv(text)

    def take(key, default=None):
        return kv.pop(key, default)

    name = take("name", name_hint)
    experiment = take("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(
            f"field 'experiment': got {experiment!r}, expected one of {EXPERIMENTS}")
    try:
        n = int(take("n", "3"))
        m = int(take("m", "1"))
        system = SystemConfig(
            n=n, m=m,
            g=_floats(take("g", ",".join(["1.0"] * m))),
            kappa=_floats(take("kappa", ",".join(["1.0"] * (n - m - 1)))),
            delta=_floats(take("delta", "")),
            epsilon=_floats(take("epsilon", "")),
            gamma=float(take("gamma", "0")),
            Gamma=float(take("Gamma", "0")),
            alpha=_complexes(take("alpha", "")),
        )
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"system fields: {exc}") from exc

    sweep_param = take("sweep_param", "")
    grid_text = take("sweep_grid", "")
    sweep_grid = parse_grid(grid_text) if grid_text else ()
    if sweep_grid:
        diffs = np.diff(sweep_grid)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigurationError("field 'sweep_grid': grid must be strictly monotone")
    if not sweep_grid:
        raise ConfigurationError("field 'sweep_grid': required and non-empty")
    setters = tuple(_sweep_setters(system))
    allowed = {"spectrum_sweep": setters, "discriminant_map": setters,
               "sensitivity_sweep": setters + ("t", "eta"),
               "loss_sweep": ("gamma", "Gamma", "eta")}.get(experiment)
    if allowed is not None and sweep_param not in allowed:
        raise ConfigurationError(
            f"field 'sweep_param': got {sweep_param!r}, expected one of {allowed}")

    scenario = Scenario(
        name=name, experiment=experiment, system=system,
        sweep_param=sweep_param, sweep_grid=sweep_grid,
        output=take("output", f"{name}.csv"),
        out_format=take("format", "csv"),
        observable=take("observable", "X1-X2"),
        time=take("time", "working:1"),
        perturbation=take("perturbation", "same"),
        family=take("family", "ep3"),
    )
    if scenario.out_format not in ("csv", "json"):
        raise ConfigurationError(
            f"field 'format': got {scenario.out_format!r}, expected csv or json")
    if kv:
        raise ConfigurationError(f"unknown fields: {sorted(kv)}")
    return scenario


def load_scenario(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    base = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, name_hint=base)


# ---------------------------------------------------------------------------
# sweep plumbing

def _set_entry(name, index):
    def setter(config, value):
        seq = list(getattr(config, name))
        seq[index] = value
        return replace(config, **{name: tuple(seq)})
    return setter


def _sweep_setters(config):
    """The system parameters a sweep can set on `config`, each mapped to a
    setter (config, value) -> config: g1..gm, kappa1.., delta1.., epsilon1..
    (one per entry the configuration has), eps_same, gamma and Gamma."""
    setters = {f"{name}{i + 1}": _set_entry(name, i)
               for name in ("g", "kappa", "delta", "epsilon")
               for i in range(len(getattr(config, name)))}
    setters["eps_same"] = lambda c, v: c.with_perturbation(v, "same")
    setters["gamma"] = lambda c, v: replace(c, gamma=v)
    setters["Gamma"] = lambda c, v: replace(c, Gamma=v)
    return setters


def apply_sweep_value(config, param, value):
    setter = _sweep_setters(config).get(param)
    if setter is None:
        raise ConfigurationError(f"cannot apply sweep parameter {param!r} to the system")
    return setter(config, value)


def resolve_time(scenario, config):
    """Time grammar: a number, or 'working:q' for t = 2 q pi / chi."""
    text = scenario.time.strip()
    if text.startswith("working:"):
        return working_point_time(config, int(text.split(":", 1)[1]))
    return float(text)


def _resolved_params(scenario):
    cfg = scenario.system
    items = [("name", scenario.name), ("experiment", scenario.experiment),
             ("n", cfg.n), ("m", cfg.m),
             ("g", ",".join(fmt(x) for x in cfg.g)),
             ("kappa", ",".join(fmt(x) for x in cfg.kappa)),
             ("delta", ",".join(fmt(x) for x in cfg.delta)),
             ("epsilon", ",".join(fmt(x) for x in cfg.epsilon)),
             ("gamma", fmt(cfg.gamma)), ("Gamma", fmt(cfg.Gamma)),
             ("alpha", ",".join(fmt(x) for x in cfg.alpha)),
             ("sweep_param", scenario.sweep_param),
             ("sweep_grid", ",".join(fmt(x) for x in scenario.sweep_grid)),
             ("observable", scenario.observable), ("time", scenario.time),
             ("perturbation", scenario.perturbation), ("family", scenario.family)]
    return items


# ---------------------------------------------------------------------------
# experiment drivers; each returns (header_rows, column_names, data_rows, summary)

def _run_spectrum_sweep(scn):
    cfg = scn.system
    n = cfg.n
    cols = [scn.sweep_param] + [f"re_lambda{i + 1}" for i in range(n)] \
        + [f"im_lambda{i + 1}" for i in range(n)] + ["phase", "ep_order"]
    rows = []
    prev = None
    for value in scn.sweep_grid:
        spectrum = eigensolve(apply_sweep_value(cfg, scn.sweep_param, value))
        eigs = spectrum.eigenvalues if prev is None \
            else match_branches(prev, spectrum.eigenvalues)
        prev = eigs
        rows.append([value] + [x.real for x in eigs] + [x.imag for x in eigs]
                    + [spectrum.phase, spectrum.ep_order])
    return cols, rows, {"points": len(rows)}


def _run_discriminant_map(scn):
    cols = [scn.sweep_param, "x", "y", "D", "phase"]
    rows = []
    for value in scn.sweep_grid:
        cfg = apply_sweep_value(scn.system, scn.sweep_param, value)
        d = cubic_discriminant(cfg)
        rows.append([value, d.x, d.y, d.D, eigensolve(cfg).phase])
    return cols, rows, {"points": len(rows)}


_PERTURBATIONS = {"same": same_detuning_shift, "single": single_detuning_shift,
                  "coupling": coupling_shift}


def _run_puiseux(scn):
    shift = _PERTURBATIONS.get(scn.perturbation)
    if shift is None:
        raise ConfigurationError(
            f"field 'perturbation': got {scn.perturbation!r}, "
            f"expected one of {sorted(_PERTURBATIONS)}")
    fit = puiseux_fit(scn.system, np.asarray(scn.sweep_grid), shift)
    cols = ["eps", "splitting"]
    rows = [[eps, float(v)] for eps, v in zip(scn.sweep_grid, fit.splittings)]
    summary = {"slope": fit.slope, "intercept": fit.intercept,
               "r_squared": fit.r_squared, "branch_prefactor": fit.branch_prefactor}
    return cols, rows, summary


def _run_evolve_trace(scn):
    cfg = scn.system
    obs = observable(scn.observable, cfg.n)
    n = cfg.n
    cols = ["t", "mean_obs", "var_obs"] + [f"n{i + 1}" for i in range(n)] + ["n_total"]
    rows = []
    state0 = coherent_init(cfg)
    for t in scn.sweep_grid:
        st = evolve(state0, propagator(cfg, t))
        N = excitation_numbers(st)
        rows.append([t, obs.mean(st), obs.variance(st)] + list(N) + [float(N.sum())])
    return cols, rows, {"points": len(rows)}


def _run_sensitivity_sweep(scn):
    cfg = scn.system
    obs = observable(scn.observable, cfg.n)
    cols = list(SensitivityReport.CSV_FIELDS)
    rows = []
    for value in scn.sweep_grid:
        if scn.sweep_param == "t":
            rep = sensitivity(cfg, obs, float(value))
        elif scn.sweep_param == "eta":
            rep = sensitivity(cfg, obs, resolve_time(scn, cfg), eta=float(value))
        else:
            swept = apply_sweep_value(cfg, scn.sweep_param, value)
            rep = sensitivity(swept, obs, resolve_time(scn, swept))
        rows.append(rep.csv_row())
    return cols, rows, {"points": len(rows)}


def _run_qfi_trace(scn):
    cfg = scn.system
    obs = observable(scn.observable, cfg.n)
    cols = ["t", "qfi", "qcrb", "inverse_delta_eps"]
    rows = []
    for t in scn.sweep_grid:
        value = metrology.qfi(cfg, float(t))
        s = metrology.susceptibility(cfg, obs, float(t))
        nz = metrology.noise_variance(cfg, obs, float(t))
        inv = s / np.sqrt(nz) if nz > 0 else np.inf
        rows.append([t, value, 1.0 / np.sqrt(value) if value > 0 else np.inf, inv])
    return cols, rows, {"points": len(rows)}


def _run_scaling(scn):
    fit = metrology.scaling_fit(scn.family, np.asarray(scn.sweep_grid))
    cols = ["chi", "value"]
    rows = [[c, v] for c, v in zip(fit.chis, fit.values)]
    return cols, rows, {"family": scn.family, "exponent": fit.exponent,
                        "r_squared": fit.r_squared,
                        "excluded": ",".join(fmt(x) for x in fit.excluded)}


_DRIVERS = {
    "spectrum_sweep": _run_spectrum_sweep,
    "discriminant_map": _run_discriminant_map,
    "puiseux": _run_puiseux,
    "evolve_trace": _run_evolve_trace,
    "sensitivity_sweep": _run_sensitivity_sweep,
    "qfi_trace": _run_qfi_trace,
    "scaling": _run_scaling,
    "loss_sweep": _run_sensitivity_sweep,
}


def atomic_write(path, data):
    """Write bytes through a temp file + rename so readers never see a
    partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_csv(scenario, cols, rows, summary):
    lines = [f"# {key} = {value}" for key, value in _resolved_params(scenario)]
    lines += [f"# summary.{k} = {fmt(v)}" for k, v in summary.items()]
    lines.append(",".join(cols))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def render_json(scenario, cols, rows, summary):
    doc = {
        "meta": dict(_resolved_params(scenario)),
        "summary": {k: (fmt(v) if isinstance(v, float) else v)
                    for k, v in summary.items()},
        "columns": cols,
        "rows": [[fmt(v) if isinstance(v, (float, np.floating)) else v for v in row]
                 for row in rows],
    }
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def run_scenario(scenario, out_dir=".", out_format=None):
    """Execute a scenario and write its output file; returns a summary dict."""
    driver = _DRIVERS[scenario.experiment]
    cols, rows, summary = driver(scenario)
    form = out_format or scenario.out_format
    output = scenario.output
    if out_format and output.endswith(".csv") and out_format == "json":
        output = output[:-4] + ".json"
    elif out_format and output.endswith(".json") and out_format == "csv":
        output = output[:-5] + ".csv"
    path = os.path.join(out_dir, output)
    data = render_csv(scenario, cols, rows, summary) if form == "csv" \
        else render_json(scenario, cols, rows, summary)
    atomic_write(path, data)
    return {"name": scenario.name, "experiment": scenario.experiment,
            "output": path, "rows": len(rows), **summary}
