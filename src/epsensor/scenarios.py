"""Scenario files and experiment drivers for the command-line front end.

A scenario is a flat key = value text file (one pair per line, '#' comments,
arrays comma-separated) that names a system configuration, an experiment
type, a sweep, and an output target. Outputs are deterministic: floats are
formatted with 17 significant digits and files are written atomically, so
re-running a scenario reproduces the bytes exactly.

Experiment types: spectrum_sweep, discriminant_map, puiseux, evolve_trace,
sensitivity_sweep, qfi_trace, scaling, loss_sweep. One table, _EXPERIMENTS,
names the driver of each, the fields it reads and the values each field may
take; a scenario that sets any other field is rejected, and an output header
echoes only those fields. See the scenarios/ directory for one worked example
of each.
"""

import json
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import metrology
from .config import ConfigurationError, SystemConfig
from .gaussian import coherent_init, evolve_lossy_trace, excitation_numbers
from .metrology import (SensitivityReport, observable, sensitivity,
                        working_point_time)
from .spectral import (coupling_shift, cubic_discriminant, eigensolve,
                       match_branches, puiseux_fit, same_detuning_shift,
                       single_detuning_shift)

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
    sweep_param: str
    sweep_grid: tuple
    output: str
    format: str
    observable: str
    time: str
    perturbation: str
    family: str


def parse_grid(text):
    """Grid grammar of the sweep_grid field: explicit 'a, b, c',
    'linspace:start:stop:num', or 'logspace:log10_start:log10_stop:num'. The
    grid must be non-empty, finite and strictly monotone."""
    kind, _, spec = text.strip().partition(":")
    try:
        if kind in ("linspace", "logspace"):
            a, b, num = spec.split(":")
            grid = getattr(np, kind)(float(a), float(b), int(num))
        else:
            grid = _floats(text)
    except ValueError:
        raise ConfigurationError(f"field 'sweep_grid': cannot read {text!r}") from None
    diffs = np.diff(grid)
    if not (len(grid) and np.all(np.isfinite(grid))
            and (np.all(diffs > 0) or np.all(diffs < 0))):
        raise ConfigurationError(f"field 'sweep_grid': {text!r} is not a non-empty, "
                                 "finite, strictly monotone grid")
    return tuple(float(x) for x in grid)


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


def _fields(experiment, sweep_param):
    """The fields `experiment` reads, each mapped to the values it may take."""
    _, read = _EXPERIMENTS[experiment]
    fields = {**_COMMON, **read}
    if sweep_param == "t":
        fields.pop("time", None)
    return fields


def parse_scenario(text, name_hint="scenario"):
    """Validate and build a Scenario from key = value text.

    Raises ConfigurationError with a field-level message on any problem,
    including a field the experiment does not read.
    """
    kv = _parse_kv(text)
    experiment = kv.get("experiment")
    if experiment not in _EXPERIMENTS:
        raise ConfigurationError(
            f"field 'experiment': got {experiment!r}, "
            f"expected one of {tuple(_EXPERIMENTS)}")
    fields = _fields(experiment, kv.get("sweep_param"))
    unknown = sorted(set(kv) - set(fields))
    if unknown:
        raise ConfigurationError(
            f"unknown fields for experiment {experiment!r}: {unknown}")
    try:
        n = int(kv.get("n", "3"))
        m = int(kv.get("m", "1"))
        system = SystemConfig(
            n=n, m=m,
            g=_floats(kv.get("g", ",".join(["1.0"] * m))),
            kappa=_floats(kv.get("kappa", ",".join(["1.0"] * (n - m - 1)))),
            delta=_floats(kv.get("delta", "")),
            epsilon=_floats(kv.get("epsilon", "")),
            gamma=float(kv.get("gamma", "0")),
            Gamma=float(kv.get("Gamma", "0")),
            alpha=_complexes(kv.get("alpha", "")),
        )
    except ValueError as exc:
        raise ConfigurationError(f"system fields: {exc}") from exc
    name = kv.get("name", name_hint)
    scenario = Scenario(
        name=name, experiment=experiment, system=system,
        sweep_param=kv.get("sweep_param", ""),
        sweep_grid=parse_grid(kv.get("sweep_grid", "")),
        output=kv.get("output", f"{name}.csv"), format=kv.get("format", "csv"),
        observable=kv.get("observable", "X1-X2"), time=kv.get("time", "working:1"),
        perturbation=kv.get("perturbation", "same"), family=kv.get("family", "ep3"))
    for key, values in fields.items():
        if values is None:
            continue
        if values[:1] == _SWEEPS:
            values = (*_sweep_setters(system), *values[1:])
        if getattr(scenario, key) not in values:
            raise ConfigurationError(
                f"field {key!r}: got {getattr(scenario, key)!r}, expected one of "
                f"{values} for experiment {experiment!r}")
    observable(scenario.observable, system.n)
    _time_terms(scenario.time)
    times = scenario.sweep_param == "t" or experiment in ("evolve_trace", "qfi_trace")
    if times and min(scenario.sweep_grid) < 0:
        raise ConfigurationError("field 'sweep_grid': a grid of times must not be negative")
    setter = _sweep_setters(system).get(scenario.sweep_param)
    for value in scenario.sweep_grid:
        try:
            if setter is not None:
                setter(system, value)      # SystemConfig validates the swept value
            elif scenario.sweep_param == "eta" and not 0.0 <= value <= 1.0:
                raise ConfigurationError("a transmissivity must lie in [0, 1]")
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"field 'sweep_grid': {scenario.sweep_param} = {value!r}: {exc}") from None
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


def _time_terms(text):
    """Time grammar: a finite number t > 0, or 'working:q' with an integer
    q >= 1 for t = 2 q pi / chi. Returns (t, None) or (None, q)."""
    text = text.strip()
    try:
        if text.startswith("working:"):
            q = int(text[len("working:"):])
            if q >= 1:
                return None, q
        elif 0 < float(text) < np.inf:
            return float(text), None
    except ValueError:
        pass
    raise ConfigurationError(f"field 'time': got {text!r}, expected a finite "
                             "number > 0 or 'working:q' with an integer q >= 1")


def resolve_time(scenario, config):
    """The time the scenario's `time` field names, with chi from `config`."""
    t, q = _time_terms(scenario.time)
    return t if q is None else working_point_time(config, q)


def _resolved_params(scenario):
    """(field, value) of each field the experiment reads, defaults filled in."""
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
    fields = _fields(scenario.experiment, scenario.sweep_param)
    return [(key, value) for key, value in items if key in fields]


# ---------------------------------------------------------------------------
# experiment drivers; each returns (column_names, data_rows, summary)

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
    fit = puiseux_fit(scn.system, np.asarray(scn.sweep_grid),
                      _PERTURBATIONS[scn.perturbation])
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
    states = evolve_lossy_trace(coherent_init(cfg), cfg, scn.sweep_grid)
    for t, st in zip(scn.sweep_grid, states):
        N = excitation_numbers(st)
        rows.append([t, obs.mean(st), obs.variance(st)] + list(N) + [float(N.sum())])
    return cols, rows, {"points": len(rows)}


def _run_sensitivity_sweep(scn):
    cfg = scn.system
    obs = observable(scn.observable, cfg.n)
    cols = list(SensitivityReport.CSV_FIELDS)
    mode = scn.perturbation
    rows = []
    for value in scn.sweep_grid:
        if scn.sweep_param == "t":
            rep = sensitivity(cfg, obs, float(value), mode=mode)
        elif scn.sweep_param == "eta":
            rep = sensitivity(cfg, obs, resolve_time(scn, cfg), mode=mode,
                              eta=float(value))
        else:
            swept = apply_sweep_value(cfg, scn.sweep_param, value)
            rep = sensitivity(swept, obs, resolve_time(scn, swept), mode=mode)
        rows.append(rep.csv_row())
    return cols, rows, {"points": len(rows)}


def _run_qfi_trace(scn):
    cfg = scn.system
    obs = observable(scn.observable, cfg.n)
    cols = ["t", "qfi", "qcrb", "inverse_delta_eps"]
    rows = []
    for t in scn.sweep_grid:
        value = metrology.qfi(cfg, float(t), mode=scn.perturbation)
        s = metrology.susceptibility(cfg, obs, float(t), mode=scn.perturbation)
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


_MODES = ("same", "single", "different")   # the sensed directions of metrology
_SWEEPS = ("<system>",)     # stands for every name of _sweep_setters(system)

_COMMON = {**dict.fromkeys(("name", "experiment", "sweep_grid", "output")),
           "format": ("csv", "json")}
_SYSTEM = dict.fromkeys(("n", "m", "g", "kappa", "delta", "epsilon", "gamma", "Gamma"))
_STATE = {**_SYSTEM, "alpha": None, "observable": None}
_SENSING = {**_STATE, "time": None, "perturbation": _MODES}

# Each experiment's driver and the fields it reads, each field mapped to the
# values it may take (None: any value of the field's own grammar); every
# experiment also reads the _COMMON fields. parse_scenario rejects every other
# field and _resolved_params echoes only these, so a header states no setting
# the rows do not follow. A sweep over t reads no time (_fields).
_EXPERIMENTS = {
    "spectrum_sweep": (_run_spectrum_sweep, {**_SYSTEM, "sweep_param": _SWEEPS}),
    "discriminant_map": (_run_discriminant_map, {**_SYSTEM, "sweep_param": _SWEEPS}),
    "puiseux": (_run_puiseux, {**_SYSTEM, "perturbation": tuple(_PERTURBATIONS)}),
    "evolve_trace": (_run_evolve_trace, _STATE),
    "sensitivity_sweep": (_run_sensitivity_sweep,
                          {**_SENSING, "sweep_param": _SWEEPS + ("t", "eta")}),
    "qfi_trace": (_run_qfi_trace, {**_STATE, "perturbation": _MODES}),
    "scaling": (_run_scaling, {"family": tuple(metrology._SCALING_POINTS)}),
    "loss_sweep": (_run_sensitivity_sweep,
                   {**_SENSING, "sweep_param": ("gamma", "Gamma", "eta")}),
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
    driver, _ = _EXPERIMENTS[scenario.experiment]
    cols, rows, summary = driver(scenario)
    form = out_format or scenario.format
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
