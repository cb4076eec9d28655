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
echoes only those fields. parse_scenario resolves the observable and every
sweep point, so a value that no driver can run is refused before any file is
written, and the drivers only loop. See the scenarios/ directory for one
worked example of each.
"""

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import metrology
from .config import PERTURBATIONS, ConfigurationError, RegimeError, SystemConfig
from .gaussian import _excitations, _trace_moments, coherent_init
from .metrology import (Observable, SensitivityReport, observable, sensitivity,
                        working_point_time)
from .spectral import (PUISEUX_DIRECTIONS, _check_cubic_shape, _check_puiseux_grid,
                       cubic_discriminant, eigensolve, match_branches, puiseux_fit)

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
    observable: Observable
    time: str
    perturbation: str
    family: str
    # with a sweep_param, one (value, config, t, eta) per grid value: the
    # swept configuration, the time read there and the transmissivity (None
    # where the experiment reads none)
    points: tuple


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
    """Validate and build a Scenario from key = value text, with its parsed
    Observable and, for a sweep, each point resolved.

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
    parsed = dict(
        name=name, experiment=experiment, system=system,
        sweep_param=kv.get("sweep_param", ""),
        sweep_grid=parse_grid(kv.get("sweep_grid", "")),
        output=kv.get("output", f"{name}.csv"), format=kv.get("format", "csv"),
        time=kv.get("time", "working:1"),
        perturbation=kv.get("perturbation", "same"), family=kv.get("family", "ep3"))
    for key, values in fields.items():
        if values is None:
            continue
        if values[:1] == _SWEEPS:
            values = (*_sweep_setters(system), *values[1:])
        if parsed[key] not in values:
            raise ConfigurationError(
                f"field {key!r}: got {parsed[key]!r}, expected one of "
                f"{values} for experiment {experiment!r}")
    grid, param = parsed["sweep_grid"], parsed["sweep_param"]
    times = param == "t" or experiment in ("evolve_trace", "qfi_trace")
    if times and min(grid) < 0:
        raise ConfigurationError("field 'sweep_grid': a grid of times must not be negative")
    try:
        if experiment == "puiseux":
            _check_puiseux_grid(grid)
        elif experiment == "scaling":
            metrology._check_chi_grid(grid)
    except ConfigurationError as exc:
        raise ConfigurationError(f"field 'sweep_grid': {exc}") from None
    obs = observable(kv.get("observable", "X1-X2"), system.n)
    t, q = _time_terms(parsed["time"]) if "time" in fields else (None, None)
    setter = _sweep_setters(system).get(param)
    points = []
    for value in grid if param else ():
        try:
            # SystemConfig validates the swept value, collective_rate its chi
            swept = system if setter is None else setter(system, value)
            if experiment == "discriminant_map":
                _check_cubic_shape(swept)
            if param == "eta" and not 0.0 <= value <= 1.0:
                raise ConfigurationError("a transmissivity must lie in [0, 1]")
            when = float(value) if param == "t" else \
                t if q is None else working_point_time(swept, q)
        except (ConfigurationError, RegimeError) as exc:
            raise ConfigurationError(
                f"field 'sweep_grid': {param} = {value!r}: {exc}") from None
        eta = float(value) if param == "eta" else None
        points.append((value, swept, when, eta))
    return Scenario(**parsed, observable=obs, points=tuple(points))


def load_scenario(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    base = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, name_hint=base)


# ---------------------------------------------------------------------------
# sweep plumbing

def _with(config, **changes):
    """`config` with `changes`, validated as any SystemConfig (what
    dataclasses.replace does, without its per-field bookkeeping)."""
    return SystemConfig(**{**vars(config), **changes})


def _set_entry(name, index):
    def setter(config, value):
        seq = list(getattr(config, name))
        seq[index] = value
        return _with(config, **{name: tuple(seq)})
    return setter


def _sweep_setters(config):
    """The system parameters a sweep can set on `config`, each mapped to a
    setter (config, value) -> config: g1..gm, kappa1.., delta1.., epsilon1..
    (one per entry the configuration has), eps_same, gamma and Gamma."""
    setters = {f"{name}{i + 1}": _set_entry(name, i)
               for name in ("g", "kappa", "delta", "epsilon")
               for i in range(len(getattr(config, name)))}
    setters["eps_same"] = lambda c, v: _with(c, epsilon=(v,) * (c.n - 1))
    setters["gamma"] = lambda c, v: _with(c, gamma=v)
    setters["Gamma"] = lambda c, v: _with(c, Gamma=v)
    return setters


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
             ("observable", scenario.observable.name), ("time", scenario.time),
             ("perturbation", scenario.perturbation), ("family", scenario.family)]
    fields = _fields(scenario.experiment, scenario.sweep_param)
    return [(key, value) for key, value in items if key in fields]


# ---------------------------------------------------------------------------
# experiment drivers; each returns (column_names, data_rows, summary)

def _run_spectrum_sweep(scn):
    n = scn.system.n
    cols = [scn.sweep_param] + [f"re_lambda{i + 1}" for i in range(n)] \
        + [f"im_lambda{i + 1}" for i in range(n)] + ["phase", "ep_order"]
    spectra = eigensolve([config for _, config, _, _ in scn.points])
    eigs = np.array([spectrum.eigenvalues for spectrum in spectra])
    # each row after the first follows the one before it
    eigs[1:] = match_branches(eigs[0], eigs[1:])
    rows = [[value, *re, *im, spectrum.phase, spectrum.ep_order]
            for (value, _, _, _), re, im, spectrum
            in zip(scn.points, eigs.real.tolist(), eigs.imag.tolist(), spectra)]
    return cols, rows, {"points": len(rows)}


def _run_discriminant_map(scn):
    cols = [scn.sweep_param, "x", "y", "D", "phase"]
    rows = []
    spectra = eigensolve([config for _, config, _, _ in scn.points])
    for (value, config, _, _), spectrum in zip(scn.points, spectra):
        d = cubic_discriminant(config)
        rows.append([value, d.x, d.y, d.D, spectrum.phase])
    return cols, rows, {"points": len(rows)}


def _run_puiseux(scn):
    fit = puiseux_fit(scn.system, np.asarray(scn.sweep_grid), scn.perturbation)
    cols = ["eps", "splitting"]
    rows = [[eps, float(v)] for eps, v in zip(scn.sweep_grid, fit.splittings)]
    summary = {"slope": fit.slope, "intercept": fit.intercept,
               "r_squared": fit.r_squared, "branch_prefactor": fit.branch_prefactor}
    return cols, rows, summary


def _run_evolve_trace(scn):
    cfg, obs = scn.system, scn.observable
    n = cfg.n
    cols = ["t", "mean_obs", "var_obs"] + [f"n{i + 1}" for i in range(n)] + ["n_total"]
    rows = []
    c = obs.coefficients
    mu, cov = _trace_moments(coherent_init(cfg), cfg, scn.sweep_grid)
    for t, m, v in zip(scn.sweep_grid, mu, cov):
        N = _excitations(m, v)
        rows.append([t, float(c @ m), float(c @ v @ c)] + list(N) + [float(N.sum())])
    return cols, rows, {"points": len(rows)}


def _run_sensitivity_sweep(scn):
    # every row's configured state and its +-_qfi_step in one stacked solve
    metrology._decompose_ahead([c for _, config, _, _ in scn.points
                                for c in metrology._qfi_configs(config, scn.perturbation)])
    rows = [sensitivity(config, scn.observable, t, mode=scn.perturbation, eta=eta).csv_row()
            for _, config, t, eta in scn.points]
    return list(SensitivityReport.CSV_FIELDS), rows, {"points": len(rows)}


def _run_qfi_trace(scn):
    # the QFI, susceptibility and noise of every time from one stacked pass
    # (the configured state and its +-_qfi_step) and one stacked derivative
    cfg, times = scn.system, np.asarray(scn.sweep_grid)
    c = scn.observable.coefficients
    cols = ["t", "qfi", "qcrb", "inverse_delta_eps"]
    rows = []
    (values, _, _, _), cov = metrology._qfi_terms(cfg, times, scn.perturbation)
    dmu = metrology._mean_derivative(cfg, times, scn.perturbation)
    for t, value, d, v in zip(scn.sweep_grid, values.tolist(), dmu, cov):
        s, nz = abs(float(c @ d)), float(c @ v @ c)
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


_SWEEPS = ("<system>",)     # stands for every name of _sweep_setters(system)

_COMMON = {**dict.fromkeys(("name", "experiment", "sweep_grid", "output")),
           "format": ("csv", "json")}
_SYSTEM = dict.fromkeys(("n", "m", "g", "kappa", "delta", "epsilon", "gamma", "Gamma"))
_STATE = {**_SYSTEM, "alpha": None, "observable": None}
_SENSING = {**_STATE, "time": None, "perturbation": tuple(PERTURBATIONS)}

# Each experiment's driver and the fields it reads, each field mapped to the
# values it may take (None: any value of the field's own grammar); every
# experiment also reads the _COMMON fields. parse_scenario rejects every other
# field and _resolved_params echoes only these, so a header states no setting
# the rows do not follow. A sweep over t reads no time (_fields).
_EXPERIMENTS = {
    "spectrum_sweep": (_run_spectrum_sweep, {**_SYSTEM, "sweep_param": _SWEEPS}),
    "discriminant_map": (_run_discriminant_map, {**_SYSTEM, "sweep_param": _SWEEPS}),
    "puiseux": (_run_puiseux, {**_SYSTEM, "perturbation": PUISEUX_DIRECTIONS}),
    "evolve_trace": (_run_evolve_trace, _STATE),
    "sensitivity_sweep": (_run_sensitivity_sweep,
                          {**_SENSING, "sweep_param": _SWEEPS + ("t", "eta")}),
    "qfi_trace": (_run_qfi_trace, {**_STATE, "perturbation": tuple(PERTURBATIONS)}),
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


# The format fmt gives each exact type whose text a format string reproduces
_FORMATS = {float: "{:.17g}", np.float64: "{:.17g}", int: "{}", str: "{}"}


def _csv_lines(rows):
    """Each row as fmt would join it. Rows with the types of the row before
    reuse its format string, built once per run of types; a row holding a
    value of another type goes through fmt."""
    lines, types, template = [], None, None
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds != types:
            types = kinds
            formats = [_FORMATS.get(kind) for kind in kinds]
            template = None if None in formats else ",".join(formats)
        lines.append(template.format(*row) if template is not None
                     else ",".join(fmt(v) for v in row))
    return lines


def render_csv(scenario, cols, rows, summary):
    lines = [f"# {key} = {value}" for key, value in _resolved_params(scenario)]
    lines += [f"# summary.{k} = {fmt(v)}" for k, v in summary.items()]
    lines.append(",".join(cols))
    lines += _csv_lines(rows)
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
