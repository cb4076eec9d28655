"""Seeded scenario generator for the epsensor benchmark.

Each workload is an endless, deterministic stream of scenario texts in the
`epsensor run` file format. Operation i of a workload uses the kind
CYCLES[workload][i % len(cycle)] and a random stream keyed by
(workload, seed, i), so:

- the same seed gives byte-identical texts, however many operations a run
  gets through;
- every seed produces the same mix of kinds and sizes and only the drawn
  parameter values change, which keeps per-operation cost comparable
  across seeds (a timed loop stops on a cycle boundary, see whole_cycles);
- a second seed draws from the same domains, so a claimed gain has to hold
  on inputs it was not tuned on. The domains and the reason for each are
  listed in README.md ("Parameter domains").

The program sees only the generated text. Floats are written with repr(),
which round-trips exactly.
"""

import math
import random

WORKLOADS = ("spectra", "sensing", "lossy")

CYCLES = {
    "spectra": ("ep3_sweep", "ep3_sweep_lossy", "discriminant", "ep4_sweep",
                "puiseux_ep3", "puiseux_ep4"),
    "sensing": ("sens_g_q1", "evolve", "sens_t", "qfi_trace", "sens_eta",
                "sens_g_q2", "sens_offset", "scaling"),
    "lossy": ("loss_t", "loss_eta", "loss_rate", "lossy_evolve"),
}

SCALING_FAMILIES = ("ep3", "ep2", "ep3-qfi", "ep4")
# Rows per operation, from the example scenarios under scenarios/ (the
# runs `epsensor run` is documented for), except the sensitivity and loss
# sweeps: README.md ("Operation sizes") gives the reason.
SWEEP_POINTS = 201        # spectrum_bifurcation.scn, discriminant_scan.scn
PUISEUX_POINTS = 17       # ep3_splitting.scn, ep4_splitting.scn
SCALING_POINTS = 15       # scaling_ep3.scn
EVOLVE_POINTS = 100       # working_point_trace.scn
QFI_POINTS = 60           # qfi_over_time.scn
SWEEP_ROWS = 3            # lossless; sensitivity_vs_coupling.scn has 7
LOSSY_ROWS = 2            # lossy and the probe; loss_sweep_gamma.scn has 5


def ep4_locus(f):
    """(delta1, delta2, delta3, g) of the four-mode fourth-order EP at
    coupling ratio f (closed forms of the source paper)."""
    den = (1.0 - f * f) ** 1.5
    return (4.0 * f * (1.0 + f * f) / den, 4.0 * f ** 3 / den,
            -4.0 * f / den, (1.0 + f * f) ** 2 / den)


def chi_of(g, gamma=0.0, Gamma=0.0):
    return math.sqrt(1.0 - g * g - (gamma - Gamma) ** 2 / 4.0)


def _r(x):
    return repr(float(x))


def _grid(values):
    return ", ".join(_r(v) for v in values)


def _sorted_unique(values):
    return sorted(set(float(v) for v in values))


def _text(pairs):
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def _sensor(g, alpha, gamma=0.0, Gamma=0.0):
    pairs = [("n", "3"), ("m", "1"), ("g", _r(g)), ("kappa", "1.0"),
             ("alpha", f"{_r(alpha)}j, {_r(-alpha)}j"), ("observable", "X1-X2")]
    if gamma or Gamma:
        pairs += [("gamma", _r(gamma)), ("Gamma", _r(Gamma))]
    return pairs


def _near_ep_g(rng):
    return 1.0 - 10.0 ** rng.uniform(-4.0, -1.0)


def _alpha(rng):
    return 10.0 ** rng.uniform(math.log10(2.0), 1.0)


def _ep3_sweep(rng, lossy):
    grid = _sorted_unique([rng.uniform(0.8, 1.2) for _ in range(SWEEP_POINTS - 1)] + [1.0])
    pairs = [("experiment", "spectrum_sweep"), ("n", "3"), ("m", "1"),
             ("g", "1.0"), ("kappa", "1.0")]
    if lossy:
        pairs += [("gamma", _r(rng.uniform(0.01, 0.1))),
                  ("Gamma", _r(rng.uniform(0.0, 0.01)))]
    return pairs + [("sweep_param", "g1"), ("sweep_grid", _grid(grid))]


def _discriminant(rng):
    grid = _sorted_unique([rng.uniform(0.8, 1.2) for _ in range(SWEEP_POINTS - 1)] + [1.0])
    return [("experiment", "discriminant_map"), ("n", "3"), ("m", "1"),
            ("g", "1.0"), ("kappa", "1.0"), ("sweep_param", "g1"),
            ("sweep_grid", _grid(grid))]


def _ep4_pairs(f):
    d1, d2, d3, g = ep4_locus(f)
    return [("n", "4"), ("m", "2"), ("g", f"{_r(g)}, {_r(f)}"), ("kappa", "1.0"),
            ("delta", _grid((d1, d2, d3)))]


def _ep4_sweep(rng):
    f = rng.uniform(0.1, 0.5)
    g0 = ep4_locus(f)[3]
    grid = _sorted_unique([g0 * (1.0 + rng.uniform(-0.05, 0.05))
                           for _ in range(SWEEP_POINTS - 1)] + [g0])
    return [("experiment", "spectrum_sweep")] + _ep4_pairs(f) + [
        ("sweep_param", "g1"), ("sweep_grid", _grid(grid))]


def _puiseux_grid(rng):
    lo, hi = rng.uniform(-9.0, -8.0), rng.uniform(-6.0, -5.0)
    return f"logspace:{_r(lo)}:{_r(hi)}:{PUISEUX_POINTS}"


def _puiseux_ep3(rng):
    shift = rng.choice(("same", "single", "coupling"))
    return [("experiment", "puiseux"), ("n", "3"), ("m", "1"), ("g", "1.0"),
            ("kappa", "1.0"), ("perturbation", shift),
            ("sweep_grid", _puiseux_grid(rng))]


def _puiseux_ep4(rng):
    f = rng.uniform(0.1, 0.5)
    return [("experiment", "puiseux")] + _ep4_pairs(f) + [
        ("perturbation", "same"), ("sweep_grid", _puiseux_grid(rng))]


def _draws(draw, rows=SWEEP_ROWS):
    return _sorted_unique([draw() for _ in range(rows)])


def _sens_g(rng, q):
    gs = _draws(lambda: _near_ep_g(rng))
    return [("experiment", "sensitivity_sweep")] + _sensor(gs[0], _alpha(rng)) + [
        ("sweep_param", "g1"), ("sweep_grid", _grid(gs)), ("time", f"working:{q}")]


def _sens_t(rng):
    g = _near_ep_g(rng)
    period = 2.0 * math.pi / chi_of(g)
    ts = _draws(lambda: max(rng.uniform(0.0, 2.0) * period, 1e-3))
    return [("experiment", "sensitivity_sweep")] + _sensor(g, _alpha(rng)) + [
        ("sweep_param", "t"), ("sweep_grid", _grid(ts))]


def _sens_eta(rng):
    g = _near_ep_g(rng)
    etas = _draws(lambda: rng.uniform(0.5, 1.0))
    return [("experiment", "sensitivity_sweep")] + _sensor(g, _alpha(rng)) + [
        ("sweep_param", "eta"), ("sweep_grid", _grid(etas)),
        ("time", f"working:{rng.choice((1, 2))}")]


def _sens_offset(rng):
    gs = _draws(lambda: _near_ep_g(rng))
    eps = 10.0 ** rng.uniform(-2.0, 0.0) * chi_of(gs[-1]) ** 3
    return [("experiment", "sensitivity_sweep")] + _sensor(gs[0], _alpha(rng)) + [
        ("delta", "0.0, 0.0"), ("epsilon", _grid((eps, eps))),
        ("sweep_param", "g1"), ("sweep_grid", _grid(gs)),
        ("time", f"working:{rng.choice((1, 2))}")]


def _times(rng, count, t_end):
    return _sorted_unique([rng.uniform(0.0, t_end) for _ in range(count)])


def _qfi_trace(rng):
    g = _near_ep_g(rng)
    period = 2.0 * math.pi / chi_of(g)
    return [("experiment", "qfi_trace")] + _sensor(g, _alpha(rng)) + [
        ("sweep_grid", _grid(_times(rng, QFI_POINTS, 2.0 * period)))]


def _evolve(rng):
    g = _near_ep_g(rng)
    period = 2.0 * math.pi / chi_of(g)
    return [("experiment", "evolve_trace")] + _sensor(g, _alpha(rng)) + [
        ("sweep_grid", _grid(_times(rng, EVOLVE_POINTS, period)))]


def _scaling(rng):
    family = rng.choice(SCALING_FAMILIES)
    if family == "ep4":
        lo = rng.uniform(math.log10(0.018), math.log10(0.02))
    else:
        lo = rng.uniform(math.log10(chi_of(0.9999)), math.log10(0.04))
    return [("experiment", "scaling"), ("family", family),
            ("sweep_grid", f"logspace:{_r(lo)}:{_r(lo + 1.0)}:{SCALING_POINTS}")]


def _losses(rng):
    return rng.uniform(0.01, 0.1), rng.uniform(0.001, 0.01)


def _lossy_evolve(rng):
    g = rng.uniform(0.9, 0.95)
    gamma, Gamma = _losses(rng)
    period = 2.0 * math.pi / chi_of(g, gamma, Gamma)
    return [("experiment", "evolve_trace")] + _sensor(g, _alpha(rng), gamma, Gamma) + [
        ("sweep_grid", _grid(_times(rng, EVOLVE_POINTS, 2.0 * period)))]


def _loss_t(rng):
    g = rng.uniform(0.9, 0.95)
    gamma, Gamma = _losses(rng)
    ts = _draws(lambda: rng.uniform(0.5, 1.0), LOSSY_ROWS)
    return [("experiment", "sensitivity_sweep")] + _sensor(g, _alpha(rng), gamma, Gamma) + [
        ("sweep_param", "t"), ("sweep_grid", _grid(ts))]


def _loss_sweep(rng, g, param, time, points):
    gamma, Gamma = _losses(rng)
    if param == "gamma":
        values = [rng.uniform(0.0, 0.1) for _ in range(points)]
    elif param == "Gamma":
        values = [rng.uniform(0.0, 0.01) for _ in range(points)]
    else:
        values = [rng.uniform(0.5, 1.0) for _ in range(points)]
    return [("experiment", "loss_sweep")] + _sensor(g, _alpha(rng), gamma, Gamma) + [
        ("sweep_param", param), ("sweep_grid", _grid(_sorted_unique(values))),
        ("time", time)]


def _loss_eta(rng):
    return _loss_sweep(rng, rng.uniform(0.9, 0.95), "eta", _r(rng.uniform(0.5, 1.0)), LOSSY_ROWS)


def _loss_rate(rng):
    param = rng.choice(("gamma", "Gamma"))
    return _loss_sweep(rng, rng.uniform(0.9, 0.95), param, _r(rng.uniform(0.5, 1.0)), LOSSY_ROWS)


def _loss_working_point(rng):
    return _loss_sweep(rng, 0.95, rng.choice(("gamma", "Gamma", "eta")), "working:1", LOSSY_ROWS)


_MAKERS = {
    "ep3_sweep": lambda rng: _ep3_sweep(rng, False),
    "ep3_sweep_lossy": lambda rng: _ep3_sweep(rng, True),
    "discriminant": _discriminant,
    "ep4_sweep": _ep4_sweep,
    "puiseux_ep3": _puiseux_ep3,
    "puiseux_ep4": _puiseux_ep4,
    "sens_g_q1": lambda rng: _sens_g(rng, 1),
    "sens_g_q2": lambda rng: _sens_g(rng, 2),
    "sens_t": _sens_t,
    "sens_eta": _sens_eta,
    "sens_offset": _sens_offset,
    "qfi_trace": _qfi_trace,
    "evolve": _evolve,
    "scaling": _scaling,
    "lossy_evolve": _lossy_evolve,
    "loss_t": _loss_t,
    "loss_eta": _loss_eta,
    "loss_rate": _loss_rate,
    "loss_working_point": _loss_working_point,
}


def kind_of(workload, index):
    cycle = CYCLES[workload]
    return cycle[index % len(cycle)]


def whole_cycles(workload, count):
    """True when `count` operations end on a cycle boundary, so every kind
    ran equally often."""
    return count > 0 and count % len(CYCLES[workload]) == 0


def scenario(workload, seed, index):
    """(kind, name, text) of operation `index` of a workload."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    kind = kind_of(workload, index)
    rng = random.Random(f"{workload}:{seed}:{index}")
    name = f"op{index:05d}"
    pairs = [("name", name)] + _MAKERS[kind](rng) + [("output", f"{name}.csv")]
    return kind, name, _text(pairs)


def _untimed(workload, seed, kind, label):
    rng = random.Random(f"{workload}:{seed}:{label}:{kind}")
    name = f"{label}_{kind}"
    pairs = [("name", name)] + _MAKERS[kind](rng) + [("output", f"{name}.csv")]
    return kind, name, _text(pairs)


def warmup_scenarios(workload, seed):
    """One scenario of each experiment the timed kinds run, drawn from a
    stream no timed operation uses, to let first-call set-up finish before
    timing. The lossy probe runs every lossy code path first, so lossy
    needs none."""
    if probe_scenarios(workload, seed):
        return []
    by_experiment = {}
    for kind in CYCLES[workload]:
        op = _untimed(workload, seed, kind, "warm")
        experiment = op[2].split("experiment = ", 1)[1].split("\n", 1)[0]
        by_experiment.setdefault(experiment, op)
    return list(by_experiment.values())


def probe_scenarios(workload, seed):
    """Scenarios run once per run outside the timed loop and checked by the
    oracle: lossy working-point claims whose cost at t = 2 pi / chi would
    otherwise dominate the timed loop (see README.md)."""
    if workload != "lossy":
        return []
    return [_untimed(workload, seed, "loss_working_point", "probe")]
