"""Acceptance suite: the quantitative exit criteria of the package.

Each criterion is a function returning a CriterionResult with one or more
named checks (measured value, bound, pass flag). Tolerances are fixed here,
not configurable, so the suite doubles as a regression contract. The runner
is deterministic: fixed seeds, fixed grids, no wall-clock dependence.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import (ConfigurationError, SystemConfig, collective_rate,
                     ep3_sensor, ep4_system)
from .gaussian import (GaussianState, apply_external_loss, coherent_init,
                       evolve, evolve_lossy, excitation_numbers, propagator,
                       evolve_lossy_trace, readout_swap)
from .metrology import (_decompose_ahead, analytic_susceptibility, db_ratio,
                        feasibility_check, noise_variance, observable,
                        peak_total_excitation, qfi_chi_scaling, qfi_parts,
                        scaling_fit, sql, susceptibility)
from .model import ep4_locus
from .perturb import (exact_propagator_coefficients, first_order_propagator,
                      susceptibility_derivatives)
from .spectral import eigensolve, puiseux_fit

PUISEUX_GRID = np.logspace(-9.0, -5.0, 17)
EP4_COALESCENCE = 0.442272        # expected common eigenvalue at the f=0.2 locus
EP4_CLUSTER_RADIUS = 1e-5         # collapsed multiple roots coincide exactly
FEASIBILITY_REFERENCE = 5.27e-6   # Hz/sqrt(Hz)


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    target: str
    passed: bool


@dataclass
class CriterionResult:
    cid: int
    title: str
    checks: list = field(default_factory=list)
    notes: str = ""

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add(self, name, measured, target, passed):
        self.checks.append(Check(name=name, measured=float(measured),
                                 target=target, passed=bool(passed)))


def _within(value, center, tol):
    return abs(value - center) <= tol


def criterion_1_ep3_puiseux():
    """Cube-root eigenvalue response at the triple point, with the two-mode
    shift carrying a 2^(1/3) larger prefactor than the single-mode shift."""
    res = CriterionResult(1, "EP3 Puiseux exponent and prefactor ratio")
    cfg = ep3_sensor(1.0)
    fit_same = puiseux_fit(cfg, PUISEUX_GRID, "same")
    fit_single = puiseux_fit(cfg, PUISEUX_GRID, "single")
    res.add("slope (both modes shifted)", fit_same.slope, "1/3 +- 0.02",
            _within(fit_same.slope, 1.0 / 3.0, 0.02))
    res.add("slope (single mode shifted)", fit_single.slope, "1/3 +- 0.02",
            _within(fit_single.slope, 1.0 / 3.0, 0.02))
    ratio = fit_same.branch_prefactor / fit_single.branch_prefactor
    res.add("prefactor ratio", ratio, "2^(1/3) +- 1%",
            abs(ratio / 2.0 ** (1.0 / 3.0) - 1.0) <= 0.01)
    return res


def criterion_2_ep4_puiseux():
    """Quartic-root response at the four-fold locus and the coalescence value."""
    res = CriterionResult(2, "EP4 Puiseux exponent and coalescence")
    cfg = ep4_system(0.2)
    fit = puiseux_fit(cfg, PUISEUX_GRID, "same")
    res.add("slope", fit.slope, "1/4 +- 0.02", _within(fit.slope, 0.25, 0.02))
    spec = eigensolve(cfg, cluster_radius=EP4_CLUSTER_RADIUS)
    res.add("detected coalescence order", spec.ep_order,
            f"= 4 (cluster radius {EP4_CLUSTER_RADIUS:g})", spec.ep_order == 4)
    center = float(spec.eigenvalues.real.mean())
    res.add("coalescence value", center, f"{EP4_COALESCENCE} +- 1e-5",
            _within(center, EP4_COALESCENCE, 1e-5))
    res.add("max spread about the value", float(np.abs(spec.eigenvalues - center).max()),
            "<= 1e-5", float(np.abs(spec.eigenvalues - center).max()) <= 1e-5)
    res.notes = ("locus values delta=(%.6f, %.6f, %.6f), g=%.6f from the closed forms"
                 % tuple(ep4_locus(0.2)))
    return res


def criterion_3_reducible_counterexample():
    """Opposite single-mode shifts make the system reducible: the sweep
    through g = 1 shows at most two-fold coalescence."""
    res = CriterionResult(3, "Reducible counterexample never exceeds order 2")
    eps = 0.01
    gstar = float(np.sqrt(1.0 + eps * eps / 4.0))  # exact two-fold point
    grid = list(np.linspace(0.8, 1.2, 41)) + [gstar]
    spectra = eigensolve([SystemConfig(n=3, m=1, g=[g], kappa=[1.0], epsilon=(eps, -eps))
                          for g in grid], cluster_radius=1e-4)
    orders = [s.ep_order for s in spectra]
    res.add("max detected order over sweep", max(orders), "<= 2", max(orders) <= 2)
    res.add("order at the coalescence point", orders[-1], "= 2", orders[-1] == 2)
    return res


def criterion_4_susceptibility_crosscheck():
    """Closed first-order susceptibility against the exact eps-derivative of
    the exact Gaussian evolution, 20 times per period."""
    res = CriterionResult(4, "Analytic susceptibility matches the exact derivative")
    worst = 0.0
    for g in (0.8, 0.9, 0.95):
        cfg = ep3_sensor(g, alpha=2.0)
        period = 2.0 * np.pi / collective_rate(cfg)
        obs = observable("X1-X2", 3)
        for k in range(1, 21):
            t = k * period / 20.0
            s_an = analytic_susceptibility(cfg, obs, t)
            s_exact = susceptibility(cfg, obs, t)
            worst = max(worst, abs(s_an - s_exact) / abs(s_an))
    res.add("worst relative difference", worst, "<= 1e-4", worst <= 1e-4)
    return res


def criterion_5_working_point():
    """Unit noise, the closed-form susceptibility maximum, and saturation of
    the Fisher bound at the first working point (g=0.95, kappa=1, alpha=2)."""
    res = CriterionResult(5, "Working-point identities")
    g, alpha = 0.95, 2.0
    cfg = ep3_sensor(g, alpha=alpha)
    chi = collective_rate(cfg)
    t = 2.0 * np.pi / chi
    obs = observable("X1-X2", 3)
    nz = noise_variance(cfg, obs, t)
    res.add("noise of X1-X2", nz, "1 +- 1e-8", _within(nz, 1.0, 1e-8))
    s = susceptibility(cfg, obs, t)
    s_closed = 3.0 * np.sqrt(2.0) * alpha * (1 + g * g) * (1 + g) ** 2 * np.pi / chi ** 5
    res.add("susceptibility vs closed maximum", s,
            f"{s_closed:.6e} +- 0.01%", abs(s - s_closed) / s_closed <= 1e-4)
    delta = float(np.sqrt(nz) / s)
    value, _, _, _ = qfi_parts(cfg, t)
    product = delta * np.sqrt(value)
    res.add("delta_eps * sqrt(QFI)", product, "1 +- 1%", _within(product, 1.0, 0.01))
    return res


def _chi_grid(n_points=15):
    lo = np.sqrt(1.0 - 0.999 ** 2)
    hi = np.sqrt(1.0 - 0.9 ** 2)
    return np.logspace(np.log10(lo), np.log10(hi), n_points)


def criterion_6_scaling_laws():
    """delta_eps ~ chi^5 (three-mode), ~ chi^3 (two-mode reference),
    QFI ~ chi^-10; the four-mode family's chi^7 is exploratory."""
    res = CriterionResult(6, "Sensitivity and Fisher-information scaling laws")
    grid = _chi_grid()
    fit3 = scaling_fit("ep3", grid)
    res.add("EP3 delta_eps exponent", fit3.exponent, "5 +- 0.1",
            _within(fit3.exponent, 5.0, 0.1))
    fit2 = scaling_fit("ep2", grid)
    res.add("EP2 delta_eps exponent", fit2.exponent, "3 +- 0.1",
            _within(fit2.exponent, 3.0, 0.1))
    fitq = qfi_chi_scaling(grid)
    res.add("QFI exponent", fitq.exponent, "-10 +- 0.2",
            _within(fitq.exponent, -10.0, 0.2))
    fit4 = scaling_fit("ep4", np.logspace(np.log10(0.018), np.log10(0.19), 11))
    res.add("EP4 delta_eps exponent (exploratory)", fit4.exponent, "7 +- 0.3",
            _within(fit4.exponent, 7.0, 0.3))
    res.notes = ("EP4 family uses the vacuum-noise-level optimal-quadrature "
                 "convention; its approach path is weakly non-oscillatory")
    return res


def criterion_7_squeezing_strategy():
    """The X1+X2 measurement at chi t = 3 pi: squeezed noise at the closed
    form and Fisher-bound saturation within 1%."""
    res = CriterionResult(7, "Squeezing-strategy working point")
    g, alpha = 0.95, 2.0
    cfg = ep3_sensor(g, alpha=alpha)
    chi = collective_rate(cfg)
    t = 3.0 * np.pi / chi
    obs = observable("X1+X2", 3)
    nz = noise_variance(cfg, obs, t)
    closed = (1.0 - g) ** 2 / (1.0 + g) ** 2
    res.add("noise of X1+X2", nz, f"{closed:.8e} +- 1e-8", _within(nz, closed, 1e-8))
    s = susceptibility(cfg, obs, t)
    delta = float(np.sqrt(nz) / s)
    value, _, _, _ = qfi_parts(cfg, t)
    product = delta * np.sqrt(value)
    res.add("delta_eps * sqrt(QFI)", product, "1 +- 1%", _within(product, 1.0, 0.01))
    return res


def criterion_8_conservation_suite():
    """Structural invariants of the Gaussian dynamics: the conserved
    excitation combination, symplecticity, purity, and the uncertainty
    relation under every channel."""
    res = CriterionResult(8, "Conservation and symplectic structure")
    cfg = ep3_sensor(0.95, alpha=2.0)
    chi = collective_rate(cfg)
    state0 = coherent_init(cfg)
    times = np.linspace(0.0, 5 * 2.0 * np.pi / chi, 64)[1:]
    states = evolve_lossy_trace(state0, cfg, times)
    values = [N[0] - N[1] - N[2] for N in map(excitation_numbers, states)]
    spread = max(values) - min(values)
    res.add("N1 - N2 - Na drift over 5 periods", spread, "<= 1e-8", spread <= 1e-8)

    rng = np.random.default_rng(2024)
    worst_sym = worst_pur = 0.0
    for _ in range(20):
        g = rng.uniform(0.5, 0.99)
        t = rng.uniform(0.0, 40.0)
        c = ep3_sensor(g, alpha=rng.uniform(0.0, 3.0))
        P = propagator(c, t)
        worst_sym = max(worst_sym, P.symplectic_residual())
        worst_pur = max(worst_pur,
                        abs(evolve(coherent_init(c), P).purity_det() - 1.0))
    res.add("symplectic residual", worst_sym, "<= 1e-10", worst_sym <= 1e-10)
    res.add("purity |det(2 cov) - 1|", worst_pur, "<= 1e-8", worst_pur <= 1e-8)

    lossy = cfg.with_losses(0.1, 0.01)
    t = 2.0 * np.pi / collective_rate(lossy)
    channels = {
        "exact evolution": evolve(state0, propagator(cfg, 1.7)),
        "lossy evolution": evolve_lossy(state0, lossy, t),
        "readout swap": readout_swap(evolve(state0, propagator(cfg, 1.7)), np.pi / 3),
        "external loss": apply_external_loss(
            evolve(state0, propagator(cfg, 1.7)), 0.7),
    }
    worst_unc = min(st.uncertainty_min_eigenvalue() for st in channels.values())
    res.add("min eig of cov + i Omega/2 across channels", worst_unc,
            ">= -1e-10", worst_unc >= -1e-10)
    return res


def criterion_9_readout_swap():
    """A quarter-period beam-splitter pulse converts the magnons into the
    read-out modes exactly."""
    res = CriterionResult(9, "Readout swap at theta t = pi/2")
    cfg = ep3_sensor(0.95, alpha=2.0)
    state = evolve(coherent_init(cfg), propagator(cfg, 1.3))
    swapped = readout_swap(state, np.pi / 2.0)
    pre = state.marginal([0, 1])
    mag = swapped.marginal([0, 1])
    read = swapped.marginal([3, 4])
    vac_dev = max(float(np.abs(mag.mu).max()),
                  float(np.abs(mag.cov - np.eye(4) / 2.0).max()))
    res.add("magnon marginal returns to vacuum", vac_dev, "<= 1e-10", vac_dev <= 1e-10)
    transfer = max(float(np.abs(read.mu - pre.mu).max()),
                   float(np.abs(read.cov - pre.cov).max()))
    res.add("read-out marginal equals pre-swap magnons", transfer, "<= 1e-10",
            transfer <= 1e-10)
    return res


def criterion_10_losses():
    """Internal losses at the quoted rates keep the sensor more than 10 dB
    below the standard quantum limit; degradation is monotone in each loss
    channel; the external-loss squeezing law is exact."""
    res = CriterionResult(10, "Loss behavior and SQL margin")
    obs = observable("X1-X2", 3)
    base = ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01)
    t = 2.0 * np.pi / collective_rate(base)
    gammas = [0.0, 0.025, 0.05, 0.075, 0.1]
    cfgs_g = [ep3_sensor(0.95, alpha=2.0, gamma=gv, Gamma=0.01) for gv in gammas]
    Gammas = [0.0, 0.0025, 0.005, 0.0075, 0.01]
    cfgs_G = [ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=gv) for gv in Gammas]
    # the base configuration and both series in one stacked solve
    _decompose_ahead([base] + cfgs_g + cfgs_G)

    def delta_eps(cfg, tv, eta=None):
        s = susceptibility(cfg, obs, tv, eta=eta)
        nz = noise_variance(cfg, obs, tv, eta=eta)
        return float(np.sqrt(nz) / s)

    de = delta_eps(base, t)
    n_peak = peak_total_excitation(base, t, samples=128)
    margin = db_ratio(sql(n_peak, t), de)
    res.add("margin below SQL (20 log10 convention)", margin, "> 10 dB", margin > 10.0)

    def series(cfgs_times):
        return [delta_eps(c, tv) for c, tv in cfgs_times]

    vals_g = series([(c, 2.0 * np.pi / collective_rate(c)) for c in cfgs_g])
    mono_g = all(b >= a * (1.0 - 1e-9) for a, b in zip(vals_g, vals_g[1:]))
    res.add("monotone in gamma (min step)",
            min(b - a for a, b in zip(vals_g, vals_g[1:])), ">= 0", mono_g)

    vals_G = series([(c, 2.0 * np.pi / collective_rate(c)) for c in cfgs_G])
    mono_G = all(b >= a * (1.0 - 1e-9) for a, b in zip(vals_G, vals_G[1:]))
    res.add("monotone in Gamma (min step)",
            min(b - a for a, b in zip(vals_G, vals_G[1:])), ">= 0", mono_G)

    etas = [1.0, 0.9, 0.8, 0.7, 0.6]
    vals_e = [delta_eps(base, t, eta=e) for e in etas]
    mono_e = all(b >= a * (1.0 - 1e-9) for a, b in zip(vals_e, vals_e[1:]))
    res.add("monotone in 1 - eta (min step)",
            min(b - a for a, b in zip(vals_e, vals_e[1:])), ">= 0", mono_e)

    r = 0.5 * np.log(10.0)   # e^{-2r} = 0.1
    worst = 0.0
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        sq = GaussianState(mu=np.zeros(2),
                           cov=np.diag([np.exp(-2 * r), np.exp(2 * r)]) / 2.0,
                           modes=("b",))
        out = apply_external_loss(sq, eta)
        worst = max(worst, abs(2.0 * out.cov[0, 0] - (eta * 0.1 + 1.0 - eta)))
    res.add("external-loss squeezing law", worst, "<= 1e-10", worst <= 1e-10)
    return res


def _matrix_relative_error(approx, exact):
    ka, ke = approx.as_matrix(), exact.as_matrix()
    return float(np.abs(ka - ke).max() / np.abs(ke).max())


def criterion_11_first_order_fidelity():
    """First-order propagation coefficients against the exact residue forms
    across the stated small-perturbation regime, plus the closed derivative
    forms against finite differences.

    Note: the 5%-within-ratio-0.1 bound is not attainable; the first-order
    error grows as ~22 (eps/chi^3)^2, so 5% holds only for eps/chi^3
    below ~0.045. The check samples the stated regime and reports honestly.
    """
    res = CriterionResult(11, "First-order perturbation fidelity")
    worst_by_ratio = {}
    for ratio in (0.003, 0.01, 0.03, 0.09):
        worst = 0.0
        for g in (0.8, 0.9, 0.95):
            chi = np.sqrt(1.0 - g * g)
            e1 = ratio * chi ** 3
            e2 = 1.5 * e1
            t = 2.0 * np.pi / chi
            approx = first_order_propagator(g, e1, e2, t)
            exact = exact_propagator_coefficients(g, e1, e2, t)
            worst = max(worst, _matrix_relative_error(approx, exact))
        worst_by_ratio[ratio] = worst
        res.add(f"coefficient error at eps/chi^3 = {ratio}", worst, "<= 5%",
                worst <= 0.05)
    grows = all(worst_by_ratio[a] < worst_by_ratio[b]
                for a, b in zip(sorted(worst_by_ratio), sorted(worst_by_ratio)[1:]))
    res.add("error grows monotonically with eps/chi^3", float(grows), "true", grows)

    worst = 0.0
    h = 1e-8
    for g in (0.8, 0.9, 0.95):
        chi = np.sqrt(1.0 - g * g)
        for t in (2.0 * np.pi / chi, 5.0, 13.7):
            for case in ("same", "single"):
                d = susceptibility_derivatives(g, t, case)
                pair = (h, h) if case == "same" else (h, 0.0)
                up = exact_propagator_coefficients(g, pair[0], pair[1], t)
                dn = exact_propagator_coefficients(g, -pair[0], -pair[1], t)
                for name, an in (("A1", d.dA1), ("A2", d.dA2), ("C", d.dC)):
                    fd = (dict(up.items())[name] - dict(dn.items())[name]) / (2.0 * h)
                    worst = max(worst, abs(fd - an) / abs(an))
    res.add("derivative forms vs finite differences", worst, "<= 1e-4", worst <= 1e-4)
    res.notes = ("measured first-order error ~ 22 (eps/chi^3)^2: the 5% bound "
                 "holds for eps/chi^3 < ~0.045 and fails near 0.1 by design "
                 "of the expansion, not by implementation error")
    return res


def criterion_12_feasibility():
    """Physical-units spot check at g/kappa = 0.995, alpha = 100,
    kappa = 2 pi * 500 kHz."""
    res = CriterionResult(12, "Experimental-feasibility spot check")
    fc = feasibility_check()
    value = fc["sensitivity_hz_per_rt_hz"]
    factor = max(value / FEASIBILITY_REFERENCE, FEASIBILITY_REFERENCE / value)
    res.add("delta_eps * sqrt(t) [Hz/sqrt(Hz)]", value,
            f"within factor 3 of {FEASIBILITY_REFERENCE:g}", factor <= 3.0)
    res.add("deviation factor", factor, "<= 3", factor <= 3.0)
    res.notes = fc["convention"]
    return res


CRITERIA = (
    criterion_1_ep3_puiseux,
    criterion_2_ep4_puiseux,
    criterion_3_reducible_counterexample,
    criterion_4_susceptibility_crosscheck,
    criterion_5_working_point,
    criterion_6_scaling_laws,
    criterion_7_squeezing_strategy,
    criterion_8_conservation_suite,
    criterion_9_readout_swap,
    criterion_10_losses,
    criterion_11_first_order_fidelity,
    criterion_12_feasibility,
)


def run_acceptance(only=None):
    """Run all (or the selected) criteria; returns a JSON-ready report."""
    unknown = sorted(set(only or ()) - set(range(1, len(CRITERIA) + 1)))
    if unknown:
        raise ConfigurationError(
            f"unknown criterion ids {unknown}: expected 1..{len(CRITERIA)}")
    results = []
    for cid, fn in enumerate(CRITERIA, 1):
        if only and cid not in only:
            continue
        results.append(fn())
    report = {
        "passed": all(r.passed for r in results),
        "criteria": [
            {
                "id": r.cid,
                "title": r.title,
                "passed": r.passed,
                "notes": r.notes,
                "checks": [
                    {"name": c.name, "measured": c.measured,
                     "target": c.target, "passed": c.passed}
                    for c in r.checks
                ],
            }
            for r in results
        ],
    }
    return report
