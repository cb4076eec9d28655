"""Sensing figures of merit: susceptibility, noise, sensitivity, quantum
Fisher information, standard-quantum-limit comparison, and scaling fits.

Conventions (also echoed in report metadata):
- the sensed parameter is a common shift eps of the magnon detunings
  ("same" mode); shifting only mode 1 is the "single" mode (see
  config.PERTURBATIONS);
- susceptibility, noise and QFI are all taken about the configured state
  (epsilon is shifted along the sensed direction), so an offset configured
  in `epsilon` or in `delta` gives the same figures;
- working points are t = 2 q pi / chi; chi does not depend on eps;
- the SQL reference 1/sqrt(N t) uses N = peak total excitation over [0, t],
  sampled on a fixed uniform grid;
- decibel comparisons are 20 log10 of a sensitivity ratio (power dB of the
  variance ratio);
- physical units: frequencies quoted in Hz are rad/s divided by 2 pi.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .config import (ConfigurationError, NumericalError, RegimeError,
                     collective_rate, ep3_sensor, ep4_system)
from .gaussian import (_decompose, _external_loss, _maps, _moments, coherent_init, evolve,
                       symplectic_form, total_excitation)
from .model import _reduced_matrices, ep4_locus
from .perturb import regime_ok, susceptibility_derivatives
# not called here (the ep4 points read their eigenvalues from _decompose),
# but kept bound: perfbench's tracer wraps every module's binding of it, and
# its test asserts this one
from .spectral import _log_fit, eigensolve  # noqa: F401


@dataclass(frozen=True)
class Observable:
    """Linear quadrature observable O = coefficients . mu_hat."""

    coefficients: np.ndarray
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if not c.any():
            raise ConfigurationError("observable coefficients must be nonzero")
        object.__setattr__(self, "coefficients", c)

    def mean(self, state):
        return float(self.coefficients @ state.mu)

    def variance(self, state):
        return float(self.coefficients @ state.cov @ self.coefficients)


def observable(spec, n_modes):
    """Parse "X1-X2", "P1+P2", "X1", ... into an Observable on n_modes."""
    text = spec.replace(" ", "")
    c = np.zeros(2 * n_modes)
    sign = 1.0
    token = ""

    def flush(token, sign):
        if not token:
            raise ConfigurationError(f"malformed observable {spec!r}")
        kind, idx = token[0].upper(), token[1:]
        if kind not in "XP" or not idx.isdecimal() or not 1 <= int(idx) <= n_modes:
            raise ConfigurationError(f"bad quadrature {token!r} in observable {spec!r}")
        c[2 * (int(idx) - 1) + (0 if kind == "X" else 1)] += sign

    for ch in text:
        if ch == "+" or ch == "-":
            if token:
                flush(token, sign)
            sign, token = (1.0 if ch == "+" else -1.0), ""
        else:
            token += ch
    flush(token, sign)
    return Observable(coefficients=c, name=spec)


def x_minus():
    return observable("X1-X2", 3)


@dataclass(frozen=True)
class SensitivityReport:
    g: float
    kappa: float
    alpha: float
    gamma: float
    Gamma: float
    eta: float
    t: float
    chi: float
    observable: str
    susceptibility: float
    noise_var: float
    delta_eps: float
    qfi: float
    qcrb: float
    sql: float
    valid_regime: bool
    n_peak: float

    CSV_FIELDS = ("g", "kappa", "alpha", "gamma", "Gamma", "eta", "t", "chi",
                  "observable", "susceptibility", "noise_var", "delta_eps",
                  "qfi", "qcrb", "sql", "valid_regime")

    def csv_row(self):
        return [getattr(self, f) for f in self.CSV_FIELDS]


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    intercept: float
    r_squared: float
    chis: np.ndarray
    values: np.ndarray
    excluded: tuple = ()


def working_point_time(config, q=1):
    """t = 2 q pi / chi."""
    return 2.0 * np.pi * q / collective_rate(config)


def _final_states(configs, times, eta=None):
    """(mu, cov): the means and covariances of the evolved states of each of
    `configs` (configurations of one shape that start from one state, as a
    QFI's three) at each of the 1-D `times`, stacked (K, T, 2n) and
    (K, T, 2n, 2n), after the readout loss eta when given. The maps of all
    rows at all times come from one `gaussian._maps`, each row's moments
    from one product over its times, and the readout loss acts on
    the whole stack; every item is bit for bit `evolve` (and
    `apply_external_loss`) of its own propagator."""
    times = np.asarray(times, dtype=float)
    state0 = coherent_init(configs[0])
    moments = [_moments(S, Q, state0.mu, state0.cov, times)
               for S, Q in _maps(_decompose(configs), times)]
    mu, cov = np.array([m for m, _ in moments]), np.array([c for _, c in moments])
    if eta is not None:
        mu, cov = _external_loss(mu, cov, _readout_transmissivities(configs[0], eta))
    return mu, cov


def _readout_transmissivities(config, eta):
    """Per mode: the readout loss eta acts on the measured magnons, not on
    the cavity."""
    return [eta] * (config.n - 1) + [1.0]


def _state_derivative(config, times, mode="same", eta=None):
    """(dmu, dcov, cov) at each of the 1-D `times`, stacked: d/d(eps) of the
    mean and covariance of the evolved state (after the readout loss eta
    when given), by a central difference of step h = _qfi_step(config)
    between the shifted configurations of `_qfi_configs`, and the covariance
    of the configured state itself. One `_final_states` pass over
    (+h, -h, config), in that order, so a map that is not finite raises
    first for +h, then for -h, then for the configured state."""
    config, plus, minus = _qfi_configs(config, mode)
    mu, cov = _final_states([plus, minus, config], times, eta)
    h = _qfi_step(config)
    return (mu[0] - mu[1]) / (2.0 * h), (cov[0] - cov[1]) / (2.0 * h), cov[2]


def _mean_derivative(config, t, mode="same", eta=None):
    """d mu/d(eps) of the evolved state (after the readout loss eta when
    given), exact, about the configured state: the derivative of the map
    S(t) along dH, the exact difference of the reduced matrices at
    epsilon +-1 along the sensed direction `mode` (config.PERTURBATIONS),
    applied to the initial mean; the readout loss scales the magnon means by
    sqrt(eta), which is linear. For a 1-D array t, one row per time from one
    stacked derivative."""
    plus, minus = _reduced_matrices([config.shifted(1.0, mode), config.shifted(-1.0, mode)])
    dH = (plus - minus) / 2.0
    dmu = _decompose(config).derivative(t, dH) @ coherent_init(config).mu
    if eta is not None:
        dmu = np.repeat(np.sqrt(_readout_transmissivities(config, eta)), 2) * dmu
    return dmu


def susceptibility(config, obs, t, mode="same", eta=None):
    """|d<O>/d(eps)| at the configured perturbation offset: the exact
    eps-derivative of the mean of the Gaussian evolution (with decay and
    diffusion when decay rates are nonzero), from the decomposition of the
    configured state alone (see `gaussian._Decomposition.derivative`)."""
    return abs(float(obs.coefficients @ _mean_derivative(config, t, mode, eta)))


def _sensor_shape(config):
    """(g, kappa, alpha) for the canonical three-mode sensor, else error."""
    if (config.n, config.m) != (3, 1):
        raise ConfigurationError("analytic forms exist for the n=3, m=1 sensor only")
    if not config.lossless:
        raise ConfigurationError("analytic forms are lossless")
    if any(config.delta):
        raise ConfigurationError("analytic forms assume delta = 0")
    a1, a2 = config.alpha
    if abs(a1 + a2) > 1e-12 or abs(a1.real) > 1e-12:
        raise ConfigurationError(
            "analytic forms assume amplitudes (i alpha, -i alpha) with real alpha")
    return config.g[0], config.kappa[0], a1.imag


def analytic_susceptibility(config, obs, t):
    """Closed first-order |d<O>/d(eps)| ("same" mode) for the lossless
    three-mode sensor at delta = 0 with amplitudes (i alpha, -i alpha), from
    the closed coefficient derivatives of perturb.susceptibility_derivatives:
    sqrt(2) |alpha| |Im(dA1 - dA2 + 2 dC)| / kappa for X1-X2 and
    sqrt(2) |alpha| |Im(dA1 + dA2)| / kappa for X1+X2."""
    g, k, alpha = _sensor_shape(config)
    name = obs.name.replace(" ", "").upper()
    if name not in ("X1-X2", "X1+X2"):
        raise ConfigurationError(
            f"no analytic susceptibility for observable {obs.name!r}")
    d = susceptibility_derivatives(g / k, t * k, "same")
    dmu = d.dA1 - d.dA2 + 2.0 * d.dC if name == "X1-X2" else d.dA1 + d.dA2
    return float(np.sqrt(2.0) * abs(alpha) * abs(dmu.imag) / k)


def _delta_eps(config, obs, t, eta=None):
    """delta_eps = sqrt(var(O))/|d<O>/d(eps)| of `susceptibility` and
    `noise_variance`, the susceptibility taken first."""
    s = susceptibility(config, obs, t, eta=eta)
    return float(np.sqrt(noise_variance(config, obs, t, eta=eta)) / s)


def noise_variance(config, obs, t, eta=None):
    """var(O) of the evolved state (covariance propagation), after the
    readout loss eta when given: one `_final_states` pass of one
    configuration at one time. `sensitivity` reads its noise from its QFI's
    pass instead."""
    _, cov = _final_states([config], [t], eta)
    c = obs.coefficients
    return float(c @ cov[0, 0] @ c)


def analytic_noise(config, obs, t):
    """Closed-form var(O) for the lossless sensor:
    [kappa - g cos(chi t)]^2/(kappa - g)^2 for X1-X2 and
    [kappa + g cos(chi t)]^2/(kappa + g)^2 for X1+X2."""
    g, k, _ = _sensor_shape(config)
    ct = collective_rate(config) * t
    name = obs.name.replace(" ", "").upper()
    if name == "X1-X2":
        return float(((k - g * np.cos(ct)) / (k - g)) ** 2)
    if name == "X1+X2":
        return float(((k + g * np.cos(ct)) / (k + g)) ** 2)
    raise ConfigurationError(f"no closed-form noise for observable {obs.name!r}")


# ---------------------------------------------------------------------------
# quantum Fisher information

def _qfi_step(config):
    try:
        chi = collective_rate(config)
        return 1e-7 * chi ** 3
    except (ConfigurationError, RegimeError):
        return 1e-9


def _qfi_configs(config, mode="same"):
    """The configurations a QFI at config decomposes: config itself, then
    config.epsilon shifted by +_qfi_step and by -_qfi_step along the sensed
    direction `mode` (config.PERTURBATIONS)."""
    h = _qfi_step(config)
    return [config, config.shifted(h, mode), config.shifted(-h, mode)]


# what makes a grid point unusable (an overflow, a non-finite map): the
# scaling fits exclude the point
_POINT_ERRORS = (FloatingPointError, OverflowError, np.linalg.LinAlgError, NumericalError)


def _decompose_ahead(configs):
    """Decompose all of `configs` (one size) in one stacked solve, so that
    they are the memo's working set and every later call of the point loop
    that follows finds its configurations there. If the stack raises, the
    memo stays as it was: each point then decomposes its own configurations
    as a stack of one, and the error lands on the point that raised it."""
    try:
        _decompose(configs)
    except _POINT_ERRORS:
        pass


def qfi_parts(config, t, mode="same", eta=None):
    """(I_total, I_mu, I_cov, solver_ok) of the evolved Gaussian state, after
    the readout loss eta when given, with respect to the detuning
    perturbation.

    I_mu = dmu^T cov^-1 dmu. A pure final state (a lossless configuration
    without readout loss) takes cov^-1 = 4 Omega^T cov Omega (Monras,
    arXiv:1303.3682; Safranek, Lee & Fuentes, NJP 17:073016, 2015), which
    needs no inverse, so I_mu = 4 (Omega dmu)^T cov (Omega dmu) >= 0 even
    where cov is squeezed past double precision; a mixed state solves
    cov x = dmu. I_cov = Tr[Phi dcov]/2 where Phi solves
    dcov = cov Phi cov - Omega Phi Omega^T (vectorized least-squares with
    pseudo-inverse regularization; for pure states the system is rank
    deficient and the minimum-norm solution is the correct one). Derivatives
    are central finite differences with step ~ 1e-7 chi^3 about the
    configured state. If the solve residual is large, solver_ok is False and
    I_cov is reported as 0 so the total is the displacement lower bound.
    The work is `_qfi_terms` on a stack of one time: one stacked pass over
    the configured state and its +-_qfi_step shifts.
    """
    total, i_mu, i_cov, ok = _qfi_terms(config, [t], mode, eta)[0]
    return float(total[0]), float(i_mu[0]), float(i_cov[0]), bool(ok[0])


def _qfi_terms(config, times, mode, eta=None):
    """((I_total, I_mu, I_cov, solver_ok), cov): the terms of qfi_parts,
    each an array over the 1-D `times`, and the covariance of the configured
    state there, stacked (T, 2n, 2n). The three configurations of
    `_qfi_configs` are decomposed as one stack of 3, and one
    `_state_derivative` pass evaluates all three at every time; only the
    least-squares solve of I_cov loops over the times."""
    dmu, dcov, cov = _state_derivative(config, times, mode, eta)
    n2 = cov.shape[-1]
    if config.lossless and (eta is None or eta == 1):
        # a pure state: cov^-1 = 4 Omega^T cov Omega, no inverse of a
        # covariance that may be squeezed to cond ~ 1e16 near the EP
        w = dmu @ symplectic_form(n2 // 2).T
        i_mu = 4.0 * np.einsum("ti,tij,tj->t", w, cov, w)
    else:
        i_mu = np.array([float(d @ np.linalg.solve(c, d)) for c, d in zip(cov, dmu)])

    i_cov, ok = np.zeros(len(cov)), np.ones(len(cov), dtype=bool)
    for i, (c, dc) in enumerate(zip(cov, dcov)):
        # kron(c, c) elementwise, as np.kron forms it
        M = (c[:, None, :, None] * c[None, :, None, :]).reshape(n2 * n2, n2 * n2) \
            - _kron_omega(n2 // 2)
        rhs = dc.flatten(order="F")
        sol, _, _, _ = np.linalg.lstsq(M, rhs, rcond=1e-10)
        residual = float(np.abs(M @ sol - rhs).max())
        ok[i] = residual <= 1e-6 * max(1.0, float(np.abs(rhs).max()))
        if not ok[i]:
            warnings.warn(
                f"Fisher-information solve residual {residual:.2e}; "
                "reporting the displacement part only (lower bound)")
        else:
            Phi = sol.reshape(n2, n2, order="F")
            Phi = (Phi + Phi.T) / 2.0
            i_cov[i] = float(0.5 * np.trace(Phi @ dc))
    return (i_mu + i_cov, i_mu, i_cov, ok), cov


@functools.lru_cache(maxsize=None)
def _kron_omega(n_modes):
    """kron(Omega, Omega) of n_modes modes, built once per size, read-only."""
    om = symplectic_form(n_modes)
    out = np.kron(om, om)
    out.flags.writeable = False
    return out


def qfi(config, t, mode="same"):
    return qfi_parts(config, t, mode=mode)[0]


def sql(n_total, t):
    """Standard quantum limit 1/sqrt(N t)."""
    if n_total <= 0 or t <= 0:
        raise ConfigurationError("SQL needs positive excitation number and time")
    return float(1.0 / np.sqrt(n_total * t))


def peak_total_excitation(config, t, samples=256):
    """Peak total excitation over [0, t], sampled on a fixed uniform grid
    (the documented N convention for SQL comparisons).

    A lossless configuration on the eigen branch takes every sample in one
    stacked pass (`gaussian._Decomposition.lossless_excitations`); a lossy
    or nearly defective one evolves the state to each sample time."""
    times = np.linspace(0.0, t, samples + 1)[1:]
    state0 = coherent_init(config)
    dec = _decompose(config)
    if config.lossless and dec.method == "eigen":
        values = dec.lossless_excitations(times, config.alpha)
    else:
        # one time per call on purpose: stacked, the perfbench `lossy`
        # workload runs so many more operations that its oracle, which checks
        # every one after the timed loop, outlasts run.CHILD_TIMEOUT_S
        values = [total_excitation(evolve(state0, dec.at(ti))) for ti in times]
    return max(total_excitation(state0), *values)


def db_ratio(reference, value):
    """Sensitivity comparison in decibel: 20 log10(reference/value)
    (the power ratio of the corresponding variances)."""
    return float(20.0 * np.log10(reference / value))


def sensitivity(config, obs, t, mode="same", eta=None):
    """Full working-point report: susceptibility, noise, delta_eps =
    sqrt(noise)/susceptibility, Fisher bound of the state after the readout
    loss eta, and SQL comparison (no SQL at t = 0).

    valid_regime is true when the configured perturbation lies in the
    first-order regime eps < 0.1 chi^3; it is false where chi is undefined
    (at or beyond the exceptional point, or not the three-mode sensor).

    The noise and the Fisher bound come from one `_qfi_terms` pass: the
    noise is var(O) of its configured-state covariance."""
    s = susceptibility(config, obs, t, mode=mode, eta=eta)
    (values, _, _, _), cov = _qfi_terms(config, [t], mode, eta)
    c = obs.coefficients
    nz = float(c @ cov[0] @ c)
    delta = float(np.sqrt(nz) / s) if s > 0 else np.inf
    value = float(values[0])
    bound = float(1.0 / np.sqrt(value)) if value > 0 else np.inf
    if t > 0:
        n_peak = peak_total_excitation(config, t)
        sql_value = sql(n_peak, t) if n_peak > 0 else np.nan
    else:
        n_peak, sql_value = np.nan, np.nan
    try:
        chi = collective_rate(config)
    except (ConfigurationError, RegimeError):
        chi = np.nan
    regime = bool(np.isfinite(chi)) and regime_ok(*config.epsilon, chi)
    return SensitivityReport(
        g=config.g[0], kappa=config.kappa[0] if config.kappa else np.nan,
        alpha=abs(config.alpha[0]), gamma=config.gamma, Gamma=config.Gamma,
        eta=1.0 if eta is None else float(eta), t=float(t), chi=float(chi),
        observable=obs.name, susceptibility=float(s), noise_var=float(nz),
        delta_eps=delta, qfi=float(value), qcrb=bound,
        sql=sql_value, valid_regime=bool(regime), n_peak=float(n_peak))


# ---------------------------------------------------------------------------
# scaling studies

SCALING_ALPHA = 2.0     # coherent amplitude of the scaling families
SCALING_Q = 1           # their working points are t = 2 q pi / chi
EP4_F = 0.2             # coupling ratio of the "ep4" family's locus


def _check_chi_grid(chi_grid):
    chi_grid = np.asarray(chi_grid, dtype=float)
    if len(chi_grid) < 5 or np.any(chi_grid <= 0):
        raise ConfigurationError("chi grid needs >= 5 positive points")
    if chi_grid.max() / chi_grid.min() < 9.0:
        raise ConfigurationError("chi grid should span about a decade or more")
    return chi_grid


def scaling_fit(family, chi_grid):
    """Exponent of delta_eps (of the QFI for family "ep3-qfi") versus chi at
    working points t = 2 q pi / chi.

    family "ep3": three-mode sensor swept along g = sqrt(1 - chi^2), X1-X2
    measurement. family "ep2": two-mode reference (g = 1,
    delta = sqrt(1 + chi^2)), optimal magnon quadrature. family "ep4":
    exploratory; the coupling g1 is pulled off the fourth-order locus, the
    eigenvalue spread sets the effective chi and the working time, and
    delta_eps = sqrt((n-1)/2)/|dmu/deps| on the magnon quadratures
    (vacuum-level-noise convention of the general 2n-1 scaling law; the
    approach path is weakly non-oscillatory, so exp growth enters only as a
    constant factor). family "ep3-qfi": the Fisher information of the "ep3"
    states. Dynamically unusable grid points (overflow, a non-finite map,
    vanishing response) are excluded and reported.

    The configurations of every point (with the +-_qfi_step shifts for
    "ep3-qfi") are decomposed up front in one stacked solve; a point whose
    working point cannot be built is left out of it (see
    `_decompose_ahead`).
    """
    point = _SCALING_POINTS.get(family)
    if point is None:
        raise ConfigurationError(f"unknown scaling family {family!r}")
    chi_grid = _check_chi_grid(chi_grid)
    configs = []
    for chi in chi_grid:
        try:
            configs += _SCALING_CONFIGS[family](chi)
        except _POINT_ERRORS:
            pass        # the point loop excludes it and says why
    _decompose_ahead(configs)
    points, excluded = [], []
    for chi in chi_grid:
        try:
            points.append(point(chi))
        except _POINT_ERRORS as exc:
            warnings.warn(f"excluding chi={chi:g}: {exc}")
            excluded.append(float(chi))
    chis = np.array([p[0] for p in points])
    values = np.array([p[1] for p in points])
    good = np.isfinite(values) & (values > 0)
    if not np.all(good):
        excluded.extend(chis[~good].tolist())
        warnings.warn(f"excluding {np.count_nonzero(~good)} non-finite points")
        chis, values = chis[good], values[good]
    slope, intercept, r2 = _log_fit(chis, values)
    return ScalingFit(exponent=slope, intercept=intercept, r_squared=r2,
                      chis=chis, values=values, excluded=tuple(excluded))


def _ep3_working_point(chi):
    g = float(np.sqrt(1.0 - chi * chi))
    if not np.isfinite(g):
        raise NumericalError(f"the coupling g = sqrt(1 - chi^2) = {g} is not finite")
    return ep3_sensor(g, alpha=SCALING_ALPHA), 2.0 * np.pi * SCALING_Q / chi


def _ep3_point(chi):
    config, t = _ep3_working_point(chi)
    return chi, _delta_eps(config, x_minus(), t)


def _ep3_qfi_point(chi):
    return chi, qfi(*_ep3_working_point(chi))


def _ep2_point(chi):
    """The two-mode reference at chi t = 2 q pi, exactly: there
    |d Im A/d eps| = (1 + chi^2) t / chi^2 with A from
    gaussian.two_mode_squeezer_coefficients, the optimal quadrature responds
    with sqrt(2) alpha times that and its noise is 1/2, so
    delta_eps = chi^3 / (4 pi q alpha (1 + chi^2))."""
    value = chi ** 3 / (4.0 * np.pi * SCALING_Q * SCALING_ALPHA * (1.0 + chi * chi))
    return chi, float(value)


def _ep4_base(chi_target):
    return ep4_system(EP4_F, g1=ep4_locus(EP4_F).g - chi_target ** 4, alpha=SCALING_ALPHA)


def _ep4_point(chi_target):
    base = _ep4_base(chi_target)
    lam = _decompose(base).lam
    chi_eff = float(np.sqrt(np.mean(np.abs(lam - lam.mean()) ** 2)))
    if chi_eff <= 0:
        raise ConfigurationError("degenerate spectrum: no oscillation scale")
    t = 2.0 * np.pi * SCALING_Q / chi_eff
    dmu = _mean_derivative(base, t)
    response = float(np.linalg.norm(dmu[: 2 * (base.n - 1)]))
    return chi_eff, float(np.sqrt((base.n - 1) / 2.0) / response)


_SCALING_POINTS = {"ep3": _ep3_point, "ep3-qfi": _ep3_qfi_point,
                   "ep2": _ep2_point, "ep4": _ep4_point}
# the configurations each family's point at chi decomposes
_SCALING_CONFIGS = {"ep3": lambda chi: [_ep3_working_point(chi)[0]],
                    "ep3-qfi": lambda chi: _qfi_configs(_ep3_working_point(chi)[0]),
                    "ep2": lambda chi: [],
                    "ep4": lambda chi: [_ep4_base(chi)]}


def qfi_chi_scaling(chi_grid):
    """Exponent of the Fisher information versus chi: the "ep3-qfi" family."""
    return scaling_fit("ep3-qfi", chi_grid)


# ---------------------------------------------------------------------------
# physical-units spot check

UNIT_CONVENTION = (
    "frequencies in Hz are rad/s over 2*pi: eps[Hz] = eps[kappa units] * kappa[Hz]; "
    "times in seconds are t[kappa units] / (2*pi*kappa[Hz]); the quoted figure is "
    "delta_eps[Hz] * sqrt(t[s]) in Hz/sqrt(Hz)")


def feasibility_check():
    """Sensitivity of the sensor at an experimentally motivated operating
    point, g/kappa = 0.995, alpha = 100 and kappa = 2 pi * 500 kHz at
    t = 2 pi / chi, converted to physical units under the documented
    convention."""
    g_ratio, alpha, kappa_hz = 0.995, 100.0, 5.0e5
    config = ep3_sensor(g_ratio, alpha=alpha)
    chi = collective_rate(config)
    t = working_point_time(config)
    delta = _delta_eps(config, x_minus(), t)
    kappa_rad = 2.0 * np.pi * kappa_hz
    delta_hz = delta * kappa_hz
    t_seconds = t / kappa_rad
    return {
        "g_over_kappa": g_ratio,
        "alpha": alpha,
        "kappa_hz": kappa_hz,
        "chi_dimensionless": chi,
        "t_dimensionless": t,
        "delta_eps_dimensionless": delta,
        "delta_eps_hz": delta_hz,
        "t_seconds": t_seconds,
        "sensitivity_hz_per_rt_hz": delta_hz * np.sqrt(t_seconds),
        "convention": UNIT_CONVENTION,
    }
