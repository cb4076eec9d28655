"""System configuration for the magnon-cavity sensor.

All frequencies (couplings, detunings, perturbations, decay rates) are
dimensionless, expressed in units of the first particle-conserving coupling
kappa[0] (the reference coupling). A single scale factor, supplied by the
user, converts them to physical rad/s; see ``metrology.feasibility_check``
for the documented conversion used in reports.
"""

import cmath
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Invalid or inconsistent system/scenario parameters."""


class RegimeError(ValueError):
    """Operation requested outside its domain of validity."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge; message carries diagnostics."""


# The sensed perturbation: each direction maps to the entries of `epsilon`
# that the sensed shift eps moves, every magnon's for "same" and magnon 1's
# for "single".
PERTURBATIONS = {"same": slice(None), "single": slice(0, 1)}


def _entries(value, kind):
    """A field given as a scalar or a sequence, as a tuple of `kind`: the
    entries np.atleast_1d reads, each converted by `kind`. A list or tuple
    that `kind` converts entry by entry skips numpy, with the same result."""
    if type(value) in (tuple, list):
        try:
            return tuple(map(kind, value))
        except (TypeError, ValueError):
            pass    # a nested or non-numeric entry: numpy reads it, or raises
    return tuple(kind(x) for x in np.atleast_1d(value))


def sensed_magnons(direction):
    """The slice of `epsilon` that the sensed direction moves."""
    if direction not in PERTURBATIONS:
        raise ConfigurationError(f"unknown perturbation direction {direction!r}, "
                                 f"expected one of {tuple(PERTURBATIONS)}")
    return PERTURBATIONS[direction]


@dataclass(frozen=True)
class SystemConfig:
    """Physical parameters of the n-mode magnon-cavity system.

    Modes 1..m couple to the cavity through particle-nonconserving
    (two-mode-squeezing) interactions of strength g[i]; modes m+1..n-1
    couple through particle-conserving (beam-splitter) interactions of
    strength kappa[j]. The cavity is mode n.

    Fields
    ------
    n       total mode count (magnons plus cavity), n >= 2
    m       number of squeezing-coupled magnon modes, 1 <= m <= n-1
    g       squeezing coupling strengths, length m
    kappa   beam-splitter coupling strengths, length n-m-1
    delta   two-photon detunings, length n-1
    epsilon detuning perturbations (the quantities being sensed), length n-1
    gamma   cavity decay rate
    Gamma   magnon decay rate (same for all magnon modes)
    alpha   initial coherent amplitudes of the magnon modes, length n-1
    """

    n: int
    m: int
    g: tuple
    kappa: tuple = ()
    delta: tuple = ()
    epsilon: tuple = ()
    gamma: float = 0.0
    Gamma: float = 0.0
    alpha: tuple = ()

    def __post_init__(self):
        n, m = self.n, self.m
        if n < 2:
            raise ConfigurationError(f"need n >= 2 modes, got n={n}")
        if not 1 <= m <= n - 1:
            raise ConfigurationError(f"need 1 <= m <= n-1, got m={m}, n={n}")
        g, kappa = _entries(self.g, float), _entries(self.kappa, float)
        # an empty delta, epsilon or alpha is zero on every magnon
        delta = _entries(self.delta, float) or (0.0,) * (n - 1)
        epsilon = _entries(self.epsilon, float) or (0.0,) * (n - 1)
        alpha = _entries(self.alpha, complex) or (0j,) * (n - 1)
        for name, value in (("g", g), ("kappa", kappa), ("delta", delta),
                            ("epsilon", epsilon), ("alpha", alpha)):
            object.__setattr__(self, name, value)
        if len(g) != m:
            raise ConfigurationError(f"g must have length m={m}, got {len(g)}")
        if len(kappa) != n - m - 1:
            raise ConfigurationError(
                f"kappa must have length n-m-1={n - m - 1}, got {len(kappa)}")
        for name, value in (("delta", delta), ("epsilon", epsilon), ("alpha", alpha)):
            if len(value) != n - 1:
                raise ConfigurationError(
                    f"{name} must have length n-1={n - 1}, got {len(value)}")
        if any(x < 0 for x in g + kappa):
            raise ConfigurationError("coupling strengths must be >= 0")
        if self.gamma < 0 or self.Gamma < 0:
            raise ConfigurationError("decay rates must be >= 0")
        if not all(map(cmath.isfinite, (*g, *kappa, *delta, *epsilon, self.gamma,
                                        self.Gamma, *alpha))):
            for name in ("g", "kappa", "delta", "epsilon", "gamma", "Gamma", "alpha"):
                value = getattr(self, name)
                if not all(map(cmath.isfinite, np.atleast_1d(value))):
                    raise ConfigurationError(f"{name} must be finite, got {value!r}")

    @property
    def detuning_eff(self):
        """Effective detunings delta_i + epsilon_i, length n-1."""
        return tuple(d + e for d, e in zip(self.delta, self.epsilon))

    @property
    def lossless(self):
        return self.gamma == 0.0 and self.Gamma == 0.0

    def shifted(self, eps, direction):
        """Copy with eps added to the perturbations that `direction` moves
        (see PERTURBATIONS)."""
        moved = sensed_magnons(direction)
        epsilon = list(self.epsilon)
        epsilon[moved] = [e + eps for e in epsilon[moved]]
        return _with(self, epsilon=tuple(epsilon))

    def with_losses(self, gamma, Gamma):
        return _with(self, gamma=float(gamma), Gamma=float(Gamma))


def _with(config, **changes):
    """`config` with `changes`, validated as any SystemConfig (what
    dataclasses.replace does, without its per-field bookkeeping)."""
    return SystemConfig(**{**vars(config), **changes})


def collective_rate(config):
    """Oscillation rate chi = sqrt(kappa^2 - g^2 - (gamma-Gamma)^2/4).

    Defined for the three-mode sensor (n=3, m=1). Vanishes at the
    third-order exceptional point; sets the working-point period 2*pi/chi.
    It reads no detuning, so chi does not depend on the perturbation eps.
    """
    if (config.n, config.m) != (3, 1):
        raise ConfigurationError("collective rate is defined for the n=3, m=1 sensor")
    gm = config.gamma - config.Gamma
    chi2 = config.kappa[0] ** 2 - config.g[0] ** 2 - gm * gm / 4.0
    if chi2 <= 0:
        raise RegimeError(
            f"chi^2 = {chi2:g} <= 0: system at or beyond the exceptional point")
    return float(np.sqrt(chi2))


def ep3_sensor(g, kappa=1.0, alpha=2.0, eps1=0.0, eps2=0.0, gamma=0.0, Gamma=0.0):
    """Three-mode sensor: one squeezing-coupled and one swap-coupled magnon.

    Magnons start in opposite imaginary coherent states (i*alpha, -i*alpha),
    the configuration that routes the detuning signal into the X quadratures.
    """
    return SystemConfig(n=3, m=1, g=(g,), kappa=(kappa,), delta=(0.0, 0.0),
                        epsilon=(eps1, eps2), gamma=gamma, Gamma=Gamma,
                        alpha=(1j * alpha, -1j * alpha))


def ep4_system(f, g1=None, eps=0.0, alpha=0.0):
    """Four-mode system (two squeezing + one swap magnon) at the fourth-order
    exceptional-point locus for coupling ratio f, optionally with g1 moved off
    the locus and a common detuning perturbation applied."""
    from .model import ep4_locus  # local import to avoid a cycle

    locus = ep4_locus(f)
    g1 = locus.g if g1 is None else g1
    return SystemConfig(
        n=4, m=2, g=(g1, f), kappa=(1.0,),
        delta=(locus.delta1, locus.delta2, locus.delta3),
        epsilon=(eps, eps, eps),
        alpha=(1j * alpha, 1j * alpha, -1j * alpha))
