"""Dynamical matrices of the magnon-cavity system and their structure checks.

The Heisenberg equations close on the field-operator vector
Phi = (b_1, b_1^+, ..., b_{n-1}, b_{n-1}^+, a, a^+), giving
i d/dt Phi = H_full Phi with a non-Hermitian 2n x 2n generator even though
the Hamiltonian itself is Hermitian. Half of the components suffice: the
reduced basis (b_1..b_m, b_{m+1}^+..b_{n-1}^+, a^+) evolves under an n x n
matrix whose diagonal carries the signed effective detunings and whose last
row/column carries the couplings.
"""

from dataclasses import dataclass

import numpy as np

from .config import RegimeError, SystemConfig

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class DynamicalMatrix:
    """Reduced n x n and full 2n x 2n generators plus basis bookkeeping."""

    reduced: np.ndarray
    full: np.ndarray
    mode_order: tuple          # reduced-basis labels, e.g. ("b1", "b2+", "a+")
    full_order: tuple          # interleaved labels ("b1", "b1+", ..., "a", "a+")
    config: SystemConfig

    @property
    def n(self):
        return self.config.n


@dataclass(frozen=True)
class SymmetryReport:
    """Max-norm residuals of the two structural symmetries of the full matrix."""

    particle_hole: float       # || C H C^-1 + H ||_max,  C = I_n (x) sigma_x
    pseudo_hermiticity: float  # || eta H eta^-1 - H^+ ||_max,  eta = I_n (x) sigma_z


@dataclass(frozen=True)
class IrreducibilityReport:
    passed: bool
    violations: tuple          # pairs (i, j), 1-based magnon indices


class EP4Locus:
    """Detunings and coupling at the fourth-order exceptional point, as a
    function of the secondary squeezing-coupling ratio f in (0, 1)."""

    __slots__ = ("f", "delta1", "delta2", "delta3", "g", "eigenvalue")

    def __init__(self, f, delta1, delta2, delta3, g, eigenvalue):
        self.f = f
        self.delta1 = delta1
        self.delta2 = delta2
        self.delta3 = delta3
        self.g = g
        self.eigenvalue = eigenvalue

    def __iter__(self):
        return iter((self.delta1, self.delta2, self.delta3, self.g))

    def __repr__(self):
        return (f"EP4Locus(f={self.f}, delta=({self.delta1:.6g}, {self.delta2:.6g}, "
                f"{self.delta3:.6g}), g={self.g:.6g})")


def _reduced_matrices(configs):
    """The reduced matrices of configurations of one size n, stacked
    (len(configs), n, n) and filled in one pass over the stack. Each entry
    is set as its scalar formula would set it, signed zeros included: the
    diagonal sign * d'_i - i Gamma (cavity: -i gamma), the last column
    sign * coupling and the last row -coupling, sign = -1 on the
    beam-splitter magnons."""
    n = configs[0].n
    # per configuration: m, delta, epsilon, couplings (g then kappa), Gamma, gamma
    p = np.array([(c.m, *c.delta, *c.epsilon, *c.g, *c.kappa, c.Gamma, c.gamma)
                  for c in configs], dtype=float)
    delta, epsilon, couplings = (p[:, 1 + k * (n - 1):1 + (k + 1) * (n - 1)]
                                 for k in range(3))
    sign = np.where(np.arange(n - 1) < p[:, :1], 1.0, -1.0)
    magnons = np.arange(n - 1)
    H = np.zeros((len(p), n, n), dtype=complex)
    H.real[:, magnons, magnons] = sign * (delta + epsilon)
    H.imag[:, magnons, magnons] = (0.0 - p[:, -2])[:, None]    # -1j * Gamma: +0.0 at 0
    H.real[:, magnons, n - 1] = sign * couplings
    H.real[:, n - 1, magnons] = -couplings
    H.imag[:, n - 1, n - 1] = -p[:, -1]                         # -1j * gamma: -0.0 at 0
    return H


def _full_matrix(config):
    n, m = config.n, config.m
    dp = config.detuning_eff
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    couplings = list(config.g) + list(config.kappa)
    a, ad = 2 * (n - 1), 2 * (n - 1) + 1
    for i in range(n - 1):
        b, bd = 2 * i, 2 * i + 1
        H[b, b] = dp[i] - 1j * config.Gamma
        H[bd, bd] = -dp[i] - 1j * config.Gamma
        c = couplings[i]
        if i < m:
            # squeezing coupling: i db/dt = ... + g a^+,  i da/dt = ... + g b^+
            H[b, ad] = c
            H[bd, a] = -c
            H[a, bd] = c
            H[ad, b] = -c
        else:
            # swap coupling: i db/dt = ... + kappa a
            H[b, a] = c
            H[bd, ad] = -c
            H[a, b] = c
            H[ad, bd] = -c
    H[a, a] = -1j * config.gamma
    H[ad, ad] = -1j * config.gamma
    return H


def reduced_mode_kinds(config):
    """Per reduced-basis slot: (mode index, is_conjugated)."""
    n, m = config.n, config.m
    return tuple((i, i >= m) for i in range(n - 1)) + ((n - 1, True),)


def build_system(config):
    """Assemble the reduced and full dynamical matrices for a configuration.

    The reduced matrix acts on (b_1..b_m, b_{m+1}^+..b_{n-1}^+, a^+): the
    diagonal is (d'_1, ..., d'_m, -d'_{m+1}, ..., -d'_{n-1}, 0) with an
    additional -i*Gamma (-i*gamma for the cavity) when losses are present;
    the last column holds (+g_i, -kappa_j) and the last row (-g_i, -kappa_j).
    """
    n, m = config.n, config.m
    labels = tuple(f"b{i + 1}" for i in range(m)) \
        + tuple(f"b{i + 1}+" for i in range(m, n - 1)) + ("a+",)
    full_labels = sum(((f"b{i + 1}", f"b{i + 1}+") for i in range(n - 1)), ()) + ("a", "a+")
    return DynamicalMatrix(reduced=_reduced_matrices([config])[0],
                           full=_full_matrix(config), mode_order=labels,
                           full_order=full_labels, config=config)


def check_symmetries(dm):
    """Residuals of particle-hole symmetry (C H C^-1 = -H) and
    pseudo-Hermiticity (eta H eta^-1 = H^+) of the full matrix.

    Both hold exactly for lossless configurations; decay terms contribute a
    residual of 2*Gamma (2*gamma on the cavity block) to each.
    """
    H = dm.full
    n = dm.n
    C = np.kron(np.eye(n), SIGMA_X)
    eta = np.kron(np.eye(n), SIGMA_Z)
    ph = np.abs(C @ H @ C + H).max()
    pseudo = np.abs(eta @ H @ eta - H.conj().T).max()
    return SymmetryReport(particle_hole=float(ph), pseudo_hermiticity=float(pseudo))


def check_irreducibility(config, tol=0.0):
    """Test the detuning condition for the system to reach the highest-order
    exceptional point: the signed effective detunings
    (d'_1, ..., d'_m, -d'_{m+1}, ..., -d'_{n-1}) must be pairwise distinct.

    Equivalently, d'_i != d'_j for two modes coupled through the same
    interaction type and d'_i != -d'_j for mixed types. Violating pairs are
    reported with 1-based indices. Vacuously passes for a single magnon.
    """
    n, m = config.n, config.m
    dp = config.detuning_eff
    violations = []
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            same_type = (i < m) == (j < m)
            if same_type:
                clash = abs(dp[i] - dp[j]) <= tol
            else:
                clash = abs(dp[i] + dp[j]) <= tol
            if clash:
                violations.append((i + 1, j + 1))
    return IrreducibilityReport(passed=not violations, violations=tuple(violations))


def ep4_locus(f):
    """Closed-form detunings and coupling placing the 4-mode system (two
    squeezing + one swap magnon, kappa=1) at its fourth-order exceptional
    point, parameterized by the secondary coupling ratio 0 < f < 1:

        delta1 = 4 f (1+f^2) / (1-f^2)^{3/2}
        delta2 = 4 f^3 / (1-f^2)^{3/2}
        delta3 = -4 f / (1-f^2)^{3/2}
        g      = (1+f^2)^2 / (1-f^2)^{3/2}

    All four eigenvalues coalesce at 2 f (1+f^2) / (1-f^2)^{3/2}.
    """
    if not 0.0 < f < 1.0:
        raise RegimeError(f"coupling ratio f must lie in (0, 1), got {f!r}")
    den = (1.0 - f * f) ** 1.5
    return EP4Locus(
        f=f,
        delta1=4.0 * f * (1.0 + f * f) / den,
        delta2=4.0 * f ** 3 / den,
        delta3=-4.0 * f / den,
        g=(1.0 + f * f) ** 2 / den,
        eigenvalue=2.0 * f * (1.0 + f * f) / den,
    )
