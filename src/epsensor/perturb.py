"""Biorthogonal eigenbasis and first-order perturbation theory for the
three-mode sensor (delta = 0, kappa = 1 units).

The unperturbed matrix has eigenvalues lambda_0 = -i*Gamma and
lambda_pm = -i*(gamma+Gamma)/2 +- chi with chi = sqrt(1 - g^2 - (gamma-Gamma)^2/4).
Left and right eigenvectors are individually non-orthogonal but form a
biorthogonal pair <L_i|R_j> = delta_ij, which supports first-order
perturbation theory in the detuning shifts (eps1, eps2) as long as
eps << chi^3. The propagator approximations here are for the lossless case.
"""

from dataclasses import dataclass

import numpy as np

from .config import RegimeError, sensed_magnons
from .spectral import cardano_eigenvalues

DEFAULT_REGIME_RATIO = 0.1


@dataclass(frozen=True)
class BiorthogonalBasis:
    """Columns ordered (0, +, -) in both `right` and `left`."""

    right: np.ndarray
    left: np.ndarray
    eigenvalues: tuple           # (lambda_0, lambda_+, lambda_-)
    chi: float
    gamma_minus: float
    g: float
    gamma: float
    Gamma: float

    def biorthogonality_residual(self):
        G = self.left.conj().T @ self.right
        return float(np.abs(G - np.eye(3)).max())

    def completeness_residual(self):
        S = sum(np.outer(self.right[:, i], self.left[:, i].conj()) for i in range(3))
        return float(np.abs(S - np.eye(3)).max())


@dataclass(frozen=True)
class PerturbedEigenvalues:
    lam0: complex
    lam_plus: complex
    lam_minus: complex
    valid_regime: bool


@dataclass(frozen=True)
class PropagatorCoefficients:
    """Matrix elements of the reduced-basis propagator
    [[A1, C, -iB], [-C, A2, iD], [iB, iD, Aa]]."""

    A1: complex
    A2: complex
    Aa: complex
    B: complex
    C: complex
    D: complex
    valid_regime: bool = True

    def as_matrix(self):
        return np.array([
            [self.A1, self.C, -1j * self.B],
            [-self.C, self.A2, 1j * self.D],
            [1j * self.B, 1j * self.D, self.Aa]])

    def items(self):
        return {"A1": self.A1, "A2": self.A2, "Aa": self.Aa,
                "B": self.B, "C": self.C, "D": self.D}.items()


@dataclass(frozen=True)
class CoefficientDerivatives:
    dA1: complex
    dA2: complex
    dC: complex


def _chi(g, gamma, Gamma):
    gm = gamma - Gamma
    chi2 = 1.0 - g * g - gm * gm / 4.0
    if chi2 <= 0:
        raise RegimeError(
            f"chi^2 = {chi2:g} <= 0: biorthogonal basis undefined at/beyond "
            "the exceptional point")
    return np.sqrt(chi2), gm


def biorthogonal_basis(g, gamma=0.0, Gamma=0.0):
    """Normalized biorthogonal eigenbasis of the unperturbed three-mode matrix.

    Right vectors: R0 ~ (1, -g, 0), R+- ~ (g, -1, -i*gm/2 +- chi);
    left vectors:  L0 ~ (1, g, 0),  L+- ~ (-g, -1, +i*gm/2 +- chi);
    normalized so that <L_i|R_j> = delta_ij and sum |R_i><L_i| = 1.
    """
    chi, gm = _chi(g, gamma, Gamma)
    gp = gamma + Gamma
    lam0 = -1j * Gamma
    lamp = -1j * gp / 2.0 + chi
    lamm = -1j * gp / 2.0 - chi

    r0 = np.array([1.0, -g, 0.0], dtype=complex)
    l0 = np.array([1.0, g, 0.0], dtype=complex)
    rp = np.array([g, -1.0, -1j * gm / 2.0 + chi], dtype=complex)
    rm = np.array([g, -1.0, -1j * gm / 2.0 - chi], dtype=complex)
    lp = np.array([-g, -1.0, 1j * gm / 2.0 + chi], dtype=complex)
    lm = np.array([-g, -1.0, 1j * gm / 2.0 - chi], dtype=complex)

    right = np.column_stack([r0, rp, rm])
    left = np.column_stack([l0, lp, lm])
    for i in range(3):
        d = left[:, i].conj() @ right[:, i]
        s = np.sqrt(d)
        right[:, i] /= s
        left[:, i] /= np.conj(s)
    return BiorthogonalBasis(right=right, left=left,
                             eigenvalues=(lam0, lamp, lamm),
                             chi=float(chi), gamma_minus=float(gm),
                             g=float(g), gamma=float(gamma), Gamma=float(Gamma))


def perturbation_matrix_elements(basis, eps1, eps2):
    """[H_p] in the biorthogonal basis, H_p = diag(eps1, -eps2, 0) on the
    reduced operators (b1, b2^+, a^+)."""
    Hp = np.diag([eps1, -eps2, 0.0]).astype(complex)
    return basis.left.conj().T @ Hp @ basis.right


def regime_ok(eps1, eps2, chi):
    return max(abs(eps1), abs(eps2)) < DEFAULT_REGIME_RATIO * chi ** 3


def first_order_eigenvalues(basis, eps1, eps2):
    """Eigenvalues shifted by the diagonal perturbation matrix elements:

        lam0' = lam0 + (eps1 + eps2 g^2) / (1 - g^2)
        lam+-' = lam+- - (eps1 g^2 + eps2) / (2 chi (chi -+ i gm/2))

    Both +- branches shift the same way in the lossless case. Exceeding the
    regime eps << chi^3 sets valid_regime=False rather than raising; the
    flag threshold is eps/chi^3 < DEFAULT_REGIME_RATIO.
    """
    lam0, lamp, lamm = basis.eigenvalues
    Hp = perturbation_matrix_elements(basis, eps1, eps2)
    return PerturbedEigenvalues(
        lam0=lam0 + Hp[0, 0],
        lam_plus=lamp + Hp[1, 1],
        lam_minus=lamm + Hp[2, 2],
        valid_regime=regime_ok(eps1, eps2, basis.chi))


def exact_propagator_coefficients(g, eps1, eps2, t):
    """Exact propagation coefficients of the lossless three-mode system from
    the closed eigenvalue sums (residue form over the three eigenvalues)."""
    lam = cardano_eigenvalues(g, eps1, eps2)
    l1, l2, l3 = lam
    denom = (l1 - l2) * (l2 - l3) * (l1 - l3)
    if denom == 0:
        raise RegimeError("degenerate eigenvalues: residue form undefined at the EP")
    om = 1.0 / denom
    nxt = (1, 2, 0)
    prv = (2, 0, 1)

    def total(f):
        return sum(np.exp(-1j * lam[i] * t) * f(lam[i]) * (lam[nxt[i]] - lam[prv[i]])
                   for i in range(3))

    return PropagatorCoefficients(
        A1=om * total(lambda l: l * l + eps2 * l - 1.0),
        Aa=om * total(lambda l: (l - eps1) * (l + eps2)),
        A2=om * total(lambda l: l * l - eps1 * l + g * g),
        B=1j * g * om * total(lambda l: eps2 + l),
        C=-g * om * total(lambda l: 1.0),
        D=-1j * om * total(lambda l: eps1 - l))


def first_order_propagator(g, eps1, eps2, t):
    """First-order propagation coefficients (lossless).

    Secular phases are resummed into exponentials of the first-order
    eigenvalue shifts; amplitudes carry the first-order eigenvector
    corrections. Accurate while eps << chi^3 (error grows like
    (eps/chi^3)^2); outside that regime valid_regime is False.
    """
    chi2 = 1.0 - g * g
    if chi2 <= 0:
        raise RegimeError("first-order theory requires the oscillatory side g < 1")
    chi = np.sqrt(chi2)
    e1, e2 = eps1, eps2
    E1 = np.exp(-1j * (e1 + g * g * e2) * t / chi2)
    E2 = np.exp(1j * (g * g * e1 + e2) * t / (2.0 * chi2))
    c, s = np.cos(chi * t), np.sin(chi * t)
    q1 = g * g * e1 - 4.0 * e1 - 3.0 * e2
    q2 = g * g * e1 + e2
    q3 = 3.0 * g * g * e1 + 4.0 * g * g * e2 - e2
    ok = regime_ok(e1, e2, chi)
    return PropagatorCoefficients(
        A1=(E1 / chi2
            - g * g * E2 / (16.0 * chi ** 8) * (16.0 * chi ** 6 + q1 * q1) * c
            - 1j * g * g * E2 / (2.0 * chi ** 5) * q1 * s),
        Aa=(-g * g * (e1 + e2) ** 2 * E1 / chi ** 6
            + E2 / (16.0 * chi ** 6) * (16.0 * chi ** 6 + q2 * q2) * c
            - 1j * E2 / (2.0 * chi ** 3) * q2 * s),
        A2=(-g * g * E1 / chi2
            + E2 / (16.0 * chi ** 8) * (16.0 * chi ** 6 + q3 * q3) * c
            - 1j * E2 / (2.0 * chi ** 5) * q3 * s),
        B=(-1j * g * (e1 + e2) * E1 / chi ** 4
           + g * E2 / (16.0 * chi ** 7) * (16.0 * chi ** 6 - q2 * q1) * s
           + 1j * g * (e1 + e2) * E2 / chi ** 4 * c),
        C=(g * E1 / chi2
           - g * E2 / (16.0 * chi ** 8) * (16.0 * chi ** 6 - q3 * q1) * c
           + 1j * g * E2 / (2.0 * chi ** 5)
           * (g * g * e1 + 2.0 * g * g * e2 + 2.0 * e1 + e2) * s),
        D=(-1j * g * g * (e1 + e2) * E1 / chi ** 4
           + E2 / (16.0 * chi ** 7) * (16.0 * chi ** 6 + q2 * q3) * s
           + 1j * g * g * (e1 + e2) * E2 / chi ** 4 * c),
        valid_regime=ok)


def susceptibility_derivatives(g, t, case="same"):
    """Closed-form d/d(eps) of (A1, A2, C) at eps = 0, lossless.

    case "same": both detunings shifted together; case "single": only the
    first. All derivatives are purely imaginary, which is why the signal
    lands in the X quadratures for imaginary initial amplitudes.
    """
    sensed_magnons(case)    # rejects an unknown direction
    chi2 = 1.0 - g * g
    if chi2 <= 0:
        raise RegimeError("derivatives defined on the oscillatory side g < 1")
    chi = np.sqrt(chi2)
    ct = chi * t
    c, s = np.cos(ct), np.sin(ct)
    x5 = chi ** 5
    if case == "same":
        dA1 = (-1j * (1 + g * g) * ct / x5
               - 1j * g * g * (1 + g * g) * ct * c / (2 * x5)
               - 1j * g * g * (g * g - 7.0) * s / (2 * x5))
        dA2 = (1j * g * g * (1 + g * g) * ct / x5
               + 1j * (1 + g * g) * ct * c / (2 * x5)
               + 1j * (1.0 - 7.0 * g * g) * s / (2 * x5))
        dC = (-1j * g * (1 + g * g) * ct / x5
              - 1j * g * (1 + g * g) * ct * c / (2 * x5)
              + 1j * 3.0 * g * (1 + g * g) * s / (2 * x5))
    else:
        # the sin coefficient of dA2 is 3 g^2 (not 3 g^4): differentiating
        # the first-order coefficient forms gives d(q3)/d(eps1) = 3 g^2,
        # which finite differences of the exact propagator confirm
        dA1 = (-1j * ct / x5
               - 1j * g ** 4 * ct * c / (2 * x5)
               - 1j * g * g * (g * g - 4.0) * s / (2 * x5))
        dA2 = (1j * g * g * ct / x5
               + 1j * g * g * ct * c / (2 * x5)
               - 1j * 3.0 * g * g * s / (2 * x5))
        dC = (-1j * g * ct / x5
              - 1j * g ** 3 * ct * c / (2 * x5)
              + 1j * g * (2.0 + g * g) * s / (2 * x5))
    return CoefficientDerivatives(dA1=dA1, dA2=dA2, dC=dC)


def perturbed_basis_residuals(g, eps1, eps2):
    """Orthonormality/completeness residuals of the first-order perturbed
    eigenvectors; scale as (eps/chi^3)^2. Lossless."""
    basis = biorthogonal_basis(g)
    Hp = perturbation_matrix_elements(basis, eps1, eps2)
    lam = np.array(basis.eigenvalues)
    right = basis.right.copy()
    left = basis.left.copy()
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            right[:, i] = right[:, i] + Hp[j, i] / (lam[i] - lam[j]) * basis.right[:, j]
            left[:, i] = left[:, i] + np.conj(Hp[i, j]) / np.conj(lam[i] - lam[j]) \
                * basis.left[:, j]
    G = left.conj().T @ right
    S = sum(np.outer(right[:, i], left[:, i].conj()) for i in range(3))
    return float(np.abs(G - np.eye(3)).max()), float(np.abs(S - np.eye(3)).max())
