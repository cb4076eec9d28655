"""Gaussian-state dynamics: exact affine propagators (with and without
losses), passive channels, and the two-mode passive-squeeze-passive
decomposition.

Quadrature convention: X = (b + b^+)/sqrt(2), P = (b - b^+)/(i sqrt(2)),
so a vacuum or coherent state has covariance I/2 and var(X1 - X2) = 1.
State vectors are ordered (X1, P1, ..., Xn, Pn) with the cavity last.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigurationError, NumericalError
from .model import build_system, reduced_mode_kinds
from .spectral import eigensolve

_T2 = np.array([[1.0, 1.0], [-1j, 1j]]) / np.sqrt(2.0)


def symplectic_form(n_modes):
    """Omega = I_n (x) [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclass(frozen=True)
class GaussianState:
    """First moments mu (length 2n) and covariance cov (2n x 2n)."""

    mu: np.ndarray
    cov: np.ndarray
    modes: tuple
    time: float = 0.0

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cov", cov)
        if mu.shape != (2 * len(self.modes),) or cov.shape != (len(mu), len(mu)):
            raise ConfigurationError("state dimensions do not match mode labels")

    @property
    def n_modes(self):
        return len(self.modes)

    def marginal(self, indices):
        """Reduced state of the selected modes (order preserved)."""
        sel = np.concatenate([[2 * i, 2 * i + 1] for i in indices]).astype(int)
        return GaussianState(mu=self.mu[sel], cov=self.cov[np.ix_(sel, sel)],
                             modes=tuple(self.modes[i] for i in indices),
                             time=self.time)

    def purity_det(self):
        """det(2 cov); equals 1 for pure states."""
        return float(np.linalg.det(2.0 * self.cov))

    def uncertainty_min_eigenvalue(self):
        """Smallest eigenvalue of cov + i Omega/2 (>= 0 for physical states)."""
        om = symplectic_form(self.n_modes)
        M = self.cov + 0.5j * om
        return float(np.linalg.eigvalsh((M + M.conj().T) / 2.0).min())

    def to_json_dict(self):
        return {
            "n_modes": self.n_modes,
            "modes": list(self.modes),
            "time": self.time,
            "mu": self.mu.tolist(),
            "cov": self.cov.flatten().tolist(),   # row-major
        }

    @classmethod
    def from_json_dict(cls, d):
        n = int(d["n_modes"])
        return cls(mu=np.array(d["mu"], dtype=float),
                   cov=np.array(d["cov"], dtype=float).reshape(2 * n, 2 * n),
                   modes=tuple(d["modes"]), time=float(d["time"]))


@dataclass(frozen=True)
class Propagator:
    """Affine Gaussian map over time t: the real quadrature map S_quad and
    the covariance Q added by vacuum-input diffusion (zero when the
    configuration is lossless)."""

    S_quad: np.ndarray
    Q: np.ndarray
    t: float
    method: str                  # "eigen" or "expm"
    condition_number: float

    def symplectic_residual(self):
        n = self.S_quad.shape[0] // 2
        om = symplectic_form(n)
        return float(np.abs(self.S_quad @ om @ self.S_quad.T - om).max())


@dataclass(frozen=True)
class BlochMessiahDecomposition:
    """Sigma = K_passive . diag(S(-r), S(r)) . L_passive with
    S(r) = diag(e^-r, e^r); xbar is the output displacement."""

    phi: float
    r: float
    K_passive: np.ndarray
    L_passive: np.ndarray
    xbar: np.ndarray

    def squeeze_stage(self):
        return np.diag([np.exp(self.r), np.exp(-self.r),
                        np.exp(-self.r), np.exp(self.r)])

    def reconstruct(self):
        return self.K_passive @ self.squeeze_stage() @ self.L_passive


def vacuum_state(n_modes, modes=None, time=0.0):
    modes = tuple(modes) if modes else tuple(f"m{i + 1}" for i in range(n_modes))
    return GaussianState(mu=np.zeros(2 * n_modes), cov=np.eye(2 * n_modes) / 2.0,
                         modes=modes, time=time)


def coherent_init(config):
    """Magnon modes in coherent states alpha_i, cavity in vacuum."""
    n = config.n
    mu = np.zeros(2 * n)
    for i, a in enumerate(config.alpha):
        mu[2 * i] = np.sqrt(2.0) * a.real
        mu[2 * i + 1] = np.sqrt(2.0) * a.imag
    modes = tuple(f"b{i + 1}" for i in range(n - 1)) + ("a",)
    return GaussianState(mu=mu, cov=np.eye(2 * n) / 2.0, modes=modes)


def _lift_to_full(K, kinds):
    """Expand the reduced operator map to the interleaved (c, c^+) basis by
    conjugation symmetry."""
    idx = np.array([2 * mode + dag for mode, dag in kinds])
    Kf = np.zeros((2 * len(kinds), 2 * len(kinds)), dtype=complex)
    Kf[idx[:, None], idx] = K
    Kf[idx[:, None] ^ 1, idx ^ 1] = np.conj(K)
    return Kf


def operator_to_quadrature(K, kinds):
    """Real quadrature map equivalent to a reduced-basis operator map."""
    n = len(kinds)
    T = np.kron(np.eye(n), _T2)
    S = T @ _lift_to_full(K, kinds) @ T.conj().T
    imag = float(np.abs(S.imag).max())
    scale = max(1.0, float(np.abs(S.real).max()))
    if imag > 1e-12 * scale:
        raise NumericalError(f"quadrature map not real: imaginary residual {imag:.3e}")
    return S.real


COND_SWITCH = 1e8
# a sensitivity row, or one time of a QFI trace, asks for at most 5 distinct
# configurations (the configured one and its +-h for two steps): keep 5
MEMO_SIZE = 5


@functools.lru_cache(maxsize=MEMO_SIZE)
def _decompose(config):
    """Exact affine Gaussian maps of one configuration: returns at(t), the
    Propagator over time t, with the quadrature map S(t) = exp(A t) of the
    drift A and the diffusion covariance Q(t) = int_0^t S(s) D S(s)^T ds of a
    lossy configuration.

    Uses the eigen-decomposition K = V diag(e^{-i lambda t}) V^-1 of the
    reduced matrix when V is well enough conditioned (cond(V) < COND_SWITCH).
    For nearly defective spectra, close to or at exceptional points, it falls
    back to one scaling-and-squaring exponential of the Van Loan block
    expm([[-A, D], [0, A^T]] t) = [[F11, F12], [0, F22]], which gives
    S = F22^T and Q = S F12 (Van Loan, IEEE TAC 23:395, 1978).

    Everything that depends on the configuration alone (the spectrum, V^-1
    and the diffusion in the drift eigenbasis, or the Van Loan block) is
    computed once per configuration and memoized on the frozen config; at(t)
    does only the work that depends on t, and shares what it closes over.
    at(t) raises NumericalError when S or Q is not finite, as when
    e^{-i lambda t} overflows on an unstable configuration.
    """
    spec = eigensolve(config)
    V = spec.right_vectors
    cond = float(np.linalg.cond(V))
    rates = (-1j * spec.eigenvalues).real
    if cond >= COND_SWITCH:
        # imported here: scipy.linalg costs more to import than numpy, and
        # only nearly defective spectra need it
        from scipy.linalg import expm
        A, D = drift_and_diffusion(config)
        m = len(A)
        block = np.block([[-A, D], [np.zeros_like(A), A.T]])
        # the block holds exp(-A t) too, which grows where the drift decays
        growth = f"max |Re(-i lambda)| = {np.abs(rates).max():.6g}"

        def at(t):
            F = expm(block * t)
            S = F[m:, m:].T
            return _finite(Propagator(S_quad=S, Q=S @ F[:m, m:], t=float(t),
                                      method="expm", condition_number=cond), growth)
        return at

    kinds = reduced_mode_kinds(config)
    Vinv = np.linalg.inv(V)
    lam = spec.eigenvalues
    diffusion = None if config.lossless else _eigen_diffusion(config, kinds, V, Vinv, lam)
    growth = f"max Re(-i lambda) = {rates.max():.6g}"

    def at(t):
        K = V @ np.diag(np.exp(-1j * lam * t)) @ Vinv
        S = operator_to_quadrature(K, kinds)
        Q = np.zeros_like(S) if diffusion is None else diffusion(t)
        return _finite(Propagator(S_quad=S, Q=Q, t=float(t), method="eigen",
                                  condition_number=cond), growth)
    return at


def _finite(prop, growth):
    """prop, or NumericalError naming the largest growth rate if its S or Q
    is not finite (the realness check of operator_to_quadrature lets NaN
    through)."""
    if not (np.isfinite(prop.S_quad).all() and np.isfinite(prop.Q).all()):
        raise NumericalError(f"{prop.method} propagator not finite at t = {prop.t:.6g}: "
                             f"largest growth rate {growth}")
    return prop


def propagator(config, t):
    """The Propagator of config over time t; see `_decompose` (memoized)."""
    return _decompose(config)(t)


def _eigen_diffusion(config, kinds, V, Vinv, eigenvalues):
    """Q(t) = W Qt W^T in the drift eigenbasis W = T lift(V), whose
    eigenvalues are -i lambda on the reduced slots and i conj(lambda) on their
    partners: Qt_ij = Dt_ij (e^{(l_i+l_j) t} - 1)/(l_i+l_j), with the limit t
    where l_i + l_j = 0, and Dt = W^-1 D W^-T (Van Loan, IEEE TAC 23:395,
    1978). Returns Q as a function of t."""
    D = _diffusion(config)
    T = np.kron(np.eye(config.n), _T2)
    W = T @ _lift_to_full(V, kinds)
    Winv = _lift_to_full(Vinv, kinds) @ T.conj().T
    Dt = Winv @ D @ Winv.T
    rates = np.diag(_lift_to_full(np.diag(-1j * eigenvalues), kinds))
    s = rates[:, None] + rates[None, :]
    nz = s != 0
    s_nz = s[nz]

    def Q(t):
        F = np.full(s.shape, float(t), dtype=complex)
        F[nz] = np.expm1(s_nz * t) / s_nz
        return (W @ (Dt * F) @ W.T).real
    return Q


def evolve(state, prop):
    """Affine Gaussian update mu -> S mu, cov -> S cov S^T + Q of a
    Propagator."""
    S = prop.S_quad
    if S.shape != (len(state.mu), len(state.mu)):
        raise ConfigurationError(
            f"propagator dimension {S.shape} does not match state ({len(state.mu)})")
    return replace(state, mu=S @ state.mu, cov=S @ state.cov @ S.T + prop.Q,
                   time=state.time + prop.t)


def drift_and_diffusion(config):
    """Quadrature drift A (incl. decay) and the vacuum-input diffusion D.

    D is fixed by the requirement that a decoupled decaying mode with
    vacuum input keeps cov = I/2 exactly, which pins D = rate * I per mode
    pair and removes any noise-normalization ambiguity.
    """
    G = operator_to_quadrature(-1j * build_system(config).reduced,
                               reduced_mode_kinds(config))
    return G, _diffusion(config)


def _diffusion(config):
    rates = [config.Gamma] * (config.n - 1) + [config.gamma]
    return np.kron(np.diag(rates), np.eye(2))


def evolve_lossy(state, config, t):
    """State after time t under decay and vacuum-input diffusion."""
    return evolve(state, propagator(config, t))


def evolve_lossy_trace(state, config, times):
    """States at each of `times`, each propagated from `state`."""
    return [evolve(state, propagator(config, t)) for t in times]


# ---------------------------------------------------------------------------
# observables on states

def excitation_numbers(state):
    """Per-mode occupation (mu_X^2 + mu_P^2)/2 + (cov_XX + cov_PP - 1)/2."""
    n = state.n_modes
    out = np.empty(n)
    for i in range(n):
        x, p = 2 * i, 2 * i + 1
        out[i] = (state.mu[x] ** 2 + state.mu[p] ** 2) / 2.0 \
            + (state.cov[x, x] + state.cov[p, p] - 1.0) / 2.0
    return out


def total_excitation(state):
    return float(excitation_numbers(state).sum())


# ---------------------------------------------------------------------------
# channels

def readout_swap(state, theta_t, modes=None):
    """Append vacuum read-out modes and rotate each selected mode into its
    read-out partner by the angle theta_t (beam-splitter map
    b -> cos(theta_t) b - sin(theta_t) d, d -> sin(theta_t) b + cos(theta_t) d).
    At theta_t = pi/2 the selected-mode and read-out marginals swap exactly.

    By default all modes except the last (the cavity) are read out.
    """
    n = state.n_modes
    if modes is None:
        modes = tuple(range(n - 1))
    k = len(modes)
    big_mu = np.concatenate([state.mu, np.zeros(2 * k)])
    big_cov = np.block([
        [state.cov, np.zeros((2 * n, 2 * k))],
        [np.zeros((2 * k, 2 * n)), np.eye(2 * k) / 2.0]])
    S = np.eye(2 * (n + k))
    c, s = np.cos(theta_t), np.sin(theta_t)
    for j, mode in enumerate(modes):
        b, d = 2 * mode, 2 * (n + j)
        for off in (0, 1):
            S[b + off, b + off] = c
            S[b + off, d + off] = -s
            S[d + off, b + off] = s
            S[d + off, d + off] = c
    labels = state.modes + tuple(f"d{state.modes[m]}" for m in modes)
    return GaussianState(mu=S @ big_mu, cov=S @ big_cov @ S.T, modes=labels,
                         time=state.time)


def apply_external_loss(state, eta):
    """Beam-splitter loss: per mode, mu -> sqrt(eta) mu and the covariance
    block -> eta*block + (1-eta)/2 * I. eta may be a scalar or per-mode."""
    n = state.n_modes
    eta = np.broadcast_to(np.asarray(eta, dtype=float), (n,))
    if np.any(eta < 0) or np.any(eta > 1):
        raise ConfigurationError("transmissivities must lie in [0, 1]")
    X = np.kron(np.diag(np.sqrt(eta)), np.eye(2))
    cov = X @ state.cov @ X + (np.eye(2 * n) - X @ X) / 2.0
    return replace(state, mu=X @ state.mu, cov=cov)


# ---------------------------------------------------------------------------
# two-mode reference model and its decomposition

def two_mode_squeezer_coefficients(delta, g, eps, t):
    """Propagation pair (A, B) of the two-mode reference system
    (one squeezing-coupled pair with common detuning delta + eps):
    A = cos(chi t) - i (delta+eps) sin(chi t)/chi, B = g sin(chi t)/chi,
    chi = sqrt((delta+eps)^2 - g^2), continued through chi^2 <= 0.
    Satisfies |A|^2 - |B|^2 = 1; B is real."""
    dp = delta + eps
    chi = np.sqrt(complex(dp * dp - g * g))
    if abs(chi) < 1e-150:
        A, B = 1.0 - 1j * dp * t, g * t
    else:
        A = np.cos(chi * t) - 1j * dp * np.sin(chi * t) / chi
        B = g * np.sin(chi * t) / chi
    return complex(A), complex(B)


def two_mode_quadrature_map(A, B):
    """Quadrature map of the pair map a -> A a + B b^+, b -> A b + B a^+
    (mode order: cavity-like first, magnon-like second; B real)."""
    B = _real_B(B)
    ReA, ImA = A.real, A.imag
    return np.array([
        [ReA, -ImA, B, 0.0],
        [ImA, ReA, 0.0, -B],
        [B, 0.0, ReA, -ImA],
        [0.0, -B, ImA, ReA]])


def _real_B(B):
    B = complex(B)
    if abs(B.imag) > 1e-9 * max(1.0, abs(B)):
        raise ConfigurationError(f"expected a real squeezing coefficient, got {B!r}")
    return B.real


def _rot(phi):
    return np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])


def bloch_messiah_2mode(A, B, alpha):
    """Passive-squeeze-passive factorization of the two-mode propagator.

    For |A|^2 - |B|^2 = 1 (checked to 1e-9) the quadrature map of
    (a -> A a + B b^+, b -> A b + B a^+) factors exactly as
    K . diag(S(-r), S(r)) . L with 50:50-splitter passive stages

        K = [[I, -I], [R(phi), R(phi)]] / sqrt(2)
        L = [[R(phi), I], [-R(phi), I]] / sqrt(2)

    where phi = -arg(A) and r = arcsinh(B) (so |r| = ln(|A| + |B|)); the
    displacement created from an initial magnon amplitude alpha is
    xbar = sqrt(2) alpha [Re B, Im B, Re A, Im A].
    """
    A = complex(A)
    Br = _real_B(B)
    defect = abs(abs(A) ** 2 - Br * Br - 1.0)
    if defect > 1e-9:
        raise ConfigurationError(
            f"|A|^2 - |B|^2 = 1 violated by {defect:.3e} (tol 1e-9)")
    phi = -np.arctan2(A.imag, A.real)
    r = float(np.arcsinh(Br))
    I2 = np.eye(2)
    K = np.block([[I2, -I2], [_rot(phi), _rot(phi)]]) / np.sqrt(2.0)
    L = np.block([[_rot(phi), I2], [-_rot(phi), I2]]) / np.sqrt(2.0)
    xbar = np.sqrt(2.0) * alpha * np.array([Br, 0.0, A.real, A.imag])
    return BlochMessiahDecomposition(phi=float(phi), r=r, K_passive=K,
                                     L_passive=L, xbar=xbar)
