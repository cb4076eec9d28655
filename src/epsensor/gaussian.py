"""Gaussian-state dynamics: exact affine propagators (with and without
losses), passive channels, and the two-mode passive-squeeze-passive
decomposition.

Quadrature convention: X = (b + b^+)/sqrt(2), P = (b - b^+)/(i sqrt(2)),
so a vacuum or coherent state has covariance I/2 and var(X1 - X2) = 1.
State vectors are ordered (X1, P1, ..., Xn, Pn) with the cavity last.
"""

import functools
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigurationError, NumericalError, SystemConfig
from .model import build_system, reduced_mode_kinds
from .spectral import eigensolve

_T2 = np.array([[1.0, 1.0], [-1j, 1j]]) / np.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def symplectic_form(n_modes):
    """Omega = I_n (x) [[0, 1], [-1, 0]], built once per size, read-only."""
    om = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    om.flags.writeable = False
    return om


@dataclass(frozen=True)
class GaussianState:
    """First moments mu (length 2n) and covariance cov (2n x 2n)."""

    mu: np.ndarray
    cov: np.ndarray
    modes: tuple

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
                             modes=tuple(self.modes[i] for i in indices))

    def purity_det(self):
        """det(2 cov); equals 1 for pure states."""
        return float(np.linalg.det(2.0 * self.cov))

    def uncertainty_min_eigenvalue(self):
        """Smallest eigenvalue of cov + i Omega/2 (>= 0 for physical states)."""
        om = symplectic_form(self.n_modes)
        M = self.cov + 0.5j * om
        return float(np.linalg.eigvalsh((M + M.conj().T) / 2.0).min())


@dataclass(frozen=True)
class Propagator:
    """Affine Gaussian map over time t: the real quadrature map S_quad and
    the covariance Q added by vacuum-input diffusion (zero when the
    configuration is lossless). For a 1-D array of times t, S_quad and Q are
    stacked (len(t), 2n, 2n)."""

    S_quad: np.ndarray
    Q: np.ndarray
    method: str                  # "eigen" or "expm"
    condition_number: float

    def symplectic_residual(self):
        """The largest |S Omega S^T - Omega| entry (over the whole stack)."""
        om = symplectic_form(self.S_quad.shape[-1] // 2)
        return float(np.abs(self.S_quad @ om @ np.swapaxes(self.S_quad, -1, -2) - om).max())


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


def vacuum_state(n_modes):
    return GaussianState(mu=np.zeros(2 * n_modes), cov=np.eye(2 * n_modes) / 2.0,
                         modes=tuple(f"m{i + 1}" for i in range(n_modes)))


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
    """Expand the reduced operator map (or a stack of them) to the
    interleaved (c, c^+) basis by conjugation symmetry."""
    idx = np.array([2 * mode + dag for mode, dag in kinds])
    Kf = np.zeros(K.shape[:-2] + (2 * len(kinds),) * 2, dtype=complex)
    Kf[..., idx[:, None], idx] = K
    Kf[..., idx[:, None] ^ 1, idx ^ 1] = np.conj(K)
    return Kf


@functools.lru_cache(maxsize=None)
def _quadrature_basis(n):
    """(T, T^+) with T = I_n (x) _T2, the map from the interleaved (c, c^+)
    basis of n modes to their quadratures; built once per size, read-only."""
    T = np.kron(np.eye(n), _T2)
    TH = T.conj().T
    T.flags.writeable = TH.flags.writeable = False
    return T, TH


def operator_to_quadrature(K, kinds):
    """Real quadrature map equivalent to a reduced-basis operator map, or a
    stack of them."""
    T, TH = _quadrature_basis(len(kinds))
    S = T @ _lift_to_full(K, kinds) @ TH
    imag = np.atleast_1d(np.abs(S.imag).max(axis=(-2, -1)))
    scale = np.maximum(1.0, np.abs(S.real).max(axis=(-2, -1)))
    bad = imag > 1e-12 * scale
    if bad.any():
        raise NumericalError(
            f"quadrature map not real: imaginary residual {imag.flat[bad.argmax()]:.3e}")
    return S.real


COND_SWITCH = 1e8
# a scaling fit or a sweep decomposes its whole grid up front in one stacked
# solve and then asks for each point's configurations again; the largest
# such stack is a 15-point "ep3-qfi" scaling grid, 3 configurations a point
# (the configured one and its +-_qfi_step of metrology): keep 45 (a larger
# stack is kept whole until the next one is stored, see `_decompose`)
MEMO_SIZE = 45


@dataclass(frozen=True, eq=False)
class _Decomposition:
    """What one configuration's affine Gaussian maps need, computed once by
    `_decompose`: the branch taken ("eigen" or "expm"), cond(V) of the
    reduced eigenvectors, the largest growth rate (for overflow messages),
    the reduced-basis slot kinds, the eigenvalues lam and the fields of the
    branch: V, V^-1 and, when lossy, W, Dt, the nonzero rate sums s_ij and
    the mask of where they sit (eigen), or the quadrature drift A and
    diffusion D (expm).
    """

    method: str
    cond: float
    growth: str
    kinds: tuple
    lam: np.ndarray
    V: np.ndarray = None
    Vinv: np.ndarray = None
    W: np.ndarray = None
    Dt: np.ndarray = None
    rate_sums: np.ndarray = None
    nonzero: np.ndarray = None
    A: np.ndarray = None
    D: np.ndarray = None

    def at(self, t):
        """The Propagator over time t, a scalar or a 1-D array of times
        (then S_quad and Q are stacked; a scalar is a stack of one);
        NumericalError naming the first time and the largest growth rate
        when S or Q is not finite.

        The eigen branch forms V diag(e^{-i lam t}) V^-1 for every time by
        `_operator_maps`, item for item the products a single time takes, so
        each map is bit for bit the one of its own call, and Q by
        `_diffusion`; the expm branch is `_van_loan` of (A, D)."""
        times = np.atleast_1d(np.asarray(t, dtype=float))
        if self.method == "expm":
            S, Q = _van_loan(self.A, self.D, times)
        else:
            S = operator_to_quadrature(_operator_maps(self.V, self.lam, self.Vinv, times),
                                       self.kinds)
            Q = np.zeros_like(S) if self.W is None else self._diffusion(times)
        self._check_finite(times, np.isfinite(S).all(axis=(1, 2)) & np.isfinite(Q).all(axis=(1, 2)),
                           "propagator")
        if np.ndim(t) == 0:
            S, Q = S[0], Q[0]
        return Propagator(S_quad=S, Q=Q, method=self.method, condition_number=self.cond)

    def _diffusion(self, times):
        """Eigen branch, lossy: Q(t) = W Qt W^T, stacked over the 1-D
        `times`, with Qt_ij = Dt_ij (e^{s_ij t} - 1)/s_ij and the limit t
        where s_ij = 0 (Van Loan, IEEE TAC 23:395, 1978)."""
        F = np.empty((len(times),) + self.nonzero.shape, dtype=complex)
        F[...] = times[:, None, None]
        F[:, self.nonzero] = np.expm1(self.rate_sums[None, :] * times[:, None]) / self.rate_sums
        return (self.W @ (self.Dt * F) @ self.W.T).real

    def lossless_excitations(self, times, alpha):
        """Eigen branch, lossless: the total excitation at each of `times`
        of the state whose magnons start in the coherent states alpha (the
        cavity empty). The reduced-basis maps K(t) = V e^{-i lam t} V^-1 of
        every time come from one einsum; the means are K c0 with c0 the
        initial amplitudes on the reduced slots (conjugated on
        creation-operator slots), and each slot's vacuum part is the sum of
        |K_ij|^2 over the slots j of the other kind (annihilation versus
        creation operator). NumericalError naming the largest growth rate
        when a map is not finite."""
        times = np.asarray(times, dtype=float)
        K = np.einsum("ij,tj,jk->tik", self.V, np.exp(-1j * np.multiply.outer(times, self.lam)),
                      self.Vinv)
        self._check_finite(times, np.isfinite(K).all(axis=(1, 2)), "propagator")
        alpha = list(alpha) + [0.0]
        dagger = np.array([dag for _, dag in self.kinds])
        c0 = np.array([np.conj(alpha[mode]) if dag else alpha[mode] for mode, dag in self.kinds])
        coherent = (np.abs(K @ c0) ** 2).sum(axis=1)
        vacuum = (np.abs(K) ** 2)[:, dagger[:, None] != dagger[None, :]].sum(axis=1)
        return (coherent + vacuum).tolist()

    def derivative(self, t, dH):
        """dS(t)/d(eps), the exact derivative of the quadrature map S(t) when
        the reduced matrix H moves along dH (H -> H + eps dH); t is a scalar
        or a 1-D array of times, stacked as in at(t).

        Eigen branch: dK = V (F o (V^-1 dH V)) V^-1 with F_ij the divided
        difference of e^{-i lam t} over lam_i, lam_j, written
        e^{-i lam_j t} (-i t) expm1(z)/z with z = -i (lam_i - lam_j) t, whose
        confluent limit z = 0 is -i t e^{-i lam_j t} (Daleckii-Krein; Higham,
        Functions of Matrices, SIAM 2008, sec. 3.2). Expm branch: the map of
        the augmented drift [[A, E], [0, A]], with E the quadrature form of
        -i dH, is [[S, dS], [0, S]] (Najfeld & Havel, Adv. Appl. Math.
        16:321, 1995), so dS is the top-right block of `_van_loan` with zero
        diffusion; its doubling S <- S^2 is dS(2 tau) = S dS + dS S. At long
        times near the EP that is closer to mpmath than one expm at t (1.0e-5
        against 3.2e-4 relative at g = 1 - 1e-9, t = 1000). The same call
        with the diffusion diag(0, D) would give the exact dQ/d(eps).
        Raises NumericalError naming the first time whose result is not
        finite."""
        times = np.atleast_1d(np.asarray(t, dtype=float))
        if self.method == "expm":
            m = len(self.A)
            E = operator_to_quadrature(-1j * dH, self.kinds)
            X = np.block([[self.A, E], [np.zeros_like(self.A), self.A]])
            dS = _van_loan(X, np.zeros_like(X), times)[0][:, :m, m:]
        else:
            it = (-1j * times)[:, None, None]
            z = it * np.subtract.outer(self.lam, self.lam)
            ratio = np.ones(z.shape, dtype=complex)
            nz = z != 0
            ratio[nz] = np.expm1(z[nz]) / z[nz]
            F = np.exp((-1j * self.lam)[None, :] * times[:, None])[:, None, :] * it * ratio
            dK = self.V @ (F * (self.Vinv @ dH @ self.V)) @ self.Vinv
            dS = operator_to_quadrature(dK, self.kinds)
        self._check_finite(times, np.isfinite(dS).all(axis=(1, 2)), "map derivative")
        return dS[0] if np.ndim(t) == 0 else dS

    def _check_finite(self, times, finite, what):
        """NumericalError naming the first of `times` whose `what` is not
        `finite` (one flag per time) and the largest growth rate; the
        realness check of operator_to_quadrature lets NaN through."""
        if not finite.all():
            raise NumericalError(f"{self.method} {what} not finite at t = "
                                 f"{times[finite.argmin()]:.6g}: largest growth rate {self.growth}")


def _operator_maps(V, lam, Vinv, times):
    """K(t) = V diag(e^{-i lam t}) V^-1 at each of the 1-D `times`, (T, n, n)
    for one eigen-decomposition (V, lam, V^-1), or (R, T, n, n) for R of
    them stacked (V and V^-1 (R, 1, n, n), lam (R, n)); one broadcast
    matmul, item for item the products of a single row and time."""
    n = lam.shape[-1]
    D = np.zeros(lam.shape[:-1] + (len(times), n, n), dtype=complex)
    D[..., range(n), range(n)] = np.exp((-1j * lam)[..., None, :] * times[:, None])
    return V @ D @ Vinv


def _maps(decompositions, times):
    """[(S, Q)] of each of `decompositions` (configurations of one shape)
    over the 1-D `times`, each stacked (T, 2n, 2n) and bit for bit, in value
    and memory layout, the S_quad and Q of its own `at(times)`. When every
    row is lossless on the eigen branch, all take one `_operator_maps` and
    one quadrature map; if any of those maps is not real or not finite,
    every row goes through `at` in the given order, so the first row that
    fails raises the NumericalError of its own call."""
    times = np.asarray(times, dtype=float)
    if len(decompositions) > 1 and all(dec.method == "eigen" and dec.W is None
                                       for dec in decompositions):
        try:
            with np.errstate(all="ignore"):  # a failing stack is redone row by row
                S = operator_to_quadrature(
                    _operator_maps(np.array([dec.V for dec in decompositions])[:, None],
                                   np.array([dec.lam for dec in decompositions]),
                                   np.array([dec.Vinv for dec in decompositions])[:, None], times),
                    decompositions[0].kinds)
        except NumericalError:
            S = None
        if S is not None and np.isfinite(S).all():
            zero = np.zeros(S.shape[1:])
            return [(Si, zero) for Si in S]
    return [(prop.S_quad, prop.Q) for prop in (dec.at(times) for dec in decompositions)]


def _moments(S, Q, mu0, cov0, times=None):
    """(mu, cov) = (S mu0, S cov0 S^T + Q) of the initial moments (mu0,
    cov0) under the map (S, Q) of one time, or under the maps stacked over
    the 1-D `times`, each item bit for bit the product of its own map."""
    stack = () if times is None else np.shape(times)
    if S.shape != stack + (len(mu0), len(mu0)):
        raise ConfigurationError(
            f"propagator dimension {S.shape} does not match state ({len(mu0)})")
    return S @ mu0, S @ cov0 @ S.swapaxes(-1, -2) + Q


def _van_loan(A, D, times):
    """(S, Q) stacked over the 1-D `times`: S(t) = exp(A t) and
    Q(t) = int_0^t S(s) D S(s)^T ds, from the Van Loan block
    expm([[-A, D], [0, A^T]] tau) = [[F11, F12], [0, F22]], S(tau) = F22^T,
    Q(tau) = S(tau) F12 (Van Loan, IEEE TAC 23:395, 1978) at
    tau = t / 2^k with ||block|| tau <= 1, doubled k times:
    Q(2 tau) = Q + S Q S^T, S(2 tau) = S^2. The block also holds
    exp(-A tau), which at tau = t would overflow where the drift decays."""
    m = len(A)
    block = np.block([[-A, D], [np.zeros_like(A), A.T]])
    S, Q = np.empty((2, len(times), m, m))
    for i, ti in enumerate(times):
        k = _squarings(block, ti)
        F = _expm(block * (ti / 2.0 ** k))
        Si = F[m:, m:].T
        Qi = Si @ F[:m, m:]
        for _ in range(k):
            Qi = Qi + Si @ Qi @ Si.T
            Si = Si @ Si
        S[i], Q[i] = Si, Qi
    return S, Q


def _squarings(X, t):
    """The k with ||X||_1 t / 2^k <= 1 (0 when ||X||_1 t <= 1)."""
    norm = float(np.abs(X).sum(axis=0).max())
    return int(np.ceil(np.log2(norm * t))) if norm * t > 1.0 else 0


def _expm(X):
    # imported here: scipy.linalg costs more to import than numpy, and only
    # nearly defective spectra need it
    from scipy.linalg import expm
    return expm(X)


_MEMO = OrderedDict()    # config -> its _Decomposition, least recently used first


def _decompose(configs):
    """The _Decomposition of each of a sequence of configurations of one
    size, as a list; a single configuration is a stack of one and gets its
    _Decomposition alone, as in `eigensolve`. at(t) gives the quadrature map
    S(t) = exp(A t) of the drift A and the diffusion covariance
    Q(t) = int_0^t S(s) D S(s)^T ds of a lossy configuration, at one time or
    stacked over an array of times; derivative(t, dH) gives dS/d(eps), and
    lossless_excitations the total excitation of a lossless eigen-branch
    configuration.

    Uses the eigen-decomposition K = V diag(e^{-i lambda t}) V^-1 of the
    reduced matrix when V is well enough conditioned (cond(V) < COND_SWITCH).
    A lossy configuration there also keeps what Q(t) needs in the drift
    eigenbasis W = T lift(V), whose eigenvalues r are -i lambda on the
    reduced slots and i conj(lambda) on their partners: W, Dt = W^-1 D W^-T
    and the nonzero rate sums s_ij = r_i + r_j, with the mask of where they
    sit. For nearly defective spectra, close to or at exceptional points, it
    keeps the quadrature drift A and diffusion D instead, for the doubled
    Van Loan block of `_van_loan`.

    Everything that depends on the configuration alone is computed here
    once; at(t) does only the work that depends on t, for all the times of
    a trace in one call. The configurations not in the memo take one
    stacked `eigensolve`, one stacked cond(V) and one stacked V^-1 over the
    eigen-branch rows, each row bit for bit its own stack of one; the
    lossy and expm fields are built row by row. The memo keeps the
    MEMO_SIZE most recently used configurations, and at least the whole
    stack it last stored, so a fit or sweep that decomposes its grid up
    front finds every point there; it drops entries only when it stores new ones.
    """
    single = isinstance(configs, SystemConfig)
    configs = [configs] if single else list(configs)
    wanted = list(dict.fromkeys(configs))
    new = []
    for config in wanted:
        if config in _MEMO:
            _MEMO.move_to_end(config)
        else:
            new.append(config)
    if new:
        _MEMO.update(zip(new, _solve_stack(new)))
        while len(_MEMO) > max(MEMO_SIZE, len(wanted)):
            _MEMO.popitem(last=False)
    decompositions = [_MEMO[config] for config in configs]
    return decompositions[0] if single else decompositions


def _solve_stack(configs):
    """The _Decomposition of each of the distinct `configs` (one size), from
    one stacked solve; see `_decompose`."""
    spectra = eigensolve(configs)
    V = np.array([spec.right_vectors for spec in spectra])
    cond = np.linalg.cond(V)
    eigen = cond < COND_SWITCH
    inverses = iter(np.linalg.inv(V[eigen]))
    return [_decomposition(config, spec, float(c), next(inverses) if ok else None)
            for config, spec, c, ok in zip(configs, spectra, cond, eigen)]


def _decomposition(config, spec, cond, Vinv):
    """One row of `_solve_stack`: the expm branch when Vinv is None."""
    lam = spec.eigenvalues
    growth = f"max Re(-i lambda) = {(-1j * lam).real.max():.6g}"
    kinds = reduced_mode_kinds(config)
    if Vinv is None:
        A, D = drift_and_diffusion(config)
        return _Decomposition("expm", cond, growth, kinds, lam, A=A, D=D)
    V = spec.right_vectors
    if config.lossless:
        return _Decomposition("eigen", cond, growth, kinds, lam, V=V, Vinv=Vinv)
    T, TH = _quadrature_basis(config.n)
    W = T @ _lift_to_full(V, kinds)
    Winv = _lift_to_full(Vinv, kinds) @ TH
    rates = np.diag(_lift_to_full(np.diag(-1j * lam), kinds))
    s = rates[:, None] + rates[None, :]
    return _Decomposition("eigen", cond, growth, kinds, lam, V=V, Vinv=Vinv, W=W,
                          Dt=Winv @ _diffusion(config) @ Winv.T, rate_sums=s[s != 0],
                          nonzero=s != 0)


def propagator(config, t):
    """The Propagator of config over time t, or over each time of a 1-D
    array t, with S_quad and Q stacked (len(t), 2n, 2n), each map bit for
    bit the one of its own call; see `_decompose` (memoized) and
    `_Decomposition.at`."""
    return _decompose(config).at(t)


def evolve(state, prop):
    """Affine Gaussian update mu -> S mu, cov -> S cov S^T + Q of a
    Propagator of one time."""
    mu, cov = _moments(prop.S_quad, prop.Q, state.mu, state.cov)
    return replace(state, mu=mu, cov=cov)


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
    """States at each of `times`, each propagated from `state`, built from
    the stacked moments of `_trace_moments`."""
    mu, cov = _trace_moments(state, config, times)
    return [GaussianState(mu=m, cov=c, modes=state.modes) for m, c in zip(mu, cov)]


def _trace_moments(state, config, times):
    """(mu, cov) of `state` propagated over each of the 1-D `times`, stacked
    (T, 2n) and (T, 2n, 2n), from one stacked `propagator`."""
    times = np.asarray(times, dtype=float)
    prop = propagator(config, times)
    return _moments(prop.S_quad, prop.Q, state.mu, state.cov, times)


# ---------------------------------------------------------------------------
# observables on states

def excitation_numbers(state):
    """Per-mode occupation (mu_X^2 + mu_P^2)/2 + (cov_XX + cov_PP - 1)/2."""
    return _excitations(state.mu, state.cov)


def _excitations(mu, cov):
    """excitation_numbers of the moments (mu, cov) of one state."""
    out = np.empty(len(mu) // 2)
    for i in range(len(out)):
        x, p = 2 * i, 2 * i + 1
        out[i] = (mu[x] ** 2 + mu[p] ** 2) / 2.0 + (cov[x, x] + cov[p, p] - 1.0) / 2.0
    return out


def total_excitation(state):
    return float(excitation_numbers(state).sum())


# ---------------------------------------------------------------------------
# channels

def readout_swap(state, theta_t):
    """Append vacuum read-out modes and rotate each magnon mode (every mode
    but the last, the cavity) into its read-out partner by the angle theta_t
    (beam-splitter map
    b -> cos(theta_t) b - sin(theta_t) d, d -> sin(theta_t) b + cos(theta_t) d).
    At theta_t = pi/2 the magnon and read-out marginals swap exactly.
    """
    n = state.n_modes
    k = n - 1
    big_mu = np.concatenate([state.mu, np.zeros(2 * k)])
    big_cov = np.block([
        [state.cov, np.zeros((2 * n, 2 * k))],
        [np.zeros((2 * k, 2 * n)), np.eye(2 * k) / 2.0]])
    S = np.eye(2 * (n + k))
    c, s = np.cos(theta_t), np.sin(theta_t)
    for j in range(k):
        b, d = 2 * j, 2 * (n + j)
        for off in (0, 1):
            S[b + off, b + off] = c
            S[b + off, d + off] = -s
            S[d + off, b + off] = s
            S[d + off, d + off] = c
    labels = state.modes + tuple(f"d{label}" for label in state.modes[:k])
    return GaussianState(mu=S @ big_mu, cov=S @ big_cov @ S.T, modes=labels)


def apply_external_loss(state, eta):
    """Beam-splitter loss: per mode, mu -> sqrt(eta) mu and the covariance
    block -> eta*block + (1-eta)/2 * I. eta may be a scalar or per-mode."""
    mu, cov = _external_loss(state.mu, state.cov, eta)
    return replace(state, mu=mu, cov=cov)


def _external_loss(mu, cov, eta):
    """apply_external_loss on the moments (mu, cov) of one state, or of a
    stack of them (mu (..., 2n), cov (..., 2n, 2n)), each item bit for bit
    the product of its own state."""
    n = mu.shape[-1] // 2
    eta = np.broadcast_to(np.asarray(eta, dtype=float), (n,))
    if np.any(eta < 0) or np.any(eta > 1):
        raise ConfigurationError("transmissivities must lie in [0, 1]")
    X = np.kron(np.diag(np.sqrt(eta)), np.eye(2))
    return (X @ mu[..., None])[..., 0], X @ cov @ X + (np.eye(2 * n) - X @ X) / 2.0


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
