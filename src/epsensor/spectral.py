"""Eigen-analysis of the dynamical matrices.

The matrices are tiny (n <= ~8) but defective at exceptional points, where
QR-based eigenvector extraction degrades. Eigenvalues are therefore taken
from the characteristic polynomial (Faddeev-LeVerrier coefficients; Aberth
simultaneous iteration started from the companion-matrix eigenvalues, which
polishes them and decides which are accepted), eigenvectors from the
near-null space of H - lambda I (one SVD over all eigenvalues).

At an EPn, double-precision root finding scatters the n-fold root over a
radius ~ eps_machine^(1/n) (about 1e-4 for n=4). Candidate clusters are
therefore collapsed onto a Newton-refined root of p^(k-1), accepted only
when the collapsed root is consistent with a k-fold root at working
precision (backward-error test). This restores machine-accurate multiple
eigenvalues at genuine EPs without merging genuinely split spectra.
"""

from dataclasses import dataclass, replace

import numpy as np

from .config import (PERTURBATIONS, ConfigurationError, NumericalError,
                     SystemConfig, sensed_magnons)
from .model import build_system

EPS = np.finfo(float).eps
ABERTH_TOL = 1e-14           # relative update size at which a root has stalled
ABERTH_MAX_ITER = 400
STABILITY_TOL = 1e-9         # |Im lambda| / scale below which a spectrum is stable


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray      # length n, sorted by (Re, Im)
    right_vectors: np.ndarray    # columns, H R = R diag(lambda)
    phase: str                   # "stable" | "unstable" | "exceptional"
    ep_order: int                # largest eigenvalue-cluster size (1 = none)

    @property
    def n(self):
        return len(self.eigenvalues)


@dataclass(frozen=True)
class CubicDiscriminant:
    x: float
    y: float
    D: float                     # x^3 + y^2; sign classifies the phase


@dataclass(frozen=True)
class PuiseuxFit:
    slope: float
    intercept: float             # natural-log intercept
    r_squared: float
    eps_range: tuple
    branch_prefactor: float      # exp(intercept)
    splittings: np.ndarray       # selected-branch |dlambda| per grid point


# ---------------------------------------------------------------------------
# characteristic polynomial and simultaneous root finding

def char_poly(H):
    """Characteristic polynomial coefficients (monic, descending powers) via
    the Faddeev-LeVerrier recursion."""
    n = H.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    M = np.zeros_like(H)
    I = np.eye(n)
    for k in range(1, n + 1):
        M = H @ M + coeffs[k - 1] * I
        coeffs[k] = -np.trace(H @ M) / k
    return coeffs


def _horner(coeffs, z):
    v = coeffs[0]
    for c in coeffs[1:]:
        v = v * z + c
    return v


def aberth_roots(coeffs):
    """All roots of a monic polynomial at once (Aberth-Ehrlich iteration),
    started from the companion-matrix eigenvalues (`np.roots`).

    Aberth polishes these and decides: a root is accepted when |p(z)| falls
    below the double-precision evaluation floor (backward stability) or its
    update stalls at rounding level; at multiple roots the iterates stop
    inside the attainable fuzz disk of radius ~ eps^(1/multiplicity), which
    the backward test accepts.
    Raises NumericalError with diagnostics on genuine non-convergence.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n = len(coeffs) - 1
    if n == 0:
        return np.array([], dtype=complex)
    if n == 1:
        return np.array([-coeffs[1] / coeffs[0]])
    scale = 1.0 + np.abs(coeffs[1:] / coeffs[0]).max()    # root bound
    z = np.roots(coeffs).astype(complex)
    done = np.zeros(n, dtype=bool)
    for _ in range(ABERTH_MAX_ITER):
        # one Horner pass over all iterates: p, p' and the rounding floor of p
        az = np.abs(z)
        p = dp = floors = 0.0
        for c in coeffs:
            dp = dp * z + p
            p = p * z + c
            floors = floors * az + abs(c)
        done |= np.abs(p) <= 8.0 * n * EPS * np.maximum(floors, EPS)
        if done.all():
            return z
        newton = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), p)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        rep = (1.0 / diff).sum(axis=1) - 1.0
        denom = 1.0 - newton * rep
        step = np.where(np.abs(denom) > 1e-300, newton / denom, newton)
        step = np.where(done, 0.0, step)
        z = z - step
        done |= np.abs(step) <= ABERTH_TOL * np.maximum(np.abs(z), scale)
        if done.all():
            return z
    bad = np.abs(p) > 1e6 * n * EPS * np.maximum(floors, EPS)
    if not bad.any():
        return z
    raise NumericalError(
        f"root iteration did not converge: {ABERTH_MAX_ITER} iterations, "
        f"{bad.sum()} unconverged roots, worst residual "
        f"{np.abs(p[bad]).max():.3e}, scale {scale:.3e}")


def _poly_deriv(coeffs, k):
    c = np.asarray(coeffs, dtype=complex)
    for _ in range(k):
        c = c[:-1] * np.arange(len(c) - 1, 0, -1)
    return c


def _cluster_indices(roots, radius):
    """Union-find style grouping of roots closer than radius."""
    n = len(roots)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) <= radius:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _refine_multiple_root(coeffs, center, k, scale):
    """Newton on p^(k-1), which has a simple root at a k-fold root of p."""
    dk = _poly_deriv(coeffs, k - 1)
    dk1 = _poly_deriv(coeffs, k)
    z = center
    for _ in range(50):
        f = _horner(dk, z)
        fp = _horner(dk1, z)
        if fp == 0:
            break
        step = f / fp
        z = z - step
        if abs(step) < 1e-16 * max(abs(z), scale):
            break
    return z


def _k_fold_consistent(coeffs, z, k):
    """Backward-error test: p and its first k-1 derivatives vanish at z to
    within the double-precision evaluation floor."""
    az = abs(z)
    for j in range(k):
        dj = _poly_deriv(coeffs, j)
        mag = abs(_horner(dj, z))
        floor = np.abs(dj) @ (az ** np.arange(len(dj) - 1, -1, -1))
        if mag > 1e4 * EPS * max(floor, EPS):
            return False
    return True


def collapse_multiple_roots(roots, coeffs, scale):
    """Collapse root clusters that are consistent with exact multiple roots.

    A size-k candidate cluster is Newton-refined and accepted only if the
    refined point is consistent with a k-fold root at working precision;
    rejected clusters are retried at a tighter grouping radius (a genuine
    double root can sit near a distinct simple root). Returns the
    (possibly) modified roots. Genuinely split spectra are left untouched
    because their cluster centers fail the backward-error test.
    """
    roots = np.array(roots, dtype=complex)
    detect_radius = max(50.0 * EPS ** 0.25 * scale, 1e-9 * scale)
    for radius in (detect_radius, detect_radius / 32.0):
        for idx in _cluster_indices(roots, radius):
            k = len(idx)
            if k < 2:
                continue
            z = _refine_multiple_root(coeffs, roots[idx].mean(), k, scale)
            if _k_fold_consistent(coeffs, z, k):
                roots[idx] = z
    return roots


# ---------------------------------------------------------------------------
# analytic cubic path (three-mode system, lossless, kappa-normalized)

def _cubic_xy(g, d1p, d2p):
    """Depressed-cubic coefficients of the eigenvalue equation; the
    discriminant is x^3 + y^2."""
    x = (3.0 * g * g - 3.0 - d1p ** 2 - d2p ** 2 - d1p * d2p) / 9.0
    y = (-3.0 * d1p * (3.0 * g * g + d2p ** 2 + 6.0)
         - d2p * (18.0 * g * g + 2.0 * d2p ** 2 + 9.0)
         + 3.0 * d1p ** 2 * d2p + 2.0 * d1p ** 3) / 54.0
    return x, y


def cardano_eigenvalues(g, d1p, d2p):
    """Eigenvalues of the lossless three-mode matrix in units of kappa, from
    the closed cubic solution. Returned in the solution's natural branch
    order (not sorted)."""
    x, y = _cubic_xy(g, d1p, d2p)
    s = np.sqrt(complex(x ** 3 + y * y))
    tp, tm = y + s, y - s
    # take the better-conditioned cube root; the pairing Zp*Zm = -x avoids
    # the cancellation in the smaller of y +- sqrt(D)
    if abs(tp) == 0 and abs(tm) == 0:
        Zp = Zm = 0.0
    elif abs(tp) >= abs(tm):
        Zp = tp ** (1.0 / 3.0)
        Zm = -x / Zp
    else:
        Zm = tm ** (1.0 / 3.0)
        Zp = -x / Zm
    off = (d1p - d2p) / 3.0
    w = np.exp(1j * np.pi / 3.0)
    return np.array([off - w * Zp - np.conj(w) * Zm,
                     off + Zp + Zm,
                     off - np.conj(w) * Zp - w * Zm])


def _check_cubic_shape(config):
    """ConfigurationError unless config is the lossless n=3, m=1 system."""
    if (config.n, config.m) != (3, 1):
        raise ConfigurationError("cubic discriminant requires n=3, m=1")
    if not config.lossless:
        raise ConfigurationError("cubic discriminant is defined for lossless configs")


def cubic_discriminant(config):
    """(x, y, D = x^3 + y^2) of the cubic eigenvalue equation for the
    lossless three-mode system. D < 0: three distinct real eigenvalues
    (stable); D > 0: a complex-conjugate pair (unstable); D = 0: at least
    two eigenvalues coalesce; x = y = 0 is the triple coalescence.

    Computed in units of kappa (x scales as kappa^2, y as kappa^3).
    """
    _check_cubic_shape(config)
    k = config.kappa[0]
    d1p, d2p = (d / k for d in config.detuning_eff)
    x, y = _cubic_xy(config.g[0] / k, d1p, d2p)
    return CubicDiscriminant(x=float(x), y=float(y), D=float(x ** 3 + y * y))


# ---------------------------------------------------------------------------
# eigensolve

def default_cluster_radius(H):
    return 1e-6 * max(1.0, float(np.abs(H).max()))


def eigensolve(system, cluster_radius=None):
    """Full spectral data of a dynamical matrix (reduced basis).

    Accepts a SystemConfig or a bare square finite matrix. For the lossless
    three-mode system the closed cubic solution is used and cross-checked
    against the polynomial solver; the general path covers everything else.
    Eigenvalues are sorted by (Re, Im) so that parameter sweeps produce
    continuous branches, real parts within STABILITY_TOL * scale counting as
    equal (a conjugate pair comes out Im < 0 first, whatever the rounding).
    """
    config = None
    if isinstance(system, SystemConfig):
        config = system
        H = build_system(system).reduced
    else:
        H = np.asarray(system, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ConfigurationError("eigensolve needs a square matrix")
        if not np.isfinite(H).all():
            raise ConfigurationError("eigensolve needs a finite matrix")

    n = H.shape[0]
    scale = max(1.0, float(np.abs(H).max()))
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = char_poly(H)
    if not np.isfinite(coeffs).all():
        raise NumericalError(f"characteristic polynomial overflows: matrix scale {scale:.3e}")
    roots = aberth_roots(coeffs)

    roots = collapse_multiple_roots(roots, coeffs, scale)
    use_cardano = (config is not None and (config.n, config.m) == (3, 1)
                   and config.lossless)
    if use_cardano:
        k = config.kappa[0]
        d1p, d2p = (d / k for d in config.detuning_eff)
        analytic = k * cardano_eigenvalues(config.g[0] / k, d1p, d2p)
        analytic = collapse_multiple_roots(analytic, coeffs, scale)
        # near (not at) coalescence both routes carry ~eps^(1/multiplicity)
        # root fuzz, so this guard is looser than simple-root accuracy
        if _set_distance(analytic, roots) > 1e-6 * scale:
            raise NumericalError(
                "analytic cubic and polynomial eigenvalues disagree: "
                f"{_set_distance(analytic, roots):.3e}")
        roots = analytic
    tol = STABILITY_TOL * scale
    roots = roots[np.argsort(roots.real)]
    run = np.concatenate(([0], np.cumsum(np.diff(roots.real) > tol)))
    roots = roots[np.lexsort((roots.imag, run))]

    _, _, vh = np.linalg.svd(H[None] - roots[:, None, None] * np.eye(n))
    right = vh[:, -1, :].conj().T

    radius = default_cluster_radius(H) if cluster_radius is None else cluster_radius
    ep_order = max(len(c) for c in _cluster_indices(roots, radius))
    phase = _classify(roots, tol, ep_order)
    return Spectrum(eigenvalues=roots, right_vectors=right, phase=phase,
                    ep_order=int(ep_order))


def _set_distance(a, b):
    """Max over a of the distance to the nearest element of b."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float(max(np.abs(b - x).min() for x in a))


def _classify(eigenvalues, tol, ep_order):
    if ep_order >= 2:
        return "exceptional"
    if np.abs(np.asarray(eigenvalues).imag).max() < tol:
        return "stable"
    return "unstable"


def eigenvector_residuals(H, spectrum):
    """Max residual of H R = lambda R over the columns."""
    H = np.asarray(H, dtype=complex)
    return max(float(np.abs(H @ r - lam * r).max())
               for lam, r in zip(spectrum.eigenvalues, spectrum.right_vectors.T))


# ---------------------------------------------------------------------------
# perturbative branches near the triple point

def perturbed_eigenvalues_analytic(eps, case="same"):
    """Leading fractional-power branches of the eigenvalue splitting at the
    triple coalescence (g = kappa, delta = 0) under a detuning shift of size
    eps: all three branches scale as eps^(1/3), with an extra factor 2^(1/3)
    when both magnon modes are shifted together.

    Branch order matches the cubic solution: (e^{-i 2pi/3}, 1, e^{+i 2pi/3})
    times (2 eps)^{1/3} for case "same", times eps^{1/3} for case "single".
    """
    sensed_magnons(case)    # rejects an unknown direction
    if eps == 0:
        return np.zeros(3, dtype=complex)
    base = (2.0 * eps) if case == "same" else eps
    root = complex(base) ** (1.0 / 3.0)
    phases = np.array([np.exp(-2j * np.pi / 3.0), 1.0, np.exp(2j * np.pi / 3.0)])
    return phases * root


# ---------------------------------------------------------------------------
# Puiseux-exponent fitting

# the directions a Puiseux fit can perturb: the sensed ones, or "coupling"
PUISEUX_DIRECTIONS = (*PERTURBATIONS, "coupling")


def _puiseux_perturbed(config, eps, direction):
    """Shift the sensed perturbations by -eps (the sign puts the real
    branch of the splitting on the positive axis), or for "coupling" pull
    the first squeezing coupling below its set point by eps."""
    if direction == "coupling":
        return replace(config, g=(config.g[0] - eps,) + tuple(config.g[1:]))
    return config.shifted(-eps, direction)


def _log_fit(x, y):
    """(slope, intercept, r_squared) of the least-squares line of log y on log x."""
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(((ly - fitted) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot if ss_tot else 1.0


def _check_puiseux_grid(eps_grid):
    """eps_grid as an array; ConfigurationError unless >= 8 positive points."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    if len(eps_grid) < 8:
        raise ConfigurationError("Puiseux fit needs at least 8 grid points")
    if np.any(eps_grid <= 0):
        raise ConfigurationError("Puiseux grid must be positive")
    return eps_grid


def puiseux_fit(config, eps_grid, direction):
    """Least-squares exponent of the eigenvalue splitting against the
    perturbation size: fits log|dlambda| = slope*log(eps) + intercept over
    eps_grid, where dlambda is the largest distance of an eigenvalue from the
    unperturbed (exceptional-point) eigenvalue, the configuration perturbed
    along `direction` (one of PUISEUX_DIRECTIONS) by each eps.

    eps_grid must hold at least 8 positive points; the unperturbed spectrum
    must actually be degenerate (checked via the collapsed cluster).
    """
    if direction not in PUISEUX_DIRECTIONS:
        raise ConfigurationError(f"unknown Puiseux direction {direction!r}, "
                                 f"expected one of {PUISEUX_DIRECTIONS}")
    eps_grid = _check_puiseux_grid(eps_grid)
    base = eigensolve(config)
    if base.ep_order < 2:
        raise ConfigurationError(
            "configuration is not at a detected exceptional point "
            f"(ep_order={base.ep_order})")
    # reference eigenvalue: center of the largest cluster
    clusters = _cluster_indices(base.eigenvalues,
                                default_cluster_radius(build_system(config).reduced))
    big = max(clusters, key=len)
    lam0 = base.eigenvalues[big].mean()

    values = []
    for eps in eps_grid:
        spec = eigensolve(_puiseux_perturbed(config, float(eps), direction))
        values.append(float(np.abs(spec.eigenvalues - lam0).max()))
    values = np.asarray(values)
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise NumericalError("eigenvalue splitting vanished or overflowed on the grid")

    slope, intercept, r2 = _log_fit(eps_grid, values)
    return PuiseuxFit(slope=slope, intercept=intercept, r_squared=r2,
                      eps_range=(float(eps_grid.min()), float(eps_grid.max())),
                      branch_prefactor=float(np.exp(intercept)), splittings=values)


def match_branches(reference, eigenvalues):
    """Order eigenvalues to follow the reference (nearest-neighbor greedy
    assignment); used by sweeps to keep branches continuous."""
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    remaining = list(range(len(eigenvalues)))
    out = np.empty_like(eigenvalues)
    for i, ref in enumerate(reference):
        j = min(remaining, key=lambda k: abs(eigenvalues[k] - ref))
        out[i] = eigenvalues[j]
        remaining.remove(j)
    return out
