"""Eigen-analysis of the dynamical matrices.

The matrices are tiny (n <= ~8) but defective at exceptional points, where
QR-based eigenvector extraction degrades. Eigenvalues are therefore taken
from the characteristic polynomial (Faddeev-LeVerrier coefficients; Aberth
simultaneous iteration started from the companion-matrix eigenvalues, which
polishes them and decides which are accepted; the roots of a real
polynomial are made exact conjugate pairs), eigenvectors from the
near-null space of H - lambda I (one SVD over all eigenvalues).

A sweep solves all its configurations as one stack: each step above runs
once over the stack, so the per-call Python cost is paid once per sweep,
and every row comes out bit-identical to its own solve (a single system
is a stack of one). The cluster collapse, which only some rows need,
runs per row on those rows alone. match_branches orders a whole sweep's
rows in one call the same way.

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
from .model import _reduced_matrices, build_system

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
    the Faddeev-LeVerrier recursion. H may carry leading stack axes
    (..., n, n); the coefficients then carry the same axes (..., n + 1)."""
    n = H.shape[-1]
    Hs = H.reshape(-1, n, n)
    coeffs = np.zeros((len(Hs), n + 1), dtype=complex)
    coeffs[:, 0] = 1.0
    M = np.zeros_like(Hs)
    I = np.eye(n)
    for k in range(1, n + 1):
        M = Hs @ M + coeffs[:, k - 1, None, None] * I
        coeffs[:, k] = -(Hs @ M).trace(axis1=1, axis2=2) / k
    return coeffs.reshape(H.shape[:-2] + (n + 1,))


def _horner(coeffs, z):
    v = coeffs[0]
    for c in coeffs[1:]:
        v = v * z + c
    return v


def _companion_roots(coeffs):
    """`np.roots` of each row of a stack of monic polynomials: the
    companion-matrix eigenvalues of the row stripped of its trailing zero
    coefficients, then one root at 0 per stripped coefficient. Rows with
    the same count of trailing zeros share one stacked eigenvalue call."""
    rows, n = coeffs.shape[0], coeffs.shape[1] - 1
    trailing = (coeffs[:, ::-1] != 0).argmax(axis=1)
    z = np.zeros((rows, n), dtype=complex)
    for t in set(trailing.tolist()):
        group = trailing == t
        degree = n - t
        if degree:
            A = np.zeros((int(group.sum()), degree, degree), dtype=complex)
            A[:, 1:, :-1] = np.eye(degree - 1)
            p = coeffs[group, :degree + 1]
            A[:, 0, :] = -p[:, 1:] / p[:, :1]
            z[group, :degree] = np.linalg.eigvals(A)
    return z


def _in_stack(i, count):
    """Where a stacked solve failed: the row, unless the stack holds one."""
    return "" if count == 1 else f" (configuration {i} of {count})"


def aberth_roots(coeffs):
    """All roots of a monic polynomial at once (Aberth-Ehrlich iteration),
    started from the companion-matrix eigenvalues (as `np.roots`).

    Aberth polishes these and decides: a root is accepted when |p(z)| falls
    below the double-precision evaluation floor (backward stability) or its
    update stalls at rounding level; at multiple roots the iterates stop
    inside the attainable fuzz disk of radius ~ eps^(1/multiplicity), which
    the backward test accepts.
    coeffs may carry leading stack axes (..., n + 1), and the roots then
    carry the same axes (..., n). Every row iterates as if alone: an
    accepted root takes step 0, and a row whose roots are all accepted
    leaves the iteration with them.
    Raises NumericalError with diagnostics on genuine non-convergence.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    shape, n = coeffs.shape[:-1], coeffs.shape[-1] - 1
    c = coeffs.reshape(-1, n + 1)
    if n <= 1:
        return (-c[:, 1:] / c[:, :1]).reshape(shape + (n,))
    scale = 1.0 + np.abs(c[:, 1:] / c[:, :1]).max(axis=1)    # root bound
    z = _companion_roots(c)
    # the rows still iterating: index, iterates, accepted roots, coefficients,
    # their magnitudes (as Python abs) and root bound
    live, zl, done = np.arange(len(c)), z, np.zeros(z.shape, dtype=bool)
    cl, al, sl = c, np.hypot(c.real, c.imag), scale[:, None]
    for _ in range(ABERTH_MAX_ITER):
        # one Horner pass over all iterates: p, p' and the rounding floor of p
        az = np.abs(zl)
        p = dp = floors = 0.0
        for j in range(n + 1):
            dp = dp * zl + p
            p = p * zl + cl[:, j, None]
            floors = floors * az + al[:, j, None]
        done = done | (np.abs(p) <= 8.0 * n * EPS * np.maximum(floors, EPS))
        if done.all():
            z[live] = zl
            return z.reshape(shape + (n,))
        go = ~done.all(axis=1)
        if not go.all():
            # a row whose roots are all accepted leaves with its iterates
            z[live[~go]] = zl[~go]
            live, zl, done, cl, al, sl, p, dp, floors = (
                a[go] for a in (live, zl, done, cl, al, sl, p, dp, floors))
        newton = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), p)
        diff = zl[:, :, None] - zl[:, None, :]
        diff[:, np.arange(n), np.arange(n)] = 1.0
        rep = (1.0 / diff).sum(axis=2) - 1.0
        denom = 1.0 - newton * rep
        step = np.where(np.abs(denom) > 1e-300, newton / denom, newton)
        step = np.where(done, 0.0, step)
        zl = zl - step
        done = done | (np.abs(step) <= ABERTH_TOL * np.maximum(np.abs(zl), sl))
    z[live] = zl
    bad = (np.abs(p) > 1e6 * n * EPS * np.maximum(floors, EPS)) & ~done.all(axis=1)[:, None]
    if bad.any():
        r = int(np.argmax(bad.any(axis=1)))
        raise NumericalError(
            f"root iteration did not converge: {ABERTH_MAX_ITER} iterations, "
            f"{bad[r].sum()} unconverged roots, worst residual "
            f"{np.abs(p[r][bad[r]]).max():.3e}, scale {scale[live[r]]:.3e}"
            + _in_stack(live[r], len(c)))
    return z.reshape(shape + (n,))


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


def _detect_radius(scale):
    """Grouping radius at which collapse_multiple_roots looks for clusters."""
    return np.maximum(50.0 * EPS ** 0.25 * scale, 1e-9 * scale)


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
    detect_radius = _detect_radius(scale)
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
# closed cubic form (three-mode system, lossless, kappa-normalized)

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
    order (not sorted). The residue-form propagator coefficients use it;
    eigensolve does not (Aberth decides every row there)."""
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
    try:
        D = x ** 3 + y * y
    except OverflowError:
        raise NumericalError("cubic discriminant overflows: matrix scale "
                             f"{_matrix_scale(_reduced_matrices([config]))[0]:.3e}") from None
    return CubicDiscriminant(x=float(x), y=float(y), D=float(D))


# ---------------------------------------------------------------------------
# eigensolve

def _matrix_scale(H):
    """max(1, max |H_ij|) of a matrix, or of each matrix of a stack."""
    return np.maximum(1.0, np.abs(H).max(axis=(-2, -1)))


def default_cluster_radius(H):
    return 1e-6 * _matrix_scale(H)


def _close_pairs(roots, radius):
    """Per row of a root stack: the number of ordered pairs of distinct
    roots within that row's radius of each other, distances taken as
    _cluster_indices takes them."""
    d = roots[:, :, None] - roots[:, None, :]
    near = np.hypot(d.real, d.imag) <= radius[:, None, None]
    return near.sum(axis=(1, 2)) - roots.shape[1]


def _finite_rows(values, what, scale):
    """values, unless a row of them is not finite: then NumericalError naming
    that row's matrix scale and, in a stack of several, the row."""
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericalError(f"{what} overflows: matrix scale {scale[i]:.3e}"
                             + _in_stack(i, len(values)))
    return values


def _pair_conjugates(roots, coeffs):
    """In place, on each row of a root stack whose polynomial is real: each
    root averaged with the conjugate of the root nearest its conjugate, so
    the row's conjugate pairs are exact and its real roots real. Branch
    matching then meets an exact tie where a real root turns into a pair,
    and breaks it by index, not by rounding."""
    real = (coeffs.imag == 0).all(axis=1)
    if real.any():
        r = roots[real]
        partner = np.abs(r[:, :, None] - r[:, None, :].conj()).argmin(axis=2)
        roots[real] = (r + np.take_along_axis(r, partner, axis=1).conj()) / 2


def _collapse_rows(roots, coeffs, scale):
    """collapse_multiple_roots, in place, on each row of a root stack that
    holds a pair of roots within its detect radius (on any other row it
    changes nothing); returns the mask of those rows."""
    paired = _close_pairs(roots, _detect_radius(scale)) > 0
    for i in paired.nonzero()[0]:
        roots[i] = collapse_multiple_roots(roots[i], coeffs[i], float(scale[i]))
    return paired


def eigensolve(system, cluster_radius=None):
    """Full spectral data of dynamical matrices (reduced basis).

    Accepts a SystemConfig or a bare square finite matrix, and returns its
    Spectrum; or a sequence of SystemConfigs of one size, and returns one
    Spectrum per configuration. Every call solves a stack (a single system
    is a stack of one): one characteristic-polynomial recursion, one Aberth
    iteration and one SVD for all rows, each row bit-identical to its own
    solve. Eigenvalues are sorted by (Re, Im) so that parameter sweeps
    produce continuous branches, real parts within STABILITY_TOL * scale
    counting as equal (a conjugate pair comes out Im < 0 first, whatever
    the rounding). A NumericalError raised for a stack of several names the
    failing configuration's index.
    """
    stacked = isinstance(system, (list, tuple)) and \
        all(isinstance(c, SystemConfig) for c in system)
    if stacked or isinstance(system, SystemConfig):
        configs = list(system) if stacked else [system]
        if not configs:
            return []
        sizes = {c.n for c in configs}
        if len(sizes) > 1:
            raise ConfigurationError(
                f"eigensolve needs configurations of one size, got n = {sorted(sizes)}")
        H = _reduced_matrices(configs)
    else:
        H = np.asarray(system, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ConfigurationError("eigensolve needs a square matrix")
        if not np.isfinite(H).all():
            raise ConfigurationError("eigensolve needs a finite matrix")
        H = H[None]

    count, n = len(H), H.shape[-1]
    scale = _matrix_scale(H)
    # a Horner pass may overflow on a row whose roots still come out finite
    # and pass the backward test; a row whose roots do not is refused
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs = _finite_rows(char_poly(H), "characteristic polynomial", scale)
        roots = _finite_rows(aberth_roots(coeffs), "root iteration", scale)
    paired = _collapse_rows(roots, coeffs, scale)
    _pair_conjugates(roots, coeffs)
    tol = STABILITY_TOL * scale
    rows = np.arange(count)[:, None]
    roots = roots[rows, np.argsort(roots.real, axis=1)]
    run = np.zeros(roots.shape, dtype=int)
    np.cumsum(roots.real[:, 1:] - roots.real[:, :-1] > tol[:, None], axis=1, out=run[:, 1:])
    roots = roots[rows, np.lexsort((roots.imag, run), axis=1)]

    _, _, vh = np.linalg.svd(H[:, None] - roots[:, :, None, None] * np.eye(n))
    right = vh[:, :, -1, :].conj()

    radius = default_cluster_radius(H) if cluster_radius is None \
        else np.full(count, float(cluster_radius))
    # a row with no pair within its detect radius has none within a
    # smaller cluster radius, and no cluster
    ep_order = np.ones(count, dtype=int)
    for i in (paired | (radius > _detect_radius(scale))).nonzero()[0]:
        ep_order[i] = max(map(len, _cluster_indices(roots[i], radius[i])))
    stable = np.abs(roots.imag).max(axis=1) < tol
    spectra = [Spectrum(eigenvalues=r, right_vectors=v.T, ep_order=order,
                        phase="exceptional" if order >= 2 else "stable" if st else "unstable")
               for r, v, order, st in zip(roots, right, ep_order.tolist(), stable.tolist())]
    return spectra if stacked else spectra[0]


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

    spectra = eigensolve([_puiseux_perturbed(config, float(eps), direction)
                          for eps in eps_grid])
    values = np.array([float(np.abs(s.eigenvalues - lam0).max()) for s in spectra])
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise NumericalError("eigenvalue splitting vanished or overflowed on the grid")

    slope, intercept, r2 = _log_fit(eps_grid, values)
    return PuiseuxFit(slope=slope, intercept=intercept, r_squared=r2,
                      eps_range=(float(eps_grid.min()), float(eps_grid.max())),
                      branch_prefactor=float(np.exp(intercept)), splittings=values)


def match_branches(reference, eigenvalues):
    """Order eigenvalues to follow the reference (nearest-neighbor greedy
    assignment); used by sweeps to keep branches continuous. Each reference
    in turn takes the nearest eigenvalue not yet taken, the lowest index on
    a tie.

    eigenvalues may be a stack (N, n) of a sweep's rows: each row then
    follows the row before it as matched, the first row the reference (a
    single row is a stack of one). The distances of all rows are taken at
    once with np.hypot, which rounds as Python's scalar abs does; only the
    greedy choice loops, over Python floats."""
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    rows = eigenvalues.reshape(-1, eigenvalues.shape[-1])
    before = np.concatenate([np.asarray(reference, dtype=complex)[None], rows[:-1]])
    d = rows[:, None, :] - before[:, :, None]
    # per row: the distance of each raw eigenvalue of the row before (the
    # reference for the first) to each eigenvalue of the row
    distances = np.hypot(d.real, d.imag).tolist()
    order, orders = range(rows.shape[1]), []
    for row in distances:
        remaining, matched = list(range(len(row))), []
        for i in order:
            j = min(remaining, key=row[i].__getitem__)
            remaining.remove(j)
            matched.append(j)
        order = matched
        orders.append(order)
    orders = np.array(orders, dtype=int).reshape(rows.shape)
    return np.take_along_axis(rows, orders, axis=1).reshape(eigenvalues.shape)
