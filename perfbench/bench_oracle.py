"""Independent oracle checks on the CSV files the benchmark's scenarios write.

Every check reads the program's output back from disk and compares it with
a reference computed here, outside the timed region:

- eigenvalues: mpmath at high precision (one rotating row and every
  exceptional-point row of each sweep) and LAPACK (every row), with a
  tolerance scaled by the cluster multiplicity of the reference roots;
- lossless states: the exact residue-form propagator
  (`epsensor.perturb.exact_propagator_coefficients`), or an mpmath matrix
  exponential where the sensed offset is nonzero;
- lossy states: the exact linear moment map (Van Loan: mean e^{At} mu0,
  covariance e^{At} cov0 e^{A^T t} + integral of e^{As} D e^{A^T s}) built in
  the drift eigenbasis with mpmath (every sensitivity row, every tenth row
  of a trace) and in double precision (every other trace row);
- closed forms of the source paper for working-point noise, susceptibility
  and the ep3 scaling law.

Tolerances are constants in the checks below, listed with their reasons in
README.md; none depends on the run.
"""

import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)
MP_DPS = 30

@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    err: float = 0.0        # relative error where the check measures one, else 0
    known: bool = False     # a failure with the signature of a known defect


def _check(name, err, tol):
    return Check(name, bool(err <= tol), float(err))


def _flag(name, ok):
    return Check(name, bool(ok), 0.0)


# ---------------------------------------------------------------------------
# reading inputs and outputs

def parse_kv(text):
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def _floats(text):
    return [float(x) for x in text.split(",") if x.strip()]


def grid_values(text):
    """The sweep grid as the scenario grammar defines it."""
    text = text.strip()
    if text.startswith(("linspace:", "logspace:")):
        kind, a, b, num = text.split(":")
        fn = np.linspace if kind == "linspace" else np.logspace
        return [float(x) for x in fn(float(a), float(b), int(num))]
    return _floats(text)


def _value(text):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(data):
    """(summary dict, list of row dicts) of an `epsensor run` CSV."""
    summary, rows, cols = {}, [], None
    for line in data.decode().splitlines():
        if line.startswith("# summary."):
            key, value = line[len("# summary."):].split(" = ", 1)
            summary[key] = _value(value)
        elif line.startswith("#"):
            continue
        elif cols is None:
            cols = line.split(",")
        else:
            rows.append(dict(zip(cols, (_value(v) for v in line.split(",")))))
    return summary, rows


class Params:
    """System parameters of a generated scenario (defaults as the scenario
    grammar defines them)."""

    def __init__(self, kv):
        self.n = int(kv.get("n", "3"))
        self.m = int(kv.get("m", "1"))
        self.g = _floats(kv.get("g", "1.0"))
        self.kappa = _floats(kv.get("kappa", "1.0"))
        self.delta = _floats(kv.get("delta", "")) or [0.0] * (self.n - 1)
        self.epsilon = _floats(kv.get("epsilon", "")) or [0.0] * (self.n - 1)
        self.gamma = float(kv.get("gamma", "0"))
        self.Gamma = float(kv.get("Gamma", "0"))
        alpha = [complex(x.replace(" ", "")) for x in kv.get("alpha", "").split(",")
                 if x.strip()]
        self.alpha = alpha or [0j] * (self.n - 1)

    def replace(self, **changes):
        new = object.__new__(Params)
        new.__dict__.update(self.__dict__)
        new.__dict__.update(changes)
        return new

    def with_sweep(self, param, value):
        if param == "g1":
            return self.replace(g=[value] + self.g[1:])
        if param in ("gamma", "Gamma"):
            return self.replace(**{param: value})
        return self

    @property
    def lossless(self):
        return self.gamma == 0.0 and self.Gamma == 0.0

    def chi(self):
        gm = self.gamma - self.Gamma
        return math.sqrt(self.kappa[0] ** 2 - self.g[0] ** 2 - gm * gm / 4.0)


def reduced_matrix(p, ctx=None):
    """Reduced dynamical matrix on (b_1..b_m, b_{m+1}^+..b_{n-1}^+, a^+)."""
    n, m = p.n, p.m
    couplings = list(p.g) + list(p.kappa)
    if ctx is None:
        h = np.zeros((n, n), dtype=complex)
        one_j = 1j
    else:
        h = ctx.matrix(n, n)
        one_j = ctx.mpc(0, 1)
    for i in range(n - 1):
        sign = 1.0 if i < m else -1.0
        h[i, i] = sign * (p.delta[i] + p.epsilon[i]) - one_j * p.Gamma
        h[i, n - 1] = sign * couplings[i]
        h[n - 1, i] = -couplings[i]
    h[n - 1, n - 1] = -one_j * p.gamma
    return h


# ---------------------------------------------------------------------------
# eigenvalues

def _mp():
    import mpmath
    mpmath.mp.dps = MP_DPS
    return mpmath


def reference_roots(p):
    mp = _mp()
    roots = mp.eig(reduced_matrix(p, mp), left=False, right=False)
    return np.array([complex(r) for r in roots])


def root_tolerance(roots, i, s):
    """100 x the attainable double-precision accuracy of roots[i] given the
    distances to the other roots (a k-fold cluster is accurate to about
    eps^(1/k))."""
    n = len(roots)
    r = roots[i]
    d = sorted(abs(r - roots[j]) for j in range(n) if j != i)
    big = EPS * (abs(r) + s) ** n
    best = math.inf
    for k in range(1, n + 1):
        far = math.prod(d[k - 1:])
        e_k = (big / far) ** (1.0 / k) if far > 0 else math.inf
        best = min(best, max(e_k, d[k - 2] if k >= 2 else 0.0))
    return max(100.0 * best, 1e-14 * s)


def _set_error(values, reference, s):
    """Worst ratio of |value - nearest reference| to that root's tolerance,
    with the matched relative error."""
    ratio, rel = 0.0, 0.0
    remaining = list(range(len(reference)))
    for v in values:
        j = min(remaining, key=lambda k: abs(reference[k] - v))
        remaining.remove(j)
        diff = abs(reference[j] - v)
        ratio = max(ratio, diff / root_tolerance(reference, j, s))
        rel = max(rel, diff / max(1.0, abs(reference[j])))
    return ratio, rel


def _scale(p):
    return p.n * float(np.abs(reduced_matrix(p)).max())


def _cluster_order(roots, radius):
    best = 1
    for r in roots:
        best = max(best, int(np.sum(np.abs(roots - r) <= radius)))
    return best


def check_spectrum_sweep(kv, rows, op_index, kind):
    base = Params(kv)
    n = base.n
    checks = []
    mp_rows = {op_index % len(rows)}
    for idx, row in enumerate(rows):
        p = base.with_sweep("g1", row["g1"])
        values = np.array([complex(row[f"re_lambda{i + 1}"], row[f"im_lambda{i + 1}"])
                           for i in range(n)])
        s = _scale(p)
        at_ep = _at_ep(kind, kv, p)
        h = reduced_matrix(p)
        lapack = np.linalg.eigvals(h)
        ratio, rel = _set_error(values, lapack, s)
        checks.append(Check("eigenvalues_lapack", ratio <= 1.0, rel))
        if idx in mp_rows:
            ref = reference_roots(p)
            ratio, rel = _set_error(values, ref, s)
            checks.append(Check("eigenvalues_mpmath", ratio <= 1.0, rel))
        if at_ep:
            checks.append(_flag("ep_order", row["ep_order"] == n))
        elif base.lossless:
            radius = 1e-6 * max(1.0, float(np.abs(h).max()))
            checks.append(_flag("ep_order", row["ep_order"] == _cluster_order(lapack, radius)))
    return checks


def _at_ep(kind, kv, p):
    """True at the exact exceptional point a sweep was built to contain."""
    if kind == "ep3_sweep":
        return p.g[0] == 1.0
    if kind == "ep4_sweep":
        from bench_gen import ep4_locus
        return p.g[0] == ep4_locus(p.g[1])[3]
    return False


def check_discriminant_map(kv, rows, op_index):
    base = Params(kv)
    checks = []
    for idx, row in enumerate(rows):
        p = base.with_sweep("g1", row["g1"])
        x, y, D = row["x"], row["y"], row["D"]
        if idx == op_index % len(rows):
            roots = reference_roots(p)
        else:
            roots = np.linalg.eigvals(reduced_matrix(p))
        disc = 1.0 + 0j
        for i in range(3):
            for j in range(i + 1, 3):
                disc *= (roots[i] - roots[j]) ** 2
        d_ref = -disc.real / 108.0
        scale = max(1.0, abs(x) ** 3, y * y)
        checks.append(_check("discriminant", abs(D - d_ref) / scale, 1e-9))
        expected = "exceptional" if D == 0.0 else ("stable" if D < 0 else "unstable")
        checks.append(_flag("phase_vs_discriminant", row["phase"] == expected))
    return checks


def _shifted(p, perturbation, eps):
    if perturbation == "same":
        return p.replace(delta=[d - eps for d in p.delta])
    if perturbation == "single":
        return p.replace(delta=[p.delta[0] - eps] + p.delta[1:])
    return p.replace(g=[p.g[0] - eps] + p.g[1:])


def check_puiseux(kv, rows, summary, op_index):
    p = Params(kv)
    shift = kv.get("perturbation", "same")
    if p.n == 4:
        expected = 0.25
        f = p.g[1]
        lam0 = 2.0 * f * (1.0 + f * f) / (1.0 - f * f) ** 1.5   # EP4 eigenvalue
    else:
        expected = 0.5 if shift == "coupling" else 1.0 / 3.0
        lam0 = 0.0                                              # EP3 at g = kappa
    dev = abs(summary["slope"] - expected)
    checks = [Check("puiseux_slope", dev <= 0.02, dev / expected)]
    grid = grid_values(kv["sweep_grid"])
    ok_grid = len(grid) == len(rows) and all(
        abs(row["eps"] - e) <= 1e-15 * e for row, e in zip(rows, grid))
    checks.append(_flag("puiseux_grid", ok_grid))
    for idx, row in enumerate(rows):
        q = _shifted(p, shift, row["eps"])
        if idx == op_index % len(rows):
            ref, name = reference_roots(q), "puiseux_splitting_mpmath"
        else:
            ref, name = np.linalg.eigvals(reduced_matrix(q)), "puiseux_splitting_lapack"
        dist = np.abs(ref - lam0)
        j = int(np.argmax(dist))
        diff = abs(row["splitting"] - dist[j])
        tol = root_tolerance(ref, j, _scale(q))
        checks.append(Check(name, diff <= tol, diff / dist[j]))
    return checks


# ---------------------------------------------------------------------------
# Gaussian states (quadratures (X1, P1, ..., Xn, Pn), vacuum covariance I/2)

_T2 = np.array([[1.0, 1.0], [-1j, 1j]]) / math.sqrt(2.0)


def _kinds(p):
    return [(i, i >= p.m) for i in range(p.n - 1)] + [(p.n - 1, True)]


def quadrature_map(K, p):
    """Real quadrature map of a reduced-basis operator map K."""
    T = np.kron(np.eye(p.n), _T2)
    return (T @ _lift(np.asarray(K), p) @ T.conj().T).real


def initial_mean(p):
    mu = np.zeros(2 * p.n)
    for i, a in enumerate(p.alpha):
        mu[2 * i], mu[2 * i + 1] = math.sqrt(2.0) * a.real, math.sqrt(2.0) * a.imag
    return mu


def observable_x1_minus_x2(n):
    c = np.zeros(2 * n)
    c[0], c[2] = 1.0, -1.0
    return c


def readout_loss(mu, cov, eta, n):
    """Transmissivity eta on the magnon modes, the cavity untouched."""
    if eta is None:
        return mu, cov
    x = np.kron(np.diag([math.sqrt(eta)] * (n - 1) + [1.0]), np.eye(2))
    return x @ mu, x @ cov @ x + (np.eye(2 * n) - x @ x) / 2.0


def occupations(mu, cov):
    n = len(mu) // 2
    return np.array([(mu[2 * i] ** 2 + mu[2 * i + 1] ** 2) / 2.0
                     + (cov[2 * i, 2 * i] + cov[2 * i + 1, 2 * i + 1] - 1.0) / 2.0
                     for i in range(n)])


def lossless_K(p, t):
    """Reduced propagator of the lossless three-mode sensor: the residue
    form of perturb, or an mpmath exponential when delta or kappa differ
    from the residue form's normalisation."""
    from epsensor.perturb import exact_propagator_coefficients
    if p.kappa[0] == 1.0 and not any(p.delta):
        return exact_propagator_coefficients(p.g[0], p.epsilon[0], p.epsilon[1], t).as_matrix()
    return mp_K(p, t)


def mp_K(p, t):
    mp = _mp()
    K = mp.expm(reduced_matrix(p, mp) * mp.mpc(0, -1) * t)
    return np.array([[complex(K[i, j]) for j in range(p.n)] for i in range(p.n)])


def lossless_state(p, t, eta=None):
    S = quadrature_map(lossless_K(p, t), p)
    mu = S @ initial_mean(p)
    cov = S @ S.T / 2.0
    return readout_loss(mu, cov, eta, p.n)


def mp_mean_obs(p, t):
    """<X1 - X2> at time t in mpmath precision (lossless, reduced basis)."""
    mp = _mp()
    K = mp.expm(reduced_matrix(p, mp) * mp.mpc(0, -1) * t)
    a1, a2 = p.alpha[0], p.alpha[1]
    c0 = K[0, 0] * mp.mpc(a1.real, a1.imag) + K[0, 1] * mp.mpc(a2.real, -a2.imag)
    c1 = K[1, 0] * mp.mpc(a1.real, a1.imag) + K[1, 1] * mp.mpc(a2.real, -a2.imag)
    return mp.sqrt(2) * (mp.re(c0) - mp.re(c1))


# ---------------------------------------------------------------------------
# lossy moments: exact Van Loan map in the drift eigenbasis

class VanLoan:
    """mean(t) = e^{At} mu0, cov(t) = e^{At} cov0 e^{A^T t} + Q(t) with
    Q = V [Dt_ij (e^{(l_i + l_j) t} - 1) / (l_i + l_j)] V^T, Dt = V^-1 D V^-T."""

    def __init__(self, p, precise=True):
        n = p.n
        A = quadrature_map(-1j * reduced_matrix(p), p)     # quadrature drift
        D = np.kron(np.diag([p.Gamma] * (n - 1) + [p.gamma]), np.eye(2))
        self.precise = precise
        if precise:
            mp = _mp()
            self.mp = mp
            lam, V = mp.eig(mp.matrix(A.tolist()))
            W = mp.inverse(V)
            self.lam, self.V, self.W = lam, V, W
            self.Dt = W * mp.matrix(D.tolist()) * W.T
        else:
            lam, V = np.linalg.eig(A)
            W = np.linalg.inv(V)
            self.lam, self.V, self.W = lam, V, W
            self.Dt = W @ D @ W.T
        self.mu0 = initial_mean(p)

    def states(self, times):
        """Double-precision states at many times (mean[T, 2n], cov[T, 2n, 2n])."""
        times = np.asarray(times, dtype=float)
        e = np.exp(np.outer(times, self.lam))
        phi = np.einsum("ij,tj,jk->tik", self.V, e, self.W)
        s = self.lam[:, None] + self.lam[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(np.abs(s) > 0, np.expm1(s[None] * times[:, None, None]) / s,
                         times[:, None, None])
        Q = self.V @ (self.Dt * f) @ self.V.T
        mu = (phi @ self.mu0).real
        cov = (phi @ np.swapaxes(phi, 1, 2)).real / 2.0 + Q.real
        return mu, cov

    def state(self, t):
        if not self.precise:
            mu, cov = self.states([t])
            return mu[0], cov[0]
        mp = self.mp
        N = len(self.lam)
        E = mp.diag([mp.exp(l * t) for l in self.lam])
        phi = self.V * E * self.W
        F = mp.matrix(N, N)
        for i in range(N):
            for j in range(N):
                s = self.lam[i] + self.lam[j]
                F[i, j] = self.Dt[i, j] * (mp.expm1(s * t) / s if abs(s) > 0 else t)
        Q = self.V * F * self.V.T
        mu0 = mp.matrix(self.mu0.tolist())
        mu = phi * mu0
        cov = phi * phi.T / 2 + Q
        mu_np = np.array([float(mp.re(mu[i])) for i in range(N)])
        cov_np = np.array([[float(mp.re(cov[i, j])) for j in range(N)] for i in range(N)])
        return mu_np, cov_np

    def mean_obs(self, t):
        """<X1 - X2> in mpmath precision (for derivatives)."""
        mp = self.mp
        E = mp.diag([mp.exp(l * t) for l in self.lam])
        mu = self.V * E * self.W * mp.matrix(self.mu0.tolist())
        return mp.re(mu[0] - mu[2])


def _state(p, t, eta=None):
    if p.lossless:
        return lossless_state(p, t, eta)
    mu, cov = VanLoan(p).state(t)
    return readout_loss(mu, cov, eta, p.n)


def _mean_at(p, t, eps):
    q = p.replace(epsilon=[eps] * (p.n - 1))
    if q.lossless:
        return mp_mean_obs(q, t)
    return VanLoan(q).mean_obs(t)


def mp_susceptibility(p, t, eta=None):
    mp = _mp()
    h = mp.mpf("1e-12")
    e0 = mp.mpf(p.epsilon[0])
    s = abs(_mean_at(p, t, e0 + h) - _mean_at(p, t, e0 - h)) / (2 * h)
    return float(s) * (math.sqrt(eta) if eta is not None else 1.0)


def closed_noise(p, t, eta=None):
    """var(X1 - X2) of the lossless sensor at delta = eps = 0."""
    g, k = p.g[0], p.kappa[0]
    v = ((k - g * math.cos(p.chi() * t)) / (k - g)) ** 2
    return v if eta is None else eta * v + (1.0 - eta)


def closed_susceptibility(p, t, eta=None):
    """|d<X1 - X2>/d eps| of the lossless sensor at eps = 0 (amplitudes
    (i alpha, -i alpha), delta = 0)."""
    k = p.kappa[0]
    gt, tt = p.g[0] / k, t * k
    chi = math.sqrt(1.0 - gt * gt)
    ct = chi * tt
    xi = (1.0 + gt * gt) * ct * (2.0 + math.cos(ct)) \
        + (gt * gt - 8.0 * gt + 1.0) * math.sin(ct)
    s = math.sqrt(2.0) * abs(p.alpha[0].imag) * (1.0 + gt) ** 2 * xi / (2.0 * chi ** 5) / k
    return abs(s) * (math.sqrt(eta) if eta is not None else 1.0)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _qcrb_identity(row):
    """qcrb = 1/sqrt(qfi), and infinite where the reported QFI is not positive."""
    if row["qfi"] > 0:
        return _check("identity_qcrb", _rel(row["qcrb"], 1.0 / math.sqrt(row["qfi"])), 1e-12)
    return _flag("identity_qcrb", row["qcrb"] == math.inf)


FD_STEP = 1e-9       # metrology.susceptibility's documented default step


def fd_accuracy(p, mu_norm, step, deriv):
    """Attainable relative accuracy of a central difference of
    double-precision lossless states: about eps_mach cond(V) |mu| / (step
    |deriv|) with cond(V) ~ 4 / chi^2, times a margin of 10."""
    return 10.0 * EPS * (4.0 / p.chi() ** 2) * mu_norm / (step * max(abs(deriv), 1e-300))


def susceptibility_checks(name, got, ref, p, mu_norm, sus=None):
    """A gate at criterion 4's 1e-4 plus the attainable accuracy of the
    program's central difference; and the strict 1e-4 check alone (a known
    defect near the EP and at short times). `ref` is the susceptibility, or
    a quantity proportional to it whose susceptibility is `sus`."""
    err = _rel(got, ref)
    attainable = err <= 1e-4 + fd_accuracy(p, mu_norm, FD_STEP, ref if sus is None else sus)
    return [Check(name, attainable, err),
            Check("susceptibility_criterion4_tol", err <= 1e-4, err, known=attainable)]


def _state_tol(p):
    if not p.lossless:
        return 1e-6
    return max(1e-10, 1e3 * EPS / p.chi() ** 2)


def _lift(K, p):
    """Reduced-basis maps K[..., n, n] lifted to the interleaved (c, c^+)
    basis by conjugation symmetry."""
    n = p.n
    Kf = np.zeros(K.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    kinds = _kinds(p)
    for a, (ma, da) in enumerate(kinds):
        for b, (mb, db) in enumerate(kinds):
            ia, ib = 2 * ma + da, 2 * mb + db
            Kf[..., ia, ib] = K[..., a, b]
            Kf[..., ia ^ 1, ib ^ 1] = np.conj(K[..., a, b])
    return Kf


def peak_total(p, t, samples=256):
    """Peak total excitation over the uniform grid of metrology's SQL
    convention, from the eigenbasis of the reduced matrix (lossless) or of
    the drift (lossy), all sample times at once."""
    times = np.linspace(0.0, t, samples + 1)[1:]
    mu0 = initial_mean(p)
    peak = float(occupations(mu0, np.eye(2 * p.n) / 2.0).sum())
    if p.lossless:
        lam, V = np.linalg.eig(reduced_matrix(p))
        K = np.einsum("ij,tj,jk->tik", V, np.exp(-1j * np.outer(times, lam)), np.linalg.inv(V))
        S = quadrature_map(K, p)
        mu = S @ mu0
        cov = S @ np.swapaxes(S, 1, 2) / 2.0
    else:
        mu, cov = VanLoan(p, precise=False).states(times)
    diag = np.diagonal(cov, axis1=1, axis2=2)
    totals = ((mu ** 2).sum(axis=1) + diag.sum(axis=1) - p.n) / 2.0
    return max(peak, float(totals.max()))


def working_time(p, q):
    return 2.0 * math.pi * q / p.replace(epsilon=[0.0] * (p.n - 1)).chi()


def check_sensitivity_rows(kv, rows, kind):
    """Sensitivity reports (sensitivity_sweep and loss_sweep)."""
    base = Params(kv)
    param = kv["sweep_param"]
    time_text = kv.get("time", "working:1")
    at_working_point = param != "t" and time_text.startswith("working:")
    checks = []
    grid = grid_values(kv["sweep_grid"])
    for idx, row in enumerate(rows):
        p = base.with_sweep(param, row[{"g1": "g"}.get(param, param)])
        eta = row["eta"] if param == "eta" else None
        t = row["t"]
        if param == "t":
            t_ok = row["t"] == grid[idx]
        elif at_working_point:
            t_ok = _rel(t, working_time(p, int(time_text.split(":")[1]))) <= 1e-12
        else:
            t_ok = t == float(time_text)
        checks.append(_flag("row_time", t_ok))
        sus, noise, de = row["susceptibility"], row["noise_var"], row["delta_eps"]
        mu, cov = _state(p, t, eta)
        c = observable_x1_minus_x2(p.n)
        noise_ref = float(c @ cov @ c)
        name = "lossless_state" if p.lossless else "lossy_state"
        checks.append(_check(name, abs(noise - noise_ref) / max(1.0, noise_ref), _state_tol(p)))
        offset = any(p.epsilon)
        mu_norm = float(np.linalg.norm(mu))
        if p.lossless and not offset:
            checks.append(_check("noise_closed_form", _rel(noise, closed_noise(p, t, eta)), 1e-8))
            checks += susceptibility_checks("susceptibility_closed_form", sus,
                                            closed_susceptibility(p, t, eta), p, mu_norm)
        elif p.lossless:
            checks += susceptibility_checks("susceptibility_mpmath", sus,
                                            mp_susceptibility(p, t, eta), p, mu_norm)
        else:
            checks.append(_check("susceptibility_mpmath",
                                 _rel(sus, mp_susceptibility(p, t, eta)), 1e-5))
        checks.append(_check("identity_delta_eps", _rel(de, math.sqrt(noise) / sus), 1e-12))
        checks.append(_qcrb_identity(row))
        n_peak = peak_total(p, t)
        checks.append(_check("sql_peak_excitation", _rel(row["sql"], 1.0 / math.sqrt(n_peak * t)), 1e-6))
        if p.lossless:
            expected = max(abs(e) for e in p.epsilon) < 0.1 * p.chi() ** 3
            # known defect: the flag is true outside the first-order regime
            checks.append(Check("valid_regime", row["valid_regime"] == expected,
                                known=row["valid_regime"] and not expected))
            if at_working_point and not offset:
                err = abs(de * math.sqrt(row["qfi"]) - 1.0)
                if eta is None or eta == 1.0:
                    checks.append(_check("crb_saturation", err, 0.01))
                else:
                    # known defect: the QFI of the state before the readout
                    # loss, which saturates the bound at sqrt(eta) delta_eps
                    lossless_qfi = abs(de * math.sqrt(row["qfi"] * eta) - 1.0) <= 0.01
                    checks.append(Check("crb_saturation_readout_loss", err <= 0.01, err,
                                        known=lossless_qfi))
        if kind == "loss_working_point":
            margin = 20.0 * math.log10(row["sql"] / de)
            checks.append(_flag("sql_margin_10db", margin > 10.0))
    if kind == "loss_working_point" and len(rows) >= 2:
        des = [r["delta_eps"] for r in rows]
        if param == "eta":
            des = des[::-1]           # ascending eta: loss decreases along the grid
        ok = all(b >= a * (1.0 - 1e-9) for a, b in zip(des, des[1:]))
        checks.append(_flag("monotone_in_loss", ok))
    return checks


MP_STRIDE = 10      # lossy traces: mpmath on every tenth row, rotating


def check_evolve_trace(kv, rows, op_index):
    """States of a trace. Lossless: the residue form on every row. Lossy:
    the Van Loan map in mpmath on every MP_STRIDE-th row (rotating with the
    operation) and in double precision on every row, which is exact to far
    below the tolerance away from the EP."""
    p = Params(kv)
    c = observable_x1_minus_x2(p.n)
    tol = _state_tol(p)
    name = "lossless_state" if p.lossless else "lossy_state"
    if not p.lossless:
        mus, covs = VanLoan(p, precise=False).states([row["t"] for row in rows])
        precise = VanLoan(p)
    worst = 0.0
    for idx, row in enumerate(rows):
        if p.lossless:
            mu, cov = lossless_state(p, row["t"])
        elif idx % MP_STRIDE == op_index % MP_STRIDE:
            mu, cov = precise.state(row["t"])
        else:
            mu, cov = mus[idx], covs[idx]
        occ = occupations(mu, cov)
        ref = [float(c @ mu), float(c @ cov @ c)] + list(occ) + [float(occ.sum())]
        got = [row["mean_obs"], row["var_obs"]] + [row[f"n{i + 1}"] for i in range(p.n)] \
            + [row["n_total"]]
        scale = max(1.0, max(abs(x) for x in ref))
        worst = max(worst, max(abs(a - b) for a, b in zip(got, ref)) / scale)
    checks = [_check(name, worst, tol)]
    if p.lossless:
        cons = [r["n1"] - r["n2"] - r["n3"] for r in rows]
        top = max(1.0, max(r["n_total"] for r in rows))
        checks.append(_check("conserved_n1_n2_na", (max(cons) - min(cons)) / top, 1e-8))
    return checks


def check_qfi_trace(kv, rows):
    p = Params(kv)
    checks = []
    for row in rows:
        t = row["t"]
        inv = row["inverse_delta_eps"]
        s = closed_susceptibility(p, t)
        ref = s / math.sqrt(closed_noise(p, t))
        mu_norm = float(np.linalg.norm(lossless_state(p, t)[0]))
        checks += susceptibility_checks("inverse_delta_eps_closed_form", inv, ref, p, mu_norm, s)
        checks.append(_qcrb_identity(row))
        # known defects: a QFI that is not positive (the covariance solve
        # failed), or one short of the bound by no more than the attainable
        # accuracy of its difference quotient at qfi_parts' step 1e-7 chi^3
        # (twice the derivative's, as the QFI is quadratic in it)
        allowance = 2.0 * fd_accuracy(p, mu_norm, 1e-7 * p.chi() ** 3, s)
        checks.append(Check("cramer_rao", row["qfi"] >= (1.0 - 1e-2) * inv * inv,
                            known=not row["qfi"] > 0
                            or row["qfi"] >= (1.0 - 1e-2 - allowance) * inv * inv))
    return checks


SCALING_EXPONENTS = {"ep3": (5.0, 0.1), "ep2": (3.0, 0.1), "ep3-qfi": (-10.0, 0.2),
                     "ep4": (7.0, 0.3)}


def check_scaling(kv, rows, summary):
    family = kv["family"]
    target, tol = SCALING_EXPONENTS[family]
    dev = abs(summary["exponent"] - target)
    checks = [Check("scaling_exponent", dev <= tol, dev / abs(target))]
    if family == "ep3":
        worst = 0.0
        for row in rows:
            chi = row["chi"]
            g = math.sqrt(1.0 - chi * chi)
            ref = chi ** 5 / (3.0 * math.sqrt(2.0) * 2.0 * (1.0 + g * g) * (1.0 + g) ** 2 * math.pi)
            worst = max(worst, _rel(row["value"], ref))
        checks.append(_check("scaling_values_closed_form", worst, 1e-4))
    return checks


def check(kind, scenario_text, csv_bytes, op_index):
    """All oracle checks of one operation's output."""
    kv = parse_kv(scenario_text)
    summary, rows = parse_csv(csv_bytes)
    experiment = kv["experiment"]
    expected_rows = len(grid_values(kv["sweep_grid"]))
    if experiment == "scaling" and summary.get("excluded"):
        expected_rows -= len(str(summary["excluded"]).split(","))
    checks = [_flag("row_count", len(rows) == expected_rows)]
    if experiment == "spectrum_sweep":
        checks += check_spectrum_sweep(kv, rows, op_index, kind)
    elif experiment == "discriminant_map":
        checks += check_discriminant_map(kv, rows, op_index)
    elif experiment == "puiseux":
        checks += check_puiseux(kv, rows, summary, op_index)
    elif experiment in ("sensitivity_sweep", "loss_sweep"):
        checks += check_sensitivity_rows(kv, rows, kind)
    elif experiment == "evolve_trace":
        checks += check_evolve_trace(kv, rows, op_index)
    elif experiment == "qfi_trace":
        checks += check_qfi_trace(kv, rows)
    elif experiment == "scaling":
        checks += check_scaling(kv, rows, summary)
    return checks
