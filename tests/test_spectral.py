import itertools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from epsensor import (ConfigurationError, NumericalError, SystemConfig,
                      build_system, cardano_eigenvalues, collective_rate,
                      cubic_discriminant, eigensolve, ep3_sensor, ep4_locus,
                      ep4_system, match_branches, perturbed_eigenvalues_analytic,
                      puiseux_fit)
from epsensor import model, spectral
from epsensor.spectral import (EPS, STABILITY_TOL, aberth_roots, char_poly,
                               eigenvector_residuals)


def match_error(a, b):
    """Set distance via exhaustive assignment (small sets only)."""
    return min(np.abs(np.asarray(p) - np.asarray(b)).max()
               for p in itertools.permutations(a))


class TestEigensolve:
    def test_triple_coalescence(self):
        spec = eigensolve(ep3_sensor(1.0))
        assert np.abs(spec.eigenvalues).max() < 1e-12
        assert spec.ep_order == 3
        assert spec.phase == "exceptional"

    def test_oscillatory_point(self):
        spec = eigensolve(ep3_sensor(0.95))
        expected = np.array([-0.31224989991992, 0.0, 0.31224989991992])
        assert np.allclose(np.sort(spec.eigenvalues.real), expected, atol=1e-12)
        assert np.abs(spec.eigenvalues.imag).max() < 1e-12
        assert spec.phase == "stable"
        assert spec.ep_order == 1
        assert collective_rate(ep3_sensor(0.95)) == \
            pytest.approx(0.31224989991992, abs=1e-12)

    def test_reducible_counterexample_values(self):
        eps = 0.01
        cfg = SystemConfig(n=3, m=1, g=[1.2], kappa=[1.0], epsilon=(eps, -eps))
        spec = eigensolve(cfg)
        lam_pm = (eps + np.array([1, -1]) * np.sqrt(4 + eps**2 - 4 * 1.2**2 + 0j)) / 2
        expected = np.array([eps, lam_pm[0], lam_pm[1]])
        assert match_error(spec.eigenvalues, expected) < 1e-12
        assert spec.phase == "unstable"
        assert spec.ep_order == 1

    def test_sorted_by_real_then_imag(self):
        spec = eigensolve(ep3_sensor(0.9))
        eigs = spec.eigenvalues
        assert np.all(np.diff(eigs.real) >= -1e-15)

    def test_eigenvector_relations(self):
        cfg = ep3_sensor(0.9)
        H = build_system(cfg).reduced
        spec = eigensolve(cfg)
        assert eigenvector_residuals(H, spec) < 1e-10

    def test_eigenvalue_precision_away_from_coalescence(self, rng):
        for _ in range(50):
            g = rng.uniform(0.2, 0.85)
            cfg = ep3_sensor(g)
            spec = eigensolve(cfg)
            chi = np.sqrt(1 - g * g)
            expected = np.array([-chi, 0.0, chi])
            assert np.abs(np.sort(spec.eigenvalues.real) - expected).max() \
                < 1e-12 * max(1, chi)

    def test_cardano_agrees_with_polynomial_solver_stable_regime(self, rng):
        count, worst = 0, 0.0
        while count < 200:
            g = rng.uniform(0.1, 1.3)
            d1, d2 = rng.uniform(-1.5, 1.5, 2)
            cfg = SystemConfig(n=3, m=1, g=[g], kappa=[1.0], delta=(d1, d2))
            if cubic_discriminant(cfg).D >= -1e-4:
                continue
            count += 1
            analytic = cardano_eigenvalues(g, d1, d2)
            roots = aberth_roots(char_poly(build_system(cfg).reduced))
            worst = max(worst, match_error(analytic, roots))
        assert worst < 1e-10

    def test_symmetric_function_identities(self, rng):
        # sums/products of the eigenvalues against the closed combinations
        for _ in range(30):
            g = rng.uniform(0.2, 1.4)
            e1, e2 = rng.uniform(-0.3, 0.3, 2)
            lam = cardano_eigenvalues(g, e1, e2)
            assert abs(lam.sum() - (e1 - e2)) < 1e-10
            assert abs(np.prod(lam) - (-e1 - g * g * e2)) < 1e-10
            assert abs(np.prod(e1 - lam) - g * g * (e1 + e2)) < 1e-10
            assert abs(np.prod(e2 + lam) - (-(e1 + e2))) < 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            eigensolve(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            eigensolve(np.array([[1.0, bad], [0.0, 1.0]]))

    def test_overflowing_characteristic_polynomial_names_the_scale(self):
        with pytest.raises(NumericalError, match="matrix scale 1.000e\\+200"):
            eigensolve(ep3_sensor(1e200))

    @pytest.mark.filterwarnings("error")
    def test_huge_couplings_solve_near_mpmath(self):
        # rows whose Horner pass overflows, and which still come out finite
        # and pass Aberth's backward test, keep their answer without a warning
        for cfg in (SystemConfig(n=3, m=1, g=(8e51,), kappa=(1.0,), delta=(3.3e51, 1.05e52)),
                    ep3_sensor(1e80), ep3_sensor(1e90), ep3_sensor(1e102),
                    ep3_sensor(1e110, gamma=0.1)):
            H = build_system(cfg).reduced
            scale = float(np.abs(H).max())
            assert match_error(eigensolve(cfg).eigenvalues,
                               _mpmath_eigenvalues(H)) <= 1e-14 * scale

    def test_equal_real_parts_are_ordered_by_imaginary_part(self):
        # two conjugate pairs whose real parts agree only to rounding
        cfg = SystemConfig(n=4, m=2, g=(1.2373553272346993, 0.2744966911591107),
                           kappa=(1.0,), delta=(1.3279421230137138, 0.09304738406448597,
                                                -1.2348947389492277))
        eigs = eigensolve(cfg).eigenvalues
        assert np.abs(eigs.imag).min() > 0.27
        for a, b in zip(eigs[:-1], eigs[1:]):
            assert b.real - a.real >= -1e-15
            if b.real - a.real <= STABILITY_TOL:
                assert a.imag < b.imag


def _attainable(reference, i, scale):
    """100 x the double-precision accuracy attainable for reference[i]: a
    root in a k-fold cluster of a degree-n polynomial is accurate to about
    (eps (|r| + scale)^n / prod of its distances to the n - k farther
    roots)^(1/k), at least the cluster's own spread."""
    n = len(reference)
    r = reference[i]
    d = sorted(abs(r - reference[j]) for j in range(n) if j != i)
    best = math.inf
    for k in range(1, n + 1):
        far = math.prod(d[k - 1:])
        e_k = (EPS * (abs(r) + scale) ** n / far) ** (1.0 / k) if far > 0 else math.inf
        best = min(best, max(e_k, d[k - 2] if k >= 2 else 0.0))
    return max(100.0 * best, 1e-14 * scale)


def _mpmath_eigenvalues(H):
    with mpmath.workdps(60):
        values = mpmath.eig(mpmath.matrix(H.tolist()), left=False, right=False)
        return np.array([complex(v) for v in values])


NEAR_EP = (
    [pytest.param(ep3_sensor(1.0 + s * 10.0 ** -k), id=f"ep3-g=1{s:+}e-{k}")
     for k in range(1, 13) for s in (1, -1)]
    + [pytest.param(ep3_sensor(1.0, gamma=gamma), id=f"ep3-gamma={gamma}")
       for gamma in (0.01, 0.1)]
    + [pytest.param(ep4_system(f, g1=ep4_locus(f).g - 10.0 ** -k), id=f"ep4-f={f}-1e-{k}")
       for f in (0.1, 0.3, 0.5) for k in range(2, 9)]
    + [pytest.param(np.diag(np.ones(3), 1) + 0.5 * np.eye(4), id="jordan-block"),
       pytest.param(np.zeros((3, 3)), id="zero-matrix")])


@pytest.mark.parametrize("system", NEAR_EP)
def test_eigenvalues_match_mpmath_near_exceptional_points(system):
    H = build_system(system).reduced if isinstance(system, SystemConfig) else system
    scale = max(1.0, float(np.abs(H).max()))
    reference = _mpmath_eigenvalues(H)
    remaining = list(range(len(reference)))
    for value in eigensolve(system).eigenvalues:
        j = min(remaining, key=lambda q: abs(reference[q] - value))
        remaining.remove(j)
        assert abs(reference[j] - value) <= _attainable(reference, j, scale)
    # every root Aberth accepts passes its backward test
    coeffs = char_poly(H)
    powers = np.arange(len(coeffs) - 1, -1, -1)
    n = len(coeffs) - 1
    for z in aberth_roots(coeffs):
        floor = np.abs(coeffs) @ np.abs(z) ** powers
        assert abs(np.polyval(coeffs, z)) <= 8.0 * n * EPS * max(floor, EPS)


def test_exactly_multiple_roots_are_attained(rng):
    # permuted triangular matrices with exactly representable, repeated
    # eigenvalues, some in Jordan blocks
    values = np.array([0, 1, -1, 2, -2, 0.5, -0.5, 1j, -1j, 1 + 1j, 0.5 - 1.5j, 3])
    for _ in range(300):
        n = int(rng.integers(2, 7))
        distinct = rng.choice(values, size=int(rng.integers(1, n + 1)), replace=False)
        roots = np.concatenate([distinct, rng.choice(distinct, n - len(distinct))])
        H = np.diag(roots.astype(complex))
        for i in range(n - 1):
            if roots[i] == roots[i + 1] and rng.random() < 0.7:
                H[i, i + 1] = 1.0
        P = np.eye(n)[rng.permutation(n)]
        H = P @ H @ P.T
        scale = max(1.0, float(np.abs(H).max()))
        remaining = list(range(n))
        for value in eigensolve(H).eigenvalues:
            j = min(remaining, key=lambda q: abs(roots[q] - value))
            remaining.remove(j)
            assert abs(roots[j] - value) <= _attainable(roots, j, scale)


def _stack_kinds(rng):
    """Seeded stacks of one size, one per kind of sweep a scenario solves
    in one call."""
    grid = np.sort(np.append(rng.uniform(0.8, 1.2, 30), 1.0))
    f = rng.uniform(0.1, 0.6)
    locus = ep4_locus(f)
    g, d = rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.3)
    base = ep3_sensor(1.0)
    return {
        "ep3": [ep3_sensor(x) for x in grid],
        "ep3_lossy": [ep3_sensor(x, gamma=rng.uniform(0.01, 0.2),
                                 Gamma=rng.uniform(0.0, 0.01)) for x in grid],
        "ep4_locus": [ep4_system(f, g1=locus.g + x) for x in rng.uniform(-0.2, 0.2, 20)]
        + [ep4_system(f)],
        "discriminant": [replace(ep3_sensor(g), delta=(x, d))
                         for x in np.sort(rng.uniform(-0.5, 0.5, 30))],
        "puiseux": [base.shifted(-eps, "same") for eps in np.logspace(-9, -5, 17)],
        "puiseux_ep4": [ep4_system(f).shifted(-eps, "single")
                        for eps in np.logspace(-9, -5, 17)],
        "gamma_from_0": [ep3_sensor(g, gamma=x) for x in np.linspace(0.0, 0.2, 21)],
        "delta_0_lossless": [ep3_sensor(x) for x in rng.uniform(0.0, 2.0, 15)]
        + [ep3_sensor(x, eps1=rng.uniform(-0.1, 0.1)) for x in rng.uniform(0.0, 2.0, 15)],
    }


def _bits(spectrum):
    return (spectrum.eigenvalues.tobytes(), spectrum.right_vectors.tobytes(),
            spectrum.phase, spectrum.ep_order)


class TestStackedEigensolve:
    @pytest.mark.parametrize("kind", ["ep3", "ep3_lossy", "ep4_locus", "discriminant",
                                      "puiseux", "puiseux_ep4", "gamma_from_0",
                                      "delta_0_lossless"])
    def test_rows_are_bit_identical_to_one_at_a_time(self, rng, kind):
        configs = _stack_kinds(rng)[kind]
        stacked = eigensolve(configs)
        assert len(stacked) == len(configs)
        for config, spectrum in zip(configs, stacked):
            assert _bits(spectrum) == _bits(eigensolve(config))

    def test_kinds_reach_every_branch(self, rng):
        kinds = _stack_kinds(rng)
        # the exact EP4 row collapses to a fourfold root
        assert eigensolve(kinds["ep4_locus"])[-1].ep_order == 4
        # lossless delta = 0 rows have a constant coefficient of exactly 0
        constants = [char_poly(build_system(c).reduced)[-1] for c in kinds["delta_0_lossless"]]
        assert 0 < sum(x == 0 for x in constants) < len(constants)
        # a gamma sweep from 0 mixes lossless rows with lossy rows
        assert kinds["gamma_from_0"][0].lossless and not kinds["gamma_from_0"][1].lossless

    @pytest.mark.parametrize("kind", ["ep3", "ep4_locus", "discriminant", "delta_0_lossless"])
    def test_real_polynomials_give_exact_conjugate_pairs(self, rng, kind):
        def ordered(values):
            return sorted(values.tolist(), key=lambda z: (z.real, z.imag))
        for spectrum in eigensolve(_stack_kinds(rng)[kind]):
            assert ordered(spectrum.eigenvalues) == ordered(spectrum.eigenvalues.conj())

    def test_branches_leaving_the_ep3_break_the_tie_by_index(self):
        # past g = 1 the real branch at 0 meets the emerging conjugate pair at
        # equal distances; the lower index, the Im < 0 member, takes the tie
        grid = np.linspace(0.8, 1.2, 201)
        eigs = np.array([s.eigenvalues for s in eigensolve([ep3_sensor(g) for g in grid])])
        eigs[1:] = match_branches(eigs[0], eigs[1:])
        above = eigs[grid > 1.0]
        assert (above[:, 1].imag < 0).all() and (above[:, 2].imag > 0).all()

    def test_polynomial_layers_take_stack_axes(self, rng):
        H = np.array([build_system(c).reduced for c in _stack_kinds(rng)["ep3_lossy"]])
        coeffs = char_poly(H)
        roots = aberth_roots(coeffs)
        assert coeffs.shape == (len(H), 4) and roots.shape == (len(H), 3)
        for h, c, r in zip(H, coeffs, roots):
            assert char_poly(h).tobytes() == c.tobytes()
            assert aberth_roots(c).tobytes() == r.tobytes()
        assert aberth_roots(coeffs.reshape(1, -1, 4)).shape == (1, len(H), 3)

    def test_empty_stack(self):
        assert eigensolve([]) == []

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ConfigurationError, match="one size"):
            eigensolve([ep3_sensor(0.9), ep4_system(0.2)])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_row_is_named(self):
        with pytest.raises(NumericalError,
                           match=r"matrix scale 1\.000e\+200 \(configuration 1 of 3\)"):
            eigensolve([ep3_sensor(0.9), ep3_sensor(1e200), ep3_sensor(1.1)])
        with pytest.raises(NumericalError, match=r"root iteration overflows: "
                           r"matrix scale 1\.000e\+80 \(configuration 1 of 2\)"):
            eigensolve([SystemConfig(n=4, m=2, g=(g1, 0.2), kappa=(1.0,))
                        for g1 in (0.9, 1e80)])

    def test_a_non_finite_row_leaves_the_iteration_at_once(self, monkeypatch):
        # the Horner pass overflows on this row and its iterates turn NaN on
        # the second step; it used to run all ABERTH_MAX_ITER = 400 steps
        class Counted(float):
            steps = 0

            def __mul__(self, other):      # used once per step
                Counted.steps += 1
                return float(self) * other

        monkeypatch.setattr(spectral, "ABERTH_TOL", Counted(spectral.ABERTH_TOL))
        cfg = SystemConfig(n=4, m=2, g=(1e80, 0.2), kappa=(1.0,))
        with np.errstate(all="ignore"):
            roots = aberth_roots(char_poly(build_system(cfg).reduced))
        assert not np.isfinite(roots).all() and Counted.steps <= 2
        with pytest.raises(NumericalError, match=r"root iteration overflows: "
                           r"matrix scale 1\.000e\+80$"):
            eigensolve(cfg)


class TestDiscriminant:
    def test_triple_point(self):
        d = cubic_discriminant(ep3_sensor(1.0))
        assert d.x == pytest.approx(0.0, abs=1e-15)
        assert d.y == pytest.approx(0.0, abs=1e-15)
        assert d.D == pytest.approx(0.0, abs=1e-15)

    def test_oscillatory_side(self):
        d = cubic_discriminant(ep3_sensor(0.95))
        assert d.x == pytest.approx(-0.0325, abs=1e-15)
        assert d.y == pytest.approx(0.0, abs=1e-15)
        assert d.D == pytest.approx(-3.4328125e-5, rel=1e-10)

    def test_amplifying_side_positive_and_unstable(self):
        cfg = ep3_sensor(1.05)
        d = cubic_discriminant(cfg)
        assert d.x == pytest.approx(0.0341666666666667, rel=1e-10)
        assert d.D > 0
        assert eigensolve(cfg).phase == "unstable"

    def test_overflow_names_the_matrix_scale(self):
        with pytest.raises(NumericalError, match="matrix scale 1.000e\\+80"):
            cubic_discriminant(ep3_sensor(1e80))

    def test_requires_three_mode_lossless(self):
        with pytest.raises(ConfigurationError):
            cubic_discriminant(SystemConfig(n=2, m=1, g=[0.5]))
        with pytest.raises(ConfigurationError):
            cubic_discriminant(ep3_sensor(0.9, gamma=0.1))


class TestClassifyPhase:
    def test_examples(self):
        assert eigensolve(ep3_sensor(0.95)).phase == "stable"
        assert eigensolve(ep3_sensor(1.0)).phase == "exceptional"
        cfg = SystemConfig(n=3, m=1, g=[1.2], kappa=[1.0], epsilon=(0.01, -0.01))
        assert eigensolve(cfg).phase == "unstable"


class TestPerturbedBranches:
    def test_same_case_real_branch(self):
        lam = perturbed_eigenvalues_analytic(1e-6, "same")
        assert lam[1] == pytest.approx((2e-6) ** (1 / 3), rel=1e-12)
        # oracle: numeric roots of lambda^3 - eps^2 lambda - 2 eps = 0
        roots = np.roots([1.0, 0.0, -(1e-6) ** 2, -2e-6])
        assert match_error(lam, roots) < 1e-8

    def test_different_case_real_branch(self):
        lam = perturbed_eigenvalues_analytic(1e-6, "single")
        assert lam[1] == pytest.approx(1e-2, rel=1e-4)
        # oracle: numeric roots of lambda^3 + eps lambda^2 - eps = 0; the
        # leading-order branches are short by the eps/3 next-order term
        roots = np.roots([1.0, 1e-6, 0.0, -1e-6])
        assert match_error(lam, roots) < 1e-6

    def test_zero_perturbation(self):
        assert np.all(perturbed_eigenvalues_analytic(0.0, "same") == 0)

    def test_bad_case_rejected(self):
        with pytest.raises(ConfigurationError):
            perturbed_eigenvalues_analytic(1e-6, "both")


class TestPuiseuxFit:
    GRID = np.logspace(-9, -5, 17)

    def test_ep3_same_slope_and_prefactor(self):
        fit = puiseux_fit(ep3_sensor(1.0), self.GRID, "same")
        assert fit.slope == pytest.approx(1 / 3, abs=0.02)
        assert fit.branch_prefactor == pytest.approx(2 ** (1 / 3), rel=1e-3)
        assert fit.r_squared > 0.9999

    def test_splittings_are_the_fitted_values(self):
        fit = puiseux_fit(ep4_system(0.2), self.GRID, "same")
        assert len(fit.splittings) == len(self.GRID)
        lam0 = eigensolve(ep4_system(0.2)).eigenvalues.mean()
        for eps, value in zip(self.GRID[::5], fit.splittings[::5]):
            shifted = eigensolve(ep4_system(0.2).shifted(-eps, "same"))
            assert value == np.abs(shifted.eigenvalues - lam0).max()
        lx, ly = np.log(self.GRID), np.log(fit.splittings)
        assert np.polyfit(lx, ly, 1)[0] == pytest.approx(fit.slope, abs=1e-12)

    def test_prefactor_ratio(self):
        fit_same = puiseux_fit(ep3_sensor(1.0), self.GRID, "same")
        fit_single = puiseux_fit(ep3_sensor(1.0), self.GRID, "single")
        ratio = fit_same.branch_prefactor / fit_single.branch_prefactor
        assert ratio == pytest.approx(2 ** (1 / 3), rel=0.01)

    def test_ep4_slope(self):
        fit = puiseux_fit(ep4_system(0.2), self.GRID, "same")
        assert fit.slope == pytest.approx(0.25, abs=0.02)

    def test_two_fold_coupling_response(self):
        fit = puiseux_fit(ep3_sensor(1.0), self.GRID, "coupling")
        assert fit.slope == pytest.approx(0.5, abs=0.02)

    def test_needs_ep_configuration(self):
        with pytest.raises(ConfigurationError):
            puiseux_fit(ep3_sensor(0.9), self.GRID, "same")

    @pytest.mark.parametrize("direction", ["same", "coupling"])
    def test_builds_no_full_matrix(self, direction, monkeypatch):
        # the cluster radius reads the reduced matrix alone
        monkeypatch.setattr(model, "_full_matrix",
                            lambda config: pytest.fail("a full matrix was built"))
        assert puiseux_fit(ep3_sensor(1.0), self.GRID, direction).r_squared > 0.999

    def test_needs_enough_points(self):
        with pytest.raises(ConfigurationError):
            puiseux_fit(ep3_sensor(1.0), np.logspace(-8, -6, 5), "same")


def test_match_branches_keeps_continuity():
    ref = np.array([1.0 + 0j, -1.0 + 0j, 0.0 + 1j])
    shuffled = np.array([0.02 + 1j, 1.01 + 0j, -0.98 + 0j])
    matched = match_branches(ref, shuffled)
    assert np.abs(matched - np.array([1.01, -0.98, 0.02 + 1j])).max() < 0.1


def _greedy_match(reference, eigenvalues):
    """match_branches as a loop over numpy scalars (a frozen copy of the
    implementation the Python-value one replaced)."""
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    remaining = list(range(len(eigenvalues)))
    out = np.empty_like(eigenvalues)
    for i, ref in enumerate(reference):
        j = min(remaining, key=lambda k: abs(eigenvalues[k] - ref))
        out[i] = eigenvalues[j]
        remaining.remove(j)
    return out


def test_match_branches_is_bit_identical_to_the_numpy_scalar_loop(rng):
    for n in (2, 3, 4, 5):
        for scale in (1e-12, 1.0, 1e150):
            for _ in range(200):
                ref = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
                eigs = ref[rng.permutation(n)] \
                    + scale * rng.choice([0.0, 1e-9, 0.3], size=n) * rng.normal(size=n)
                assert match_branches(ref, eigs).tobytes() == _greedy_match(ref, eigs).tobytes()


@pytest.mark.parametrize("ref, eigs", [
    # equidistant candidates: the lowest index wins
    ([0.0, 5.0], [1.0, -1.0]),
    ([0.0, 0.0], [1j, -1j]),
    ([0.0, 0.0, 0.0, 0.0], [1j, -1j, -1.0, 1.0]),
    # repeated eigenvalues and references, e.g. at an exceptional point
    ([0.5, 0.5, 0.5], [0.5, 0.5, 0.5]),
    ([1.0, 1.0, -1.0], [1.0 + 0j, -1.0, 1.0 + 0j]),
    ([0.0, 2.0, 1.0], [1.0, 1.0, 1.0]),
    # signed zeros compare equal, so the first of them is taken
    ([0.0, 0.0], [complex(-0.0, 0.0), complex(0.0, -0.0)]),
    # lattice points whose distances tie after rounding
    ([0.1 + 0.2j, 0.3 - 0.1j, -0.2 + 0.0j], [0.2 + 0.1j, 0.0 + 0.3j, -0.1 - 0.1j]),
])
def test_match_branches_breaks_exact_ties_as_before(ref, eigs):
    ref, eigs = np.asarray(ref, dtype=complex), np.asarray(eigs, dtype=complex)
    assert match_branches(ref, eigs).tobytes() == _greedy_match(ref, eigs).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_match_branches_orders_a_sweep_as_its_rows_one_at_a_time(rng, n):
    # a sweep through crossings: rows drift, are shuffled, and some repeat
    base = rng.normal(size=n) + 1j * rng.normal(size=n)
    drift = np.cumsum(0.05 * (rng.normal(size=(80, n)) + 1j * rng.normal(size=(80, n))), axis=0)
    rows = np.array([(base + d)[rng.permutation(n)] for d in drift])
    rows[40] = rows[39]
    matched = match_branches(rows[0], rows[1:])
    assert matched.shape == (79, n)
    before = rows[0]
    for row, got in zip(rows[1:], matched):
        before = _greedy_match(before, row)
        assert got.tobytes() == before.tobytes()
    assert match_branches(rows[0], rows[:0]).shape == (0, n)
