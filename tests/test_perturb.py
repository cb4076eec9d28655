import numpy as np
import pytest

from epsensor import (RegimeError, biorthogonal_basis, eigensolve, ep3_sensor,
                      exact_propagator_coefficients, first_order_eigenvalues,
                      first_order_propagator, susceptibility_derivatives)
from epsensor.perturb import perturbed_basis_residuals


class TestBiorthogonalBasis:
    def test_lossless_eigenvalues_and_r0(self):
        basis = biorthogonal_basis(0.95)
        lam0, lamp, lamm = basis.eigenvalues
        assert lam0 == 0
        assert lamp == pytest.approx(0.31224989991992, rel=1e-12)
        assert lamm == pytest.approx(-0.31224989991992, rel=1e-12)
        expected = np.array([1.0, -0.95, 0.0]) / np.sqrt(0.0975)
        assert np.allclose(basis.right[:, 0], expected, atol=1e-12)

    def test_biorthogonality_is_exact(self):
        basis = biorthogonal_basis(0.95)
        gram = basis.left.conj().T @ basis.right
        assert abs(gram[1, 2]) < 1e-14              # <L+|R-> = 0
        assert np.abs(gram - np.eye(3)).max() < 1e-12

    def test_lossy_eigenvalues(self):
        basis = biorthogonal_basis(0.95, gamma=0.1, Gamma=0.01)
        chi = np.sqrt(0.0975 - 0.09 ** 2 / 4)
        assert basis.chi == pytest.approx(chi, rel=1e-12)
        assert basis.chi == pytest.approx(0.30899, abs=5e-6)
        _, lamp, lamm = basis.eigenvalues
        assert lamp == pytest.approx(-0.055j + chi, rel=1e-12)
        assert lamm == pytest.approx(-0.055j - chi, rel=1e-12)

    @pytest.mark.parametrize("g,gamma,Gamma", [
        (0.8, 0.0, 0.0), (0.95, 0.0, 0.0), (0.95, 0.1, 0.01), (0.6, 0.3, 0.05)])
    def test_completeness_and_residuals(self, g, gamma, Gamma):
        basis = biorthogonal_basis(g, gamma, Gamma)
        assert basis.biorthogonality_residual() < 1e-10
        assert basis.completeness_residual() < 1e-10

    def test_vectors_diagonalize_the_matrix(self):
        from epsensor import SystemConfig, build_system
        basis = biorthogonal_basis(0.9, 0.05, 0.01)
        h = build_system(SystemConfig(n=3, m=1, g=[0.9], kappa=[1.0],
                                      gamma=0.05, Gamma=0.01)).reduced
        for i, lam in enumerate(basis.eigenvalues):
            r = basis.right[:, i]
            assert np.abs(h @ r - lam * r).max() < 1e-12
            l = basis.left[:, i]
            assert np.abs(l.conj() @ h - lam * l.conj()).max() < 1e-12

    def test_regime_error_at_and_beyond_coalescence(self):
        with pytest.raises(RegimeError):
            biorthogonal_basis(1.0)
        with pytest.raises(RegimeError):
            biorthogonal_basis(0.999, gamma=0.2)


class TestFirstOrderEigenvalues:
    def test_symmetric_shift_of_the_zero_mode(self):
        basis = biorthogonal_basis(0.95)
        out = first_order_eigenvalues(basis, 1e-5, 1e-5)
        expected = 1e-5 * (1 + 0.95 ** 2) / (1 - 0.95 ** 2)
        assert out.lam0 == pytest.approx(expected, rel=1e-12)
        assert out.lam0 == pytest.approx(1.9513e-4, rel=1e-4)
        assert out.valid_regime

    def test_zero_perturbation_is_identity(self):
        basis = biorthogonal_basis(0.9)
        out = first_order_eigenvalues(basis, 0.0, 0.0)
        assert (out.lam0, out.lam_plus, out.lam_minus) == basis.eigenvalues

    def test_pm_branches_against_exact_eigensolve(self):
        # oracle: exact cubic eigenvalues of the perturbed matrix
        g, e1 = 0.95, 1e-5
        basis = biorthogonal_basis(g)
        out = first_order_eigenvalues(basis, e1, 0.0)
        correction = -e1 * g * g / (2 * (1 - g * g))
        assert out.lam_plus == pytest.approx(basis.chi + correction, rel=1e-10)
        assert out.lam_minus == pytest.approx(-basis.chi + correction, rel=1e-10)
        exact = np.sort(eigensolve(ep3_sensor(g, eps1=e1)).eigenvalues.real)
        approx = np.sort([out.lam0.real, out.lam_plus.real, out.lam_minus.real])
        # residual is second order: ~ eps^2 / chi^3 ~ 3e-8 here
        assert np.abs(exact - approx).max() < 1e-7

    def test_regime_flag(self):
        basis = biorthogonal_basis(0.95)
        assert not first_order_eigenvalues(basis, 0.1, 0.1).valid_regime


class TestExactCoefficients:
    def test_matches_matrix_exponential(self, rng):
        from scipy.linalg import expm
        from epsensor import SystemConfig, build_system
        worst = 0.0
        for _ in range(40):
            g = rng.uniform(0.5, 0.98)
            e1, e2 = rng.uniform(-5e-3, 5e-3, 2)
            t = rng.uniform(0.0, 40.0)
            co = exact_propagator_coefficients(g, e1, e2, t)
            cfg = SystemConfig(n=3, m=1, g=[g], kappa=[1.0], epsilon=(e1, e2))
            K = expm(-1j * build_system(cfg).reduced * t)
            worst = max(worst, np.abs(co.as_matrix() - K).max())
        assert worst < 1e-9


class TestFirstOrderPropagator:
    def test_identity_at_working_point(self):
        g = 0.95
        chi = np.sqrt(1 - g * g)
        co = first_order_propagator(g, 0.0, 0.0, 2 * np.pi / chi)
        assert co.A1 == pytest.approx(1.0, abs=1e-12)
        assert co.A2 == pytest.approx(1.0, abs=1e-12)
        assert abs(co.B) < 1e-12
        assert abs(co.C) < 1e-12
        assert abs(co.D) < 1e-12

    @pytest.mark.parametrize("g", [0.8, 0.9, 0.95])
    def test_small_perturbation_agreement(self, g):
        chi = np.sqrt(1 - g * g)
        e1 = 0.01 * chi ** 3
        e2 = 1.5 * e1
        t = 20 * np.pi
        approx = first_order_propagator(g, e1, e2, t)
        exact = exact_propagator_coefficients(g, e1, e2, t)
        err = np.abs(approx.as_matrix() - exact.as_matrix()).max() \
            / np.abs(exact.as_matrix()).max()
        assert err < 0.01
        assert approx.valid_regime

    def test_error_grows_with_regime_ratio(self):
        g = 0.9
        chi = np.sqrt(1 - g * g)
        t = 2 * np.pi / chi
        errs = []
        for ratio in (0.01, 0.03, 0.1, 0.3, 1.0):
            e1 = e2 = ratio * chi ** 3
            approx = first_order_propagator(g, e1, e2, t)
            exact = exact_propagator_coefficients(g, e1, e2, t)
            errs.append(np.abs(approx.as_matrix() - exact.as_matrix()).max()
                        / np.abs(exact.as_matrix()).max())
        assert all(b > a for a, b in zip(errs, errs[1:]))
        assert errs[0] < 0.05          # deep inside the regime
        assert not first_order_propagator(g, chi ** 3, chi ** 3, t).valid_regime

    def test_regime_error_beyond_threshold(self):
        with pytest.raises(RegimeError):
            first_order_propagator(1.2, 1e-5, 1e-5, 1.0)


class TestSusceptibilityDerivatives:
    def test_zero_time(self):
        d = susceptibility_derivatives(0.9, 0.0)
        assert d.dA1 == 0 and d.dA2 == 0 and d.dC == 0

    def test_working_point_value(self):
        g = 0.95
        chi = np.sqrt(1 - g * g)
        d = susceptibility_derivatives(g, 2 * np.pi / chi, "same")
        expected = -3j * np.pi * g * (1 + g * g) / chi ** 5
        assert d.dC == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("g", [0.8, 0.9, 0.95])
    @pytest.mark.parametrize("case", ["same", "single"])
    def test_matches_finite_differences(self, g, case):
        # oracle: central differences of the exact coefficients, step 1e-8
        chi = np.sqrt(1 - g * g)
        h = 1e-8
        for t in (2 * np.pi / chi, 5.0, 13.7):
            d = susceptibility_derivatives(g, t, case)
            pair = (h, h) if case == "same" else (h, 0.0)
            up = exact_propagator_coefficients(g, *pair, t)
            dn = exact_propagator_coefficients(g, -pair[0], -pair[1], t)
            for name, an in (("A1", d.dA1), ("A2", d.dA2), ("C", d.dC)):
                fd = (dict(up.items())[name] - dict(dn.items())[name]) / (2 * h)
                assert abs(fd - an) / abs(an) < 1e-4

    def test_same_vs_different_signal_ratio(self):
        # combined X1-X2 signal: the two-mode shift responds more strongly
        g = 0.95
        chi = np.sqrt(1 - g * g)
        t = 2 * np.pi / chi
        same = susceptibility_derivatives(g, t, "same")
        diff = susceptibility_derivatives(g, t, "single")
        combo = lambda d: abs((d.dA1 - d.dA2 + 2 * d.dC).imag)
        ratio = combo(same) / combo(diff)
        # closed forms at cos=1, sin=0: (1+g^2)(1+g)^2 * (3/2) chi t over
        # the single-mode bracket (1 + 3g^2/2 + g^4/2 + 2g + g^3) chi t
        expected = ((1 + g * g) * (1 + g) ** 2 * 1.5) \
            / (1 + 1.5 * g * g + g ** 4 / 2 + 2 * g + g ** 3)
        assert ratio == pytest.approx(expected, rel=1e-10)


def test_perturbed_basis_residuals_scale_quadratically():
    g = 0.9
    chi3 = (1 - g * g) ** 1.5
    eps_values = np.array([1e-4, 1e-3, 1e-2]) * chi3
    residuals = [max(perturbed_basis_residuals(g, e, 1.5 * e)) for e in eps_values]
    ratios = [residuals[i + 1] / residuals[i] for i in range(2)]
    for r in ratios:
        assert r == pytest.approx(100.0, rel=0.2)
