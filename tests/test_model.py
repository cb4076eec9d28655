import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsensor import (ConfigurationError, RegimeError, SystemConfig,
                      build_system, check_irreducibility, check_symmetries,
                      ep3_sensor, ep4_locus, ep4_system, observable,
                      perturbed_eigenvalues_analytic, puiseux_fit,
                      susceptibility, susceptibility_derivatives)
from epsensor.spectral import eigensolve

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


def test_reduced_matrix_three_mode_pattern():
    cfg = SystemConfig(n=3, m=1, g=[0.7], kappa=[1.0], epsilon=(0.01, 0.02))
    h = build_system(cfg).reduced
    expected = np.array([[0.01, 0, 0.7], [0, -0.02, -1.0], [-0.7, -1.0, 0]])
    assert np.allclose(h, expected, atol=1e-15)


def test_reduced_matrix_two_mode():
    cfg = SystemConfig(n=2, m=1, g=[0.6])
    h = build_system(cfg).reduced
    assert np.allclose(h, [[0, 0.6], [-0.6, 0]], atol=1e-15)


def test_loss_enters_diagonal_only():
    cfg = SystemConfig(n=3, m=1, g=[0.95], kappa=[1.0], gamma=0.1, Gamma=0.01)
    h = build_system(cfg).reduced
    assert np.allclose(np.diag(h), [-0.01j, -0.01j, -0.1j], atol=1e-15)
    lossless = build_system(cfg.with_losses(0.0, 0.0)).reduced
    off = h - np.diag(np.diag(h))
    assert np.allclose(off, lossless - np.diag(np.diag(lossless)), atol=1e-15)


def test_mode_order_labels():
    dm = build_system(SystemConfig(n=4, m=2, g=[1.0, 0.2], kappa=[1.0]))
    assert dm.mode_order == ("b1", "b2", "b3+", "a+")
    assert dm.full_order[:4] == ("b1", "b1+", "b2", "b2+")


@pytest.mark.parametrize("kwargs", [
    dict(n=1, m=1, g=[1.0]),
    dict(n=3, m=0, g=[]),
    dict(n=3, m=3, g=[1, 1, 1]),
    dict(n=3, m=1, g=[1.0, 2.0], kappa=[1.0]),
    dict(n=3, m=1, g=[1.0], kappa=[]),
    dict(n=3, m=1, g=[1.0], kappa=[1.0], delta=(0.0,)),
    dict(n=3, m=1, g=[-0.5], kappa=[1.0]),
    dict(n=3, m=1, g=[0.5], kappa=[1.0], gamma=-0.1),
])
def test_config_validation_errors(kwargs):
    with pytest.raises(ConfigurationError):
        SystemConfig(**kwargs)


def test_symmetries_lossless_exact():
    cfg = SystemConfig(n=3, m=1, g=[1.0], kappa=[1.0])
    rep = check_symmetries(build_system(cfg))
    assert rep.particle_hole < 1e-14
    assert rep.pseudo_hermiticity < 1e-14


def test_symmetries_lossy_residual_is_twice_the_rate():
    cfg = SystemConfig(n=3, m=1, g=[0.95], kappa=[1.0], gamma=0.1)
    rep = check_symmetries(build_system(cfg))
    assert rep.pseudo_hermiticity == pytest.approx(0.2, abs=1e-15)


def test_symmetries_ep4_lossless():
    rep = check_symmetries(build_system(ep4_system(0.2)))
    assert rep.particle_hole < 1e-14
    assert rep.pseudo_hermiticity < 1e-14


@given(data=st.data())
@settings(max_examples=100)
def test_symmetries_hold_for_random_lossless_configs(data):
    n = data.draw(st.integers(2, 6))
    m = data.draw(st.integers(1, n - 1))
    fl = st.floats(-2.0, 2.0, allow_nan=False)
    pos = st.floats(0.0, 2.0, allow_nan=False)
    cfg = SystemConfig(
        n=n, m=m,
        g=tuple(data.draw(pos) for _ in range(m)),
        kappa=tuple(data.draw(pos) for _ in range(n - m - 1)),
        delta=tuple(data.draw(fl) for _ in range(n - 1)),
        epsilon=tuple(data.draw(fl) for _ in range(n - 1)))
    rep = check_symmetries(build_system(cfg))
    assert rep.particle_hole < 1e-13
    assert rep.pseudo_hermiticity < 1e-13


def test_full_spectrum_is_reduced_plus_mirror(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        cfg = SystemConfig(n=n, m=m, g=rng.uniform(0, 1.5, m),
                           kappa=rng.uniform(0.2, 1.5, n - m - 1),
                           delta=rng.uniform(-1, 1, n - 1))
        dm = build_system(cfg)
        red = eigensolve(cfg).eigenvalues
        full = eigensolve(dm.full).eigenvalues
        expected = np.concatenate([red, -np.conj(red)])
        worst = max(min(abs(f - e) for e in expected) for f in full)
        assert worst < 1e-8


class TestIrreducibility:
    def test_distinct_perturbations_pass(self):
        cfg = SystemConfig(n=3, m=1, g=[1.0], kappa=[1.0],
                           epsilon=(1e-3, 1.5e-3))
        assert check_irreducibility(cfg).passed

    def test_opposite_perturbations_fail_with_pair(self):
        cfg = SystemConfig(n=3, m=1, g=[1.2], kappa=[1.0],
                           epsilon=(0.01, -0.01))
        rep = check_irreducibility(cfg)
        assert not rep.passed
        assert rep.violations == ((1, 2),)

    def test_single_magnon_passes_vacuously(self):
        assert check_irreducibility(SystemConfig(n=2, m=1, g=[0.5])).passed

    def test_same_type_equal_detunings_fail(self):
        cfg = SystemConfig(n=4, m=2, g=[1.0, 0.2], kappa=[1.0],
                           delta=(0.3, 0.3, -0.1))
        rep = check_irreducibility(cfg)
        assert not rep.passed
        assert (1, 2) in rep.violations

    def test_tolerance_widens_matches(self):
        cfg = SystemConfig(n=3, m=1, g=[1.0], kappa=[1.0],
                           epsilon=(1e-3, -1e-3 + 1e-9))
        assert check_irreducibility(cfg).passed
        assert not check_irreducibility(cfg, tol=1e-8).passed


class TestEP4Locus:
    def test_f02_values(self):
        locus = ep4_locus(0.2)
        assert locus.delta1 == pytest.approx(0.8845, abs=5e-5)
        assert locus.delta2 == pytest.approx(0.0340, abs=5e-5)
        assert locus.delta3 == pytest.approx(-0.8505, abs=5e-5)
        assert locus.g == pytest.approx(1.1499, abs=5e-5)

    def test_small_f_limit_recovers_triple_point(self):
        locus = ep4_locus(1e-9)
        assert abs(locus.delta1) < 1e-8
        assert abs(locus.delta2) < 1e-8
        assert abs(locus.delta3) < 1e-8
        assert locus.g == pytest.approx(1.0, abs=1e-8)

    def test_f05_closed_forms_and_coalescence(self):
        # oracle: the quartic at the closed-form point has a genuine
        # four-fold root (numerically verified through cluster collapse)
        locus = ep4_locus(0.5)
        den = 0.75 ** 1.5
        assert locus.delta1 == pytest.approx(4 * 0.5 * 1.25 / den, rel=1e-12)
        assert locus.delta2 == pytest.approx(4 * 0.125 / den, rel=1e-12)
        assert locus.delta3 == pytest.approx(-2.0 / den, rel=1e-12)
        assert locus.g == pytest.approx(1.25 ** 2 / den, rel=1e-12)
        spec = eigensolve(ep4_system(0.5), cluster_radius=1e-5)
        assert spec.ep_order == 4
        assert np.abs(spec.eigenvalues - locus.eigenvalue).max() < 1e-6

    @pytest.mark.parametrize("f", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_locus_spectra_coalesce_across_f(self, f):
        locus = ep4_locus(f)
        spec = eigensolve(ep4_system(f), cluster_radius=1e-5)
        assert spec.ep_order == 4
        assert np.abs(spec.eigenvalues - locus.eigenvalue).max() < 1e-6

    @pytest.mark.parametrize("f", [0.0, 1.0, -0.2, 1.3])
    def test_domain_errors(self, f):
        with pytest.raises(RegimeError):
            ep4_locus(f)


class TestSensedPerturbation:
    def test_shifted_adds_eps_along_the_direction(self):
        cfg = ep3_sensor(0.95, eps1=1e-3, eps2=2e-3)
        assert cfg.shifted(1e-4, "same").epsilon == (1e-3 + 1e-4, 2e-3 + 1e-4)
        assert cfg.shifted(1e-4, "single").epsilon == (1e-3 + 1e-4, 2e-3)
        ep4 = ep4_system(0.2)
        assert ep4.shifted(-1e-6, "same").epsilon == (-1e-6,) * 3
        assert ep4.shifted(-1e-6, "single").epsilon == (-1e-6, 0.0, 0.0)
        assert ep4.shifted(-1e-6, "same").delta == ep4.delta

    @pytest.mark.parametrize("direction", ["different", "sideways"])
    def test_an_unknown_direction_is_a_configuration_error(self, direction):
        cfg = ep3_sensor(1.0)
        calls = [
            lambda: cfg.shifted(1e-6, direction),
            lambda: puiseux_fit(cfg, np.logspace(-9, -5, 17), direction),
            lambda: susceptibility(ep3_sensor(0.95, alpha=2.0), observable("X1-X2", 3),
                                   10.0, mode=direction),
            lambda: perturbed_eigenvalues_analytic(1e-6, direction),
            lambda: susceptibility_derivatives(0.95, 10.0, direction),
        ]
        for call in calls:
            with pytest.raises(ConfigurationError, match="direction"):
                call()
