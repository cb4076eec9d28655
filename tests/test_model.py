import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsensor import (ConfigurationError, RegimeError, SystemConfig,
                      build_system, check_irreducibility, check_symmetries,
                      ep3_sensor, ep4_locus, ep4_system, observable,
                      perturbed_eigenvalues_analytic, puiseux_fit,
                      susceptibility, susceptibility_derivatives)
from epsensor.model import _reduced_matrices
from epsensor.scenarios import _sweep_setters
from epsensor.spectral import _puiseux_perturbed, eigensolve

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


def _atleast_1d_fields(n, m, g, kappa=(), delta=(), epsilon=(), alpha=()):
    """The field normalisation SystemConfig had before it skipped numpy for
    lists and tuples (a frozen copy): each field through np.atleast_1d, an
    empty delta, epsilon or alpha zero on every magnon."""
    g = tuple(float(x) for x in np.atleast_1d(g))
    kappa = tuple(float(x) for x in np.atleast_1d(kappa))
    delta = delta if len(np.atleast_1d(delta)) else (0.0,) * (n - 1)
    epsilon = epsilon if len(np.atleast_1d(epsilon)) else (0.0,) * (n - 1)
    alpha = alpha if len(np.atleast_1d(alpha)) else (0.0,) * (n - 1)
    return (g, kappa, tuple(float(x) for x in np.atleast_1d(delta)),
            tuple(float(x) for x in np.atleast_1d(epsilon)),
            tuple(complex(x) for x in np.atleast_1d(alpha)))


def _fields_or_error(build, **kwargs):
    """The normalised fields (as repr, so signed zeros and types count) or
    the type and text of the error `build` raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return repr(build(**kwargs))
    except Exception as exc:
        return type(exc).__name__, str(exc)


ACCEPTED_INPUTS = {
    "scalars": dict(n=2, m=1, g=0.5, delta=-0.0, epsilon=1, alpha=2j),
    "lists": dict(n=3, m=1, g=[1], kappa=[1.0], delta=[0.1, -0.0], epsilon=[0, 1e-9],
                  alpha=[1j, -1j]),
    "tuples": dict(n=4, m=2, g=(1.1, 0.2), kappa=(1.0,), delta=(0.8, 0.03, -0.85),
                   alpha=(1, 2.5, -3j)),
    "arrays": dict(n=3, m=2, g=np.array([0.7, 0.3]), delta=np.array([0.0, -0.0]),
                   epsilon=np.array([1e-6, 2e-6]), alpha=np.array([1j, 2 - 1j])),
    "numpy scalars": dict(n=2, m=1, g=np.float64(0.9), delta=np.float32(0.1),
                          epsilon=np.int64(0), alpha=np.complex128(1 + 1j)),
    "numpy entries": dict(n=3, m=1, g=[np.float32(0.1)], kappa=(np.int64(1),),
                          delta=[np.float64(0.5), 0.25], alpha=(np.complex64(1j), 0)),
    "empty defaults": dict(n=5, m=2, g=[1.0, 0.5], kappa=[1.0, 0.25]),
    "empty arrays": dict(n=3, m=1, g=[1.0], kappa=[1.0], delta=np.array([]),
                         epsilon=[], alpha=()),
    "strings": dict(n=2, m=1, g="0.5", delta=["0.25"], alpha=["1+2j"]),
    "large integers": dict(n=2, m=1, g=[2 ** 70], delta=10 ** 30),
}

REFUSED_INPUTS = {
    "g too long": dict(n=3, m=1, g=[1.0, 2.0], kappa=[1.0]),
    "kappa missing": dict(n=3, m=1, g=[1.0]),
    "delta too short": dict(n=3, m=1, g=[1.0], kappa=[1.0], delta=[0.1]),
    "alpha too long": dict(n=2, m=1, g=[1.0], alpha=[1j, 2j]),
    "a matrix": dict(n=3, m=1, g=[[1.0]], kappa=[1.0]),
    "a 2-d array": dict(n=3, m=1, g=[1.0], kappa=[1.0], delta=np.zeros((1, 2))),
    "a complex coupling": dict(n=2, m=1, g=[1 + 0j]),
    "a complex numpy coupling": dict(n=2, m=1, g=np.complex128(1)),
    "a word": dict(n=2, m=1, g=["strong"]),
    "None": dict(n=2, m=1, g=[None]),
    "ragged": dict(n=3, m=1, g=[1.0], kappa=[1.0], delta=[0.1, [0.2]]),
}


@pytest.mark.parametrize("kwargs", ACCEPTED_INPUTS.values(), ids=ACCEPTED_INPUTS)
def test_accepted_inputs_normalise_as_numpy_reads_them(kwargs):
    def build(**kw):
        cfg = SystemConfig(**kw)
        return cfg.g, cfg.kappa, cfg.delta, cfg.epsilon, cfg.alpha

    assert _fields_or_error(build, **kwargs) == _fields_or_error(_atleast_1d_fields, **kwargs)
    assert isinstance(_fields_or_error(build, **kwargs), str)


def test_accepted_inputs_pinned():
    cfg = SystemConfig(**ACCEPTED_INPUTS["scalars"])
    assert repr((cfg.g, cfg.delta, cfg.epsilon, cfg.alpha)) == "((0.5,), (-0.0,), (1.0,), (2j,))"
    cfg = SystemConfig(**ACCEPTED_INPUTS["empty defaults"])
    assert (cfg.delta, cfg.epsilon, cfg.alpha) == ((0.0,) * 4, (0.0,) * 4, (0j,) * 4)
    assert all(type(x) is complex for x in cfg.alpha)
    cfg = SystemConfig(**ACCEPTED_INPUTS["numpy entries"])
    assert cfg.g == (0.10000000149011612,) and type(cfg.kappa[0]) is float


@pytest.mark.parametrize("kwargs", REFUSED_INPUTS.values(), ids=REFUSED_INPUTS)
def test_refused_inputs_raise_as_before(kwargs):
    def build(**kw):
        return SystemConfig(**kw)

    def before(**kw):
        # the length checks, after normalisation, as SystemConfig makes them
        g, kappa, delta, epsilon, alpha = _atleast_1d_fields(**kw)
        n, m = kw["n"], kw["m"]
        if len(g) != m:
            raise ConfigurationError(f"g must have length m={m}, got {len(g)}")
        if len(kappa) != n - m - 1:
            raise ConfigurationError(
                f"kappa must have length n-m-1={n - m - 1}, got {len(kappa)}")
        for name, value in (("delta", delta), ("epsilon", epsilon), ("alpha", alpha)):
            if len(value) != n - 1:
                raise ConfigurationError(
                    f"{name} must have length n-1={n - 1}, got {len(value)}")
        return "accepted"

    error = _fields_or_error(build, **kwargs)
    assert error == _fields_or_error(before, **kwargs)
    assert isinstance(error, tuple)


NON_FINITE = {
    "g": dict(g=[math.nan]),
    "kappa": dict(kappa=[math.inf]),
    "delta": dict(delta=(math.inf, 0.0)),
    "epsilon": dict(epsilon=(0.0, -math.inf)),
    "gamma": dict(gamma=math.nan),
    "Gamma": dict(Gamma=math.inf),
    "alpha": dict(alpha=(complex(0.0, math.nan), 0j)),
}


@pytest.mark.parametrize("field", NON_FINITE)
def test_non_finite_fields_are_refused_by_name(field):
    kwargs = {**dict(n=3, m=1, g=[0.9], kappa=[1.0]), **NON_FINITE[field]}
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
        SystemConfig(**kwargs)


def test_non_finite_negative_values_keep_their_sign_error():
    with pytest.raises(ConfigurationError, match="coupling strengths must be >= 0"):
        SystemConfig(n=3, m=1, g=[-math.inf], kappa=[1.0])
    with pytest.raises(ConfigurationError, match="decay rates must be >= 0"):
        SystemConfig(n=3, m=1, g=[1.0], kappa=[1.0], gamma=-math.inf)


def _reduced_matrix(config):
    """The reduced matrix entry by entry (a frozen copy of the scalar
    builder the stacked one replaced)."""
    n, m = config.n, config.m
    dp = config.detuning_eff
    h = np.zeros((n, n), dtype=complex)
    couplings = list(config.g) + list(config.kappa)
    for i in range(n - 1):
        sign = 1.0 if i < m else -1.0
        h[i, i] = sign * dp[i] - 1j * config.Gamma
        h[i, n - 1] = sign * couplings[i]
        h[n - 1, i] = -couplings[i]
    h[n - 1, n - 1] = -1j * config.gamma
    return h


def _random_configs(rng, n, count):
    """Configurations of size n with mixed m, lossless and lossy, zero and
    signed-zero detunings and zero couplings."""
    configs = []
    for k in range(count):
        m = int(rng.integers(1, n))
        zeros = rng.choice([0.0, -0.0], size=(2, n - 1))
        detunings = np.where(rng.random((2, n - 1)) < 0.5, zeros, rng.normal(size=(2, n - 1)))
        couplings = np.where(rng.random(n - 1) < 0.2, 0.0, rng.uniform(0, 2, n - 1))
        lossy = k % 2
        configs.append(SystemConfig(
            n=n, m=m, g=couplings[:m], kappa=couplings[m:], delta=detunings[0],
            epsilon=detunings[1], gamma=lossy * rng.choice([0.0, rng.uniform(0, 0.2)]),
            Gamma=lossy * rng.choice([0.0, rng.uniform(0, 0.02)])))
    return configs


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_reduced_matrices_are_bit_identical(rng, n):
    configs = _random_configs(rng, n, 40)
    assert len({c.m for c in configs}) == n - 1 or n == 2
    assert any(c.lossless for c in configs) and not all(c.lossless for c in configs)
    stack = _reduced_matrices(configs)
    assert stack.shape == (len(configs), n, n)
    for config, h in zip(configs, stack):
        assert h.tobytes() == _reduced_matrix(config).tobytes()
        assert build_system(config).reduced.tobytes() == h.tobytes()


def test_stacked_reduced_matrices_keep_signed_zeros():
    config = SystemConfig(n=3, m=1, g=[0.0], kappa=[0.0], delta=(-0.0, 0.0),
                          epsilon=(-0.0, -0.0))
    h = _reduced_matrices([config])[0]
    assert h.tobytes() == _reduced_matrix(config).tobytes()
    # detunings -0.0 + -0.0 and -(0.0 + -0.0), the last row's -coupling and
    # -1j * gamma on the cavity are -0.0; -1j * Gamma on a magnon is +0.0j
    signs = [math.copysign(1.0, x) for x in
             (h[0, 0].real, h[1, 1].real, h[2, 0].real, h[2, 2].imag, h[0, 0].imag)]
    assert signs == [-1.0, -1.0, -1.0, -1.0, 1.0]


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


class TestDerivedConfigurations:
    """A configuration derived from another (a shift, added losses, a
    Puiseux perturbation, a sweep point) has the fields and raises the
    errors of dataclasses.replace."""

    @staticmethod
    def _derivations(cfg):
        """(derived, the same change through dataclasses.replace)."""
        eps = cfg.epsilon
        pairs = [
            (cfg.shifted(1e-4, "same"),
             dataclasses.replace(cfg, epsilon=tuple(e + 1e-4 for e in eps))),
            (cfg.shifted(-1e-6, "single"),
             dataclasses.replace(cfg, epsilon=(eps[0] - 1e-6,) + eps[1:])),
            (cfg.with_losses(0.1, 0.01), dataclasses.replace(cfg, gamma=0.1, Gamma=0.01)),
            (_puiseux_perturbed(cfg, 1e-6, "coupling"),
             dataclasses.replace(cfg, g=(cfg.g[0] - 1e-6,) + cfg.g[1:])),
            (_puiseux_perturbed(cfg, 1e-6, "same"),
             dataclasses.replace(cfg, epsilon=tuple(e - 1e-6 for e in eps))),
        ]
        setters = _sweep_setters(cfg)
        for name, value, changes in (
                ("g1", 0.5, {"g": (0.5,) + cfg.g[1:]}),
                ("kappa1", 0.7, {"kappa": (0.7,)}),
                ("delta1", 0.3, {"delta": (0.3,) + cfg.delta[1:]}),
                ("epsilon2", 2e-3, {"epsilon": (eps[0], 2e-3) + eps[2:]}),
                ("eps_same", 2e-3, {"epsilon": (2e-3,) * len(eps)}),
                ("gamma", 0.2, {"gamma": 0.2}),
                ("Gamma", 0.02, {"Gamma": 0.02})):
            pairs.append((setters[name](cfg, value), dataclasses.replace(cfg, **changes)))
        return pairs

    @pytest.mark.parametrize("cfg", [ep3_sensor(0.95, alpha=2.0, eps1=1e-3, eps2=-2e-3),
                                     ep4_system(0.2, eps=1e-5, alpha=1.0)], ids=["ep3", "ep4"])
    def test_each_derivation_is_replace_field_for_field(self, cfg):
        for derived, expected in self._derivations(cfg):
            assert type(derived) is SystemConfig
            assert vars(derived) == vars(expected)
            for field in dataclasses.fields(SystemConfig):
                a, b = getattr(derived, field.name), getattr(expected, field.name)
                assert type(a) is type(b), field.name

    def test_a_negative_rate_raises_as_replace_does(self):
        cfg = ep3_sensor(0.95)
        with pytest.raises(ConfigurationError) as expected:
            dataclasses.replace(cfg, gamma=-0.1)
        for derive in (lambda: cfg.with_losses(-0.1, 0.0),
                       lambda: _sweep_setters(cfg)["gamma"](cfg, -0.1)):
            with pytest.raises(ConfigurationError) as err:
                derive()
            assert str(err.value) == str(expected.value) == "decay rates must be >= 0"
