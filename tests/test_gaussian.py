import dataclasses
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epsensor
from epsensor import (ConfigurationError, GaussianState, NumericalError,
                      SystemConfig, apply_external_loss, bloch_messiah_2mode,
                      build_system, coherent_init, collective_rate, ep3_sensor,
                      evolve, evolve_lossy, excitation_numbers, propagator,
                      readout_swap, symplectic_form, total_excitation,
                      two_mode_squeezer_coefficients, vacuum_state)
from epsensor import ep4_locus, ep4_system, gaussian, metrology
from epsensor.gaussian import (drift_and_diffusion, evolve_lossy_trace,
                               two_mode_quadrature_map)
from epsensor.metrology import (peak_total_excitation, scaling_fit, sensitivity,
                                susceptibility, x_minus)
from epsensor.perturb import exact_propagator_coefficients
from epsensor.scenarios import parse_scenario, run_scenario
from mp_reference import quadrature_drift

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


class TestSymplecticForm:
    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_built_once_per_size_and_read_only(self, n):
        om = symplectic_form(n)
        assert np.array_equal(om, np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]])))
        assert symplectic_form(n) is om and not om.flags.writeable
        with pytest.raises(ValueError):
            om[0, 1] = 2.0
        assert np.array_equal(metrology._kron_omega(n), np.kron(om, om))


class TestStates:
    def test_coherent_init_imaginary_pair(self):
        cfg = ep3_sensor(0.95, alpha=2.0)
        st0 = coherent_init(cfg)
        expected = np.array([0, 2 * np.sqrt(2), 0, -2 * np.sqrt(2), 0, 0])
        assert np.allclose(st0.mu, expected, atol=1e-15)
        assert np.allclose(st0.cov, np.eye(6) / 2, atol=1e-15)

    def test_vacuum(self):
        cfg = SystemConfig(n=3, m=1, g=[0.5], kappa=[1.0])
        st0 = coherent_init(cfg)
        assert np.all(st0.mu == 0)
        assert np.allclose(st0.cov, np.eye(6) / 2)

    def test_real_amplitude_lands_on_x(self):
        cfg = SystemConfig(n=2, m=1, g=[0.5], alpha=(1.0,))
        st0 = coherent_init(cfg)
        assert st0.mu[0] == pytest.approx(np.sqrt(2))
        assert st0.mu[1] == 0


class TestPropagator:
    def test_identity_at_zero_time(self):
        P = propagator(ep3_sensor(0.9), 0.0)
        assert np.abs(P.S_quad - np.eye(6)).max() < 1e-14

    def test_identity_at_working_point(self):
        cfg = ep3_sensor(0.95)
        t = 2 * np.pi / collective_rate(cfg)
        P = propagator(cfg, t)
        assert P.method == "eigen"
        assert np.abs(P.S_quad - np.eye(6)).max() < 1e-10

    def test_defective_point_matches_taylor_series(self):
        # at the triple point the generator is nilpotent (H^3 = 0, so A^3 = 0
        # for the quadrature drift), so the exponential truncates exactly:
        # the series is the oracle
        cfg = ep3_sensor(1.0)
        H = build_system(cfg).reduced
        assert np.abs(H @ H @ H).max() == 0
        A = drift_and_diffusion(cfg)[0]
        for t in (0.5, 1.0, 3.7):
            P = propagator(cfg, t)
            series = np.eye(6) + A * t + A @ A * t * t / 2
            assert P.method == "expm"
            assert np.abs(P.S_quad - series).max() < 1e-12
            assert not P.Q.any()

    def test_import_leaves_scipy_linalg_unloaded(self):
        # scipy.linalg is imported only on the nearly defective fallback
        src = os.path.dirname(os.path.dirname(epsensor.__file__))
        path = (src, os.environ.get("PYTHONPATH", ""))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        code = "import sys, epsensor; print('scipy.linalg' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("cfg, t, rate", [
        (ep3_sensor(1 - 1e-6, eps1=1e-3, eps2=1e-3), 1e4, "max Re(-i lambda) = 0.109"),
        (ep3_sensor(1 + 1e-9), 1e8, "max Re(-i lambda) = 4.47214e-05"),   # cond ~ 2e9
    ], ids=["eigen-unstable", "expm-long-time"])
    def test_non_finite_map_raises(self, cfg, t, rate):
        # past the exceptional point a pair of modes grows like
        # exp(Re(-i lambda) t), which overflows at long times on either branch;
        # a stack names its first time whose map is not finite
        for times in (t, [1.0, t, 2.0 * t]):
            with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
                propagator(cfg, times)
            assert f"propagator not finite at t = {t:g}:" in str(err.value)
            assert rate in str(err.value)

    @given(g=st.floats(0.3, 0.99), t=st.floats(0.0, 50.0))
    @settings(max_examples=40)
    def test_lossless_map_is_symplectic(self, g, t):
        assert propagator(ep3_sensor(g), t).symplectic_residual() < 1e-10


def _sensed_dH(cfg):
    return (build_system(cfg.shifted(1.0, "same")).reduced
            - build_system(cfg.shifted(-1.0, "same")).reduced) / 2.0


class TestStackedPropagator:
    """An array of times gives the per-time maps stacked, bit for bit."""

    @pytest.mark.parametrize("cfg, t", [
        (ep3_sensor(0.95, alpha=2.0, eps1=1e-3, eps2=-2e-3), 40.0),
        (ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01), 140.0),
        (ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.0), 140.0),   # l_i + l_j = 0
        (ep3_sensor(1 - 1e-9, alpha=2.0), 50.0),
        (ep3_sensor(1 - 1e-10, alpha=2.0, gamma=0.01, Gamma=0.01), 50.0),
        (SystemConfig(n=3, m=2, g=(0.2, 0.3), delta=(1.0, 1.3), alpha=(1.5, 0.5j)), 30.0),
        (ep4_system(0.2, g1=ep4_locus(0.2).g - 1e-4, alpha=2.0), 100.0),
    ], ids=["lossless", "lossy", "lossy-dark-mode", "expm", "expm-lossy", "m2", "ep4"])
    def test_a_stack_is_the_per_time_calls(self, cfg, t):
        times = np.concatenate([[0.0, 0.1], np.linspace(0.3, t, 15)])
        stacked = propagator(cfg, times)
        dec, dH = gaussian._decompose(cfg), _sensed_dH(cfg)
        dS = dec.derivative(times, dH)
        assert stacked.S_quad.shape == stacked.Q.shape == dS.shape == (len(times), 2 * cfg.n,
                                                                        2 * cfg.n)
        assert stacked.method == dec.method
        for i, ti in enumerate(times):
            single = propagator(cfg, ti)
            assert np.array_equal(stacked.S_quad[i], single.S_quad)
            assert np.array_equal(stacked.Q[i], single.Q)
            assert np.array_equal(dS[i], dec.derivative(ti, dH))

    def test_a_trace_evolves_each_time_as_its_own_call(self):
        cfg = ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01)
        times = np.linspace(0.5, 140.0, 12)
        state0 = coherent_init(cfg)
        for ti, state in zip(times, evolve_lossy_trace(state0, cfg, times)):
            single = evolve(state0, propagator(cfg, ti))
            assert np.array_equal(state.mu, single.mu) and np.array_equal(state.cov, single.cov)

    def test_the_symplectic_residual_of_a_stack_is_its_largest(self):
        cfg = ep3_sensor(0.95)
        times = np.linspace(0.0, 60.0, 9)
        residuals = [propagator(cfg, ti).symplectic_residual() for ti in times]
        assert propagator(cfg, times).symplectic_residual() == max(residuals)
        assert max(residuals) > 0

    def test_evolve_refuses_a_stack(self):
        cfg = ep3_sensor(0.9)
        with pytest.raises(ConfigurationError, match=r"propagator dimension \(3, 6, 6\) "
                                                     r"does not match state \(6\)"):
            evolve(coherent_init(cfg), propagator(cfg, [0.5, 1.0, 1.5]))


class TestStackedMaps:
    """gaussian._maps: the maps of several decompositions at once, each bit
    for bit, in value and memory layout, its own at(times)."""

    def test_a_mixed_stack_is_each_row_at_its_times(self):
        configs = [ep3_sensor(0.95, alpha=2.0), ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01),
                   ep3_sensor(1 - 1e-9, alpha=2.0), ep3_sensor(0.9, alpha=2.0)]
        times = np.array([0.0, 0.4, 17.0, 140.0])
        decs = gaussian._decompose(configs)
        assert [dec.method for dec in decs] == ["eigen", "eigen", "expm", "eigen"]
        for (S, Q), dec in zip(gaussian._maps(decs, times), decs):
            single = dec.at(times)
            assert np.array_equal(S, single.S_quad) and S.strides == single.S_quad.strides
            assert np.array_equal(Q, single.Q)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_a_lossless_eigen_stack_is_one_pass_and_each_row_at_its_times(self, eps, monkeypatch):
        # the configured state and its +-h near the EP, as a QFI stacks them
        configs = [ep3_sensor(0.999, alpha=2.0, eps1=eps + d) for d in (1e-6, -1e-6, 0.0)]
        times = np.array([0.0, 0.4, 17.0, 140.0])
        decs = gaussian._decompose(configs)
        assert all(dec.method == "eigen" and dec.W is None for dec in decs)
        singles = [dec.at(times) for dec in decs]
        monkeypatch.setattr(gaussian._Decomposition, "at",
                            lambda self, t: pytest.fail("a lossless eigen stack called at"))
        for (S, Q), single in zip(gaussian._maps(decs, times), singles):
            assert np.array_equal(S, single.S_quad) and S.strides == single.S_quad.strides
            assert np.array_equal(Q, single.Q)

    @pytest.mark.parametrize("lossy", [False, True])
    def test_the_first_failing_row_raises_its_own_error(self, lossy):
        # two unstable rows overflow at t = 1e4; whichever comes first in the
        # stack names its own growth rate, whether the stack is all lossless
        # eigen rows (one pass, redone row by row) or not (row by row)
        unstable = ep3_sensor(1 - 1e-6, eps1=1e-3, eps2=1e-3)
        other = unstable.with_losses(0.01, 0.0) if lossy else ep3_sensor(1 - 1e-6, eps1=2e-3,
                                                                          eps2=2e-3)
        decs = gaussian._decompose([ep3_sensor(0.95), unstable, other])
        rates = ("0.109105", "0.105848" if lossy else "0.137462")
        for order, rate in (([0, 1, 2], rates[0]), ([0, 2, 1], rates[1])):
            with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
                gaussian._maps([decs[i] for i in order], [1.0, 1e4, 2e4])
            assert str(err.value) == ("eigen propagator not finite at t = 10000: largest "
                                      f"growth rate max Re(-i lambda) = {rate}")


class TestStackedDecomposition:
    """A stack of configurations gives each row's _Decomposition bit for
    bit, field by field and map by map, as its own cold stack of one."""

    @pytest.mark.parametrize("configs", [
        [ep3_sensor(0.95, alpha=2.0),
         ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01),
         ep3_sensor(1 - 1e-9, alpha=2.0)],                        # expm branch
        [ep4_system(0.2, g1=ep4_locus(0.2).g - s, alpha=2.0) for s in (1e-2, 1e-6, 1e-12)],
    ], ids=["n3-lossless-lossy-expm", "n4-ep4"])
    def test_a_stack_is_bit_for_bit_its_rows(self, configs):
        gaussian._MEMO.clear()
        stacked = gaussian._decompose(configs)
        assert {dec.method for dec in stacked} == {"eigen", "expm"}
        times, dH = np.array([0.5, 7.0, 40.0]), _sensed_dH(configs[0])
        for cfg, dec in zip(configs, stacked):
            gaussian._MEMO.clear()
            single = gaussian._decompose(cfg)
            for field in dataclasses.fields(single):
                a, b = getattr(dec, field.name), getattr(single, field.name)
                assert (a is None and b is None) or np.array_equal(a, b), field.name
            assert np.array_equal(dec.at(times).S_quad, single.at(times).S_quad)
            assert np.array_equal(dec.at(times).Q, single.at(times).Q)
            assert np.array_equal(dec.derivative(times, dH), single.derivative(times, dH))
        gaussian._MEMO.clear()

    def test_a_repeated_configuration_is_solved_once(self, monkeypatch):
        cfg, other = ep3_sensor(0.95, alpha=2.0), ep3_sensor(0.9, alpha=2.0)
        gaussian._MEMO.clear()
        first = gaussian._decompose(cfg)
        stacks = []
        solve = gaussian.eigensolve
        monkeypatch.setattr(gaussian, "eigensolve",
                            lambda configs: stacks.append(configs) or solve(configs))
        decs = gaussian._decompose([other, cfg, other])
        assert stacks == [[other]]
        assert decs[0] is decs[2] and decs[1] is first
        gaussian._MEMO.clear()


class TestEvolve:
    def test_identity_propagator(self):
        cfg = ep3_sensor(0.95, alpha=2.0)
        st0 = coherent_init(cfg)
        out = evolve(st0, propagator(cfg, 0.0))
        assert np.allclose(out.mu, st0.mu)
        assert np.allclose(out.cov, st0.cov)

    def test_noise_antisqueezed_at_half_period(self):
        cfg = ep3_sensor(0.95, alpha=2.0)
        chi = collective_rate(cfg)
        st = evolve(coherent_init(cfg), propagator(cfg, np.pi / chi))
        c = np.array([1.0, 0, -1.0, 0, 0, 0])
        assert c @ st.cov @ c == pytest.approx(1521.0, abs=1e-8)

    def test_noise_returns_to_unity_at_working_point(self):
        cfg = ep3_sensor(0.95, alpha=2.0)
        chi = collective_rate(cfg)
        st = evolve(coherent_init(cfg), propagator(cfg, 2 * np.pi / chi))
        c = np.array([1.0, 0, -1.0, 0, 0, 0])
        assert c @ st.cov @ c == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        cfg = ep3_sensor(0.9)
        with pytest.raises(ConfigurationError):
            evolve(vacuum_state(2), propagator(cfg, 1.0))

    def test_purity_preserved(self, rng):
        cfg = ep3_sensor(0.9, alpha=2.0)
        for t in rng.uniform(0, 30, 10):
            st = evolve(coherent_init(cfg), propagator(cfg, t))
            assert st.purity_det() == pytest.approx(1.0, abs=1e-8)


def _mp_van_loan_state(cfg, t, dps=40):
    """Mean and covariance at time t from coherent_init, in mpmath: the
    quadrature drift A = T (-i H_full) T^+ of the full 2n x 2n dynamical
    matrix, D = rate * I per mode, and mp.expm of the Van Loan block
    [[-A, D], [0, A^T]] t = [[F11, F12], [0, F22]], so that the state map is
    mu -> F22^T mu, cov -> F22^T cov F22 + F22^T F12."""
    with mpmath.workdps(dps):
        A = quadrature_drift(build_system(cfg).full)
        m = A.rows
        rates = [cfg.Gamma] * (cfg.n - 1) + [cfg.gamma]
        block = mpmath.zeros(2 * m, 2 * m)
        for i in range(m):
            for j in range(m):
                block[i, j] = -A[i, j]
                block[m + i, m + j] = A[j, i]
            block[i, m + i] = rates[i // 2]
        F = mpmath.expm(block * t)
        Phi = F[m:, m:].T
        state0 = coherent_init(cfg)
        mu = Phi * mpmath.matrix(state0.mu.tolist())
        cov = Phi * mpmath.matrix(state0.cov.tolist()) * Phi.T + Phi * F[:m, m:]
        return (np.array(mu.tolist(), dtype=float).ravel(),
                np.array(cov.tolist(), dtype=float))


class TestLossyEvolution:
    def test_decoupled_vacuum_is_a_fixed_point(self):
        cfg = SystemConfig(n=3, m=1, g=[0.0], kappa=[0.0], Gamma=0.3,
                           gamma=0.2, delta=(0.4, -0.2))
        out = evolve_lossy(vacuum_state(3), cfg, 7.0)
        assert np.abs(out.cov - np.eye(6) / 2).max() < 1e-12
        assert np.abs(out.mu).max() == 0

    def test_lossless_limit_matches_exact_evolution(self):
        cfg = ep3_sensor(0.95, alpha=2.0)
        t = 10 * 2 * np.pi / collective_rate(cfg)
        exact = evolve(coherent_init(cfg), propagator(cfg, t))
        rk = evolve_lossy(coherent_init(cfg), cfg, t)
        assert np.abs(rk.mu - exact.mu).max() < 1e-8
        assert np.abs(rk.cov - exact.cov).max() < 1e-8

    def test_losses_add_noise_and_damp_susceptibility(self):
        from epsensor import observable, susceptibility
        lossy = ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01)
        t = 2 * np.pi / collective_rate(lossy)
        out = evolve_lossy(coherent_init(lossy), lossy, t)
        c = np.array([1.0, 0, -1.0, 0, 0, 0])
        assert c @ out.cov @ c > 1.0                    # injected noise
        obs = observable("X1-X2", 3)
        lossless = ep3_sensor(0.95, alpha=2.0)
        s_lossy = susceptibility(lossy, obs, t)
        s_free = susceptibility(lossless, obs,
                                2 * np.pi / collective_rate(lossless))
        assert s_lossy < s_free

    @pytest.mark.parametrize("g, Gamma", [
        (0.95, 0.01),
        (0.95, 0.0),      # undamped dark mode: l_i + l_j = 0 in the Van Loan sum
        (0.998, 0.01),    # cond(V) ~ 1.2e3 at t = 2 pi / chi ~ 141.5
    ])
    def test_matches_mpmath_van_loan_reference(self, g, Gamma):
        cfg = ep3_sensor(g, alpha=2.0, gamma=0.1, Gamma=Gamma)
        t = 2 * np.pi / collective_rate(cfg)
        mu, cov = _mp_van_loan_state(cfg, t)
        out = evolve_lossy(coherent_init(cfg), cfg, t)
        assert np.abs(out.mu - mu).max() <= 1e-10 * np.abs(mu).max()
        assert np.abs(out.cov - cov).max() <= 1e-10 * np.abs(cov).max()

    @pytest.mark.parametrize("cfg, t", [
        (ep3_sensor(1 - 1e-9, alpha=2.0), 5.0),                            # cond ~ 2e9
        (ep3_sensor(1 - 1e-10, alpha=2.0, gamma=0.01, Gamma=0.01), 5.0),   # cond ~ 2e10
        (ep3_sensor(1 - 1e-10, alpha=2.0, gamma=0.01, Gamma=0.01), 50.0),
    ], ids=["lossless-t5", "lossy-t5", "lossy-t50"])
    def test_nearly_defective_spectrum_takes_the_expm_fallback(self, cfg, t):
        # the eigen path errs by 1.9e-7 up to 5.4 (relative) on these inputs
        mu, cov = _mp_van_loan_state(cfg, t)
        P = propagator(cfg, t)
        assert P.method == "expm"
        out = evolve(coherent_init(cfg), P)
        assert np.abs(out.mu - mu).max() <= 1e-10 * np.abs(mu).max()
        assert np.abs(out.cov - cov).max() <= 1e-10 * np.abs(cov).max()

    @pytest.mark.parametrize("cfg, t, dps, tol", [
        # cond(V) ~ 2.3e9: the map is known to about cond(V) eps ~ 5e-7
        (ep3_sensor(1 - 1e-9, gamma=0.1), 1e3, 120, 5e-6),
        (ep3_sensor(1 - 1e-9, alpha=2.0, gamma=0.1, Gamma=0.01), 141.5, 60, 1e-10),
    ], ids=["gamma-t1e3", "Gamma-t141.5"])
    def test_fallback_is_accurate_and_physical_at_long_times(self, cfg, t, dps, tol):
        # exp(-A t) in the Van Loan block reaches e^100 at t = 1e3: the
        # reference needs dps 120 to resolve the cancellation in F22^T F12
        mu, cov = _mp_van_loan_state(cfg, t, dps)
        P = propagator(cfg, t)
        assert P.method == "expm"
        out = evolve(coherent_init(cfg), P)
        assert np.abs(out.mu - mu).max() <= tol * max(np.abs(mu).max(), 1.0)
        assert np.abs(out.cov - cov).max() <= tol * np.abs(cov).max()
        assert out.uncertainty_min_eigenvalue() >= -1e-12 * np.abs(cov).max()

    def test_diffusion_is_rate_per_mode(self):
        cfg = ep3_sensor(0.9, gamma=0.2, Gamma=0.05)
        _, D = drift_and_diffusion(cfg)
        assert np.allclose(np.diag(D), [0.05] * 4 + [0.2] * 2)
        assert np.abs(D - np.diag(np.diag(D))).max() == 0

    def test_uncertainty_preserved_under_loss(self):
        lossy = ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01)
        t = 2 * np.pi / collective_rate(lossy)
        out = evolve_lossy(coherent_init(lossy), lossy, t)
        assert out.uncertainty_min_eigenvalue() > -1e-10


class TestDecomposeOnce:
    @pytest.fixture
    def solves(self, monkeypatch):
        """(calls, stacks), counted from a cold memo: the configurations that
        gaussian and metrology solve, every stacked call flattened, and the
        configurations of each eigensolve call."""
        calls, stacks = [], []
        solve = gaussian.eigensolve

        def counted(system, *args, **kwargs):
            stack = list(system) if isinstance(system, (list, tuple)) else [system]
            calls.extend(stack)
            stacks.append(stack)
            return solve(system, *args, **kwargs)

        monkeypatch.setattr(gaussian, "eigensolve", counted)
        monkeypatch.setattr(metrology, "eigensolve", counted)
        gaussian._MEMO.clear()
        yield calls, stacks
        gaussian._MEMO.clear()

    @pytest.fixture
    def calls(self, solves):
        return solves[0]

    @pytest.fixture
    def stacks(self, solves):
        return solves[1]

    @pytest.mark.parametrize("cfg", [
        ep3_sensor(0.95, alpha=2.0),
        ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01),
        ep3_sensor(1 - 1e-9, alpha=2.0),                  # expm fallback
    ], ids=["lossless", "lossy", "nearly-defective"])
    def test_one_eigensolve_per_configuration(self, calls, cfg):
        peak_total_excitation(cfg, 5.0)
        assert len(calls) == 1
        calls.clear()
        gaussian._MEMO.clear()
        states = evolve_lossy_trace(coherent_init(cfg), cfg, np.linspace(0.5, 5.0, 10))
        assert len(calls) == 1 and len(states) == 10

    @pytest.mark.parametrize("cfg", [
        ep3_sensor(0.95, alpha=2.0),
        ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01),
    ], ids=["lossless", "lossy"])
    def test_a_sensitivity_row_decomposes_each_configuration_once(self, calls, cfg):
        # the configured state and its +-_qfi_step
        sensitivity(cfg, x_minus(), 2 * np.pi / collective_rate(cfg))
        assert len(calls) == len(set(calls)) == 3

    @pytest.fixture
    def propagators(self, monkeypatch):
        """The times of each gaussian.propagator call."""
        calls = []
        prop = gaussian.propagator

        def counted(config, t):
            calls.append(t)
            return prop(config, t)

        monkeypatch.setattr(gaussian, "propagator", counted)
        return calls

    @staticmethod
    def _run_trace(experiment, tmp_path):
        scn = parse_scenario(f"experiment = {experiment}\ng = 0.95\nalpha = 2j, -2j\n"
                             "sweep_grid = linspace:1:20:10\n")
        run_scenario(scn, out_dir=str(tmp_path))

    @pytest.fixture
    def passes(self, monkeypatch):
        """(decompositions, times) of each stacked map pass of metrology."""
        calls = []
        maps = metrology._maps

        def counted(decompositions, times):
            calls.append((decompositions, times))
            return maps(decompositions, times)

        monkeypatch.setattr(metrology, "_maps", counted)
        return calls

    def test_a_qfi_trace_decomposes_each_configuration_once(self, calls, passes, propagators,
                                                             tmp_path):
        # the configured state and its +-_qfi_step, all 10 times in one pass
        self._run_trace("qfi_trace", tmp_path)
        assert len(calls) == len(set(calls)) == 3
        assert len(passes) == 1 and not propagators
        decompositions, times = passes[0]
        assert len({id(dec) for dec in decompositions}) == 3 and np.shape(times) == (10,)

    def test_an_evolve_trace_takes_one_propagator(self, calls, propagators, tmp_path):
        self._run_trace("evolve_trace", tmp_path)
        assert len(calls) == 1
        assert len(propagators) == 1 and np.shape(propagators[0]) == (10,)

    def test_a_qfi_trace_is_one_stack_of_3(self, calls, stacks, tmp_path):
        self._run_trace("qfi_trace", tmp_path)
        assert [len(stack) for stack in stacks] == [3] and len(set(calls)) == 3

    def test_an_ep3_qfi_grid_is_one_stack_of_45(self, calls, stacks):
        # 15 working points, each with its +-_qfi_step
        grid = np.logspace(np.log10(np.sqrt(1 - 0.999 ** 2)), np.log10(np.sqrt(1 - 0.9 ** 2)), 15)
        fit = scaling_fit("ep3-qfi", grid)
        assert len(fit.chis) == 15
        assert [len(stack) for stack in stacks] == [45] and len(set(calls)) == 45

    @pytest.mark.parametrize("rows", [3, 20])
    def test_a_sensitivity_sweep_is_one_stack(self, calls, stacks, tmp_path, rows):
        # each row the configured state and its +-_qfi_step; 60 configurations
        # outnumber MEMO_SIZE, and the memo keeps the whole stack
        scn = parse_scenario("experiment = sensitivity_sweep\ng = 0.95\nalpha = 2j, -2j\n"
                             f"sweep_param = g1\nsweep_grid = linspace:0.9:0.96:{rows}\n"
                             "time = working:1\n")
        run_scenario(scn, out_dir=str(tmp_path))
        assert [len(stack) for stack in stacks] == [3 * rows] and len(set(calls)) == 3 * rows

    def test_criterion_10_is_one_stack(self, calls, stacks):
        # the base configuration and its gamma and Gamma series: 9 distinct
        from epsensor.acceptance import criterion_10_losses
        criterion_10_losses()
        assert [len(set(stack)) for stack in stacks] == [9] and len(set(calls)) == 9

    def test_an_ep4_grid_solves_each_configuration_once(self, calls):
        # chi_eff comes from the point's own decomposition
        fit = scaling_fit("ep4", np.logspace(np.log10(0.018), np.log10(0.19), 9))
        assert len(fit.chis) == 9
        assert len(calls) == len(set(calls)) == 9


def _residue_total_excitation(cfg, t):
    """Total excitation of the lossless sensor from the residue-form reduced
    propagator K on the slots (b1, b2^+, a^+): the means are K c(0), and each
    slot's vacuum part is the sum of |K_ij|^2 over the slots j of the other
    kind (annihilation versus creation operator)."""
    K = exact_propagator_coefficients(cfg.g[0], *cfg.epsilon, t).as_matrix()
    dagger = np.array([False, True, True])
    c0 = np.array([cfg.alpha[0], np.conj(cfg.alpha[1]), 0.0])
    vacuum = (np.abs(K) ** 2)[dagger[:, None] != dagger[None, :]].sum()
    return float(np.sum(np.abs(K @ c0) ** 2) + vacuum)


def _mp_total_excitation(cfg, t):
    mu, cov = _mp_van_loan_state(cfg, t)
    return float(mu @ mu / 2.0 + (np.trace(cov) - cfg.n) / 2.0)


class TestPeakExcitation:
    @pytest.mark.parametrize("cfg, reference", [
        (ep3_sensor(0.95, alpha=2.0), _residue_total_excitation),
        (ep3_sensor(0.999, alpha=2.0), _residue_total_excitation),
        (ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01), _mp_total_excitation),
    ], ids=["g0.95", "g0.999", "lossy-g0.95"])
    def test_peak_matches_independent_reference(self, cfg, reference):
        t = 2 * np.pi / np.sqrt(1 - cfg.g[0] ** 2)
        times = np.linspace(0.0, t, 33)[1:]
        start = sum(abs(a) ** 2 for a in cfg.alpha)
        expected = max([start] + [reference(cfg, ti) for ti in times])
        assert peak_total_excitation(cfg, t, samples=32) == pytest.approx(
            expected, rel=1e-10, abs=0)

    @pytest.mark.parametrize("cfg, t", [
        (ep3_sensor(0.95, alpha=2.0, eps1=1e-3, eps2=-2e-3), 40.0),
        (ep3_sensor(0.9997, alpha=9.4, eps1=2e-6, eps2=2e-6), 600.0),
        (SystemConfig(n=3, m=2, g=(0.2, 0.3), delta=(1.0, 1.3), alpha=(1.5, 0.5j)), 30.0),
        (ep4_system(0.2, g1=ep4_locus(0.2).g - 1e-4, alpha=2.0), 100.0),
    ], ids=["offsets", "near-ep-offsets", "m2", "ep4"])
    def test_stacked_samples_match_the_per_time_loop(self, cfg, t):
        # the reference evolves the state to each sample time, as lossy and
        # nearly defective configurations still do
        times = np.linspace(0.0, t, 257)[1:]
        state0 = coherent_init(cfg)
        loop = [total_excitation(evolve(state0, propagator(cfg, ti))) for ti in times]
        dec = gaussian._decompose(cfg)
        assert dec.method == "eigen"
        stacked = dec.lossless_excitations(times, cfg.alpha)
        assert np.abs(np.subtract(stacked, loop)).max() <= 1e-13 * max(loop)
        assert peak_total_excitation(cfg, t) == pytest.approx(
            max([total_excitation(state0)] + loop), rel=1e-13, abs=0)

    def test_a_non_finite_sample_or_derivative_raises(self):
        # the unstable configuration of TestPropagator: the stacked samples
        # name the first time whose map overflows, as the per-time loop did
        cfg, rate = ep3_sensor(1 - 1e-6, eps1=1e-3, eps2=1e-3), "max Re(-i lambda) = 0.109"
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
            peak_total_excitation(cfg, 1e4)
        assert "propagator not finite at t = 6484.38" in str(err.value) and rate in str(err.value)
        for times in (1e4, [1.0, 1e4, 2e4]):
            with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
                gaussian._decompose(cfg).derivative(times, _sensed_dH(cfg))
            assert "derivative not finite at t = 10000:" in str(err.value)
            assert rate in str(err.value)
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
            susceptibility(cfg, x_minus(), 1e4)
        assert "derivative not finite at t = 10000" in str(err.value) and rate in str(err.value)


class TestExcitations:
    def test_cavity_occupation_quarter_period(self):
        g, alpha = 0.95, 2.0
        cfg = ep3_sensor(g, alpha=alpha)
        chi = collective_rate(cfg)
        st = evolve(coherent_init(cfg), propagator(cfg, np.pi / (2 * chi)))
        expected = (alpha ** 2 * (1 + g) ** 2 + g * g) / (1 - g * g)
        N = excitation_numbers(st)
        assert N[2] == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(165.256, abs=5e-4)

    def test_vacuum_is_empty(self):
        assert np.allclose(excitation_numbers(vacuum_state(4)), 0.0, atol=1e-15)

    def test_magnon_number_bounded_over_period(self):
        g, alpha = 0.95, 2.0
        cfg = ep3_sensor(g, alpha=alpha)
        chi = collective_rate(cfg)
        chi4 = (1 - g * g) ** 2
        bound = 2 * (alpha ** 2 * (1 + g) ** 4 + 4 * g * g) / chi4
        for t in np.linspace(0, 2 * np.pi / chi, 40):
            N = excitation_numbers(evolve(coherent_init(cfg), propagator(cfg, t)))
            assert N[0] + N[1] <= bound * (1 + 1e-9)

    def test_conserved_combination(self):
        cfg = ep3_sensor(0.95, alpha=2.0)
        chi = collective_rate(cfg)
        st0 = coherent_init(cfg)
        values = []
        for t in np.linspace(0, 10 * np.pi / chi, 30):
            N = excitation_numbers(evolve(st0, propagator(cfg, t)))
            values.append(N[0] - N[1] - N[2])
        assert max(values) - min(values) < 1e-8


class TestReadoutSwap:
    def setup_method(self):
        cfg = ep3_sensor(0.95, alpha=2.0)
        self.state = evolve(coherent_init(cfg), propagator(cfg, 1.3))

    def test_full_swap(self):
        out = readout_swap(self.state, np.pi / 2)
        assert out.modes == ("b1", "b2", "a", "db1", "db2")
        mag = out.marginal([0, 1])
        assert np.abs(mag.mu).max() < 1e-10
        assert np.abs(mag.cov - np.eye(4) / 2).max() < 1e-10
        read = out.marginal([3, 4])
        pre = self.state.marginal([0, 1])
        assert np.abs(read.mu - pre.mu).max() < 1e-10
        assert np.abs(read.cov - pre.cov).max() < 1e-10

    def test_zero_angle_is_identity_on_system(self):
        out = readout_swap(self.state, 0.0)
        assert np.allclose(out.marginal([0, 1, 2]).cov, self.state.cov)
        assert np.allclose(out.marginal([3, 4]).cov, np.eye(4) / 2)

    def test_balanced_mixing_conserves_excitations(self):
        out = readout_swap(self.state, np.pi / 4)
        assert total_excitation(out) == pytest.approx(
            total_excitation(self.state), abs=1e-10)

    def test_swap_is_symplectic(self):
        out = readout_swap(self.state, 0.7)
        om = symplectic_form(out.n_modes)
        assert out.uncertainty_min_eigenvalue() > -1e-12
        assert np.linalg.det(2 * out.cov) == pytest.approx(1.0, abs=1e-8)
        assert om.shape == out.cov.shape


class TestExternalLoss:
    def test_identity_and_vacuum_limits(self):
        cfg = ep3_sensor(0.9, alpha=2.0)
        st = evolve(coherent_init(cfg), propagator(cfg, 2.0))
        same = apply_external_loss(st, 1.0)
        assert np.allclose(same.cov, st.cov) and np.allclose(same.mu, st.mu)
        dark = apply_external_loss(st, 0.0)
        assert np.allclose(dark.cov, np.eye(6) / 2, atol=1e-14)
        assert np.abs(dark.mu).max() == 0

    def test_squeezing_mixing_law(self):
        r = 0.5 * np.log(10)
        sq = GaussianState(mu=np.zeros(2),
                           cov=np.diag([np.exp(-2 * r), np.exp(2 * r)]) / 2,
                           modes=("b",))
        out = apply_external_loss(sq, 0.5)
        assert 2 * out.cov[0, 0] == pytest.approx(0.55, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            apply_external_loss(vacuum_state(1), 1.5)

    @given(eta=st.floats(0.0, 1.0))
    @settings(max_examples=30)
    def test_uncertainty_survives_any_transmissivity(self, eta):
        cfg = ep3_sensor(0.95, alpha=2.0)
        st = evolve(coherent_init(cfg), propagator(cfg, 3.1))
        out = apply_external_loss(st, eta)
        assert out.uncertainty_min_eigenvalue() > -1e-10


class TestBlochMessiah:
    def test_reconstruction_over_two_periods(self):
        delta, g = 1.2, 1.0
        chi = np.sqrt(delta ** 2 - g ** 2)
        worst = 0.0
        for t in np.linspace(0.0, 2 * 2 * np.pi / chi, 33):
            A, B = two_mode_squeezer_coefficients(delta, g, 0.0, t)
            bm = bloch_messiah_2mode(A, B, 1.0)
            worst = max(worst, np.abs(
                bm.reconstruct() - two_mode_quadrature_map(A, B)).max())
        assert worst < 1e-10

    def test_working_point_has_no_squeezing(self):
        delta, g = 1.2, 1.0
        chi = np.sqrt(delta ** 2 - g ** 2)
        for q in (1, 2, 3):
            A, B = two_mode_squeezer_coefficients(delta, g, 0.0, 2 * np.pi * q / chi)
            bm = bloch_messiah_2mode(A, B, 1.0)
            assert abs(bm.r) < 1e-10

    def test_identity_decomposition(self):
        bm = bloch_messiah_2mode(1.0, 0.0, 1.0)
        assert bm.r == 0 and bm.phi == 0
        assert np.abs(bm.reconstruct() - np.eye(4)).max() < 1e-14
        assert np.allclose(bm.xbar, [0, 0, np.sqrt(2), 0])

    def test_r_magnitude_identity(self):
        A, B = two_mode_squeezer_coefficients(1.5, 1.2, 0.0, 2.7)
        bm = bloch_messiah_2mode(A, B, 1.0)
        assert abs(bm.r) == pytest.approx(np.log(abs(A) + abs(B)), rel=1e-12)

    def test_passive_stages_are_orthogonal_symplectic(self):
        A, B = two_mode_squeezer_coefficients(1.4, 1.1, 0.0, 5.0)
        bm = bloch_messiah_2mode(A, B, 1.0)
        om = symplectic_form(2)
        for M in (bm.K_passive, bm.L_passive):
            assert np.abs(M @ M.T - np.eye(4)).max() < 1e-12
            assert np.abs(M @ om @ M.T - om).max() < 1e-12

    def test_displacement_derivative_scales_like_inverse_cube(self):
        alpha = 1.0
        chis = np.logspace(-1.5, -0.5, 9)
        values = []
        for chi in chis:
            delta = np.sqrt(1 + chi ** 2)
            t = 2 * np.pi / chi
            h = 1e-9
            up = two_mode_squeezer_coefficients(delta, 1.0, h, t)
            dn = two_mode_squeezer_coefficients(delta, 1.0, -h, t)
            dx = np.sqrt(2) * alpha * np.array(
                [up[1].real - dn[1].real, up[1].imag - dn[1].imag,
                 up[0].real - dn[0].real, up[0].imag - dn[0].imag]) / (2 * h)
            values.append(np.linalg.norm(dx))
        slope = np.polyfit(np.log(chis), np.log(values), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.1)

    def test_contract_violation(self):
        with pytest.raises(ConfigurationError):
            bloch_messiah_2mode(1.5, 0.2, 1.0)
        with pytest.raises(ConfigurationError):
            bloch_messiah_2mode(np.sqrt(2), 1j, 1.0)

    def test_unstable_side_coefficients_stay_consistent(self):
        # analytic continuation through chi^2 < 0 keeps |A|^2 - |B|^2 = 1
        A, B = two_mode_squeezer_coefficients(1.0, 1.3, 0.0, 2.0)
        assert abs(A) ** 2 - B.real ** 2 == pytest.approx(1.0, abs=1e-9)
        assert abs(complex(B).imag) < 1e-12
