import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from epsensor import (ConfigurationError, NumericalError, Observable, collective_rate,
                      ep3_sensor, feasibility_check, noise_variance,
                      observable, peak_total_excitation, qfi, qfi_chi_scaling,
                      qfi_parts, scaling_fit, sensitivity, sql,
                      susceptibility, working_point_time)
from epsensor import (apply_external_loss, build_system, ep4_locus, ep4_system, evolve, gaussian,
                      metrology, model, propagator)
from epsensor.gaussian import coherent_init
from epsensor.acceptance import _chi_grid
from epsensor.metrology import (SensitivityReport, analytic_noise, analytic_susceptibility,
                                db_ratio)
from epsensor.scenarios import parse_scenario, run_scenario
from mp_reference import quadrature_drift


@pytest.fixture(scope="module")
def sensor():
    return ep3_sensor(0.95, alpha=2.0)


@pytest.fixture(scope="module")
def chi(sensor):
    return collective_rate(sensor)


def _mp_covariance(cfg, t, dps=40):
    """Covariance at time t of the lossless state from coherent_init, in
    mpmath: S cov0 S^T with S = expm(A t) of the quadrature drift
    A = T (-i H_full) T^+."""
    with mpmath.workdps(dps):
        S = mpmath.expm(quadrature_drift(build_system(cfg).full) * t)
        return S * mpmath.matrix(coherent_init(cfg).cov.tolist()) * S.T


class TestObservableParsing:
    def test_difference(self):
        obs = observable("X1-X2", 3)
        assert np.allclose(obs.coefficients, [1, 0, -1, 0, 0, 0])

    def test_sum_with_p(self):
        obs = observable("P1+P2", 3)
        assert np.allclose(obs.coefficients, [0, 1, 0, 1, 0, 0])

    def test_single_and_spaces(self):
        obs = observable(" X3 ", 3)
        assert np.allclose(obs.coefficients, [0, 0, 0, 0, 1, 0])

    @pytest.mark.parametrize("bad", ["", "X0+X1", "Y1", "X4", "X1-"])
    def test_rejects_malformed(self, bad):
        with pytest.raises((ConfigurationError, ValueError)):
            observable(bad, 3)

    def test_zero_vector_rejected(self):
        with pytest.raises(ConfigurationError):
            Observable(coefficients=np.zeros(6))


class TestSusceptibility:
    def test_zero_at_zero_time(self, sensor):
        obs = observable("X1-X2", 3)
        assert susceptibility(sensor, obs, 0.0) < 1e-9

    def test_analytic_equals_fd(self, sensor, chi):
        # across two full periods, chi t in (0, 4 pi]
        obs = observable("X1-X2", 3)
        for k in range(1, 13):
            t = k * 4 * np.pi / (12 * chi)
            a = analytic_susceptibility(sensor, obs, t)
            f = susceptibility(sensor, obs, t)
            assert abs(a - f) / a < 1e-4

    def test_working_point_closed_maximum(self, sensor, chi):
        g, alpha = 0.95, 2.0
        obs = observable("X1-X2", 3)
        t = 2 * np.pi / chi
        expected = 3 * np.sqrt(2) * alpha * (1 + g * g) * (1 + g) ** 2 * np.pi / chi ** 5
        assert analytic_susceptibility(sensor, obs, t) == \
            pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(6.50e4, rel=1e-3)

    def test_sum_observable_analytic_form(self, sensor, chi):
        obs = observable("X1+X2", 3)
        g, alpha = 0.95, 2.0
        t = 3 * np.pi / chi
        ct = chi * t
        expected = np.sqrt(2) * alpha * (1 + g * g) * (
            ct * (1 - np.cos(ct) / 2) - np.sin(ct) / 2) / chi ** 3
        a = analytic_susceptibility(sensor, obs, t)
        assert a == pytest.approx(expected, rel=1e-12)
        assert abs(a - susceptibility(sensor, obs, t)) / a < 1e-4

    @pytest.mark.parametrize("g", [0.8, 0.95])
    def test_sum_observable_off_the_working_point(self, g):
        # at t = 0.3 periods sin(chi t) != 0, which t = 3 pi/chi does not test
        # (criterion 4 covers X1-X2 off the working point)
        sensor = ep3_sensor(g, alpha=2.0)
        obs = observable("X1+X2", 3)
        t = 0.3 * 2 * np.pi / collective_rate(sensor)
        a = analytic_susceptibility(sensor, obs, t)
        assert abs(a - susceptibility(sensor, obs, t)) / a < 1e-4

    def test_analytic_unsupported_cases(self, sensor):
        with pytest.raises(ConfigurationError):
            analytic_susceptibility(sensor, observable("P1-P2", 3), 1.0)
        lossy = ep3_sensor(0.95, alpha=2.0, gamma=0.1)
        with pytest.raises(ConfigurationError):
            analytic_susceptibility(lossy, observable("X1-X2", 3), 1.0)

    def test_different_mode_is_weaker(self, sensor, chi):
        obs = observable("X1-X2", 3)
        t = 2 * np.pi / chi
        same = susceptibility(sensor, obs, t, mode="same")
        single = susceptibility(sensor, obs, t, mode="single")
        assert same > single > 0

    def test_kappa_scaling(self):
        # dimensionless consistency: scaling all rates by kappa rescales
        # t -> t/kappa and S -> S/kappa
        base = ep3_sensor(0.9, kappa=1.0, alpha=2.0)
        scaled = ep3_sensor(1.8, kappa=2.0, alpha=2.0)
        obs = observable("X1-X2", 3)
        t = working_point_time(base)
        s1 = analytic_susceptibility(base, obs, t)
        s2 = analytic_susceptibility(scaled, obs, t / 2.0)
        assert s2 == pytest.approx(s1 / 2.0, rel=1e-12)
        f2 = susceptibility(scaled, obs, t / 2.0)
        assert f2 == pytest.approx(s2, rel=1e-6)

    def test_susceptibility_near_the_ep_with_an_offset(self):
        # a sensitivity row of the benchmark's sensing workload (seed 2,
        # operation 182), where the central difference of step 1e-9 was
        # 1.29e-4 off; the reference is the exact epsilon-derivative of the
        # mean, dps 50
        eps = 2.0439776517166087e-06
        cfg = ep3_sensor(0.9997931916499349, alpha=9.381218680607972, eps1=eps, eps2=eps)
        obs = observable("X1-X2", 3)
        t = working_point_time(cfg, 2)
        expected = abs(float(obs.coefficients @ _mp_mean_derivative(cfg, t)))
        assert abs(susceptibility(cfg, obs, t) - expected) / expected < 1e-4


def _mp_mean_derivative(cfg, t, mode="same", dps=50):
    """d mu/d(eps) of the mean at time t from coherent_init, in mpmath: the
    Frechet derivative of expm(A t) in the direction dA, read from the block
    exponential expm([[A, dA], [0, A]] t), with the quadrature drift
    A = T (-i H_full) T^+ (decay included) and dA that of the exact
    difference of H_full at epsilon +-1 along `mode`."""
    with mpmath.workdps(dps):
        H = build_system(cfg).full
        dH = (build_system(cfg.shifted(1.0, mode)).full
              - build_system(cfg.shifted(-1.0, mode)).full) / 2
        m = len(H)
        A, dA = quadrature_drift(H), quadrature_drift(dH)
        block = mpmath.zeros(2 * m, 2 * m)
        for i in range(m):
            for j in range(m):
                block[i, j] = block[m + i, m + j] = A[i, j]
                block[i, m + j] = dA[i, j]
        dmu = mpmath.expm(block * t)[:m, m:] * mpmath.matrix(coherent_init(cfg).mu.tolist())
        return np.array(dmu.tolist(), dtype=float).ravel()


class TestExactDerivative:
    """The exact eps-derivative of the mean (`metrology._mean_derivative`)
    against the closed first-order form and the mpmath block exponential."""

    @pytest.mark.parametrize("g", [0.95, 0.999, 0.9999, 0.99999])
    def test_matches_the_closed_form_up_to_the_ep(self, g):
        # the central difference of step 1e-9 missed 1e-4 here at g = 0.99999
        cfg = ep3_sensor(g, alpha=2.0)
        obs = observable("X1-X2", 3)
        period = working_point_time(cfg)
        for f in (0.05, 0.3, 1.0, 1.37):
            a = analytic_susceptibility(cfg, obs, f * period)
            assert abs(susceptibility(cfg, obs, f * period) - a) / a <= 1e-9, f

    @pytest.mark.parametrize("cfg, periods, mode, eta", [
        (ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01), 1.0, "same", None),
        (ep3_sensor(0.998, alpha=2.0, gamma=0.1, Gamma=0.01), 0.3, "single", None),
        (ep3_sensor(0.95, alpha=2.0), 1.37, "same", 0.7),
        (ep3_sensor(0.95, alpha=2.0, gamma=0.05, Gamma=0.01), 0.3, "same", 0.7),
    ], ids=["lossy", "lossy-single", "eta0.7", "lossy-eta0.7"])
    def test_lossy_and_readout_loss_match_mpmath(self, cfg, periods, mode, eta):
        t = periods * working_point_time(cfg)
        dmu = metrology._mean_derivative(cfg, t, mode, eta)
        expected = _mp_mean_derivative(cfg, t, mode)
        if eta is not None:
            expected = np.repeat(np.sqrt([eta, eta, 1.0]), 2) * expected
        assert np.abs(dmu - expected).max() <= 1e-9 * np.abs(expected).max()

    @pytest.mark.parametrize("cfg, t", [
        (ep3_sensor(1 - 1e-9, alpha=2.0), 5.0),
        (ep3_sensor(1 - 1e-9, alpha=2.0), 50.0),
        (ep3_sensor(1 - 1e-9, alpha=2.0, gamma=0.1, Gamma=0.01), 50.0),
    ], ids=["t5", "t50", "lossy-t50"])
    def test_the_expm_branch_matches_mpmath(self, cfg, t):
        assert gaussian._decompose(cfg).method == "expm"
        dmu = metrology._mean_derivative(cfg, t)
        expected = _mp_mean_derivative(cfg, t)
        assert np.abs(dmu - expected).max() <= 1e-9 * np.abs(expected).max()

    @pytest.mark.parametrize("mode", ["same", "single"])
    def test_the_eps_generator_builds_no_full_matrix(self, monkeypatch, mode):
        # dH is the exact difference of the reduced matrices at epsilon +-1,
        # taken from them alone: build_system's full matrix is never read
        cfg = ep3_sensor(0.97, alpha=2.0, eps1=3e-4, eps2=-1e-4, gamma=0.05, Gamma=0.01)
        expected = (build_system(cfg.shifted(1.0, mode)).reduced
                    - build_system(cfg.shifted(-1.0, mode)).reduced) / 2.0
        built, seen = [], []
        full_matrix, derivative = model._full_matrix, gaussian._Decomposition.derivative
        monkeypatch.setattr(model, "_full_matrix",
                            lambda config: built.append(config) or full_matrix(config))
        monkeypatch.setattr(gaussian._Decomposition, "derivative",
                            lambda dec, t, dH: seen.append(dH) or derivative(dec, t, dH))
        t = working_point_time(cfg)
        assert susceptibility(cfg, observable("X1-X2", 3), t, mode) > 0
        assert built == [] and len(seen) == 1 and np.array_equal(seen[0], expected)


class TestNoise:
    def test_unit_noise_at_working_points(self, sensor, chi):
        obs = observable("X1-X2", 3)
        for q in (1, 2):
            nz = noise_variance(sensor, obs, 2 * np.pi * q / chi)
            assert nz == pytest.approx(1.0, abs=1e-8)

    def test_antisqueezed_half_period(self, sensor, chi):
        obs = observable("X1-X2", 3)
        assert noise_variance(sensor, obs, np.pi / chi) == \
            pytest.approx(1521.0, abs=1e-7)

    def test_squeezed_sum_quadrature(self, sensor, chi):
        obs = observable("X1+X2", 3)
        nz = noise_variance(sensor, obs, np.pi / chi)
        assert nz == pytest.approx((1 - 0.95) ** 2 / (1 + 0.95) ** 2, rel=1e-8)
        assert nz == pytest.approx(6.575e-4, rel=1e-3)

    def test_closed_forms_match_covariance(self, sensor, rng, chi):
        for obs_name in ("X1-X2", "X1+X2"):
            obs = observable(obs_name, 3)
            for t in rng.uniform(0.0, 4 * np.pi / chi, 50):
                assert abs(noise_variance(sensor, obs, t)
                           - analytic_noise(sensor, obs, t)) < 1e-10


class TestSensitivity:
    def test_working_point_report(self, sensor, chi):
        obs = observable("X1-X2", 3)
        rep = sensitivity(sensor, obs, 2 * np.pi / chi)
        assert rep.delta_eps == pytest.approx(1.539e-5, rel=1e-3)
        assert rep.qcrb <= rep.delta_eps
        assert rep.delta_eps >= rep.qcrb * (1 - 1e-6)
        assert rep.valid_regime
        assert rep.observable == "X1-X2"

    def test_sum_strategy_saturates_at_odd_half_periods(self, sensor, chi):
        obs = observable("X1+X2", 3)
        rep = sensitivity(sensor, obs, 3 * np.pi / chi)
        assert rep.delta_eps * np.sqrt(rep.qfi) == pytest.approx(1.0, abs=0.01)

    def test_zero_susceptibility_reports_infinity(self, sensor):
        # no exception; a vanishing signal yields an (effectively) infinite
        # delta_eps, exactly inf when the difference rounds to zero
        obs = observable("X1-X2", 3)
        rep = sensitivity(sensor, obs, 0.0)
        assert rep.delta_eps > 1e15

    def test_valid_regime_tracks_the_configured_perturbation(self, chi):
        obs = observable("X1-X2", 3)
        t = 2 * np.pi / chi
        far = 16.0 * chi ** 3                     # eps/chi^3 = 16
        # the known failure of the I_cov least squares (ROADMAP item 3)
        with pytest.warns(UserWarning, match="displacement part only"):
            rep = sensitivity(ep3_sensor(0.95, alpha=2.0, eps1=far, eps2=far), obs, t)
        assert not rep.valid_regime
        near = 0.05 * chi ** 3
        rep = sensitivity(ep3_sensor(0.95, alpha=2.0, eps1=near, eps2=near), obs, t)
        assert rep.valid_regime

    @pytest.mark.parametrize("offset", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)],
                             ids=["both", "magnon1", "magnon2"])
    def test_figures_are_taken_about_the_configured_state(self, sensor, chi, offset):
        # the Hamiltonian sees delta + epsilon only, so an offset configured
        # as the perturbation or as the detuning is the same state
        eps = tuple(0.05 * chi ** 3 * x for x in offset)
        obs = observable("X1-X2", 3)
        t = 2 * np.pi / chi
        as_eps = sensitivity(replace(sensor, epsilon=eps), obs, t)
        as_delta = sensitivity(replace(sensor, delta=eps), obs, t)
        for field in ("susceptibility", "noise_var", "qfi"):
            assert getattr(as_eps, field) == \
                pytest.approx(getattr(as_delta, field), rel=1e-9), field

    @pytest.mark.parametrize("eta", [0.5, 0.9])
    def test_fisher_bound_is_of_the_state_after_readout_loss(self, sensor, chi, eta):
        rep = sensitivity(sensor, observable("X1-X2", 3), 2 * np.pi / chi, eta=eta)
        assert rep.delta_eps * np.sqrt(rep.qfi) == pytest.approx(1.0, abs=0.01)

    def test_csv_row_schema(self, sensor, chi):
        rep = sensitivity(sensor, observable("X1-X2", 3), 2 * np.pi / chi)
        row = rep.csv_row()
        assert len(row) == 16
        assert row[0] == 0.95 and row[8] == "X1-X2"


class TestQFI:
    def test_zero_time(self, sensor):
        assert qfi(sensor, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_displacement_dominates_for_large_alpha(self, chi):
        big = ep3_sensor(0.95, alpha=10.0)
        total, i_mu, i_cov, ok = qfi_parts(big, 2 * np.pi / chi)
        assert ok
        assert i_mu / total >= 0.99

    def test_qcrb_saturation_at_working_point(self, sensor, chi):
        obs = observable("X1-X2", 3)
        t = 2 * np.pi / chi
        s = susceptibility(sensor, obs, t)
        nz = noise_variance(sensor, obs, t)
        delta = np.sqrt(nz) / s
        assert delta * np.sqrt(qfi(sensor, t)) == pytest.approx(1.0, abs=0.01)

    def test_no_measurement_beats_the_bound(self, rng):
        # delta_eps >= (1 - 1e-6) / sqrt(QFI) across an assorted grid
        for g in (0.85, 0.95):
            cfg = ep3_sensor(g, alpha=2.0)
            chi_v = collective_rate(cfg)
            times = list(rng.uniform(0.3, 4 * np.pi / chi_v, 4)) \
                + [2 * np.pi / chi_v, 3 * np.pi / chi_v]
            for obs_name in ("X1-X2", "X1+X2"):
                obs = observable(obs_name, 3)
                for t in times:
                    s = susceptibility(cfg, obs, t)
                    nz = noise_variance(cfg, obs, t)
                    delta = np.sqrt(nz) / s if s > 0 else np.inf
                    bound = 1.0 / np.sqrt(qfi(cfg, t))
                    assert delta >= bound * (1 - 1e-6)

    @staticmethod
    def _solved_displacement_term(cfg, t):
        (dmu,), _, (cov,) = metrology._state_derivative(cfg, [t])
        return dmu, float(dmu @ np.linalg.solve(cov, dmu))

    @pytest.mark.parametrize("g", [0.8, 0.85, 0.9])
    @pytest.mark.parametrize("periods", [0.1, 0.25, 0.37, 0.5, 1.0, 1.5])
    def test_pure_state_displacement_term_is_the_solve(self, g, periods):
        # well-conditioned lossless states (cond(cov) <= 1.3e5, where the
        # solve is good to about cond eps): 4 (Omega dmu)^T cov (Omega dmu) is
        # dmu^T cov^-1 dmu, within 2.6e-12 here
        cfg = ep3_sensor(g, alpha=2.0)
        t = periods * 2 * np.pi / collective_rate(cfg)
        _, solved = self._solved_displacement_term(cfg, t)
        assert qfi_parts(cfg, t)[1] == pytest.approx(solved, rel=1e-10, abs=0)

    def test_pure_state_displacement_term_near_the_ep_matches_mpmath(self):
        # cond(cov) ~ 2.7e16: the solve gives 1.5e25, 400 times too large; the
        # identity is within 2.3e-9 of dmu^T cov^-1 dmu with the mpmath
        # covariance (dps 40) and the same dmu
        cfg, t = ep3_sensor(0.99986, alpha=2.0), 515.0
        dmu, _ = self._solved_displacement_term(cfg, t)
        # the known failure of the I_cov least squares (ROADMAP item 3)
        with pytest.warns(UserWarning, match="displacement part only"):
            i_mu = qfi_parts(cfg, t)[1]
        with mpmath.workdps(40):
            d = mpmath.matrix(dmu.tolist())
            reference = float((d.T * mpmath.inverse(_mp_covariance(cfg, t)) * d)[0])
        assert i_mu > 0
        assert i_mu == pytest.approx(reference, rel=1e-8, abs=0)

    def test_a_benchmark_row_with_a_singular_covariance_is_reported(self, tmp_path):
        # operation 830 of the sensing benchmark at seed 11: the last two
        # couplings squeeze the state until np.linalg.solve(cov, dmu) raised
        # LinAlgError("Singular matrix")
        scn = parse_scenario(
            "experiment = sensitivity_sweep\ng = 0.9972039521109677\n"
            "alpha = 3.781915287129057j, -3.781915287129057j\nobservable = X1-X2\n"
            "epsilon = 1.3286686964573854e-05, 1.3286686964573854e-05\nsweep_param = g1\n"
            "sweep_grid = 0.9972039521109677, 0.9992666224835891, 0.9992823098972762\n"
            "time = working:2\noutput = op00830.csv\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            summary = run_scenario(scn, out_dir=str(tmp_path))
        assert summary["rows"] == 3
        rows = (tmp_path / "op00830.csv").read_text().splitlines()[-3:]
        header = SensitivityReport.CSV_FIELDS
        for row in rows:
            report = dict(zip(header, row.split(",")))
            assert 0 < float(report["qfi"]) < np.inf and 0 < float(report["qcrb"]) < np.inf

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "a known QFI defect: the eta = 1 least squares fails and drops I_cov "
        "(2.42e7 is I_mu alone), the eta = 0.8 one converges to 1.87e9"))
    def test_readout_loss_cannot_raise_the_qfi(self):
        # data processing: the readout loss is a channel, so it cannot raise
        # the Fisher information
        cfg, t = ep3_sensor(0.9989137049815664, alpha=2.0, gamma=0.1, Gamma=0.01), 715.037
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert qfi_parts(cfg, t, eta=0.8)[0] <= qfi_parts(cfg, t)[0]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "a known QFI defect: the QFI is 5.40 where the X1-X2 readout reaches "
        "(susceptibility/sqrt(noise))^2 = 11.21"))
    def test_no_readout_beats_the_qfi_near_the_ep(self):
        # Cramer-Rao at operation 339 of the sensing benchmark at seed 3
        cfg = ep3_sensor(0.9998445586752357, alpha=2.4075291367360383)
        t, obs = 0.7840104556729826, observable("X1-X2", 3)
        readout = susceptibility(cfg, obs, t) ** 2 / noise_variance(cfg, obs, t)
        assert readout <= qfi(cfg, t)

    def test_chi_scaling_exponent(self):
        grid = np.logspace(np.log10(np.sqrt(1 - 0.999 ** 2)),
                           np.log10(np.sqrt(1 - 0.9 ** 2)), 9)
        fit = qfi_chi_scaling(grid)
        assert fit.exponent == pytest.approx(-10.0, abs=0.2)


class TestStackedPass:
    """A QFI's configured state and its +-_qfi_step shifts, at every time, in
    one stacked pass: bit for bit the per-configuration propagator(c, t) and
    the per-time evolve (and readout loss) that it replaces."""

    TIMES = np.array([0.0, 0.7, 5.3, 41.0, 130.0])

    @staticmethod
    def _per_configuration(configs, times, eta):
        """(mu, cov) of each of `configs` at each of `times`, one
        propagator(c, t) and one evolve at a time."""
        mu, cov = [], []
        for c in configs:
            states = [evolve(coherent_init(c), propagator(c, t)) for t in times]
            if eta is not None:
                states = [apply_external_loss(st, [eta] * (c.n - 1) + [1.0]) for st in states]
            mu.append([st.mu for st in states])
            cov.append([st.cov for st in states])
        return np.array(mu), np.array(cov)

    @pytest.mark.parametrize("cfg, eta", [
        (ep3_sensor(0.95, alpha=2.0), None),
        (ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01), None),
        (ep3_sensor(1 - 1e-9, alpha=2.0), None),                           # expm branch
        (ep4_system(0.2, g1=ep4_locus(0.2).g - 1e-4, alpha=2.0), None),    # n = 4
        (ep3_sensor(0.95, alpha=2.0), 0.8),
        (ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01), 0.8),
    ], ids=["lossless", "lossy", "expm", "ep4", "eta0.8", "lossy-eta0.8"])
    def test_the_pass_is_the_per_configuration_path(self, cfg, eta):
        h = metrology._qfi_step(cfg)
        configs = [cfg.shifted(h, "same"), cfg.shifted(-h, "same"), cfg]
        mu, cov = self._per_configuration(configs, self.TIMES, eta)
        stacked_mu, stacked_cov = metrology._final_states(configs, self.TIMES, eta)
        assert np.array_equal(stacked_mu, mu) and np.array_equal(stacked_cov, cov)
        dmu, dcov, cov_t = metrology._state_derivative(cfg, self.TIMES, eta=eta)
        assert np.array_equal(dmu, (mu[0] - mu[1]) / (2.0 * h))
        assert np.array_equal(dcov, (cov[0] - cov[1]) / (2.0 * h))
        assert np.array_equal(cov_t, cov[2])
        obs, t = observable("X1-X2", cfg.n), self.TIMES[2]
        with warnings.catch_warnings():
            # where the I_cov least squares fails (ROADMAP item 3), every
            # path reports it alike
            warnings.simplefilter("ignore")
            terms, cov_q = metrology._qfi_terms(cfg, self.TIMES, "same", eta)
            singles = [qfi_parts(cfg, ti, eta=eta) for ti in self.TIMES]
            report = sensitivity(cfg, obs, t, eta=eta)
        assert np.array_equal(cov_q, cov[2])
        for i, single in enumerate(singles):
            assert [term[i] for term in terms] == list(single)
        c = obs.coefficients
        assert report.noise_var == float(c @ cov[2, 2] @ c) == noise_variance(cfg, obs, t, eta)
        assert report.qfi == singles[2][0]

    def test_an_overflowing_configuration_raises_as_before(self):
        # the unstable configuration of test_gaussian's TestPropagator
        cfg = ep3_sensor(1 - 1e-6, eps1=1e-3, eps2=1e-3)
        message = ("eigen propagator not finite at t = 10000: largest growth rate "
                   "max Re(-i lambda) = 0.109105")
        for call in (lambda: qfi_parts(cfg, 1e4), lambda: qfi_parts(cfg, 1e4, eta=0.8),
                     lambda: metrology._qfi_terms(cfg, np.array([1.0, 1e4, 2e4]), "same"),
                     lambda: noise_variance(cfg, observable("X1-X2", 3), 1e4)):
            with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
                call()
            assert str(err.value) == message


class TestSQL:
    def test_formula(self):
        assert sql(100.0, 1.0) == pytest.approx(0.1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            sql(0.0, 1.0)

    def test_lossy_sensor_beats_sql_by_10db(self):
        cfg = ep3_sensor(0.95, alpha=2.0, gamma=0.1, Gamma=0.01)
        t = 2 * np.pi / collective_rate(cfg)
        obs = observable("X1-X2", 3)
        s = susceptibility(cfg, obs, t)
        nz = noise_variance(cfg, obs, t)
        delta = np.sqrt(nz) / s
        limit = sql(peak_total_excitation(cfg, t, samples=64), t)
        assert db_ratio(limit, delta) > 10.0

    def test_heisenberg_gap_grows_toward_coalescence(self):
        obs = observable("X1-X2", 3)
        ratios = []
        for g in (0.9, 0.95, 0.99):
            cfg = ep3_sensor(g, alpha=2.0)
            t = working_point_time(cfg)
            s = susceptibility(cfg, obs, t)
            delta = 1.0 / s
            limit = sql(peak_total_excitation(cfg, t, samples=64), t)
            ratios.append(delta / limit)
        assert ratios[0] > ratios[1] > ratios[2]


class TestScaling:
    GRID = np.logspace(np.log10(np.sqrt(1 - 0.999 ** 2)),
                       np.log10(np.sqrt(1 - 0.9 ** 2)), 11)

    def test_ep3_exponent(self):
        fit = scaling_fit("ep3", self.GRID)
        assert fit.exponent == pytest.approx(5.0, abs=0.1)
        assert fit.r_squared > 0.999
        assert not fit.excluded

    def test_ep2_exponent(self):
        fit = scaling_fit("ep2", self.GRID)
        assert fit.exponent == pytest.approx(3.0, abs=0.1)

    def test_ep2_values_match_an_mpmath_derivative(self):
        # oracle: d Im A/d eps at eps = 0 (mpmath.diff, dps 30) of the pair
        # coefficient A of two_mode_squeezer_coefficients(delta, 1, eps, t)
        # at delta = sqrt(1 + chi^2), t = 2 q pi/chi; the optimal quadrature
        # responds with sqrt(2) alpha |d Im A/d eps| and has noise 1/2
        grid = _chi_grid()      # criterion 6's grid
        fit = scaling_fit("ep2", grid)
        assert np.array_equal(fit.chis, grid)
        with mpmath.workdps(30):
            for chi, value in zip(grid, fit.values):
                chi = mpmath.mpf(chi)
                delta = mpmath.sqrt(1 + chi * chi)
                t = 2 * mpmath.pi * metrology.SCALING_Q / chi

                def im_a(eps):
                    dp = delta + eps
                    w = mpmath.sqrt(dp * dp - 1)
                    return -dp * mpmath.sin(w * t) / w

                slope = mpmath.sqrt(2) * metrology.SCALING_ALPHA * abs(mpmath.diff(im_a, 0))
                expected = mpmath.sqrt(mpmath.mpf(1) / 2) / slope
                assert abs(value - expected) / expected <= 1e-12

    def test_ep4_exponent_exploratory(self):
        fit = scaling_fit("ep4", np.logspace(np.log10(0.018), np.log10(0.19), 9))
        assert fit.exponent == pytest.approx(7.0, abs=0.3)

    def test_qfi_family_is_the_fisher_information_of_the_ep3_states(self):
        grid = np.logspace(np.log10(0.045), np.log10(0.44), 5)
        fit = scaling_fit("ep3-qfi", grid)
        direct = [qfi(ep3_sensor(np.sqrt(1 - chi * chi), alpha=2.0), 2 * np.pi / chi)
                  for chi in grid]
        assert np.array_equal(fit.chis, grid)
        assert np.allclose(fit.values, direct, rtol=1e-12, atol=0)
        assert np.array_equal(qfi_chi_scaling(grid).values, fit.values)

    def test_a_non_finite_map_is_an_excluded_point(self, monkeypatch):
        ep3_point = metrology._SCALING_POINTS["ep3"]
        bad = self.GRID[3]

        def point(chi):
            if chi == bad:     # an unstable configuration whose map overflows
                propagator(ep3_sensor(1 - 1e-6, eps1=1e-3, eps2=1e-3), 1e4)
            return ep3_point(chi)

        monkeypatch.setitem(metrology._SCALING_POINTS, "ep3", point)
        with np.errstate(all="ignore"), pytest.warns(UserWarning, match="propagator"):
            fit = scaling_fit("ep3", self.GRID)
        assert fit.excluded == (bad,)
        assert np.array_equal(fit.chis, np.delete(self.GRID, 3))

    @pytest.mark.parametrize("family", ["ep3", "ep3-qfi"])
    def test_a_stacked_solve_error_excludes_only_its_point(self, family, monkeypatch):
        # the grid's stacked solve raises for one working point; the grid is
        # then solved point by point, and only that point is excluded
        clean = scaling_fit(family, self.GRID)
        bad = self.GRID[4]
        bad_config = metrology._ep3_working_point(bad)[0]
        solve = gaussian.eigensolve

        def failing(system):
            if bad_config in (system if isinstance(system, list) else [system]):
                raise NumericalError("root iteration not finite")
            return solve(system)

        monkeypatch.setattr(gaussian, "eigensolve", failing)
        gaussian._MEMO.clear()
        with pytest.warns(UserWarning, match=f"excluding chi={bad:g}: root iteration"):
            fit = scaling_fit(family, self.GRID)
        gaussian._MEMO.clear()
        assert fit.excluded == (bad,)
        assert np.array_equal(fit.chis, np.delete(self.GRID, 4))
        assert np.array_equal(fit.values, np.delete(clean.values, 4))

    @pytest.mark.parametrize("family", ["ep3", "ep3-qfi"])
    def test_a_non_finite_coupling_is_an_excluded_point(self, family):
        # above chi = 1 the family's coupling g = sqrt(1 - chi^2) is NaN
        grid = np.append(self.GRID, 1.5)
        with np.errstate(invalid="ignore"), pytest.warns(
                UserWarning, match=r"excluding chi=1\.5: the coupling "
                r"g = sqrt\(1 - chi\^2\) = nan is not finite"):
            fit = scaling_fit(family, grid)
        assert fit.excluded == (1.5,)
        assert np.array_equal(fit.chis, self.GRID)

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            scaling_fit("ep17", self.GRID)

    def test_grid_span_required(self):
        with pytest.raises(ConfigurationError):
            scaling_fit("ep3", np.linspace(0.2, 0.4, 8))


class TestMonotonicDegradation:
    def test_delta_eps_grows_with_each_loss(self):
        obs = observable("X1-X2", 3)

        def de(gamma=0.0, Gamma=0.0, eta=None):
            cfg = ep3_sensor(0.95, alpha=2.0, gamma=gamma, Gamma=Gamma)
            t = 2 * np.pi / collective_rate(cfg)
            s = susceptibility(cfg, obs, t, eta=eta)
            nz = noise_variance(cfg, obs, t, eta=eta)
            return np.sqrt(nz) / s

        gammas = [de(gamma=gv) for gv in (0.0, 0.05, 0.1)]
        assert gammas[0] < gammas[1] < gammas[2]
        Gammas = [de(Gamma=gv) for gv in (0.0, 0.005, 0.01)]
        assert Gammas[0] < Gammas[1] < Gammas[2]
        etas = [de(eta=ev) for ev in (1.0, 0.8, 0.6)]
        assert etas[0] < etas[1] < etas[2]


class TestFeasibility:
    def test_spot_check_within_factor_three(self):
        fc = feasibility_check()
        value = fc["sensitivity_hz_per_rt_hz"]
        factor = max(value / 5.27e-6, 5.27e-6 / value)
        assert factor <= 3.0
        assert "Hz" in fc["convention"]

    def test_chi_is_about_50khz(self):
        fc = feasibility_check()
        assert fc["chi_dimensionless"] * fc["kappa_hz"] == \
            pytest.approx(5.0e4, rel=5e-3)
