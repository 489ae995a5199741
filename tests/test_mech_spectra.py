"""Mirror quadrature spectra: closed-form transfer coefficients against the
resolvent, limits, and the frequency-domain variance route."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omsqueeze import (
    SingularSolve,
    SystemParams,
    UnstableSystem,
    build_drift,
    quadrature_variances,
    routh_hurwitz,
    solve_steady_state,
    spectrum,
    squeezing_db,
    steady_covariance,
)

from omsqueeze import mech_spectra

from conftest import draw_low_damping_params, draw_near_marginal_params, draw_stable_params

# the order of the rows of mech_spectra._mirror_rows, then the denominator
COEFF_NAMES = ("A1", "B1", "E1", "F1", "A2", "B2", "E2", "F2", "den")


def couplings(omega: float, ss, p) -> dict:
    """The eight mirror couplings and den at one frequency, from the factored
    form: each row of _mirror_rows weights the factors (s, v, T, 1)."""
    v, s, T, den = mech_spectra._factors(np.asarray(float(omega)), ss, p)
    rows = mech_spectra._mirror_rows(ss, p).reshape(8, 4)
    return dict(zip(COEFF_NAMES, [*(rows @ np.array([s, v, T, 1.0]) / den), den]))


def resolvent_spectra(om: float, ss, p) -> tuple[float, float]:
    """Independent oracle: S(om) = [R(om) D R(-om)^T] diagonal with
    R(om) = (-i om I - M)^(-1), bypassing the closed-form coefficients."""
    dm = build_drift(ss, p)
    eye = np.eye(4)
    R_plus = np.linalg.inv(-1j * om * eye - dm.M)
    R_minus = np.linalg.inv(1j * om * eye - dm.M)
    S = R_plus @ dm.D @ R_minus.T
    return float(S[0, 0].real), float(S[1, 1].real)


class TestTransferCoefficients:
    def test_frozen_values_at_generic_point(self):
        p = SystemParams(gamma_m=1e-4, cooperativity=400.0, G=0.4,
                         theta=math.pi / 16)
        t = couplings(0.3, solve_steady_state(p), p)
        # the values of the unfactored coefficients, frozen before the
        # factored form replaced them
        expected = {
            "A1": 2.306445587332557 - 2.7689128285014375j,
            "B1": 0.22723711355245996 - 0.2734936847047271j,
            "E1": 0.013123664185530681 + 0.044256464721421834j,
            "F1": -1.5939608166826118e-05 - 1.598047715204393e-05j,
            "A2": -0.008150232871666479 + 0.055039934170041604j,
            "B2": 0.047427876908710365 - 0.5164233602462536j,
            "E2": -1.5939608166826118e-05 - 1.598047715204393e-05j,
            "F2": 0.002453771899591232 + 0.03355921494553999j,
            "den": -0.029913999324999982 + 0.0299906985j,
        }
        for name, value in expected.items():
            assert t[name] == pytest.approx(value, rel=1e-12), name

    def test_thermal_cross_coefficients_match(self, opt_state, opt_params):
        # both quadratures see the same thermal cross term
        t = couplings(0.7, opt_state, opt_params)
        assert t["F1"] == t["E2"]

    def test_spectrum_matches_resolvent_on_random_draws(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            for om in (0.0, 0.013, 0.4, 2.0, -1.1):
                s = spectrum(om, ss, p)
                ref_q, ref_p = resolvent_spectra(om, ss, p)
                assert s.S_Q[0] == pytest.approx(ref_q, rel=1e-9, abs=1e-12)
                assert s.S_P[0] == pytest.approx(ref_p, rel=1e-9, abs=1e-12)


class TestOneEvaluationPerFrequency:
    def test_couplings_at_minus_omega_are_conjugates(self):
        # real parameters: X(-omega) = X(omega)*, so the spectrum needs
        # every factor at +omega only
        rng = np.random.default_rng(26)
        for _ in range(40):
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            om = np.concatenate([[0.0], 10.0 ** rng.uniform(-5.0, 1.0, 30)])
            for plus, minus in zip(mech_spectra._factors(om, ss, p),
                                   mech_spectra._factors(-om, ss, p)):
                np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-14, atol=0)

    def test_one_coefficient_call_per_spectrum(self, opt_state, opt_params,
                                               monkeypatch):
        calls = []
        engine = mech_spectra._factors
        monkeypatch.setattr(mech_spectra, "_factors",
                            lambda *a: calls.append(a) or engine(*a))
        spectrum(np.linspace(-1.0, 1.0, 9), opt_state, opt_params)
        assert len(calls) == 1


class TestSpectrumProperties:
    def test_even_in_frequency(self):
        rng = np.random.default_rng(22)
        grid = np.array([1e-4, 0.01, 0.3, 1.7, 5.0])
        for _ in range(10):
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            plus = spectrum(grid, ss, p)
            minus = spectrum(-grid, ss, p)
            np.testing.assert_allclose(plus.S_Q, minus.S_Q, rtol=1e-12)
            np.testing.assert_allclose(plus.S_P, minus.S_P, rtol=1e-12)

    def test_real_and_positive(self):
        rng = np.random.default_rng(23)
        grid = np.linspace(-3.0, 3.0, 41)
        for _ in range(10):
            p = draw_stable_params(rng)
            s = spectrum(grid, solve_steady_state(p), p)
            assert (s.S_Q > 0.0).all()
            assert (s.S_P > 0.0).all()


class TestVariances:
    def test_deep_squeezing_point(self, opt_state, opt_params):
        pair = quadrature_variances(opt_state, opt_params)
        assert pair.var_p == pytest.approx(0.25319207581826186, rel=1e-10)
        assert pair.var_q == pytest.approx(24.993208987166163, rel=1e-10)

    def test_one_quadrature_pass_for_both_variances(self, opt_state,
                                                    opt_params, monkeypatch):
        calls = []
        engine = mech_spectra.integrate_line
        monkeypatch.setattr(mech_spectra, "integrate_line",
                            lambda f, **kw: calls.append(f) or engine(f, **kw))
        quadrature_variances(opt_state, opt_params)
        assert len(calls) == 1

    def test_agrees_with_lyapunov_on_random_draws(self):
        rng = np.random.default_rng(24)
        for _ in range(12):
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            pair = quadrature_variances(ss, p)
            cov = steady_covariance(build_drift(ss, p))
            assert pair.var_q == pytest.approx(cov.var_q, rel=1e-6)
            assert pair.var_p == pytest.approx(cov.var_p, rel=1e-6)

    def test_agrees_with_refined_lyapunov_at_low_damping(self):
        # The reduced Lyapunov system is ill conditioned at low damping
        # (condition numbers of 1e7 and more); its plain solve was off by up
        # to 1.8e-9 relative on these draws, and the refined one agrees
        # with the quadrature to rounding.
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 400:
            p = draw_low_damping_params(rng)
            ss = solve_steady_state(p)
            try:
                pair = quadrature_variances(ss, p)
            except UnstableSystem:
                continue
            checked += 1
            cov = steady_covariance(build_drift(ss, p))
            assert pair.var_q == pytest.approx(cov.var_q, rel=1e-13)
            assert pair.var_p == pytest.approx(cov.var_p, rel=1e-13)

    @pytest.mark.parametrize("draw", [draw_stable_params, draw_low_damping_params])
    def test_integrand_calls_per_variance_pair(self, draw, monkeypatch):
        # exact work count: the initial mesh graded by the decay rate leaves
        # few refinement rounds, also where the mechanical peak is 1e-9 wide
        calls = []
        engine = mech_spectra.integrate_line

        def counted(f, **kw):
            def g(om):
                calls[-1] += 1
                return f(om)
            calls.append(0)
            return engine(g, **kw)

        monkeypatch.setattr(mech_spectra, "integrate_line", counted)
        rng = np.random.default_rng(1)
        while len(calls) < 200:
            p = draw(rng)
            try:
                quadrature_variances(solve_steady_state(p), p)
            except UnstableSystem:   # refused before any integration
                pass
        assert np.mean(calls) <= 3.0

    def test_split_peaks_take_at_most_two_integrand_calls(self, monkeypatch):
        # underdamped points peak at +-Omega of their slowest pole pair;
        # the mesh graded at every drift pole resolves them at once
        calls = []
        engine = mech_spectra.integrate_line

        def counted(f, **kw):
            def g(om):
                calls[-1] += 1
                return f(om)
            calls.append(0)
            return engine(g, **kw)

        monkeypatch.setattr(mech_spectra, "integrate_line", counted)
        rng = np.random.default_rng(2)
        while len(calls) < 200:
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            slowest = max(routh_hurwitz(p, ss).poles, key=lambda lam: lam.real)
            if abs(slowest.imag) > abs(slowest.real):
                quadrature_variances(ss, p)
        assert max(calls) <= 2

    def test_gain_off_leaves_vacuum(self):
        # beamsplitter coupling alone cannot squeeze or heat at T = 0
        p = SystemParams(gamma_m=1e-4, cooperativity=400.0, G=0.0)
        pair = quadrature_variances(solve_steady_state(p), p)
        assert pair.var_q == pytest.approx(0.5, rel=1e-9)
        assert pair.var_p == pytest.approx(0.5, rel=1e-9)

    def test_coupling_off_gives_thermal_mirror(self):
        p = SystemParams(gamma_m=1e-5, cooperativity=0.0, temperature=0.01)
        ss = solve_steady_state(p)
        pair = quadrature_variances(ss, p)
        assert pair.var_q == pytest.approx(ss.n_th_m + 0.5, rel=1e-9)
        assert pair.var_p == pytest.approx(ss.n_th_m + 0.5, rel=1e-9)

    def test_phase_grid_minimum_at_alignment(self):
        # squeezing lives near theta = pi/16; the orthogonal phase heats
        values = {}
        for theta in (0.0, math.pi / 16, math.pi / 2):
            p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=0.49,
                             theta=theta)
            values[theta] = quadrature_variances(solve_steady_state(p), p).var_p
        assert values[math.pi / 16] == pytest.approx(0.25319207581826186,
                                                     rel=1e-10)
        assert values[0.0] == pytest.approx(0.4980886195196175, rel=1e-10)
        assert values[math.pi / 2] == pytest.approx(10.173682973517943,
                                                    rel=1e-10)
        assert values[math.pi / 16] < values[0.0] < values[math.pi / 2]

    def test_orthogonal_phase_never_squeezes(self):
        for G in (0.0, 0.2, 0.49):
            p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=G,
                             theta=math.pi / 2)
            pair = quadrature_variances(solve_steady_state(p), p)
            assert pair.var_p >= 0.5 - 1e-6

    def test_amplified_quadrature_stays_above_vacuum(self):
        for theta in (0.0, math.pi / 16, math.pi / 6):
            p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=0.49,
                             theta=theta)
            pair = quadrature_variances(solve_steady_state(p), p)
            assert pair.var_q >= 0.5

    def test_uncertainty_product_bounded_below(self):
        rng = np.random.default_rng(25)
        for _ in range(8):
            p = draw_stable_params(rng)
            pair = quadrature_variances(solve_steady_state(p), p)
            assert pair.var_q * pair.var_p >= 0.25 - 1e-9

    def test_monotone_in_temperature(self):
        values = []
        for temp in (0.0, 0.01, 0.02):
            p = SystemParams(gamma_m=1e-3, cooperativity=400.0, G=0.46,
                             theta=math.pi / 16, temperature=temp)
            values.append(quadrature_variances(solve_steady_state(p), p).var_p)
        assert values[0] < values[1] < values[2]


class TestGuards:
    def test_unstable_point_rejected(self):
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=0.6)
        with pytest.raises(UnstableSystem):
            quadrature_variances(solve_steady_state(p), p)

    def test_near_marginal_point_rejected(self):
        gam = 1e-5
        p = SystemParams(gamma_m=gam, cooperativity=400.0,
                         G=0.5 + gam / 4 - 1e-12)
        with pytest.raises(UnstableSystem):
            quadrature_variances(solve_steady_state(p), p)


class TestNextToTheMargin:
    def test_stable_points_integrate_and_match_lyapunov(self):
        # decay rates below 1e-9 kappa that routh_hurwitz calls stable:
        # the mesh graded at the drift poles integrates them; the Lyapunov
        # gate refuses most bare-cavity points there
        rng = np.random.default_rng(15)
        kept = compared = 0
        while kept < 100:
            p = draw_near_marginal_params(rng)
            ss = solve_steady_state(p)
            report = routh_hurwitz(p, ss)
            if not (report.stable and report.decay_rate < 1e-9 * p.kappa):
                continue
            kept += 1
            pair = quadrature_variances(ss, p)
            assert math.isfinite(pair.var_q) and math.isfinite(pair.var_p)
            try:
                cov = steady_covariance(build_drift(ss, p))
            except SingularSolve:
                continue
            compared += 1
            assert pair.var_q == pytest.approx(cov.var_q, rel=1e-12)
            assert pair.var_p == pytest.approx(cov.var_p, rel=1e-12)
        assert compared >= 40

    def test_refused_exactly_when_routh_hurwitz_says_unstable(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            p = draw_near_marginal_params(rng)
            ss = solve_steady_state(p)
            if routh_hurwitz(p, ss).stable:
                quadrature_variances(ss, p)
            else:
                with pytest.raises(UnstableSystem):
                    quadrature_variances(ss, p)


class TestSqueezingDb:
    def test_vacuum_is_zero_db(self):
        assert squeezing_db(0.5) == 0.0

    def test_deep_squeezing_point_in_db(self):
        assert squeezing_db(0.2531920758182641) == pytest.approx(
            2.9551989494273267, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="variance must be positive, got 0.0"):
            squeezing_db(0.0)
        with pytest.raises(ValueError, match="variance must be positive, got -1.0"):
            squeezing_db(-1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, var):
        db = squeezing_db(var)
        assert 0.5 * 10.0 ** (-db / 10.0) == pytest.approx(var, rel=1e-12)
