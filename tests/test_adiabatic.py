"""Closed forms of the eliminated-cavity model and the feedback extension."""

import dataclasses
import math

import numpy as np
import pytest

from omsqueeze import (
    AdiabaticInputs,
    DomainError,
    FeedbackUnstable,
    SystemParams,
    adiabatic_cavity_fluctuation,
    adiabatic_variance_p,
    adiabatic_variance_p_approx,
    feedback_variance_p,
    solve_steady_state,
)
from omsqueeze.adiabatic import (
    drift_decay_rate,
    momentum_decay_rate,
    optical_noise_coefficient,
    thermal_noise_coefficient,
)


def inputs_at(temperature: float = 0.0, eta: float = 0.0) -> AdiabaticInputs:
    p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=0.49,
                     theta=math.pi / 16, temperature=temperature)
    return AdiabaticInputs.from_system(solve_steady_state(p), p, eta=eta)


class TestClosedFormVariance:
    def test_values_across_temperatures(self):
        expected = {0.0: 0.25376275252525254,
                    0.01: 0.3957805724184356,
                    0.02: 0.5390307096632685}
        for temp, value in expected.items():
            assert adiabatic_variance_p(inputs_at(temp)) == pytest.approx(
                value, rel=1e-12)

    def test_threshold_gain_estimate(self):
        # n = 0 collapses the estimate to 1/4 + 1/(2C) with C = 400
        assert adiabatic_variance_p_approx(0.0, 0.0) == pytest.approx(
            0.25125, rel=1e-15)
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, temperature=0.01)
        ss = solve_steady_state(p)
        assert adiabatic_variance_p_approx(ss.n_th_c, ss.n_th_m) == pytest.approx(
            0.3947023433264465, rel=1e-12)

    def test_cooperativity_doubling_halves_thermal_term(self):
        def inp(C: float) -> AdiabaticInputs:
            g = math.sqrt(C * 1e-5)
            return AdiabaticInputs(G0=0.9, cooperativity=C, n_th_m=57.0,
                                   n_th_c=0.0, gamma_m=1e-5, kappa=1.0, g=g)
        first = 1.0 / (2.0 * 1.9)  # optical term, C-independent at T = 0
        t1 = adiabatic_variance_p(inp(200.0)) - first
        t2 = adiabatic_variance_p(inp(400.0)) - first
        assert t1 == pytest.approx(2.0 * t2, rel=1e-12)

    def test_approaches_quarter_at_gain_limit(self):
        g = math.sqrt(400 * 1e-5)
        inp = AdiabaticInputs(G0=1 - 1e-12, cooperativity=400.0, n_th_m=0.0,
                              n_th_c=0.0, gamma_m=1e-5, kappa=1.0, g=g)
        assert adiabatic_variance_p(inp) == pytest.approx(0.25125, abs=1e-9)

    def test_rejects_zero_coupling(self):
        inp = AdiabaticInputs(G0=0.5, cooperativity=1.0, n_th_m=0.0,
                              n_th_c=0.0, gamma_m=1e-5, kappa=1.0, g=0.0)
        with pytest.raises(DomainError):
            adiabatic_variance_p(inp)


class TestDomainGuards:
    def test_gain_ratio_bounds(self):
        with pytest.raises(DomainError):
            AdiabaticInputs(G0=1.0, cooperativity=1.0, n_th_m=0.0, n_th_c=0.0,
                            gamma_m=1e-5, kappa=1.0, g=0.1)
        with pytest.raises(DomainError):
            AdiabaticInputs(G0=-0.1, cooperativity=1.0, n_th_m=0.0, n_th_c=0.0,
                            gamma_m=1e-5, kappa=1.0, g=0.1)

    def test_cooperativity_must_be_positive(self):
        with pytest.raises(DomainError):
            AdiabaticInputs(G0=0.5, cooperativity=0.0, n_th_m=0.0, n_th_c=0.0,
                            gamma_m=1e-5, kappa=1.0, g=0.1)

    def test_feedback_gain_window(self):
        kwargs = dict(G0=0.5, cooperativity=100.0, n_th_m=0.0, n_th_c=0.0,
                      gamma_m=1e-5, kappa=1.0, g=0.1)
        AdiabaticInputs(eta=400.0, **kwargs)  # boundary 4C is allowed
        with pytest.raises(FeedbackUnstable):
            AdiabaticInputs(eta=400.0 + 1e-9, **kwargs)
        with pytest.raises(FeedbackUnstable):
            AdiabaticInputs(eta=-1e-9, **kwargs)
        with pytest.raises(FeedbackUnstable):
            AdiabaticInputs(eta=math.nan, **kwargs)


class TestFeedback:
    def test_value_at_nominal_gain(self):
        assert feedback_variance_p(inputs_at(eta=800.0)) == pytest.approx(
            0.12736057040878931, rel=1e-12)

    def test_value_at_gain_limit(self):
        g = math.sqrt(400 * 1e-5)
        inp = AdiabaticInputs(G0=1 - 1e-12, cooperativity=400.0, n_th_m=0.0,
                              n_th_c=0.0, gamma_m=1e-5, kappa=1.0, g=g,
                              eta=800.0)
        assert feedback_variance_p(inp) == pytest.approx(0.12546816479410103,
                                                         rel=1e-12)

    def test_monotone_in_feedback_gain(self):
        values = [feedback_variance_p(inputs_at(eta=eta))
                  for eta in (0.0, 100.0, 400.0, 800.0, 1500.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_suppression_factor_identity(self):
        # the quoted suppression keeps its eta-independent part, so eta = 0
        # does not collapse back to the bare closed form
        for eta in (0.0, 300.0, 800.0):
            inp = inputs_at(eta=eta)
            factor = 1.0 + (1.0 + inp.G0) * (1.0 + 0.5 * eta) / (
                2.0 * inp.cooperativity)
            assert feedback_variance_p(inp) == pytest.approx(
                adiabatic_variance_p(inp) / factor, rel=1e-15)


class TestRatesAndNoise:
    def test_frozen_values(self):
        inp = inputs_at()
        assert momentum_decay_rate(inp) == pytest.approx(
            0.0020202020202020198, rel=1e-12)
        assert drift_decay_rate(inp) == pytest.approx(
            0.10101010101010079, rel=1e-9)
        assert optical_noise_coefficient(inp) == pytest.approx(
            0.0010203040506070807, rel=1e-12)
        assert thermal_noise_coefficient(inp) == pytest.approx(5e-06, rel=1e-12)

    def test_rate_formulas(self):
        inp = inputs_at()
        g2 = abs(inp.g) ** 2
        assert momentum_decay_rate(inp) == pytest.approx(
            g2 / (inp.kappa * (1 + inp.G0)), rel=1e-15)
        assert drift_decay_rate(inp) == pytest.approx(
            g2 / ((1 - inp.G0 ** 2) * inp.kappa), rel=1e-15)


class TestCavityFluctuation:
    def test_matches_two_by_two_inversion(self, opt_state, opt_params):
        # independent check: solve the adiabatic cavity pair directly
        k, G, th = opt_params.kappa, opt_params.G, opt_params.theta
        g = opt_state.g
        A = np.array([[k, -2 * G * np.exp(1j * th)],
                      [-2 * G * np.exp(-1j * th), k]])
        rng = np.random.default_rng(31)
        for _ in range(10):
            db, dbd, cin, cind = rng.normal(size=4) + 1j * rng.normal(size=4)
            rhs = np.array([
                1j * g * db + math.sqrt(2 * k) * cin,
                -1j * np.conj(g) * dbd + math.sqrt(2 * k) * cind,
            ])
            expected = np.linalg.solve(A, rhs)[0]
            got = adiabatic_cavity_fluctuation(db, dbd, cin, cind,
                                               opt_state, opt_params)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_gain_off_reduces_to_cavity_filter(self, opt_state, opt_params):
        p = dataclasses.replace(opt_params, G=0.0)
        got = adiabatic_cavity_fluctuation(1.0, 0.0, 0.0, 0.0, opt_state, p)
        assert got == pytest.approx(1j * opt_state.g / p.kappa, rel=1e-15)

    def test_diverges_at_gain_half_kappa(self, opt_state, opt_params):
        p = dataclasses.replace(opt_params, G=0.5)
        with pytest.raises(DomainError):
            adiabatic_cavity_fluctuation(1.0, 0.0, 0.0, 0.0, opt_state, p)

    def test_linear_in_inputs(self, opt_state, opt_params):
        a = adiabatic_cavity_fluctuation(1.0, 0.0, 0.0, 0.0, opt_state, opt_params)
        b = adiabatic_cavity_fluctuation(0.0, 1.0, 0.0, 0.0, opt_state, opt_params)
        both = adiabatic_cavity_fluctuation(2.0, 3.0, 0.0, 0.0, opt_state, opt_params)
        assert both == pytest.approx(2 * a + 3 * b, rel=1e-12)
