"""Closed forms of the eliminated-cavity model and the feedback extension."""

import math

import pytest

from omsqueeze import (
    AdiabaticInputs,
    SystemParams,
    adiabatic_variance_p,
    adiabatic_variance_p_approx,
    feedback_variance_p,
    solve_steady_state,
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
        # n = 0 collapses the estimate to 1/4 + 1/(2C)
        def inp(C: float, temperature: float = 0.0) -> AdiabaticInputs:
            p = SystemParams(gamma_m=1e-5, cooperativity=C,
                             temperature=temperature)
            return AdiabaticInputs.from_system(solve_steady_state(p), p)

        assert adiabatic_variance_p_approx(inp(400.0)) == pytest.approx(
            0.25125, rel=1e-15, abs=0.0)
        assert adiabatic_variance_p_approx(inp(400.0, 0.01)) == pytest.approx(
            0.3947023433264465, rel=1e-12)
        # the working cooperativity, not a frozen C = 400
        assert adiabatic_variance_p_approx(inp(100.0)) == pytest.approx(
            0.255, rel=1e-12)

    def test_cooperativity_doubling_halves_thermal_term(self):
        def inp(C: float) -> AdiabaticInputs:
            return AdiabaticInputs(G0=0.9, cooperativity=C, n_th_m=57.0,
                                   n_th_c=0.0)
        first = 1.0 / (2.0 * 1.9)  # optical term, C-independent at T = 0
        t1 = adiabatic_variance_p(inp(200.0)) - first
        t2 = adiabatic_variance_p(inp(400.0)) - first
        assert t1 == pytest.approx(2.0 * t2, rel=1e-12)

    def test_approaches_quarter_at_gain_limit(self):
        inp = AdiabaticInputs(G0=1 - 1e-12, cooperativity=400.0, n_th_m=0.0,
                              n_th_c=0.0)
        assert adiabatic_variance_p(inp) == pytest.approx(0.25125, abs=1e-9)

    def test_rejects_zero_coupling(self):
        # g = 0 is C = 0, which the inputs refuse
        p = SystemParams(gamma_m=1e-5, cooperativity=0.0, G=0.25)
        assert solve_steady_state(p).g == 0
        with pytest.raises(ValueError, match="cooperativity must be positive"):
            AdiabaticInputs.from_system(solve_steady_state(p), p)


class TestDomainGuards:
    def test_gain_ratio_bounds(self):
        with pytest.raises(ValueError, match=r"G0 must lie in \[0, 1\), got 1.0"):
            AdiabaticInputs(G0=1.0, cooperativity=1.0, n_th_m=0.0, n_th_c=0.0)
        with pytest.raises(ValueError, match=r"G0 must lie in \[0, 1\), got -0.1"):
            AdiabaticInputs(G0=-0.1, cooperativity=1.0, n_th_m=0.0, n_th_c=0.0)

    def test_cooperativity_must_be_positive(self):
        with pytest.raises(ValueError, match="cooperativity must be positive"):
            AdiabaticInputs(G0=0.5, cooperativity=0.0, n_th_m=0.0, n_th_c=0.0)

    def test_feedback_gain_window(self):
        kwargs = dict(G0=0.5, cooperativity=100.0, n_th_m=0.0, n_th_c=0.0)
        AdiabaticInputs(eta=400.0, **kwargs)  # boundary 4C is allowed
        outside = r"feedback gain \S+ outside \[0, 4C\] = \[0, 400.0\]"
        with pytest.raises(ValueError, match=outside):
            AdiabaticInputs(eta=400.0 + 1e-9, **kwargs)
        with pytest.raises(ValueError, match=outside):
            AdiabaticInputs(eta=-1e-9, **kwargs)
        with pytest.raises(ValueError, match=outside):
            AdiabaticInputs(eta=math.nan, **kwargs)


class TestFeedback:
    def test_value_at_nominal_gain(self):
        assert feedback_variance_p(inputs_at(eta=800.0)) == pytest.approx(
            0.12736057040878931, rel=1e-12)

    def test_value_at_gain_limit(self):
        inp = AdiabaticInputs(G0=1 - 1e-12, cooperativity=400.0, n_th_m=0.0,
                              n_th_c=0.0, eta=800.0)
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
                adiabatic_variance_p(inp) / factor, rel=1e-15, abs=0.0)
