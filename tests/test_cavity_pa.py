"""Empty-cavity parametric amplifier reference."""

import math

import numpy as np
import pytest

from omsqueeze import (
    AboveThreshold,
    SystemParams,
    cavity_spectra,
    cavity_variances,
    quadrature_variances,
    solve_steady_state,
)
from omsqueeze import cavity_pa
from omsqueeze.cavity_pa import _coeff_arrays, _var_y_theta0


def cavity_only(G: float, theta: float = 0.0,
                temperature: float = 0.0) -> SystemParams:
    return SystemParams(gamma_m=1e-5, cooperativity=0.0, G=G, theta=theta,
                        temperature=temperature)


def cavity_coeffs(omega: float, p: SystemParams) -> dict:
    """A3, B3, A4, B4 at one frequency."""
    return dict(zip(("A3", "B3", "A4", "B4"),
                    _coeff_arrays(np.asarray(float(omega)), p)))


class TestCoeffs:
    def test_cross_terms_identical(self):
        p = cavity_only(0.3, theta=0.7)
        for om in (0.0, 0.4, -1.3, 8.0):
            c = cavity_coeffs(om, p)
            assert c["B3"] == c["A4"]

    def test_frozen_point(self):
        c = cavity_coeffs(0.0, cavity_only(0.49, theta=0.0))
        # 1d response: sqrt(2)/(1 +- 2G) on the diagonal at omega = 0
        assert c["A3"] == pytest.approx(math.sqrt(2.0) / 0.02, rel=1e-12)
        assert c["B4"] == pytest.approx(math.sqrt(2.0) / 1.98, rel=1e-12)
        assert c["B3"] == 0.0

    def test_rejects_threshold(self):
        for G in (0.5, 0.6, 2.0):
            with pytest.raises(AboveThreshold):
                cavity_spectra(0.0, cavity_only(G))


class TestSpectra:
    def test_passive_cavity_lorentzian(self):
        p = cavity_only(0.0)
        S_x, S_y = cavity_spectra(np.array([0.0, 1.0, -1.0, 3.0]), p)
        np.testing.assert_allclose(S_x, S_y, rtol=1e-14)
        assert S_x[0] == pytest.approx(1.0, rel=1e-13)
        # half maximum at omega = +-kappa, so FWHM = 2 kappa
        assert S_x[1] == pytest.approx(0.5, rel=1e-13)
        assert S_x[2] == pytest.approx(0.5, rel=1e-13)
        assert S_x[3] == pytest.approx(1.0 / 10.0, rel=1e-13)

    def test_even_and_real(self):
        p = cavity_only(0.37, theta=1.1)
        om = np.linspace(0.01, 4.0, 50)
        Sxp, Syp = cavity_spectra(om, p)
        Sxm, Sym = cavity_spectra(-om, p)
        np.testing.assert_allclose(Sxp, Sxm, rtol=1e-12)
        np.testing.assert_allclose(Syp, Sym, rtol=1e-12)
        assert (Sxp > 0).all() and (Syp > 0).all()

    def test_rotated_pump_balances_quadratures(self):
        # theta = pi/2 puts the squeezing axis between x and y
        p = cavity_only(0.4, theta=math.pi / 2)
        S_x, S_y = cavity_spectra(np.linspace(-2, 2, 9), p)
        np.testing.assert_allclose(S_x, S_y, rtol=1e-12)


class TestVariances:
    def test_closed_form_across_gain(self):
        for G in np.linspace(0.0, 0.49, 8):
            p = cavity_only(float(G))
            var_x, var_y = cavity_variances(p)
            assert var_y == pytest.approx(_var_y_theta0(p), rel=1e-6)
            assert var_x == pytest.approx(
                p.kappa * 0.5 / (p.kappa - 2.0 * G), rel=1e-6)

    def test_frozen_best_point(self):
        var_x, var_y = cavity_variances(cavity_only(0.49))
        assert var_y == pytest.approx(0.25252525252525254, rel=1e-6)
        assert var_x == pytest.approx(25.0, rel=1e-6)

    def test_no_gain_gives_vacuum(self):
        var_x, var_y = cavity_variances(cavity_only(0.0))
        assert var_x == pytest.approx(0.5, rel=1e-8)
        assert var_y == pytest.approx(0.5, rel=1e-8)

    def test_uncertainty_product(self):
        for G, theta in [(0.1, 0.0), (0.3, 0.5), (0.45, math.pi / 2),
                         (0.49, math.pi / 16)]:
            var_x, var_y = cavity_variances(cavity_only(G, theta=theta))
            assert var_x * var_y >= 0.25 - 1e-9

    def test_rotated_pump_never_squeezes_phase(self):
        for G in (0.1, 0.3, 0.49):
            _, var_y = cavity_variances(cavity_only(G, theta=math.pi / 2))
            assert var_y >= 0.5 - 1e-9

    def test_rejects_threshold(self):
        with pytest.raises(AboveThreshold):
            cavity_variances(cavity_only(0.5))

    def test_one_quadrature_pass_for_both_variances(self, monkeypatch):
        calls = []
        engine = cavity_pa.integrate_line
        monkeypatch.setattr(cavity_pa, "integrate_line",
                            lambda f, **kw: calls.append(f) or engine(f, **kw))
        cavity_variances(cavity_only(0.3, theta=0.5))
        assert len(calls) == 1


class TestAgainstMechanicalOptimum:
    def test_matches_coupled_momentum_variance(self):
        # the coupled system transfers the intracavity squeezing onto the
        # mirror almost losslessly at the optimal phase
        _, var_y = cavity_variances(cavity_only(0.49))
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=0.49,
                         theta=math.pi / 16)
        var_p = quadrature_variances(solve_steady_state(p), p).var_p
        assert abs(var_y - var_p) < 0.002
