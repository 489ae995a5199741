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
    thermal_occupation,
)
from omsqueeze import cavity_pa
from omsqueeze.cavity_pa import _coeff_arrays
from omsqueeze.cli import main, read_table


def cavity_only(G: float, theta: float = 0.0,
                temperature: float = 0.0) -> SystemParams:
    return SystemParams(gamma_m=1e-5, cooperativity=0.0, G=G, theta=theta,
                        temperature=temperature)


def var_y_theta0(p: SystemParams) -> float:
    """The phase-quadrature variance at theta = 0 in closed form: the
    contour integral of its Lorentzian, kappa (n_c + 1/2) / (kappa + 2G)."""
    nc = thermal_occupation(p.omega_c_phys, p.temperature) + 0.5
    return p.kappa * nc / (p.kappa + 2.0 * p.G)


def cavity_coeffs(omega: float, p: SystemParams) -> dict:
    """A3, B3, A4, B4 at one frequency."""
    couplings, den = _coeff_arrays(np.array([float(omega)]), p)
    return dict(zip(("A3", "B3", "A4", "B4"), couplings.reshape(4) / den[0]))


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

    def test_couplings_at_minus_omega_are_conjugates(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            p = cavity_only(float(rng.uniform(0.0, 0.5)),
                            theta=float(rng.uniform(0.0, 2.0 * math.pi)))
            om = np.concatenate([[0.0], 10.0 ** rng.uniform(-5.0, 1.0, 30)])
            for plus, minus in zip(_coeff_arrays(om, p), _coeff_arrays(-om, p)):
                np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-14, atol=0)

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
            assert var_y == pytest.approx(var_y_theta0(p), rel=1e-6)
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


class TestNearThreshold:
    # the factored denominator (u - 2G)(u + 2G) stays accurate as
    # G -> kappa/2, and the budget relative to the variance lets the
    # integral converge where kappa - 2G is 1e-6 and var_x about 5e5
    def test_cavity_sweep_next_to_threshold(self, tmp_path):
        path = tmp_path / "x.csv"
        for lo, hi in (("0.49998", "0.49999"), ("0.49", "0.499999475")):
            code = main(["cavity-sweep", "--config", "fig9", "--range", lo, hi,
                         "--points", "3", "-o", str(path), "--no-timestamp"])
            assert code == 0
            _, rows = read_table(path)
            for row in rows:
                p = cavity_only(float(row["G_over_kappa"]))
                assert row["warnings"] == ""
                assert float(row["var_y"]) == pytest.approx(var_y_theta0(p), rel=1e-11)

    def test_closed_form_on_draws_near_threshold(self):
        rng = np.random.default_rng(8)
        for _ in range(400):
            gap = float(10.0 ** rng.uniform(-5.0, -3.0))   # kappa - 2G
            p = cavity_only(0.5 * (1.0 - gap))
            _, var_y = cavity_variances(p)
            assert var_y == pytest.approx(var_y_theta0(p), rel=1e-13)


class TestAgainstMechanicalOptimum:
    def test_matches_coupled_momentum_variance(self):
        # the coupled system transfers the intracavity squeezing onto the
        # mirror almost losslessly at the optimal phase
        _, var_y = cavity_variances(cavity_only(0.49))
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=0.49,
                         theta=math.pi / 16)
        var_p = quadrature_variances(solve_steady_state(p), p).var_p
        assert abs(var_y - var_p) < 0.002
