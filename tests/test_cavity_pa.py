"""Empty-cavity parametric amplifier reference."""

import dataclasses
import math

import numpy as np
import pytest

from omsqueeze import (
    DriftModel,
    SystemParams,
    UnstableSystem,
    build_drift,
    cavity_spectra,
    cavity_variances,
    quadrature_variances,
    routh_hurwitz,
    solve_steady_state,
    steady_covariance,
    thermal_occupation,
)
from omsqueeze.cavity_pa import _rows
from omsqueeze.cli import main, read_table

from line_quadrature import integrate_line


def cavity_only(G: float, theta: float = 0.0,
                temperature: float = 0.0) -> SystemParams:
    return SystemParams(gamma_m=1e-5, cooperativity=0.0, G=G, theta=theta,
                        temperature=temperature)


def var_y_theta0(p: SystemParams) -> float:
    """The phase-quadrature variance at theta = 0 in closed form: the
    contour integral of its Lorentzian, kappa (n_c + 1/2) / (kappa + 2G)."""
    nc = thermal_occupation(p.omega_c_phys, p.temperature) + 0.5
    return p.kappa * nc / (p.kappa + 2.0 * p.G)


def eigenmode_variances(p: SystemParams) -> tuple[float, float]:
    """(var_x, var_y) at any theta from the drift's eigenmodes: the modes
    at angles theta/2 and theta/2 + pi/2 decay at kappa -+ 2G, each with
    variance kappa (n_c + 1/2) over its rate."""
    nc = thermal_occupation(p.omega_c_phys, p.temperature) + 0.5
    slow, fast = p.kappa * nc / (p.kappa - 2.0 * p.G), p.kappa * nc / (p.kappa + 2.0 * p.G)
    c2, s2 = math.cos(p.theta / 2) ** 2, math.sin(p.theta / 2) ** 2
    return c2 * slow + s2 * fast, s2 * slow + c2 * fast


def cavity_coeffs(omega: float, p: SystemParams) -> dict:
    """A3, B3, A4, B4 at one frequency: the rows of _rows on (u, 1) over
    den = (u - 2G)(u + 2G), with u = kappa - i omega."""
    u = p.kappa - 1j * float(omega)
    couplings = _rows(p) @ np.array([u, 1.0])
    return dict(zip(("A3", "B3", "A4", "B4"),
                    couplings.reshape(4) / ((u - 2.0 * p.G) * (u + 2.0 * p.G))))


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

    def test_spectra_are_even_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            p = cavity_only(float(rng.uniform(0.0, 0.5)),
                            theta=float(rng.uniform(0.0, 2.0 * math.pi)))
            om = np.concatenate([[0.0], 10.0 ** rng.uniform(-5.0, 1.0, 30)])
            for plus, minus in zip(cavity_spectra(om, p), cavity_spectra(-om, p)):
                assert np.array_equal(plus, minus)

    def test_rejects_threshold(self):
        for G in (0.5, 0.6, 2.0):
            with pytest.raises(UnstableSystem):
                cavity_spectra(0.0, cavity_only(G))


class TestSpectra:
    def test_passive_cavity_lorentzian(self):
        p = cavity_only(0.0)
        S_x, S_y = cavity_spectra(np.array([0.0, 1.0, -1.0, 3.0]), p)
        np.testing.assert_allclose(S_x, S_y, rtol=1e-14)
        assert S_x[0] == pytest.approx(1.0, rel=1e-13, abs=0.0)
        # half maximum at omega = +-kappa, so FWHM = 2 kappa
        assert S_x[1] == pytest.approx(0.5, rel=1e-13, abs=0.0)
        assert S_x[2] == pytest.approx(0.5, rel=1e-13, abs=0.0)
        assert S_x[3] == pytest.approx(1.0 / 10.0, rel=1e-13, abs=0.0)

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

    def test_closed_form_matches_the_integrated_spectra(self):
        # adaptive quadrature of the spectra, its mesh graded at the slow
        # mode's decay rate kappa - 2G, to its 1e-10 relative budget
        for G in (0.0, 0.1, 0.3, 0.45, 0.49, 0.499, 0.49999):
            for theta in (0.0, 0.3, 1.2, 2.5):
                p = cavity_only(G, theta=theta)
                integrated = integrate_line(lambda w: np.stack(cavity_spectra(w, p)),
                                            features=[(0.0, p.kappa - 2.0 * p.G)])
                np.testing.assert_allclose(cavity_variances(p),
                                           integrated / (2.0 * np.pi), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("kappa", [1e-150, 1e-30, 1e30, 1e150])
    def test_any_unit_of_the_rates(self, kappa):
        # every rate times kappa leaves the variances as they are
        for G, theta in [(0.0, 0.0), (0.3, 0.5), (0.49, 1.2)]:
            p = cavity_only(G, theta=theta)
            scaled = dataclasses.replace(p, kappa=kappa, gamma_m=kappa * p.gamma_m,
                                         G=kappa * G, omega_m=kappa * p.omega_m)
            np.testing.assert_allclose(cavity_variances(scaled), cavity_variances(p),
                                       rtol=1e-14, atol=0)

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
        with pytest.raises(UnstableSystem):
            cavity_variances(cavity_only(0.5))


class TestNearThreshold:
    # the factored denominator (u - 2G)(u + 2G) stays accurate as
    # G -> kappa/2, where var_x grows like 1/(kappa - 2G)
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

    @pytest.mark.parametrize("gap", [2e-12, 1.25e-12, 5e-13, 1e-13])
    def test_routes_refuse_the_same_points(self, gap):
        # kappa - 2G = gap kappa at C = 0: the closed form, routh_hurwitz and
        # the Lyapunov solve of the cavity's 2x2 drift share one marginal
        # rule, so they refuse the same points and agree where they do not
        p = cavity_only(0.5 * (1.0 - gap))
        ss = solve_steady_state(p)
        dm = build_drift(ss, p)
        cavity = DriftModel(M=dm.M[2:, 2:], D=dm.D[2:, 2:])
        stable = routh_hurwitz(p, ss).stable
        assert stable == (gap > 1e-12)
        if stable:
            assert cavity_variances(p)[1] == pytest.approx(
                steady_covariance(cavity).V[1, 1], rel=1e-12)
            return
        with pytest.raises(UnstableSystem):
            cavity_variances(p)
        with pytest.raises(UnstableSystem):
            steady_covariance(cavity)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.2])
    def test_closed_form_down_to_the_margin(self, theta):
        # kappa - 2G from 1e-1 down to 2e-12 kappa, just above the marginal
        # rule, against the eigenmode form at every phase and the contour
        # value of the phase quadrature at theta = 0. The 2x2 Lyapunov
        # solve joins where kappa - 2G >= 1e-4: its drift takes cos(theta)
        # and sin(theta) rounded, whose squares sum to 1 only to 2e-16,
        # which moves the slow rate by about 1e-16 and the variance by
        # 1e-16/(kappa - 2G) relative
        for gap in np.geomspace(1e-1, 2e-12, 23):
            p = cavity_only(0.5 * (1.0 - float(gap)), theta=theta)
            var_x, var_y = cavity_variances(p)
            ref_x, ref_y = eigenmode_variances(p)
            assert var_x == pytest.approx(ref_x, rel=1e-13, abs=0.0)
            assert var_y == pytest.approx(ref_y, rel=1e-13, abs=0.0)
            if theta == 0.0:
                assert var_y == pytest.approx(var_y_theta0(p), rel=1e-14, abs=0.0)
            if gap >= 1e-4:
                dm = build_drift(solve_steady_state(p), p)
                V = steady_covariance(DriftModel(M=dm.M[2:, 2:], D=dm.D[2:, 2:])).V
                assert var_x == pytest.approx(V[0, 0], rel=1e-12)
                assert var_y == pytest.approx(V[1, 1], rel=1e-12)

    def test_cavity_sweep_refuses_where_the_mirror_sweep_does(self, tmp_path):
        # the same threshold crossing, once as the empty cavity and once as
        # the uncoupled mirror's sweep: one stable column
        grid = ["--range", "0.499999999999", "0.49999999999975", "--points", "3",
                "--no-timestamp", "--no-jsonl"]
        cavity, mirror = tmp_path / "cavity.csv", tmp_path / "mirror.csv"
        assert main(["cavity-sweep", "--config", "fig9", *grid, "-o", str(cavity)]) == 0
        assert main(["sweep-gain", "--gamma-m", "1e-3", "--cooperativity", "0",
                     "--theta", "0", *grid, "-o", str(mirror)]) == 0
        columns = [[row["stable"] for row in read_table(path)[1]]
                   for path in (cavity, mirror)]
        assert columns == [["true", "true", "false"]] * 2

    def test_closed_form_on_draws_near_threshold(self):
        rng = np.random.default_rng(8)
        for _ in range(400):
            gap = float(10.0 ** rng.uniform(-5.0, -3.0))   # kappa - 2G
            p = cavity_only(0.5 * (1.0 - gap))
            _, var_y = cavity_variances(p)
            assert var_y == pytest.approx(var_y_theta0(p), rel=1e-13, abs=0.0)


class TestAgainstMechanicalOptimum:
    def test_matches_coupled_momentum_variance(self):
        # the coupled system transfers the intracavity squeezing onto the
        # mirror almost losslessly at the optimal phase
        _, var_y = cavity_variances(cavity_only(0.49))
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=0.49,
                         theta=math.pi / 16)
        var_p = quadrature_variances(solve_steady_state(p), p).var_p
        assert abs(var_y - var_p) < 0.002
