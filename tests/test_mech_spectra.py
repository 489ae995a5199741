"""Mirror quadrature spectra: closed-form transfer coefficients against the
resolvent, limits, and the frequency-domain variance route."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omsqueeze import (
    SingularSolve,
    SystemParams,
    UnstableSystem,
    build_drift,
    cavity_spectra,
    detection_map,
    quadrature_variances,
    routh_hurwitz,
    solve_steady_state,
    spectrum,
    spectrum_zout,
    squeezing_db,
    steady_covariance,
)

from omsqueeze import mech_spectra
from omsqueeze.stability import _factor_pairs, _poles

from conftest import (draw_low_damping_params, draw_near_marginal_params, draw_stable_params,
                      evaluate_rows)
from line_quadrature import integrate_line

# the order of the rows of mech_spectra._mirror_rows, then the denominator
COEFF_NAMES = ("A1", "B1", "E1", "F1", "A2", "B2", "E2", "F2", "den")


def couplings(omega: float, ss, p) -> dict:
    """The eight mirror couplings and den at one frequency, from the
    polynomial form: each row of _mirror_rows weights the factor
    polynomials (s, v, T, 1), over den on the factor pairs."""
    rows = np.asarray(mech_spectra._mirror_rows(ss, p)).reshape(8, 4)
    b = rows @ mech_spectra._factor_polynomials(ss, p)
    values, den = evaluate_rows(b, _factor_pairs(ss, p), omega)
    return dict(zip(COEFF_NAMES, [*values, den]))


def resolvent_spectra(om: float, ss, p) -> tuple[float, float]:
    """Independent oracle: S(om) = [R(om) D R(-om)^T] diagonal with
    R(om) = (-i om I - M)^(-1), bypassing the closed-form coefficients."""
    dm = build_drift(ss, p)
    eye = np.eye(4)
    R_plus = np.linalg.inv(-1j * om * eye - dm.M)
    R_minus = np.linalg.inv(1j * om * eye - dm.M)
    S = R_plus @ dm.D @ R_minus.T
    return float(S[0, 0].real), float(S[1, 1].real)


def integrated_variances(ss, p) -> tuple[float, float]:
    """(var_q, var_p) by adaptive quadrature of the spectra, on a mesh
    graded at every drift pole; the budget is 1e-10 relative."""
    def f(om):
        s = spectrum(om, ss, p)
        return np.stack([s.S_Q, s.S_P])
    poles = [(lam.imag, -lam.real) for lam in _poles(_factor_pairs(ss, p))]
    var_q, var_p = integrate_line(f, features=poles) / (2.0 * np.pi)
    return float(var_q), float(var_p)


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

    def test_skipped_row_entries_are_zero(self):
        # _mirror_polynomials reads the A and B rows on (s, v) and the E and
        # F rows on (T, 1): every entry it skips is exactly zero, so its rows
        # equal the whole product, summed in floats, bit for bit
        rng = np.random.default_rng(27)
        for _ in range(50):
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            rows = mech_spectra._mirror_rows(ss, p, math.sqrt(ss.n_th_c + 0.5),
                                             math.sqrt(ss.n_th_m + 0.5))
            for k, row in enumerate(rows):
                skipped = row[2:] if k % 4 < 2 else row[:2]
                assert skipped == (0.0, 0.0)
            factors = mech_spectra._factor_polynomials(ss, p)
            product = [[sum(c * f[j] for c, f in zip(row, factors)) for j in range(4)]
                       for row in rows]
            assert np.array_equal(mech_spectra._mirror_polynomials(ss, p), product)

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
    def test_spectra_are_even_bit_for_bit(self):
        # real coefficients: the real part is even in omega and the
        # imaginary part odd, so S(-omega) is S(omega) exactly
        rng = np.random.default_rng(26)
        for _ in range(40):
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            om = np.concatenate([[0.0], 10.0 ** rng.uniform(-5.0, 1.0, 30)])
            plus, minus = spectrum(om, ss, p), spectrum(-om, ss, p)
            assert np.array_equal(plus.S_Q, minus.S_Q)
            assert np.array_equal(plus.S_P, minus.S_P)

    def test_one_coefficient_call_per_spectrum(self, opt_state, opt_params,
                                               monkeypatch):
        calls = []
        engine = mech_spectra._mirror_polynomials
        monkeypatch.setattr(mech_spectra, "_mirror_polynomials",
                            lambda *a: calls.append(a) or engine(*a))
        spectrum(np.linspace(-1.0, 1.0, 9), opt_state, opt_params)
        assert len(calls) == 1

    def test_any_grid_shape(self, opt_state, opt_params):
        # a 2-d grid gives the 1-d evaluation in its shape, a scalar a 1-d result
        grid = np.array([[0.0, 0.1, -0.3], [2.0, 1e-4, 7.5]])
        flat = spectrum(grid.ravel(), opt_state, opt_params)
        shaped = spectrum(grid, opt_state, opt_params)
        assert shaped.S_Q.shape == shaped.S_P.shape == (2, 3)
        assert np.array_equal(shaped.S_Q.ravel(), flat.S_Q)
        assert np.array_equal(shaped.S_P.ravel(), flat.S_P)
        assert spectrum(0.1, opt_state, opt_params).S_Q.shape == (1,)


class TestHugeFrequencies:
    def test_no_warning_at_1e300_kappa(self, opt_state, opt_params):
        # the powers of omega overflow there; every spectrum evaluates
        # silently, and the CLI's finite check refuses what is not finite
        omega = np.array([0.0, 1e300, -1e300]) * opt_params.kappa
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = spectrum(omega, opt_state, opt_params)
            values = [sample.S_Q, sample.S_P,
                      spectrum_zout(omega, math.pi / 2, opt_state, opt_params),
                      *cavity_spectra(omega, opt_params),
                      *detection_map(omega, [0.0, math.pi / 2], opt_state, opt_params).T]
        assert all(np.isfinite(v[0]) for v in values)


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

    @pytest.mark.parametrize("gap", [1e-1, 1e-4, 1e-8, 1e-10, 2e-12])
    def test_decoupled_mirror_next_to_threshold(self, gap):
        # at C = 0 the mirror is its own bath's Lorentzian at any gain, also
        # where kappa - 2G = gap nearly cancels in den and in T
        for theta in (0.0, 0.3, 1.2):
            for gamma_m in (1e-5, 1e-2):
                p = SystemParams(gamma_m=gamma_m, cooperativity=0.0,
                                 G=0.5 * (1.0 - gap), theta=theta)
                ss = solve_steady_state(p)
                om = np.array([0.0, 1e-6, 1e-3, 0.1, 1.0, 7.0])
                s = spectrum(om, ss, p)
                for w, S_Q, S_P in zip(om, s.S_Q, s.S_P):
                    lorentzian = (ss.n_th_m + 0.5) * gamma_m / (0.25 * gamma_m ** 2 + w * w)
                    assert S_Q == pytest.approx(lorentzian, rel=1e-13, abs=0.0)
                    assert S_P == pytest.approx(lorentzian, rel=1e-13, abs=0.0)

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
        # with the closed form to rounding.
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
            assert pair.var_q == pytest.approx(cov.var_q, rel=1e-13, abs=0.0)
            assert pair.var_p == pytest.approx(cov.var_p, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("draw", [draw_stable_params, draw_low_damping_params])
    def test_closed_form_matches_the_integrated_spectra(self, draw):
        # the closed form against the spectra integrated numerically: two
        # routes that share only the spectra's definition
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 40:
            p = draw(rng)
            ss = solve_steady_state(p)
            if not routh_hurwitz(p, ss).stable:
                continue
            checked += 1
            pair = quadrature_variances(ss, p)
            var_q, var_p = integrated_variances(ss, p)
            assert pair.var_q == pytest.approx(var_q, rel=1e-10)
            assert pair.var_p == pytest.approx(var_p, rel=1e-10)

    @pytest.mark.parametrize("G", [0.0, 1e-12])
    def test_repeated_poles_match_lyapunov(self, G):
        # at G = 0 den's two quadratic factors coincide, a double pole pair
        # on which a residue sum divides by zero; at G = 1e-12 they nearly do
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = dataclasses.replace(draw_stable_params(rng), G=G)
            ss = solve_steady_state(p)
            pair = quadrature_variances(ss, p)
            cov = steady_covariance(build_drift(ss, p))
            assert pair.var_q == pytest.approx(cov.var_q, rel=1e-13, abs=0.0)
            assert pair.var_p == pytest.approx(cov.var_p, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kappa", [1e-60, 1e-30, 1e30, 1e60])
    def test_any_unit_of_the_rates(self, kappa):
        # every rate times kappa leaves the variances as they are; the
        # forms are evaluated in units of den's root scale, so no
        # intermediate over- or underflows
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = draw_stable_params(rng)
            scaled = dataclasses.replace(p, kappa=kappa, gamma_m=kappa * p.gamma_m,
                                         G=kappa * p.G, omega_m=kappa * p.omega_m)
            pair = quadrature_variances(solve_steady_state(p), p)
            moved = quadrature_variances(solve_steady_state(scaled), scaled)
            assert moved.var_q == pytest.approx(pair.var_q, rel=1e-13, abs=0.0)
            assert moved.var_p == pytest.approx(pair.var_p, rel=1e-13, abs=0.0)

    def test_factor_polynomials_evaluate_to_the_factors(self):
        # the spectra and the closed form read the factors as polynomials
        # in z = -i omega
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            om = np.concatenate([[0.0], 10.0 ** rng.uniform(-4.0, 1.0, 10)])
            powers = (-1j * om) ** np.arange(4)[:, None]
            v = 0.5 * p.gamma_m - 1j * om
            u = p.kappa - 1j * om
            s = u * v + abs(ss.g) ** 2
            T = u * s - 4.0 * p.G ** 2 * v
            np.testing.assert_allclose(
                mech_spectra._factor_polynomials(ss, p) @ powers,
                [s, v, T, np.ones_like(om)], rtol=1e-13, atol=0)

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
        # the closed form evaluates them all; the Lyapunov gate refuses most
        # bare-cavity points there
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

    def test_closed_form_matches_the_integrated_spectra(self):
        # the same draws against adaptive quadrature of the spectra, whose
        # mesh is graded at the drift poles; it meets its 1e-10 budget here
        rng = np.random.default_rng(15)
        kept = 0
        while kept < 100:
            p = draw_near_marginal_params(rng)
            ss = solve_steady_state(p)
            report = routh_hurwitz(p, ss)
            if not (report.stable and report.decay_rate < 1e-9 * p.kappa):
                continue
            kept += 1
            pair = quadrature_variances(ss, p)
            var_q, var_p = integrated_variances(ss, p)
            assert pair.var_q == pytest.approx(var_q, rel=1e-10)
            assert pair.var_p == pytest.approx(var_p, rel=1e-10)

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
