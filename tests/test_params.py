"""Working-point construction, thermal occupations, config ingestion."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from omsqueeze import params
from omsqueeze import (
    ConfigError,
    SystemParams,
    load_config,
    optimal_theta,
    params_from_mapping,
    parse_angle,
    rwa_flags,
    solve_steady_state,
    thermal_occupation,
)

OMEGA_M_PHYS = 2 * math.pi * 3.6e6
OMEGA_C_PHYS = 2 * math.pi * 6.23e9


class TestThermalOccupation:
    def test_mirror_occupations_at_dilution_temperatures(self):
        assert thermal_occupation(OMEGA_M_PHYS, 0.01) == pytest.approx(
            57.38093733055792, rel=1e-12)
        assert thermal_occupation(OMEGA_M_PHYS, 0.02) == pytest.approx(
            115.25971501516328, rel=1e-12)

    def test_cavity_occupations_negligible(self):
        assert thermal_occupation(OMEGA_C_PHYS, 0.01) == pytest.approx(
            1.0349176536394734e-13, rel=1e-9)
        assert thermal_occupation(OMEGA_C_PHYS, 0.02) == pytest.approx(
            3.217014640172658e-07, rel=1e-9)

    def test_zero_temperature_is_vacuum(self):
        assert thermal_occupation(OMEGA_M_PHYS, 0.0) == 0.0

    @given(st.floats(min_value=1e3, max_value=1e11),
           st.floats(min_value=1e-2, max_value=10.0),
           st.floats(min_value=1.0001, max_value=10.0))
    def test_monotone_in_temperature(self, omega, temp, factor):
        # ranges keep hbar*omega/(k_B*T) small enough that the Boltzmann
        # tail stays representable, so strict monotonicity is exact
        assert thermal_occupation(omega, factor * temp) > thermal_occupation(omega, temp)

    @given(st.floats(min_value=1e3, max_value=1e15),
           st.floats(min_value=0.0, max_value=10.0, allow_subnormal=True))
    def test_nonnegative_and_finite(self, omega, temp):
        n = thermal_occupation(omega, temp)
        assert n >= 0.0
        assert math.isfinite(n)

    def test_classical_limit(self):
        # kT >> hbar*omega: occupation approaches kT / (hbar*omega)
        from scipy.constants import hbar, k
        omega, temp = 1e4, 1.0
        assert thermal_occupation(omega, temp) == pytest.approx(
            k * temp / (hbar * omega), rel=1e-3)

    @pytest.mark.parametrize("omega", [0.0, -OMEGA_M_PHYS], ids=["zero", "negative"])
    def test_non_positive_frequency_rejected(self, omega):
        with pytest.raises(ValueError, match="frequency"):
            thermal_occupation(omega, 0.01)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            thermal_occupation(OMEGA_M_PHYS, -1.0)

    def test_constants_are_the_exact_si_values(self):
        from scipy.constants import hbar, k
        assert params.hbar == hbar
        assert params.k_B == k


class TestSystemParams:
    def test_exactly_one_drive_mode(self):
        with pytest.raises(ValueError):
            SystemParams(gamma_m=1e-5)
        with pytest.raises(ValueError):
            SystemParams(gamma_m=1e-5, cooperativity=400.0, epsilon_l=1.0, g0=1e-4)

    def test_positivity_guards(self):
        with pytest.raises(ValueError):
            SystemParams(gamma_m=0.0, cooperativity=400.0)
        with pytest.raises(ValueError):
            SystemParams(gamma_m=1e-5, cooperativity=400.0, G=-0.1)
        with pytest.raises(ValueError):
            SystemParams(gamma_m=1e-5, cooperativity=400.0, kappa=0.0)
        with pytest.raises(ValueError):
            SystemParams(gamma_m=1e-5, cooperativity=400.0, temperature=-1.0)

    @pytest.mark.parametrize("field", ["gamma_m", "cooperativity", "G",
                                       "theta", "temperature", "detuning"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        values = dict(gamma_m=1e-5, cooperativity=400.0)
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            SystemParams(**values)

    def test_drive_given_twice_rejected(self):
        # epsilon_l alone used to win, with laser_power left in the metadata
        with pytest.raises(ValueError, match="epsilon_l or laser_power, not both"):
            SystemParams(gamma_m=1e-3, epsilon_l=800.0, laser_power=5.0,
                         kappa_phys=1e7, g0=1e-2)

    def test_power_mode_requires_g0(self):
        with pytest.raises(ValueError):
            SystemParams(gamma_m=1e-5, epsilon_l=1.0)
        with pytest.raises(ValueError):
            SystemParams(gamma_m=1e-5, laser_power=1e-3, g0=1e-4)

    def test_default_detuning_is_mechanical_frequency(self):
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0)
        assert p.delta == p.omega_m
        q = SystemParams(gamma_m=1e-5, cooperativity=400.0, detuning=5.0)
        assert q.delta == 5.0


class TestSteadyState:
    def test_coupling_magnitude_from_cooperativity(self, opt_params, opt_state):
        expected = math.sqrt(400.0 * opt_params.kappa * opt_params.gamma_m)
        assert abs(opt_state.g) == pytest.approx(expected, rel=1e-12)
        assert abs(opt_state.g) == pytest.approx(0.06324555320336758, rel=1e-12)

    def test_coupling_phase_from_cavity_response(self, opt_state):
        assert cmath.phase(opt_state.g) == pytest.approx(-math.atan2(10.0, 1.0),
                                                         abs=1e-12)

    def test_residual_tiny_in_cooperativity_mode(self, opt_state):
        assert opt_state.residual < 1e-12
        assert not opt_state.ambiguous

    def test_power_mode_converges_with_small_residual(self):
        p = SystemParams(gamma_m=1e-5, epsilon_l=1e4, g0=1e-4)
        ss = solve_steady_state(p)
        assert ss.residual < 1e-12
        assert not ss.ambiguous
        # weak backaction at this drive: detuning barely shifts
        assert ss.delta_eff == pytest.approx(p.delta, rel=1e-3)
        assert abs(ss.g) == pytest.approx(abs(1e-4 * ss.c_s), rel=1e-12)

    def test_power_mode_matches_cooperativity_mode_at_weak_drive(self):
        # same |g| through both constructions when backaction is negligible
        p_pow = SystemParams(gamma_m=1e-5, epsilon_l=100.0, g0=1e-6)
        ss_pow = solve_steady_state(p_pow)
        coop = abs(ss_pow.g) ** 2 / (p_pow.kappa * p_pow.gamma_m)
        p_coop = SystemParams(gamma_m=1e-5, cooperativity=coop)
        ss_coop = solve_steady_state(p_coop)
        assert abs(ss_coop.g) == pytest.approx(abs(ss_pow.g), rel=1e-9)

    def test_laser_power_is_the_epsilon_it_implies(self):
        # P watts at omega_l = omega_c_phys - delta kappa_phys drive at
        # eps = sqrt(2 kappa_phys P / (hbar omega_l)) / kappa_phys
        kappa_phys, power = 2 * math.pi * 3.6e5, 1e-9
        p = SystemParams(gamma_m=1e-5, laser_power=power, kappa_phys=kappa_phys, g0=1e-4)
        omega_l = p.omega_c_phys - p.delta * kappa_phys
        eps = math.sqrt(2.0 * kappa_phys * power / (params.hbar * omega_l)) / kappa_phys
        ss = solve_steady_state(p)
        ref = solve_steady_state(SystemParams(gamma_m=1e-5, epsilon_l=eps, g0=1e-4))
        assert (ss.c_s, ss.g, ss.residual) == (ref.c_s, ref.g, ref.residual)

    def test_laser_frequency_must_stay_positive(self):
        # a detuning past omega_c_phys / kappa_phys puts the laser at or
        # below zero frequency
        kappa_phys = 2 * math.pi * 3.6e5
        p = SystemParams(gamma_m=1e-5, laser_power=1e-9, kappa_phys=kappa_phys,
                         g0=1e-4, detuning=OMEGA_C_PHYS / kappa_phys + 1.0)
        with pytest.raises(ValueError, match="laser frequency"):
            solve_steady_state(p)

    def test_strong_backaction_takes_the_unique_cubic_root(self):
        # strong backaction pushes the detuning through zero; the cubic
        # has a single positive root
        p = SystemParams(gamma_m=1e-3, epsilon_l=2000.0, g0=1e-2, detuning=5.0)
        ss = solve_steady_state(p)
        assert ss.residual < 1e-12
        assert not ss.ambiguous
        assert abs(ss.c_s) ** 2 == pytest.approx(400000.0008275864, rel=1e-9)
        assert ss.delta_eff == pytest.approx(-2.999999996551727, rel=1e-9)

    def test_bistable_drive_takes_the_lowest_root(self):
        # three positive roots: the branch a drive ramped up from zero
        # settles on is the lowest photon number
        p = SystemParams(gamma_m=1e-3, epsilon_l=800.0, g0=1e-2, detuning=5.0)
        ss = solve_steady_state(p)
        assert ss.ambiguous
        assert ss.residual < 1e-12
        assert abs(ss.c_s) ** 2 == pytest.approx(31978.71429, rel=1e-9)
        assert ss.delta_eff == pytest.approx(4.36042571576091, rel=1e-9)

    def test_occupations_attached(self):
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, temperature=0.01)
        ss = solve_steady_state(p)
        assert ss.n_th_m == pytest.approx(57.38093733055792, rel=1e-12)
        assert ss.n_th_c < 1e-12


class TestOptimalTheta:
    def test_value_at_default_detuning(self, opt_state):
        assert optimal_theta(opt_state.g) == pytest.approx(0.19933730498232372,
                                                           abs=1e-12)
        # close to, but not exactly, pi/16
        assert abs(optimal_theta(opt_state.g) - math.pi / 16) < 0.003

    def test_rejects_zero_coupling(self):
        with pytest.raises(ValueError, match=r"optimal phase undefined at g = 0"):
            optimal_theta(0)

    @given(st.floats(min_value=1e-6, max_value=10.0),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_alignment_identity(self, mag, phase):
        # defining property: e^{i theta} conj(g)^2 = -|g|^2
        g = mag * cmath.exp(1j * phase)
        theta = optimal_theta(g)
        assert 0.0 <= theta < 2.0 * math.pi
        lhs = cmath.exp(1j * theta) * g.conjugate() ** 2
        assert lhs.real == pytest.approx(-mag * mag, rel=1e-9)
        assert abs(lhs.imag) < 1e-9 * mag * mag


class TestRwaFlags:
    def test_all_ok_at_working_point(self, opt_params, opt_state):
        assert rwa_flags(opt_params, opt_state) == ()

    def test_strong_gain_flagged(self):
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=0.6, omega_m=10.0)
        assert rwa_flags(p, solve_steady_state(p)) == ("weak_gain",)

    def test_drive_off_the_red_sideband_flagged(self):
        # the drift has no detuning term, so it models this drive as if it
        # sat on the sideband: 10 |delta_eff - omega_m| must stay within kappa
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, detuning=10.05)
        assert rwa_flags(p, solve_steady_state(p)) == ()
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, detuning=10.2)
        assert rwa_flags(p, solve_steady_state(p)) == ("sideband_resonance",)

    def test_bistable_drive_flagged_off_the_sideband(self):
        # the lower branch of this drive sits at delta_eff = 4.36, omega_m = 10
        p = SystemParams(gamma_m=1e-3, epsilon_l=800.0, g0=1e-2, detuning=5.0)
        assert "sideband_resonance" in rwa_flags(p, solve_steady_state(p))


class TestAngleParsing:
    @pytest.mark.parametrize("text,value", [
        ("0.196", 0.196),
        ("pi/16", math.pi / 16),
        ("3*pi/4", 3 * math.pi / 4),
        ("-pi/2", -math.pi / 2),
        ("(pi+pi)/4", math.pi / 2),
        ("2", 2.0),
    ])
    def test_accepted_forms(self, text, value):
        assert parse_angle(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("text", ["", "pi/0x1", "import os", "theta",
                                      "__import__('os')", "1;2", "pi/0",
                                      "1e999"])
    def test_rejected_forms(self, text):
        with pytest.raises(ConfigError):
            parse_angle(text)

    # each of these passes the character filter and is valid Python; the
    # parser must refuse it from the syntax tree alone. 9**9**9 would not
    # finish if it were evaluated.
    @pytest.mark.parametrize("text", ["2**3", "9**9**9", "pi**2", "pie",
                                      "pi(1)", "e(pi)", "1 + 9**9**9"])
    def test_power_names_and_calls_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_angle(text)


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text(
            "# working point\n"
            "gamma_m = 1e-5\n"
            "cooperativity = 400   # high-C regime\n"
            "theta = pi/16\n"
            "G = 0.49\n"
            "\n"
        )
        mapping = load_config(str(cfg))
        assert mapping == {
            "gamma_m": 1e-5,
            "cooperativity": 400.0,
            "theta": pytest.approx(math.pi / 16),
            "G": 0.49,
        }
        p = params_from_mapping(mapping)
        assert p.G == 0.49

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma_m = 1e-5\nnot_a_key = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(cfg))

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma_m = banana\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(str(cfg))

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma_m 1e-5\n")
        with pytest.raises(ConfigError, match="expected"):
            load_config(str(cfg))

    def test_overrides_win_and_none_skipped(self):
        mapping = {"gamma_m": 1e-5, "cooperativity": 400.0, "G": 0.1}
        p = params_from_mapping(mapping, G=0.3, theta=None)
        assert p.G == 0.3
        assert p.theta == 0.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            params_from_mapping({"gamma_m": 1e-5, "cooperativity": 1.0}, bogus=1.0)

    def test_inconsistent_mapping_rejected(self):
        with pytest.raises(ValueError):
            params_from_mapping({"gamma_m": 1e-5})  # no drive mode
