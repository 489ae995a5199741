"""Acceptance gate: every headline claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.

Criterion 5 checks the closed form's unit-gain limit at 20 mK against
0.5395 +- 0.01, not the quoted 0.55 +- 0.01. As G0 -> 1 with
|g|^2 = C kappa gamma_m the closed form is exactly
(1 + 2 n_c)/4 + (1 + 2 n_m)/(2C); with C = 400, n_c(20 mK) ~ 3e-7 and
the n_m(20 mK) = 115.3 that criterion 4 pins, that is
0.25 + 231.6/800 = 0.5395. Reaching 0.55 would need n_m ~ 119.5 or
C ~ 386, either of which breaks criterion 4. The source of the quoted
0.55 is unknown; the report line prints it beside the derived value.
"""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest

from omsqueeze import (
    AdiabaticInputs,
    SystemParams,
    adiabatic_variance_p,
    adiabatic_variance_p_approx,
    build_drift,
    cavity_variances,
    eigen_stable,
    feedback_variance_p,
    find_band,
    optimal_theta,
    quadrature_variances,
    routh_hurwitz,
    solve_steady_state,
    spectrum,
    spectrum_zout,
    squeezing_db,
    steady_covariance,
    thermal_occupation,
)
from omsqueeze.cli import main, read_table

PI_16 = math.pi / 16


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}", file=sys.stderr)
    assert ok, f"criterion {criterion}: {detail}"


def params(gamma_m=1e-5, cooperativity=400.0, G=0.49, theta=PI_16,
           temperature=0.0) -> SystemParams:
    return SystemParams(gamma_m=gamma_m, cooperativity=cooperativity, G=G,
                        theta=theta, temperature=temperature)


def var_p_full(p: SystemParams) -> float:
    return quadrature_variances(solve_steady_state(p), p).var_p


class TestCriterion1:
    def test_optimal_point_variance(self):
        p = params()
        ss = solve_steady_state(p)
        t0 = time.perf_counter()
        quad = quadrature_variances(ss, p).var_p
        t_quad = time.perf_counter() - t0
        t0 = time.perf_counter()
        lyap = steady_covariance(build_drift(ss, p)).var_p
        t_lyap = time.perf_counter() - t0
        db = squeezing_db(quad)
        ok = (abs(quad - 0.253) < 0.003 and abs(lyap - 0.253) < 0.003
              and abs(db - 2.96) < 0.06 and t_quad < 1.0 and t_lyap < 1.0)
        report("1", ok,
               f"var_p quadrature {quad:.6f} ({t_quad:.2f} s), "
               f"Lyapunov {lyap:.6f} ({t_lyap:.2f} s), {db:.3f} dB")


class TestCriterion2:
    def test_phase_dependence_and_coop_insensitivity(self):
        targets = {0.0: 0.320, PI_16: 0.261, math.pi / 6: 0.417}
        worst_dev = 0.0
        worst_coop_gap = 0.0
        for theta, want in targets.items():
            got = var_p_full(params(G=0.46, theta=theta))
            worst_dev = max(worst_dev, abs(got - want))
            dense = var_p_full(params(G=0.46, theta=theta,
                                      cooperativity=4000.0))
            worst_coop_gap = max(worst_coop_gap, abs(got - dense))
        ok = worst_dev < 0.003 and worst_coop_gap < 0.01
        report("2", ok,
               f"worst deviation {worst_dev:.4f} (tol 0.003), "
               f"C=400 vs 4000 gap {worst_coop_gap:.4f} (tol 0.01)")


class TestCriterion3:
    def test_heavier_damping_optimum(self):
        thetas = [0.0, math.pi / 32, PI_16, math.pi / 8, math.pi / 6]
        gains = [0.40, 0.43, 0.46, 0.49]
        values = {(th, G): var_p_full(params(gamma_m=1e-3, theta=th, G=G))
                  for th in thetas for G in gains}
        (th_min, g_min), v_min = min(values.items(), key=lambda kv: kv[1])
        v_pi6 = values[(math.pi / 6, 0.46)]
        ok = (abs(v_min - 0.253) < 0.003 and (th_min, g_min) == (PI_16, 0.49)
              and abs(v_pi6 - 0.416) < 0.003)
        report("3", ok,
               f"min {v_min:.5f} at theta={th_min:.4f}, G={g_min}; "
               f"pi/6 value {v_pi6:.5f}")


class TestCriterion4:
    def test_thermal_occupations_and_heating(self):
        p = params()
        n_10 = thermal_occupation(p.omega_m_phys, 0.010)
        n_20 = thermal_occupation(p.omega_m_phys, 0.020)
        v_10 = var_p_full(params(temperature=0.010))
        worst_20 = min(var_p_full(params(G=float(G), temperature=0.020))
                       for G in np.linspace(0.0, 0.49, 8))
        ok = (abs(n_10 - 57.4) < 0.1 and abs(n_20 - 115.3) < 0.2
              and abs(v_10 - 0.395) < 0.005 and worst_20 > 0.5)
        report("4", ok,
               f"n_m 10 mK {n_10:.3f}, 20 mK {n_20:.3f}; "
               f"var_p(10 mK) {v_10:.5f}; min var_p(20 mK) {worst_20:.4f}")


class TestCriterion5:
    def _inputs(self, temperature: float, G0: float,
                eta: float = 0.0) -> AdiabaticInputs:
        n_m = thermal_occupation(params().omega_m_phys, temperature)
        n_c = thermal_occupation(params().omega_c_phys, temperature)
        return AdiabaticInputs(G0=G0, cooperativity=400.0, n_th_m=n_m,
                               n_th_c=n_c, eta=eta)

    def test_closed_form_limits_cold(self):
        v0 = adiabatic_variance_p(self._inputs(0.0, 1.0 - 1e-12))
        v10 = adiabatic_variance_p(self._inputs(0.010, 1.0 - 1e-12))
        ok = abs(v0 - 0.25) < 0.01 and abs(v10 - 0.40) < 0.01
        report("5 (limits, 0 and 10 mK)", ok,
               f"closed form at unit gain: {v0:.5f} (want 0.25+-0.01), "
               f"{v10:.5f} (want 0.40+-0.01)")

    def test_closed_form_limit_20mK(self):
        # At G0 -> 1 the closed form is (1 + 2 n_c)/4 + (1 + 2 n_m)/(2C).
        # With C = 400, n_c(20 mK) ~ 3e-7 and criterion 4's
        # n_m(20 mK) = 115.3 this is 0.25 + 231.6/800 = 0.5395. The quoted
        # 0.55 is out of reach of the formula at that n_m (it would need
        # n_m ~ 119.5); its source is unknown, so it is reported, not gated.
        # Above 0.5 the mirror is no longer squeezed, as in criterion 4.
        want = 0.25 + (1.0 + 2.0 * 115.3) / 800.0
        v20 = adiabatic_variance_p(self._inputs(0.020, 1.0 - 1e-12))
        ok = abs(v20 - want) < 0.01 and v20 > 0.5
        report("5 (limit, 20 mK)", ok,
               f"closed form at unit gain: {v20:.5f} "
               f"(want {want:.4f}+-0.01 and > 0.5; quoted 0.55)")

    def test_closed_form_tracks_full_model(self):
        worst = 0.0
        for G in np.linspace(0.3, 0.49, 6):
            p0 = params(G=float(G), theta=0.0)
            ss = solve_steady_state(p0)
            p = dataclasses.replace(p0, theta=optimal_theta(ss.g))
            full = var_p_full(p)
            closed = adiabatic_variance_p(AdiabaticInputs.from_system(ss, p))
            worst = max(worst, abs(closed - full))
        ok = worst <= 0.01
        report("5 (closed vs full)", ok,
               f"worst |closed - full| {worst:.5f} over G in [0.3, 0.49] "
               f"(tol 0.01)")

    def test_feedback_floor(self):
        inp = self._inputs(0.0, 0.98, eta=800.0)
        v = feedback_variance_p(inp)
        ok = abs(v - 0.125) < 0.005
        report("5 (feedback)", ok,
               f"feedback variance at eta=2C: {v:.6f} (want 0.125+-0.005)")


class TestCriterion6:
    def test_output_band(self):
        p = params()
        band = find_band(math.pi / 2, solve_steady_state(p), p)
        ok_band = band is not None and abs(band.half_width - 0.0187) < 0.0005

        p_off = params(cooperativity=0.0)
        none_off = find_band(math.pi / 2, solve_steady_state(p_off), p_off)

        p_vac = params(cooperativity=0.0, G=0.0)
        ss_vac = solve_steady_state(p_vac)
        grid = np.linspace(-2.0, 2.0, 81)
        vac_dev = max(float(np.abs(spectrum_zout(grid, phi, ss_vac, p_vac)
                                   - 0.5).max())
                      for phi in (0.0, 1.0, math.pi / 2))
        ok = ok_band and none_off is None and vac_dev < 1e-10
        hw = band.half_width if band else float("nan")
        report("6", ok,
               f"band half-width {hw:.6f} (want 0.0187+-0.0005); "
               f"no-coupling band {'absent' if none_off is None else 'present'}; "
               f"vacuum deviation {vac_dev:.2e}")


class TestCriterion7:
    def test_cavity_reference(self):
        p = params(cooperativity=0.0, theta=0.0)
        _, var_y = cavity_variances(p)
        mech = var_p_full(params())
        worst = 0.0
        for G in np.linspace(0.0, 0.49, 8):
            pg = dataclasses.replace(p, G=float(G))
            _, vy = cavity_variances(pg)
            closed = pg.kappa * 0.5 / (pg.kappa + 2.0 * G)
            worst = max(worst, abs(vy - closed))
        ok = (abs(var_y - 0.253) < 0.001 and abs(var_y - mech) < 0.002
              and worst < 1e-6)
        report("7", ok,
               f"cavity var_y {var_y:.6f} (want 0.253+-0.001), "
               f"|cavity - mirror| {abs(var_y - mech):.5f} (tol 0.002), "
               f"closed-form gap {worst:.2e}")


class TestCriterion8:
    def test_stability_conditions(self):
        rng = np.random.default_rng(42)
        disagreements = 0
        theta_dev = 0.0
        for _ in range(10_000):
            p = SystemParams(
                gamma_m=float(10.0 ** rng.uniform(-5, -2)),
                cooperativity=float(rng.uniform(0.0, 1000.0)),
                G=float(rng.uniform(0.0, 1.0)),
                theta=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            ss = solve_steady_state(p)
            rep = routh_hurwitz(p, ss)
            if rep.marginal:
                continue
            if rep.stable != eigen_stable(build_drift(ss, p).M):
                disagreements += 1
            base = routh_hurwitz(dataclasses.replace(p, theta=0.0), ss)
            theta_dev = max(
                theta_dev,
                max(abs(a - b) / max(1.0, abs(b))
                    for a, b in zip(rep.conditions, base.conditions)))

        lo, hi = 0.49, 0.51
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            p = params(G=mid)
            if routh_hurwitz(p, solve_steady_state(p)).stable:
                lo = mid
            else:
                hi = mid
        onset = 0.5 * (lo + hi)
        ok = disagreements == 0 and theta_dev < 1e-12 and 0.49 < onset < 0.51
        report("8", ok,
               f"{disagreements} sign disagreements in 10000 draws; "
               f"theta dependence {theta_dev:.2e}; onset {onset:.6f}")


class TestCriterion9:
    def test_three_way_validation(self, tmp_path):
        out = tmp_path / "validate.csv"
        t0 = time.perf_counter()
        code = main(["validate", "--seed", "7", "--quad-draws", "100",
                     "--sde-draws", "20", "-o", str(out), "--no-timestamp"])
        elapsed = time.perf_counter() - t0
        meta, rows = read_table(out)
        ok = code == 0 and len(rows) == 120 and elapsed < 300.0
        report("9", ok,
               f"exit {code}, {len(rows)} rows, {elapsed:.1f} s "
               f"(limit 300 s); worst quad rel {meta['worst_rel_diff']}, "
               f"worst momentum |z| {meta['worst_z']}")


class TestCriterion10:
    def test_quantum_invariants(self):
        # the P quadrature carries the squeezing for theta in [0, pi/2];
        # beyond pi/2 the roles of Q and P start to swap
        worst_product = float("inf")
        min_q = float("inf")
        for theta in np.linspace(0.0, math.pi / 2, 7):
            for G in (0.0, 0.25, 0.49):
                p = params(theta=float(theta), G=G)
                pair = quadrature_variances(solve_steady_state(p), p)
                worst_product = min(worst_product, pair.var_q * pair.var_p)
                min_q = min(min_q, pair.var_q)

        p_orth = params(theta=math.pi / 2)
        v_orth = var_p_full(p_orth)

        p = params()
        ss = solve_steady_state(p)
        om = np.array([0.003, 0.01, 0.3, 1.4])
        sp, sm = spectrum(om, ss, p), spectrum(-om, ss, p)
        even_dev = max(float(np.abs(sp.S_P / sm.S_P - 1.0).max()),
                       float(np.abs(sp.S_Q / sm.S_Q - 1.0).max()))
        ok = (worst_product >= 0.25 - 1e-9 and min_q >= 0.5 - 1e-9
              and v_orth >= 0.5 and even_dev < 1e-12)
        report("10", ok,
               f"min uncertainty product {worst_product:.5f}, "
               f"min var_q {min_q:.4f}, var_p at orthogonal phase "
               f"{v_orth:.3f}, evenness deviation {even_dev:.2e}")
