"""Drift construction and the two independent stability deciders."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from omsqueeze import (
    DriftModel,
    SystemParams,
    UnstableSystem,
    build_drift,
    eigen_stable,
    quadrature_variances,
    routh_hurwitz,
    simulate,
    solve_steady_state,
    steady_covariance,
    suggest_config,
)
from omsqueeze.stability import MARGINAL_EPS, _factor_pairs, _poles

from conftest import draw_near_marginal_params, draw_stable_params


def quartic_roots(p: SystemParams, g: complex) -> np.ndarray:
    """Independent eigenvalue oracle from the factored characteristic
    polynomial: two quadratics (lam + gamma/2)(lam + kappa -+ 2G) + |g|^2."""
    k, gam, G = p.kappa, p.gamma_m, p.G
    g2 = abs(g) ** 2
    roots = []
    for sign in (-1.0, +1.0):
        b = gam / 2 + k + sign * 2 * G
        c = (gam / 2) * (k + sign * 2 * G) + g2
        disc = complex(b * b - 4 * c) ** 0.5
        roots += [(-b + disc) / 2, (-b - disc) / 2]
    return np.sort_complex(np.array(roots))


class TestBuildDrift:
    def test_drift_entries(self, opt_params, opt_state):
        dm = build_drift(opt_state, opt_params)
        gr, gi = opt_state.g.real, opt_state.g.imag
        c, s = math.cos(opt_params.theta), math.sin(opt_params.theta)
        G, gam = opt_params.G, opt_params.gamma_m
        expected = np.array([
            [-gam / 2, 0.0, gi, -gr],
            [0.0, -gam / 2, gr, gi],
            [-gi, -gr, -(1.0 - 2 * G * c), 2 * G * s],
            [gr, -gi, 2 * G * s, -(1.0 + 2 * G * c)],
        ])
        np.testing.assert_allclose(dm.M, expected, rtol=0, atol=0)

    def test_diffusion_is_diagonal_vacuum_at_zero_temperature(self, opt_params,
                                                              opt_state):
        dm = build_drift(opt_state, opt_params)
        gam = opt_params.gamma_m
        np.testing.assert_allclose(
            dm.D, np.diag([gam / 2, gam / 2, 1.0, 1.0]), rtol=0, atol=0)

    def test_diffusion_carries_thermal_occupation(self):
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, temperature=0.01)
        ss = solve_steady_state(p)
        dm = build_drift(ss, p)
        assert dm.D[0, 0] == pytest.approx(1e-5 * (ss.n_th_m + 0.5), rel=1e-12)
        assert dm.D[2, 2] == pytest.approx(2.0 * (ss.n_th_c + 0.5), rel=1e-12)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            DriftModel(M=np.zeros((3, 3)), D=np.zeros((4, 4)))
        # any square size from 2x2 on: rows 0 and 1 are the reported Q and P
        for M in (np.zeros((1, 1)), np.zeros((2, 3))):
            with pytest.raises(ValueError, match="square"):
                DriftModel(M=M, D=M)


class TestDiffusionContract:
    # DriftModel states what a D may be, once for both time-domain routes
    @pytest.mark.parametrize("entry, value, message", [
        ((0, 1), 0.3, "diffusion matrix must be symmetric"),
        ((1, 1), -0.01, "diffusion matrix must be positive semidefinite"),
    ], ids=["asymmetric", "indefinite"])
    def test_both_routes_refuse_the_same_diffusion(self, entry, value, message):
        # before, the Lyapunov route solved the indefinite D to var_p = 0.288
        # and called the asymmetric one a failed solve
        p = SystemParams(gamma_m=1e-2, cooperativity=20.0, G=0.3, theta=0.4)
        dm = build_drift(solve_steady_state(p), p)
        D = dm.D.copy()
        D[entry] = value
        refusals = []
        for route in (steady_covariance,
                      lambda model: simulate(model, suggest_config(dm, n_traj=2))):
            with pytest.raises(ValueError) as info:
                route(DriftModel(M=dm.M, D=D))
            refusals.append((type(info.value), str(info.value)))
        assert refusals == [(ValueError, message)] * 2

    def test_rounding_level_defects_pass(self):
        # asymmetry and a negative eigenvalue below 1e-14 max|D| are rounding
        D = np.diag([1.0, 2.0, 0.0, 0.0])
        D[0, 1] = 1e-15
        D[3, 3] = -1e-15
        model = DriftModel(M=-np.eye(4), D=D)
        assert steady_covariance(model).var_p == pytest.approx(1.0, rel=1e-12)


class TestThetaIndependence:
    def test_spectrum_invariant_under_parametric_phase(self):
        # the characteristic polynomial does not involve theta; eigenvalues
        # of the drift must agree across phases to machine precision
        base = dict(gamma_m=1e-4, cooperativity=200.0, G=0.3)
        ref = None
        for theta in (0.0, math.pi / 16, 1.234, math.pi / 2, 5.9):
            p = SystemParams(theta=theta, **base)
            lam = np.sort_complex(np.linalg.eigvals(
                build_drift(solve_steady_state(p), p).M))
            if ref is None:
                ref = lam
            else:
                np.testing.assert_allclose(lam, ref, rtol=0, atol=1e-13)

    def test_conditions_do_not_read_theta(self):
        p0 = SystemParams(gamma_m=1e-4, cooperativity=200.0, G=0.3, theta=0.0)
        p1 = SystemParams(gamma_m=1e-4, cooperativity=200.0, G=0.3, theta=2.5)
        r0 = routh_hurwitz(p0, solve_steady_state(p0))
        r1 = routh_hurwitz(p1, solve_steady_state(p1))
        assert r0.conditions == r1.conditions


class TestEigenvalueOracle:
    def test_factored_quartic_matches_dense_solver(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = SystemParams(
                gamma_m=float(10.0 ** rng.uniform(-5, -1)),
                cooperativity=float(rng.uniform(0.0, 1000.0)),
                G=float(rng.uniform(0.0, 1.0)),
                theta=float(rng.uniform(0.0, 2 * math.pi)),
            )
            ss = solve_steady_state(p)
            dense = np.sort_complex(np.linalg.eigvals(build_drift(ss, p).M))
            closed = quartic_roots(p, ss.g)
            np.testing.assert_allclose(dense, closed, rtol=0, atol=1e-10)
            # the poles routh_hurwitz decides on
            reported = np.sort_complex(np.array(_poles(_factor_pairs(ss, p))))
            np.testing.assert_allclose(dense, reported, rtol=0, atol=1e-10)


class TestStabilityAgreement:
    def test_routh_matches_eigenvalues_on_random_grid(self):
        # both deciders must agree everywhere, including unstable points;
        # the second box has low damping, where c3 scales like gamma_m^2
        # and a fixed margin on the conditions called stable points marginal
        wide = np.random.default_rng(7)
        low = np.random.default_rng(5)
        boxes = {
            "wide": (SystemParams(
                gamma_m=float(10.0 ** wide.uniform(-5, -2)),
                cooperativity=float(wide.uniform(0.0, 1000.0)),
                G=float(wide.uniform(0.0, 1.0)),
                theta=float(wide.uniform(0.0, 2 * math.pi)),
            ) for _ in range(2000)),
            "low damping": (SystemParams(
                gamma_m=float(10.0 ** low.uniform(-8, -5)),
                cooperativity=float(low.uniform(0.0, 50.0)),
                G=float(low.uniform(0.0, 0.6)),
            ) for _ in range(3000)),
        }
        for box, draws in boxes.items():
            disagreements = 0
            for p in draws:
                ss = solve_steady_state(p)
                rh = routh_hurwitz(p, ss)
                ev = eigen_stable(build_drift(ss, p).M)
                disagreements += rh.stable != ev
            assert disagreements == 0, box

    def test_instability_onset_location(self):
        # threshold sits just above G = kappa/2; bisect the flip
        def stable_at(G: float) -> bool:
            p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=G)
            return routh_hurwitz(p, solve_steady_state(p)).stable

        assert stable_at(0.49)
        assert not stable_at(0.51)
        lo, hi = 0.49, 0.51
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if stable_at(mid):
                lo = mid
            else:
                hi = mid
        onset = 0.5 * (lo + hi)
        # binding condition flips exactly at kappa/2 + gamma_m/4
        assert onset == pytest.approx(0.5 + 1e-5 / 4, abs=1e-9)

    def test_marginal_point_reported_unstable(self):
        # gain exactly at the analytic onset: the binding condition is ~0
        gam = 1e-5
        p = SystemParams(gamma_m=gam, cooperativity=400.0, G=0.5 + gam / 4)
        report = routh_hurwitz(p, solve_steady_state(p))
        assert min(report.conditions) == pytest.approx(0.0, abs=1e-10)
        assert report.marginal
        assert not report.stable

    def test_zero_coupling_zero_gain_is_stable(self):
        p = SystemParams(gamma_m=1e-5, cooperativity=0.0)
        ss = solve_steady_state(p)
        assert routh_hurwitz(p, ss).stable
        assert eigen_stable(build_drift(ss, p).M)

    def test_random_stable_draws_have_decaying_modes(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            M = build_drift(ss, p).M
            assert np.max(np.linalg.eigvals(M).real) < -MARGINAL_EPS


class TestConditions:
    @pytest.mark.parametrize("draw", [draw_stable_params, draw_near_marginal_params],
                             ids=["stable", "near_marginal"])
    def test_conditions_match_exact_rationals(self, draw):
        # a3 a2 - a1, the Hurwitz determinant and a0 of the quartic, in
        # exact arithmetic on the same inputs, to a few ulps also next to
        # the margin, where kappa^2 - 4G^2 nearly cancels
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = draw(rng)
            ss = solve_steady_state(p)
            k, h, G = Fraction(p.kappa), Fraction(p.gamma_m) / 2, Fraction(p.G)
            g2 = Fraction(abs(ss.g) ** 2)
            a3 = 2 * h + 2 * k
            a2 = (h + k) ** 2 - 4 * G * G + 2 * g2 + 2 * h * k
            ql, qh = h * (k - 2 * G) + g2, h * (k + 2 * G) + g2
            a1, a0 = (h + k - 2 * G) * qh + (h + k + 2 * G) * ql, ql * qh
            exact = (a3 * a2 - a1, a1 * a2 * a3 - a0 * a3 * a3 - a1 * a1, a0)
            for got, want in zip(routh_hurwitz(p, ss).conditions, exact):
                assert got == pytest.approx(float(want), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("gamma_m, G", [(1e300, 0.0), (1e308, 0.49), (1e-5, 1e300)],
                             ids=["rates", "pairs", "gain"])
    def test_out_of_range_quartic_raises(self, gamma_m, G):
        # the pairs or a decay rate leave the double-precision range
        p = SystemParams(gamma_m=gamma_m, cooperativity=1.0, G=G)
        with pytest.raises(OverflowError, match="double-precision range"):
            routh_hurwitz(p, solve_steady_state(p))


class TestEigenStableGuards:
    def test_rejects_non_finite(self):
        M = np.zeros((4, 4))
        M[0, 0] = np.nan
        with pytest.raises(ValueError):
            eigen_stable(M)


def rescaled(p: SystemParams, kappa: float) -> SystemParams:
    """p in units where the cavity decays at ``kappa``: every rate scaled
    by it, the cooperativity kept."""
    return dataclasses.replace(p, kappa=kappa * p.kappa, gamma_m=kappa * p.gamma_m,
                               G=kappa * p.G, omega_m=kappa * p.omega_m)


class TestOneMarginalRule:
    # the three routes draw the line between decaying and marginal at one
    # place, whatever the unit of the rates

    @pytest.mark.parametrize("kappa", [1e-3, 1.0, 1e3])
    def test_routes_agree_next_to_the_margin_at_any_kappa(self, kappa):
        rng = np.random.default_rng(5)
        verdicts = set()
        for _ in range(2000):
            p = rescaled(draw_near_marginal_params(rng), kappa)
            ss = solve_steady_state(p)
            dm = build_drift(ss, p)
            stable = routh_hurwitz(p, ss).stable
            assert eigen_stable(dm.M) == stable
            if stable:
                suggest_config(dm)
            else:
                with pytest.raises(UnstableSystem):
                    suggest_config(dm)
            verdicts.add(stable)
        assert verdicts == {False, True}

    @pytest.mark.parametrize("gap, stable", [(5e-14, True), (5e-15, True),
                                             (5e-16, False)])
    def test_cavity_next_to_threshold_at_small_kappa(self, gap, stable):
        # the cavity's x quadrature decays at gap, against a margin of
        # 1e-12 (kappa + gamma_m/2) = 1.05e-15
        kappa = 1e-3
        p = SystemParams(kappa=kappa, gamma_m=1e-4, cooperativity=0.0,
                         G=(kappa - gap) / 2)
        ss = solve_steady_state(p)
        dm = build_drift(ss, p)
        for route in (lambda: quadrature_variances(ss, p),
                      lambda: steady_covariance(dm), lambda: suggest_config(dm)):
            if stable:
                route()
            else:
                with pytest.raises(UnstableSystem):
                    route()
