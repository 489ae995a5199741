"""Homodyne output spectrum, squeezing band extraction, detection map."""

import dataclasses
import math

import numpy as np
import pytest

from omsqueeze import (
    SystemParams,
    build_drift,
    detection_map,
    find_band,
    quadrature_variances,
    solve_steady_state,
    spectrum_zout,
    steady_covariance,
)

from omsqueeze import output_detection
from omsqueeze.cli import _resolve_config
from omsqueeze.output_detection import _output_couplings
from omsqueeze.params import params_from_mapping
from omsqueeze.stability import _factor_pairs

from conftest import draw_stable_params, evaluate_rows

PHASE_QUAD = math.pi / 2


def point(G: float = 0.49, cooperativity: float = 400.0,
          theta: float = math.pi / 16) -> tuple:
    p = SystemParams(gamma_m=1e-5, cooperativity=cooperativity, G=G,
                     theta=theta)
    return solve_steady_state(p), p


def resolvent_zout(omega: float, phi: float, ss, p) -> float:
    """Independent route to S_zout from the drift matrix alone.

    H(omega) = sqrt(2 kappa) c (-i omega - M)^-1 N - c maps the inputs
    (mirror Q, mirror P, cavity x, cavity y) to the output quadrature at
    phase phi, with c = (0, 0, cos phi, sin phi) and N the input
    amplitudes; S = Re(H S0 H^dagger) with the symmetrized occupations S0.
    """
    M = build_drift(ss, p).M
    c = np.array([0.0, 0.0, math.cos(phi), math.sin(phi)])
    N = np.diag(np.sqrt([p.gamma_m, p.gamma_m, 2.0 * p.kappa, 2.0 * p.kappa]))
    S0 = np.diag([ss.n_th_m + 0.5] * 2 + [ss.n_th_c + 0.5] * 2)
    H = math.sqrt(2.0 * p.kappa) * c @ np.linalg.solve(
        -1j * omega * np.eye(4) - M, N) - c
    return float((H @ S0 @ H.conj()).real)


def output_coeffs(omega: float, phi: float, ss, p) -> tuple:
    """(A_z, B_z, E_z, F_z) at one frequency, from their coefficient rows
    over den on the factor pairs."""
    b = _output_couplings(np.array([phi]), ss, p)[0]
    return tuple(evaluate_rows(b, _factor_pairs(ss, p), omega)[0])


class TestOutputCoeffs:
    # the reflection couplings I, R, J are the output couplings read at the
    # two reference phases: (A_z, B_z) = (I, R) at phi = 0, (R, J) at pi/2
    def test_phase_convention(self):
        ss, p = point()
        I, R, _, _ = output_coeffs(0.37, 0.0, ss, p)
        A90, B90, _, _ = output_coeffs(0.37, PHASE_QUAD, ss, p)
        assert A90 == pytest.approx(R, rel=1e-15, abs=0.0)
        # a general phase rotates the two readings into each other
        phi = 0.3
        A, B, _, _ = output_coeffs(0.37, phi, ss, p)
        assert A == pytest.approx(I * math.cos(phi) + R * math.sin(phi),
                                  rel=1e-15, abs=0.0)
        assert B == pytest.approx(R * math.cos(phi) + B90 * math.sin(phi),
                                  rel=1e-15, abs=0.0)

    def test_empty_cavity_reflects_vacuum(self):
        # no coupling, no gain: input reflects with unit magnitude
        ss, p = point(G=0.0, cooperativity=0.0)
        for om in (0.0, 0.3, -1.7, 5.0):
            I, R, _, _ = output_coeffs(om, 0.0, ss, p)
            assert abs(I) == pytest.approx(1.0, rel=1e-12)
            assert R == 0.0

    def test_zero_phase_kills_cross_term(self):
        ss, p = point(theta=0.0)
        for om in (0.0, 0.2, 1.1):
            _, R, _, _ = output_coeffs(om, 0.0, ss, p)
            assert R == 0.0

    def test_mirror_noise_blocked_without_coupling(self):
        ss, p = point(cooperativity=0.0)
        for om in (0.0, 0.5):
            _, _, E_z, F_z = output_coeffs(om, PHASE_QUAD, ss, p)
            assert E_z == 0.0
            assert F_z == 0.0


class TestSpectrumZout:
    def test_vacuum_everywhere_for_passive_cavity(self):
        ss, p = point(G=0.0, cooperativity=0.0)
        grid = np.linspace(-3.0, 3.0, 61)
        for phi in (0.0, 0.7, PHASE_QUAD, 2.9):
            S = spectrum_zout(grid, phi, ss, p)
            np.testing.assert_allclose(S, 0.5, rtol=0, atol=1e-10)

    def test_sub_vacuum_at_band_center(self):
        ss, p = point()
        assert float(spectrum_zout(0.0, PHASE_QUAD, ss, p)) == pytest.approx(
            0.49999701130178603, rel=1e-10)

    def test_above_vacuum_outside_band(self):
        ss, p = point()
        assert float(spectrum_zout(0.05, PHASE_QUAD, ss, p)) > 0.5

    def test_no_output_squeezing_without_coupling(self):
        # PA on, coupling off: only amplified vacuum reaches the detector
        ss, p = point(cooperativity=0.0)
        grid = np.linspace(-0.05, 0.05, 21)
        assert (spectrum_zout(grid, PHASE_QUAD, ss, p) > 5.0).all()

    @pytest.mark.parametrize("gap", [1e-1, 1e-4, 1e-8, 1e-10, 2e-12])
    def test_bare_amplifier_next_to_threshold(self, gap):
        # at C = 0 and theta = phi = 0 the detector sees the amplified
        # amplitude quadrature, also where kappa - 2G = gap nearly cancels
        for gamma_m in (1e-5, 1e-2):
            p = SystemParams(gamma_m=gamma_m, cooperativity=0.0, G=0.5 * (1.0 - gap),
                             theta=0.0)
            ss = solve_steady_state(p)
            om = np.array([0.0, 1e-6, 1e-3, 0.1, 1.0, 7.0])
            lo, hi = p.kappa - 2.0 * p.G, p.kappa + 2.0 * p.G
            expected = (ss.n_th_c + 0.5) * (hi * hi + om * om) / (lo * lo + om * om)
            for got, want in zip(spectrum_zout(om, 0.0, ss, p), expected):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_even_in_frequency(self):
        ss, p = point()
        grid = np.array([1e-3, 0.01, 0.018, 0.2, 1.5])
        for phi in (0.0, PHASE_QUAD, 2.2):
            plus = spectrum_zout(grid, phi, ss, p)
            minus = spectrum_zout(-grid, phi, ss, p)
            np.testing.assert_allclose(plus, minus, rtol=1e-12)


class TestFindBand:
    def test_band_at_phase_quadrature(self):
        ss, p = point()
        band = find_band(PHASE_QUAD, ss, p)
        assert band is not None
        assert band.half_width == pytest.approx(0.0187227, abs=1e-6)
        assert band.omega_hi == -band.omega_lo
        assert band.min_S == pytest.approx(0.09776419376243099, rel=1e-9)
        assert abs(band.min_at) == pytest.approx(0.006061, abs=1e-4)

    def test_spectrum_crosses_vacuum_at_edges(self):
        ss, p = point()
        band = find_band(PHASE_QUAD, ss, p)
        inside = float(spectrum_zout(0.9 * band.omega_hi, PHASE_QUAD, ss, p))
        outside = float(spectrum_zout(1.1 * band.omega_hi, PHASE_QUAD, ss, p))
        assert inside < 0.5 < outside
        at_edge = float(spectrum_zout(band.omega_hi, PHASE_QUAD, ss, p))
        assert at_edge == pytest.approx(0.5, abs=1e-4)

    def test_no_band_without_coupling(self):
        ss, p = point(cooperativity=0.0)
        assert find_band(PHASE_QUAD, ss, p) is None

    def test_no_band_for_passive_point(self):
        # S = 0.5 up to rounding dust must not count as a band
        ss, p = point(G=0.0)
        assert find_band(PHASE_QUAD, ss, p) is None

    def test_detection_signature_tracks_mechanical_squeezing(self):
        for G in (0.0, 0.2, 0.49):
            ss, p = point(G=G)
            squeezed = quadrature_variances(ss, p).var_p < 0.5 - 1e-9
            band = find_band(PHASE_QUAD, ss, p)
            assert (band is not None) == squeezed


def scalar_band_edge(phi: float, ss, p) -> float | None:
    """Reference band edge: the first vacuum crossing, one spectrum point
    per bisection step.

    Scan zero and 4097 geometric points from 1e-3 kappa to 10 kappa, a grid
    16 times finer than the search's first grid, for the first point at or
    above the vacuum level, then bisect the cell before it to 1e-5 kappa;
    10 kappa when no point of the scan is, None when there is no band at
    zero frequency.
    """
    def s(w):
        return spectrum_zout(w, phi, ss, p)

    scan = p.kappa * np.concatenate(([0.0], np.geomspace(1e-3, 10.0, 4097)))
    values = s(scan)
    if values[0] >= 0.5 - 1e-12:
        return None
    above = np.flatnonzero(values >= 0.5)
    if above.size == 0:
        return 10.0 * p.kappa
    lo, hi = float(scan[above[0] - 1]), float(scan[above[0]])
    while hi - lo > 1e-5 * p.kappa:
        mid = 0.5 * (lo + hi)
        if float(s(mid)) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


PHASES = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)


@pytest.fixture(scope="module")
def band_cases():
    """(phi, ss, p, band) for 250 stable draws of default_rng(5) at four
    phases, 1,000 cases."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(250):
        p = draw_stable_params(rng)
        ss = solve_steady_state(p)
        cases += [(phi, ss, p, find_band(phi, ss, p)) for phi in PHASES]
    return cases


class TestBatchedBandSearch:
    def test_edges_match_the_first_crossing_reference(self, band_cases, monkeypatch):
        # every grid find_band evaluates goes through the one spectral rule
        calls = []
        engine = output_detection._spectra
        monkeypatch.setattr(output_detection, "_spectra",
                            lambda b, pairs, om: calls.append(om.size) or engine(b, pairs, om))
        bands = 0
        for phi, ss, p, _ in band_cases:
            edge = scalar_band_edge(phi, ss, p)   # its spectra reach the rule too
            calls.clear()
            band = find_band(phi, ss, p)
            if edge is None:
                assert band is None
                continue
            bands += 1
            assert band.omega_lo == -band.omega_hi
            assert band.omega_hi == pytest.approx(edge, rel=0.0, abs=1e-5 * p.kappa)
            # the 2049-point grid for the minimum is the last call
            assert calls[-1] == 2049
            assert len(calls) - 1 <= 5
        assert len(band_cases) == 1000
        assert bands >= 150

    def test_zero_read_matches_the_spectrum(self, band_cases, monkeypatch):
        # find_band decides "no band" from its omega = 0 read, which is the
        # spectrum there bit for bit
        reads = []
        engine = output_detection._at_zero
        monkeypatch.setattr(output_detection, "_at_zero",
                            lambda b, pairs: reads.append(engine(b, pairs)) or reads[-1])
        for phi, ss, p, _ in band_cases:
            reads.clear()
            find_band(phi, ss, p)
            assert reads == [float(spectrum_zout(0.0, phi, ss, p))]
        assert len(band_cases) == 1000

    def test_no_grid_at_a_no_band_point(self, monkeypatch):
        calls = []
        engine = output_detection._spectra
        monkeypatch.setattr(output_detection, "_spectra",
                            lambda *a: calls.append(a) or engine(*a))
        for ss, p in (point(cooperativity=0.0), point(G=0.0)):
            assert find_band(PHASE_QUAD, ss, p) is None
        assert calls == []

    def test_every_band_is_connected(self, band_cases):
        # the band is the connected sub-vacuum interval around zero: no
        # stretch at or above the vacuum level inside it, capped or not
        bands = 0
        for phi, ss, p, band in band_cases:
            if band is None:
                continue
            bands += 1
            inside = np.linspace(0.0, band.omega_hi - 1e-5 * p.kappa, 100_000)
            assert spectrum_zout(inside, phi, ss, p).max() < 0.5
        assert bands >= 150

    def test_edges_cross_vacuum_by_the_resolvent(self, band_cases):
        # the second route to S_zout changes sign around 1/2 within 1e-5
        # kappa of every edge short of the cap
        checked = 0
        for phi, ss, p, band in band_cases:
            if band is None or band.omega_hi == 10.0 * p.kappa:
                continue
            checked += 1
            tol = 1e-5 * p.kappa
            assert resolvent_zout(band.omega_hi - tol, phi, ss, p) < 0.5
            assert resolvent_zout(band.omega_hi + tol, phi, ss, p) > 0.5
        assert checked >= 50

    def test_minimum_reported_at_non_negative_frequency(self):
        # S_zout is even, so the minimum is searched on [0, edge]; on a
        # symmetric grid, which of +-omega* won would depend on rounding
        rng = np.random.default_rng(7)
        bands = 0
        while bands < 40:
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            band = find_band(PHASE_QUAD, ss, p)
            if band is None:
                continue
            bands += 1
            assert 0.0 <= band.min_at <= band.omega_hi
            assert band.min_S == pytest.approx(
                float(spectrum_zout(band.min_at, PHASE_QUAD, ss, p)), rel=1e-12)

    def test_fig8_edge_matches_the_first_crossing_reference(self):
        p = params_from_mapping(_resolve_config("fig8"))
        ss = solve_steady_state(p)
        band = find_band(PHASE_QUAD, ss, p)
        edge = scalar_band_edge(PHASE_QUAD, ss, p)
        assert band.omega_lo == -band.omega_hi
        assert band.omega_hi == pytest.approx(edge, rel=0.0, abs=1e-5 * p.kappa)

    def test_edges_scale_with_kappa(self):
        # every rate of fig8 times kappa: the edge is resolved to 1e-5 kappa
        # at each scale, so in units of kappa it does not move
        base = params_from_mapping(_resolve_config("fig8"))
        edges = []
        for kappa in (1e-3, 1.0, 1e3):
            p = dataclasses.replace(base, kappa=kappa, gamma_m=base.gamma_m * kappa,
                                    omega_m=base.omega_m * kappa, G=base.G * kappa)
            ss = solve_steady_state(p)
            band = find_band(PHASE_QUAD, ss, p)
            edge = scalar_band_edge(PHASE_QUAD, ss, p)
            assert band.omega_hi == pytest.approx(edge, rel=0.0, abs=1e-5 * kappa)
            edges.append(band.omega_hi / kappa)
        assert max(edges) - min(edges) <= 1e-5

    def test_refinement_takes_the_first_crossing(self, monkeypatch):
        # step spectra with 1, 3, 5 or 7 vacuum crossings in one cell of the
        # first grid, at least one refinement spacing apart: the edge is
        # the crossing nearest zero, not whichever one a bisection meets
        ss, p = point(cooperativity=0.0)   # kappa = 1
        first_grid = np.asarray(output_detection._FIRST_GRID)
        rng = np.random.default_rng(15)
        for _ in range(3000):
            i = rng.integers(1, first_grid.size)
            lo, hi = first_grid[i - 1], first_grid[i]
            while True:
                crossings = np.sort(rng.uniform(lo, hi, 2 * rng.integers(0, 4) + 1))
                if np.diff(crossings).min(initial=hi - lo) > (hi - lo) / 64:
                    break

            def s(w, crossings=crossings):
                # below the vacuum level up to the first crossing, then alternating
                return np.where(np.searchsorted(crossings, w, side="right") % 2, 1.0, 0.0)

            # the grids and the omega = 0 read of the band search
            monkeypatch.setattr(output_detection, "_spectra", lambda b, pairs, w: s(w)[None])
            monkeypatch.setattr(output_detection, "_at_zero", lambda b, pairs: float(s(0.0)))
            edge = find_band(PHASE_QUAD, ss, p).omega_hi
            assert abs(edge - crossings[0]) <= 0.5e-5 + 1e-15


class TestOneEvaluationPerFrequency:
    def test_spectra_are_even_bit_for_bit(self):
        rng = np.random.default_rng(6)
        phis = np.linspace(0.0, math.pi, 5)
        for _ in range(40):
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            om = np.concatenate([[0.0], 10.0 ** rng.uniform(-5.0, 1.0, 30)])
            assert np.array_equal(detection_map(om, phis, ss, p),
                                  detection_map(-om, phis, ss, p))
            for phi in phis:
                assert np.array_equal(spectrum_zout(om, phi, ss, p),
                                      spectrum_zout(-om, phi, ss, p))

    @pytest.mark.parametrize("evaluate", [
        lambda ss, p: spectrum_zout(np.linspace(-0.1, 0.1, 9), PHASE_QUAD, ss, p),
        lambda ss, p: detection_map(np.linspace(-0.1, 0.1, 9),
                                    np.linspace(0.0, math.pi, 5), ss, p),
    ], ids=["spectrum_zout", "detection_map"])
    def test_one_coefficient_call(self, evaluate, monkeypatch):
        ss, p = point()
        calls = []
        engine = output_detection._output_couplings
        monkeypatch.setattr(output_detection, "_output_couplings",
                            lambda *a: calls.append(a) or engine(*a))
        evaluate(ss, p)
        assert len(calls) == 1

    @pytest.mark.parametrize("config, has_band", [("fig8", True), ("no band", False)])
    def test_one_coefficient_call_per_band_search(self, config, has_band, monkeypatch):
        if config == "fig8":
            p = params_from_mapping(_resolve_config("fig8"))
            ss = solve_steady_state(p)
        else:
            ss, p = point(cooperativity=0.0)
        calls = []
        engine = output_detection._output_couplings
        monkeypatch.setattr(output_detection, "_output_couplings",
                            lambda *a: calls.append(a) or engine(*a))
        assert (find_band(PHASE_QUAD, ss, p) is not None) == has_band
        assert len(calls) == 1


class TestAgainstResolvent:
    def test_random_draws_phases_and_frequencies(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(200):
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            phases = rng.uniform(0.0, math.pi, 3)
            omegas = (0.0, float(rng.uniform(-0.05, 0.05)))
            for phi in phases:
                for om in omegas:
                    ref = resolvent_zout(om, float(phi), ss, p)
                    got = float(spectrum_zout(om, float(phi), ss, p))
                    worst = max(worst, abs(got - ref) / ref)
        assert worst < 1e-12


class TestOutputSqueezingNeedsMirrorSqueezing:
    def test_no_output_squeezing_without_mirror_squeezing(self):
        # the abstract: the cavity output is squeezed only if the mirror is;
        # zero frequency, every local-oscillator phase on a 1-degree grid
        rng = np.random.default_rng(11)
        phases = np.linspace(0.0, math.pi, 181)
        output_squeezed = counterexamples = 0
        for _ in range(300):
            p = draw_stable_params(rng)
            ss = solve_steady_state(p)
            if detection_map([0.0], phases, ss, p).min() >= 0.5:
                continue
            output_squeezed += 1
            V = steady_covariance(build_drift(ss, p)).V[:2, :2]
            if np.linalg.eigvalsh(V)[0] >= 0.5:
                counterexamples += 1
        assert output_squeezed >= 50
        assert counterexamples == 0


class TestDetectionMap:
    def test_single_point_grid_matches_spectrum(self):
        ss, p = point()
        m = detection_map([0.01], [PHASE_QUAD], ss, p)
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(
            float(spectrum_zout(0.01, PHASE_QUAD, ss, p)), rel=1e-15, abs=0.0)

    def test_even_in_frequency(self):
        ss, p = point()
        om = np.linspace(-0.04, 0.04, 17)   # symmetric grid
        phi = np.linspace(0.0, math.pi, 7)
        m = detection_map(om, phi, ss, p)
        assert m.shape == (17, 7)
        np.testing.assert_allclose(m, m[::-1, :], rtol=1e-12)

    def test_phase_quadrature_row_matches_band_search(self):
        ss, p = point()
        band = find_band(PHASE_QUAD, ss, p)
        om = np.linspace(band.omega_lo, band.omega_hi, 4097)
        row = detection_map(om, [PHASE_QUAD], ss, p)[:, 0]
        k = int(np.argmin(row))
        assert row[k] == pytest.approx(band.min_S, rel=1e-9)
        assert abs(om[k]) == pytest.approx(abs(band.min_at), abs=1e-4)

    def test_global_minimum_sits_off_axis(self):
        # the per-frequency optimal homodyne angle drifts away from pi/2,
        # giving a far deeper minimum near |omega| = 0.18 than the
        # phase-quadrature row's 0.0978
        ss, p = point()
        om = np.linspace(-0.2, 0.2, 401)
        phi = np.linspace(0.0, math.pi, 181)
        m = detection_map(om, phi, ss, p)
        i, j = np.unravel_index(np.argmin(m), m.shape)
        assert m[i, j] == pytest.approx(0.00654525, abs=1e-6)
        assert abs(om[i]) == pytest.approx(0.181, abs=0.002)
        assert phi[j] == pytest.approx(PHASE_QUAD + 0.105, abs=0.01)
