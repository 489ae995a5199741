"""Homodyne output spectrum, squeezing band extraction, detection map."""

import math

import numpy as np
import pytest

from omsqueeze import (
    SystemParams,
    detection_map,
    find_band,
    quadrature_variances,
    solve_steady_state,
    spectrum_zout,
)

from omsqueeze.output_detection import _output_arrays

PHASE_QUAD = math.pi / 2


def point(G: float = 0.49, cooperativity: float = 400.0,
          theta: float = math.pi / 16) -> tuple:
    p = SystemParams(gamma_m=1e-5, cooperativity=cooperativity, G=G,
                     theta=theta)
    return solve_steady_state(p), p


def output_coeffs(omega: float, phi: float, ss, p) -> tuple:
    """(A_z, B_z, E_z, F_z) at one frequency."""
    return _output_arrays(np.asarray(float(omega)), phi, ss, p)


class TestOutputCoeffs:
    # the reflection couplings I, R, J are the output couplings read at the
    # two reference phases: (A_z, B_z) = (I, R) at phi = 0, (R, J) at pi/2
    def test_phase_convention(self):
        ss, p = point()
        I, R, _, _ = output_coeffs(0.37, 0.0, ss, p)
        A90, B90, _, _ = output_coeffs(0.37, PHASE_QUAD, ss, p)
        assert A90 == pytest.approx(R, rel=1e-15)
        # a general phase rotates the two readings into each other
        phi = 0.3
        A, B, _, _ = output_coeffs(0.37, phi, ss, p)
        assert A == I * math.cos(phi) + R * math.sin(phi)
        assert B == pytest.approx(R * math.cos(phi) + B90 * math.sin(phi),
                                  rel=1e-15)

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
        assert band.min_S == pytest.approx(0.09776419963918276, rel=1e-9)
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


class TestDetectionMap:
    def test_single_point_grid_matches_spectrum(self):
        ss, p = point()
        m = detection_map([0.01], [PHASE_QUAD], ss, p)
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(
            float(spectrum_zout(0.01, PHASE_QUAD, ss, p)), rel=1e-15)

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
