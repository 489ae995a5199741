"""Whole-line adaptive integrator against closed-form integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omsqueeze import QuadratureFailure, integrate_line
from omsqueeze.quadrature import _eval_panels


class TestPanelRule:
    # one G7/K15 panel over [lo, hi]: (integral, error estimate) of length 1
    @given(st.lists(st.floats(min_value=-5.0, max_value=5.0),
                    min_size=1, max_size=11),
           st.floats(min_value=-3.0, max_value=2.0),
           st.floats(min_value=0.1, max_value=4.0))
    def test_polynomials_integrated_exactly(self, coeffs, lo, width):
        # 15-point Kronrod is exact through degree 22; stay well inside
        hi = lo + width
        poly = np.polynomial.Polynomial(coeffs)
        (value,), (err,) = _eval_panels(poly, np.array([lo]), np.array([hi]))
        exact = poly.integ()(hi) - poly.integ()(lo)
        scale = max(1.0, abs(exact))
        assert value == pytest.approx(exact, abs=1e-12 * scale)
        assert err <= 1e-10 * scale

    def test_error_estimate_bounds_true_error(self):
        (value,), (err,) = _eval_panels(np.exp, np.array([0.0]), np.array([1.0]))
        exact = math.e - 1.0
        assert abs(value - exact) <= max(err, 1e-14)


class TestIntegrateLine:
    def test_gaussian(self):
        assert integrate_line(lambda x: np.exp(-x * x)) == pytest.approx(
            math.sqrt(math.pi), abs=1e-10)

    def test_wide_lorentzian(self):
        a = 2.0
        assert integrate_line(lambda x: a / (x * x + a * a)) == pytest.approx(
            math.pi, abs=1e-8)

    def test_narrow_lorentzian_needs_adaptivity(self):
        # feature four orders below the default panel scale
        a = 1e-4
        assert integrate_line(lambda x: a / (x * x + a * a)) == pytest.approx(
            math.pi, abs=1e-8)

    def test_displaced_peaks(self):
        def f(x):
            return 0.01 / ((x - 3.0) ** 2 + 1e-4) + 0.01 / ((x + 7.0) ** 2 + 1e-4)
        assert integrate_line(f) == pytest.approx(2 * math.pi, rel=1e-7)

    def test_tolerance_is_honored(self):
        for tol in (1e-6, 1e-9, 1e-11):
            got = integrate_line(lambda x: np.exp(-x * x), abs_tol=tol)
            assert abs(got - math.sqrt(math.pi)) < 10 * tol

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=-5.0, max_value=5.0))
    def test_shifted_gaussian_family(self, sigma, mu):
        got = integrate_line(lambda x: np.exp(-((x - mu) / sigma) ** 2 / 2.0))
        assert got == pytest.approx(sigma * math.sqrt(2 * math.pi), rel=1e-7)

    def test_width_grades_the_mesh_at_a_narrow_peak(self):
        # a 1e-9 wide Lorentzian: the graded initial mesh resolves it in
        # far fewer integrand calls than refining the uniform one
        a = 1e-9
        counts = {}
        for width in (None, a):
            calls = []

            def f(x):
                calls.append(x.size)
                return a / (x * x + a * a)
            got = integrate_line(f, width=width)
            assert got == pytest.approx(math.pi, abs=1e-8)
            counts[width] = len(calls)
        assert counts[a] <= 3 < counts[None]

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
    def test_non_positive_width_raises(self, width):
        with pytest.raises(ValueError):
            integrate_line(lambda x: np.exp(-x * x), width=width)

    def test_panel_cap_raises(self):
        a = 1e-9
        with pytest.raises(QuadratureFailure):
            integrate_line(lambda x: a / (x * x + a * a), max_panels=12)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureFailure):
            integrate_line(lambda x: (1.0 + x * x) ** -0.25, max_panels=60)

    def test_stacked_integrands_match_each_closed_form(self):
        # a smooth and a narrow component share one adaptive pass
        a = 1e-4

        def f(x):
            return np.stack([np.exp(-x * x), a / (x * x + a * a)])
        got = integrate_line(f)
        assert got.shape == (2,)
        assert got[0] == pytest.approx(math.sqrt(math.pi), abs=1e-10)
        assert got[1] == pytest.approx(math.pi, abs=1e-8)

    def test_non_finite_component_raises(self):
        def f(x):
            bad = np.where(np.abs(x) < 0.01, np.nan, np.exp(-x * x))
            return np.stack([np.exp(-x * x), bad])
        with pytest.raises(QuadratureFailure):
            integrate_line(f)

    def test_non_finite_integrand_raises(self):
        def f(x):
            out = np.asarray(np.exp(-np.asarray(x) ** 2), dtype=float)
            return np.where(np.abs(x) < 0.01, np.nan, out)
        with pytest.raises(QuadratureFailure):
            integrate_line(f)
