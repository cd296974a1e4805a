"""Estimator tests: double-loop summation oracle, risk algebra, L2 errors."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levygibbs import (
    BasisSystem,
    CoefficientVector,
    DimensionError,
    IncrementSeries,
    ParameterError,
    SamplingScheme,
    VarianceGammaParams,
    Window,
    WindowError,
    empirical_coefficients,
    empirical_risk,
    l2_error_on_D,
    project_density,
    quadrature_rule,
    simulate,
    synthesize,
)

D = Window(0.006, 0.014)
D_PRIME = Window(0.005, 0.015)
STUDY_VG = VarianceGammaParams(mu=0.0, sigma=3.7 * 10**-1.5, nu=2e-3)


def series_from(values, delta=1.0):
    values = np.asarray(values, dtype=float)
    return IncrementSeries(SamplingScheme(delta, len(values)), seed=0, values=values)


class TestEmpiricalCoefficients:
    def test_no_inwindow_data_gives_zeros(self):
        basis = BasisSystem.trigonometric(D_PRIME, 6)
        theta = empirical_coefficients(series_from([0.5, -0.2, 0.004, 0.016]), basis)
        assert np.all(theta.values == 0.0)
        assert theta.role == "empirical"

    def test_single_increment_constant_term(self):
        basis = BasisSystem.trigonometric(D_PRIME, 1)
        series = series_from([0.01, 5.0, -2.0], delta=2.0)  # t_n = 6
        theta = empirical_coefficients(series, basis)
        assert theta.values[0] == pytest.approx(10.0 / 6.0, rel=1e-15)

    def test_matches_double_loop_oracle(self):
        basis = BasisSystem.trigonometric(D_PRIME, 8)
        rng = np.random.default_rng(4)
        values = rng.uniform(0.004, 0.016, 1000)
        series = series_from(values, delta=0.01)
        theta = empirical_coefficients(series, basis)
        t_n = series.scheme.t_n
        oracle = np.array(
            [
                sum(basis.eval(k, float(y)) for y in values) / t_n
                for k in range(1, basis.K + 1)
            ]
        )
        np.testing.assert_allclose(theta.values, oracle, rtol=1e-12)

    def test_streamed_equals_materialized_bitwise(self):
        basis = BasisSystem.trigonometric(D_PRIME, 12)
        scheme = SamplingScheme(1e-3, 300_000)
        streamed = simulate(STUDY_VG, scheme, seed=6, materialize=False)
        materialized = simulate(STUDY_VG, scheme, seed=6)
        a = empirical_coefficients(streamed, basis).values
        b = empirical_coefficients(materialized, basis).values
        assert np.array_equal(a, b)

    def test_any_partition_agrees_to_1e12(self):
        basis = BasisSystem.trigonometric(D_PRIME, 12)
        scheme = SamplingScheme(1e-3, 200_000)
        series = simulate(STUDY_VG, scheme, seed=6)
        theta = empirical_coefficients(series, basis).values

        # fold the same data over an unrelated partition with the same
        # compensated scheme
        a, b = basis.window.a, basis.window.b
        rng = np.random.default_rng(0)
        cuts = np.sort(rng.choice(np.arange(1, scheme.n), size=17, replace=False))
        total = np.zeros(basis.K)
        carry = np.zeros(basis.K)
        for chunk in np.split(series.values, cuts):
            y = chunk[(chunk >= a) & (chunk <= b)]
            part = basis.evaluate_all(y).sum(axis=1) if y.size else np.zeros(basis.K)
            part = part - carry
            t = total + part
            carry = (t - total) - part
            total = t
        np.testing.assert_allclose(theta, total / scheme.t_n, rtol=1e-12)

    @pytest.mark.parametrize("m", [1, 7, 8, 129, 8193])
    @pytest.mark.parametrize("family", ["trigonometric", "piecewise-legendre"])
    def test_row_chunks_sum_like_the_whole_matrix(self, family, m):
        # K = 321 and 75 rows: the fold's row chunks end off the cos/sin pairs and off the pieces.
        if family == "trigonometric":
            basis = BasisSystem.trigonometric(D_PRIME, 321)
        else:
            basis = BasisSystem.piecewise_legendre(D_PRIME, 3, 25)
        y = np.random.default_rng(m).uniform(D_PRIME.a, D_PRIME.b, m)
        theta = empirical_coefficients(series_from(y), basis).values  # t_n = m
        assert np.array_equal(theta, basis.evaluate_all(y).sum(axis=1) / m)

    def test_offwindow_prefilter_is_identity(self):
        basis = BasisSystem.trigonometric(D_PRIME, 8)
        rng = np.random.default_rng(9)
        values = np.where(
            rng.random(5000) < 0.2, rng.uniform(0.005, 0.015, 5000), rng.normal(0.0, 1.0, 5000)
        )
        # The out-of-window values replaced by 1.0, outside D' too: same n and t_n, same coefficients.
        inside = (values >= basis.window.a) & (values <= basis.window.b)
        a = empirical_coefficients(series_from(values, delta=0.5), basis).values
        b = empirical_coefficients(series_from(np.where(inside, values, 1.0), delta=0.5), basis).values
        assert np.array_equal(a, b)

    def test_nonpositive_horizon_rejected(self):
        basis = BasisSystem.trigonometric(D_PRIME, 4)
        fake = SimpleNamespace(scheme=SimpleNamespace(t_n=0.0))
        with pytest.raises(ParameterError):
            empirical_coefficients(fake, basis)


class TestRisk:
    def setup_method(self):
        self.basis = BasisSystem.trigonometric(D_PRIME, 8)
        rng = np.random.default_rng(2)
        values = rng.uniform(0.005, 0.015, 400)
        self.theta_hat = empirical_coefficients(series_from(values, 0.05), self.basis)

    def test_zero_theta(self):
        assert empirical_risk(np.zeros(8), self.theta_hat) == 0.0

    def test_minimum_at_theta_hat(self):
        v = self.theta_hat.values
        assert empirical_risk(self.theta_hat, self.theta_hat) == pytest.approx(
            -float(v @ v), rel=1e-14
        )

    def test_minimizer_property(self):
        rng = np.random.default_rng(3)
        best = empirical_risk(self.theta_hat, self.theta_hat)
        for _ in range(1000):
            theta = self.theta_hat.values + rng.standard_normal(8) * rng.uniform(0.01, 10)
            assert empirical_risk(theta, self.theta_hat) > best

    def test_risk_difference_identity(self):
        rng = np.random.default_rng(5)
        hat = self.theta_hat.values
        for _ in range(1000):
            t1 = rng.standard_normal(8) * 3.0
            t2 = rng.standard_normal(8) * 3.0
            lhs = empirical_risk(t1, self.theta_hat) - empirical_risk(t2, self.theta_hat)
            d1 = float((t1 - hat) @ (t1 - hat))
            d2 = float((t2 - hat) @ (t2 - hat))
            assert abs(lhs - (d1 - d2)) <= 1e-12 * (d1 + d2 + 1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_risk_difference_identity_random_scales(self, seed):
        rng = np.random.default_rng(seed)
        hat = rng.standard_normal(5) * rng.uniform(0.1, 1e3)
        t1 = rng.standard_normal(5) * rng.uniform(0.1, 1e3)
        t2 = rng.standard_normal(5) * rng.uniform(0.1, 1e3)
        lhs = empirical_risk(t1, hat) - empirical_risk(t2, hat)
        d1 = float((t1 - hat) @ (t1 - hat))
        d2 = float((t2 - hat) @ (t2 - hat))
        assert abs(lhs - (d1 - d2)) <= 1e-12 * (d1 + d2 + 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            empirical_risk(np.zeros(7), self.theta_hat)


class TestPopulationRisk:
    """The population risk is empirical_risk against the projected truth theta_perp."""

    def setup_method(self):
        self.basis = BasisSystem.trigonometric(D_PRIME, 8)
        self.psi = STUDY_VG.levy_density()
        self.perp = project_density(self.basis, self.psi)

    def test_minimum_at_projection(self):
        v = self.perp.values
        assert empirical_risk(self.perp, self.perp) == pytest.approx(-float(v @ v), rel=1e-14)

    def test_zero_theta(self):
        assert empirical_risk(np.zeros(8), self.perp) == 0.0

    def test_matches_quadrature_form(self):
        rng = np.random.default_rng(8)
        x, w = quadrature_rule(self.basis, 2048)
        perp_fn = synthesize(self.basis, self.perp, x)
        for _ in range(5):
            theta = rng.standard_normal(8) * 50.0
            fn = synthesize(self.basis, theta, x)
            quad = float(np.sum(w * (-2.0 * fn * perp_fn + fn**2)))
            assert abs(empirical_risk(theta, self.perp) - quad) < 1e-6


class TestL2Error:
    def test_self_distance_zero(self):
        basis = BasisSystem.trigonometric(D_PRIME, 6)
        theta = CoefficientVector(basis, np.arange(1.0, 7.0))
        assert l2_error_on_D(theta, theta, D) == 0.0

    def test_zero_estimate_gives_reference_norm(self):
        basis = BasisSystem.trigonometric(D_PRIME, 6)
        psi = STUDY_VG.levy_density()
        zero = CoefficientVector(basis, np.zeros(6))
        got = l2_error_on_D(zero, psi, D, grid_points=40_001)
        # Gauss-Legendre oracle for ||psi||_L2(D)
        half = (D.b - D.a) / 2.0
        x, w = np.polynomial.legendre.leggauss(200)
        x = (D.a + D.b) / 2.0 + half * x
        norm = math.sqrt(float(np.sum(half * w * psi(x) ** 2)))
        assert got == pytest.approx(norm, rel=1e-6)

    def test_window_containment_enforced(self):
        basis = BasisSystem.trigonometric(D, 4)  # built on D, narrower than D'
        theta = CoefficientVector(basis, np.zeros(4))
        with pytest.raises(WindowError):
            l2_error_on_D(theta, theta, D_PRIME)
