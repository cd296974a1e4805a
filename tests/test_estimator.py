"""Estimator tests: double-loop summation oracle, risk algebra, L2 errors."""

import hashlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levygibbs
import levygibbs.processes as processes
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
from levygibbs.basis import _TRIG_TABLE, MAX_TRIG_K, TrigonometricBasis
from levygibbs.processes import BLOCK

from conftest import slow_enabled, trig_closed_form

D = Window(0.006, 0.014)
D_PRIME = Window(0.005, 0.015)
STUDY_VG = VarianceGammaParams(mu=0.0, sigma=3.7 * 10**-1.5, nu=2e-3)


# The fold of an .npy file of in-window points at K = 320 on D', in a fresh interpreter; prints the sha256 of theta_hat.
ONE_THREAD_FOLD = """
import hashlib, sys
import numpy as np
from levygibbs import BasisSystem, IncrementSeries, SamplingScheme, Window, empirical_coefficients
y = np.load(sys.argv[1])
series = IncrementSeries(SamplingScheme(1.0, len(y)), seed=0, values=y)
theta = empirical_coefficients(series, BasisSystem.trigonometric(Window(0.005, 0.015), 320)).values
print(hashlib.sha256(theta.tobytes()).hexdigest())
"""


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
        # one point at a time, summed in data order
        oracle = sum(basis.evaluate_all(float(y))[:, 0] for y in values) / t_n
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
    @pytest.mark.parametrize(
        "family,K", [("trigonometric", K) for K in (1, 23, 24, 25, 321, 512)] + [("piecewise-legendre", 75)]
    )
    def test_row_chunks_sum_like_the_whole_matrix(self, family, K, m):
        # Trig K at and around the joins of the 2T = 24-row groups; 75 Legendre rows in 25 pieces of J = 3.
        # The Legendre fold and the trig rows k < 2T sum the rows of evaluate_all bit for bit; the trig
        # rows k >= 2T are sums of products (see the longdouble-oracle test below).
        if family == "trigonometric":
            basis = BasisSystem.trigonometric(D_PRIME, K)
            exact = min(K, 2 * _TRIG_TABLE - 1)
        else:
            basis = BasisSystem.piecewise_legendre(D_PRIME, 3, K // 3)
            exact = K
        y = np.random.default_rng(m).uniform(D_PRIME.a, D_PRIME.b, m)
        assert all(rows.flags.c_contiguous for rows in basis._row_chunks(y))  # so each row is summed pairwise
        theta = empirical_coefficients(series_from(y), basis).values  # t_n = m
        whole = basis.evaluate_all(y).sum(axis=1) / m
        assert theta[:exact].tobytes() == whole[:exact].tobytes()

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is no wider than double"
    )
    @pytest.mark.parametrize("m", [7, 129, 8193])
    def test_trig_row_sums_within_angle_rounding_of_longdouble_oracle(self, m):
        # Rows k >= 2T, which the fold sums as products of the table with each group's anchors:
        # each value is within 4*pi*k*eps*s of cos/sin at the exact angle (test_basis), and the
        # roundings at m independent angles add up like a random walk, so a row sum is within
        # sqrt(m) times that of the row sum in longdouble.  The fold's sums meet this bound, and
        # so do the sums of the per-row libm rows of evaluate_all (measured at most 0.15 and 0.21
        # of the bound).
        basis = BasisSystem.trigonometric(D_PRIME, MAX_TRIG_K)
        y = np.random.default_rng(m).uniform(D_PRIME.a, D_PRIME.b, m)
        k = np.arange(2 * _TRIG_TABLE, MAX_TRIG_K + 1)
        bound = 4.0 * math.pi * k * np.finfo(float).eps * math.sqrt(2.0 / D_PRIME.length) * math.sqrt(m)
        oracle = trig_closed_form(D_PRIME, MAX_TRIG_K, y, np.longdouble)[k - 1].sum(axis=1)
        for sums in (basis._row_sums(y), basis.evaluate_all(y).sum(axis=1)):
            err = np.abs(sums[k - 1] - oracle).astype(float)
            assert np.all(err <= bound), np.max(err / bound)

    def test_trig_fold_builds_no_rows(self, monkeypatch):
        basis = BasisSystem.trigonometric(D_PRIME, 320)
        y = np.random.default_rng(2).uniform(D_PRIME.a, D_PRIME.b, 5000)
        expected = empirical_coefficients(series_from(y), basis).values

        def no_rows(self, x):
            raise AssertionError("the trig fold built basis rows")

        monkeypatch.setattr(TrigonometricBasis, "_row_chunks", no_rows)
        assert empirical_coefficients(series_from(y), basis).values.tobytes() == expected.tobytes()

    def test_trig_fold_at_every_K_is_a_prefix_of_the_fold_at_512(self):
        # The trig system is nested and each group's sums use the whole table whatever K is.
        rng = np.random.default_rng(3)
        y = np.where(rng.random(9000) < 0.9, rng.uniform(D_PRIME.a, D_PRIME.b, 9000), rng.normal(0.0, 1.0, 9000))
        full = empirical_coefficients(series_from(y), BasisSystem.trigonometric(D_PRIME, MAX_TRIG_K)).values
        for K in (1, 23, 24, 25, 47, 48, 320):
            theta = empirical_coefficients(series_from(y), BasisSystem.trigonometric(D_PRIME, K)).values
            assert theta.tobytes() == full[:K].tobytes(), K

    def test_trig_fold_bits_do_not_depend_on_blas_threads_or_kernel(self, tmp_path):
        # A K = 320 block of 44k in-window points, as dense_window folds it, in this process and in
        # one whose BLAS runs on one thread with the SSE kernels of another CPU (OPENBLAS_CORETYPE,
        # read by OpenBLAS builds for several CPUs; other BLAS ignore it): the group sums use
        # einsum, never BLAS.  With `@` in their place the child's bits differ.
        y = np.random.default_rng(4).uniform(D_PRIME.a, D_PRIME.b, 44_000)
        np.save(tmp_path / "y.npy", y)
        theta = empirical_coefficients(series_from(y), BasisSystem.trigonometric(D_PRIME, 320)).values
        package_root = os.path.dirname(os.path.dirname(levygibbs.__file__))
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_CORETYPE="Nehalem",
            PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
        )
        proc = subprocess.run(
            [sys.executable, "-c", ONE_THREAD_FOLD, str(tmp_path / "y.npy")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == hashlib.sha256(theta.tobytes()).hexdigest()

    @pytest.mark.slow
    @pytest.mark.skipif(not slow_enabled(), reason="folds 2^20 in-window points at K = 512 four times; set LEVY_GIBBS_RUN_SLOW=1")
    def test_whole_blocks_in_window_fold_alike_on_one_and_two_workers(self, monkeypatch):
        # Two blocks of in-window points at K = 512: every row group of a whole block, masked in
        # process and forked, and summed on one thread and on two (max_workers does not cap those).
        basis = BasisSystem.trigonometric(D_PRIME, 512)
        y = np.random.default_rng(5).uniform(D_PRIME.a, D_PRIME.b, BLOCK + 4096)
        folds = set()
        for cpus in (1, 2):
            monkeypatch.setattr(processes, "_io_workers", lambda: cpus)
            for workers in (1, 2):
                folds.add(empirical_coefficients(series_from(y), basis, max_workers=workers).values.tobytes())
        assert len(folds) == 1

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
        # SamplingScheme owns the horizon rule (n >= 1, delta > 0), so the fold
        # never receives a series with t_n <= 0.
        for values, delta in (([0.01], 0.0), ([0.01], -0.5), ([], 0.5)):
            with pytest.raises(ParameterError):
                series_from(values, delta=delta)


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


@pytest.mark.parametrize("theta", [np.zeros(6), [0.0] * 6], ids=["ndarray", "list"])
def test_input_checks(theta):
    # l2_error_on_D synthesizes theta, so it needs the basis a CoefficientVector carries.
    message = "theta must be a CoefficientVector (basis required for synthesis)"
    with pytest.raises(ParameterError, match=re.escape(message)) as excinfo:
        l2_error_on_D(theta, STUDY_VG.levy_density(), D)
    assert excinfo.type is ParameterError
