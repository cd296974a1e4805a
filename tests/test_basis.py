"""Basis tests: orthonormality, analytic features, projection quadrature.

Independent oracles: dense-grid sup/total-variation estimates for the
feature functionals, composite Simpson for projection coefficients, and the
exact trig/Legendre closed forms for single-point evaluations.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from levygibbs import (
    BasisIndexError,
    BasisSystem,
    CoefficientVector,
    DimensionError,
    IntegrationError,
    ParameterError,
    VarianceGammaParams,
    Window,
    WindowError,
    gram_matrix,
    project_density,
    quadrature_rule,
    synthesize,
)
from levygibbs.basis import MAX_LEGENDRE_J, MAX_LEGENDRE_L, MAX_TRIG_K

D_PRIME = Window(0.005, 0.015)
STUDY_VG = VarianceGammaParams(mu=0.0, sigma=3.7 * 10**-1.5, nu=2e-3)


def numeric_features(basis, points=400_001):
    """Grid estimate of F1 = max_k(sup|f_k| + int|f_k'|), F2 analog for f_k^2.

    The derivative integrals are per smooth piece (no jump terms at piece
    boundaries), so piecewise bases are sampled strictly inside each piece.
    """
    if basis.family == "piecewise-legendre":
        edges = np.linspace(basis.window.a, basis.window.b, basis.L + 1)
        segments = list(zip(edges[:-1], edges[1:]))
    else:
        segments = [(basis.window.a, basis.window.b)]
    m = points // len(segments)
    t = np.linspace(1e-9, 1.0 - 1e-9, m)
    f1 = f2 = 0.0
    for lo, hi in segments:
        rows = basis.evaluate_all(lo + t * (hi - lo))
        for vals in rows:
            sup = np.max(np.abs(vals))
            tv = np.sum(np.abs(np.diff(vals)))
            sq = vals**2
            f1 = max(f1, sup + tv)
            f2 = max(f2, np.max(sq) + np.sum(np.abs(np.diff(sq))))
    return f1, f2


class TestWindow:
    def test_ordering_enforced(self):
        with pytest.raises(WindowError):
            Window(1.0, 1.0)
        with pytest.raises(WindowError):
            Window(2.0, 1.0)

    def test_contains(self):
        assert D_PRIME.contains(Window(0.006, 0.014))
        assert not Window(0.006, 0.014).contains(D_PRIME)


class TestEval:
    def test_trig_constant_is_ten(self):
        basis = BasisSystem.trigonometric(D_PRIME, 4)
        for x in (0.005, 0.0101, 0.015):
            assert basis.eval(1, x) == pytest.approx(10.0, abs=1e-12)

    def test_trig_k2_at_left_endpoint(self):
        basis = BasisSystem.trigonometric(D_PRIME, 4)
        assert basis.eval(2, 0.005) == pytest.approx(math.sqrt(200.0), rel=1e-15)

    def test_trig_frequencies_as_printed(self):
        # even k carries frequency k, odd k > 1 carries k - 1
        basis = BasisSystem.trigonometric(D_PRIME, 5)
        u = 0.3
        x = D_PRIME.a + u * D_PRIME.length
        s = math.sqrt(2.0 / D_PRIME.length)
        assert basis.eval(4, x) == pytest.approx(s * math.cos(4 * math.pi * u), rel=1e-12)
        assert basis.eval(5, x) == pytest.approx(s * math.sin(4 * math.pi * u), rel=1e-12)

    def test_legendre_degree0_indicator(self):
        basis = BasisSystem.piecewise_legendre(Window(0.0, 1.0), J=1, L=4)
        # (j=0, l=2) is the normalized indicator of piece (0.25, 0.5)
        assert basis.eval((0, 2), 0.3) == pytest.approx(2.0, rel=1e-15)
        assert basis.eval((0, 2), 0.7) == 0.0

    def test_legendre_open_pieces(self):
        basis = BasisSystem.piecewise_legendre(Window(0.0, 1.0), J=2, L=4)
        for k in range(1, basis.K + 1):
            assert basis.eval(k, 0.25) == 0.0  # interior edge
            assert basis.eval(k, 0.0) == 0.0
            assert basis.eval(k, 1.0) == 0.0

    def test_zero_outside_window_exactly(self):
        for basis in (
            BasisSystem.trigonometric(D_PRIME, 8),
            BasisSystem.piecewise_legendre(D_PRIME, J=2, L=4),
        ):
            outside = np.array([-1.0, 0.0, 0.0049, 0.0151, 2.0])
            assert np.all(basis.evaluate_all(outside) == 0.0)

    def test_trig_rows_bit_identical_to_closed_form(self):
        # the per-row formula, evaluated afresh for every row, at K = 320 on
        # points inside, outside and at both endpoints of the window
        a, b, width = D_PRIME.a, D_PRIME.b, D_PRIME.length
        x = np.concatenate([
            np.linspace(0.0, 0.02, 2001),
            [a, b, np.nextafter(a, -np.inf), np.nextafter(b, np.inf), -1.0, 2.0],
        ])
        inside = (x >= a) & (x <= b)
        u = np.where(inside, (x - a) / width, 0.0)
        s = math.sqrt(2.0 / width)
        expect = np.empty((320, len(x)))
        for k in range(1, 321):
            if k == 1:
                vals = np.full_like(u, 1.0 / math.sqrt(width))
            elif k % 2 == 0:
                vals = s * np.cos(k * math.pi * u)
            else:
                vals = s * np.sin((k - 1) * math.pi * u)
            expect[k - 1] = np.where(inside, vals, 0.0)
        basis = BasisSystem.trigonometric(D_PRIME, 320)
        rows = basis.evaluate_all(x)
        assert rows.tobytes() == expect.tobytes()
        for k in (1, 2, 7, 320):
            assert basis.eval(k, x).tobytes() == rows[k - 1].tobytes()

    def test_index_bounds(self):
        basis = BasisSystem.trigonometric(D_PRIME, 8)
        for k in (0, 9, -1):
            with pytest.raises(BasisIndexError):
                basis.eval(k, 0.01)

    def test_linear_index_is_piece_major(self):
        basis = BasisSystem.piecewise_legendre(D_PRIME, J=3, L=4)
        seen = [basis.linear_index(j, l) for l in range(1, 5) for j in range(3)]
        assert seen == list(range(1, 13))
        with pytest.raises(BasisIndexError):
            basis.linear_index(3, 1)
        with pytest.raises(BasisIndexError):
            basis.linear_index(0, 5)

    def test_index_pair_applies_to_the_piecewise_family_only(self):
        trig = BasisSystem.trigonometric(D_PRIME, 8)
        with pytest.raises(BasisIndexError):
            trig.eval((0, 1), 0.01)
        legendre = BasisSystem.piecewise_legendre(D_PRIME, J=2, L=4)
        assert legendre.eval((1, 2), 0.008) == legendre.eval(4, 0.008)

    def test_constructor_guards(self):
        with pytest.raises(ParameterError):
            BasisSystem.trigonometric(D_PRIME, 0)
        with pytest.raises(ParameterError):
            BasisSystem.trigonometric(D_PRIME, MAX_TRIG_K + 1)
        with pytest.raises(ParameterError):
            BasisSystem.piecewise_legendre(D_PRIME, J=MAX_LEGENDRE_J + 1, L=2)
        with pytest.raises(ParameterError):
            BasisSystem.piecewise_legendre(D_PRIME, J=2, L=MAX_LEGENDRE_L + 1)


class TestGram:
    def test_trig_k20(self):
        basis = BasisSystem.trigonometric(D_PRIME, 20)
        g = gram_matrix(basis, quad_nodes=2000)
        assert np.max(np.abs(g - np.eye(20))) < 1e-8

    def test_legendre_j3_l4(self):
        basis = BasisSystem.piecewise_legendre(D_PRIME, J=3, L=4)
        g = gram_matrix(basis)
        assert np.max(np.abs(g - np.eye(12))) < 1e-8

    def test_k1_is_identity(self):
        g = gram_matrix(BasisSystem.trigonometric(D_PRIME, 1), quad_nodes=16)
        np.testing.assert_allclose(g, [[1.0]], atol=1e-12)

    def test_largest_shipped_configurations(self):
        trig = BasisSystem.trigonometric(D_PRIME, MAX_TRIG_K)
        g = gram_matrix(trig)
        assert np.max(np.abs(g - np.eye(MAX_TRIG_K))) < 1e-8
        leg = BasisSystem.piecewise_legendre(D_PRIME, J=MAX_LEGENDRE_J, L=MAX_LEGENDRE_L)
        g = gram_matrix(leg)
        assert np.max(np.abs(g - np.eye(leg.K))) < 1e-8

    def test_node_floor_enforced(self):
        basis = BasisSystem.trigonometric(D_PRIME, 20)
        with pytest.raises(ParameterError):
            gram_matrix(basis, quad_nodes=79)

    def test_piecewise_rule_is_built_panel_by_panel_on_its_segments(self):
        basis = BasisSystem.piecewise_legendre(D_PRIME, J=3, L=5)
        segments = basis.segments()
        assert len(segments) == 5 and segments[0][0] == D_PRIME.a and segments[-1][1] == D_PRIME.b
        assert all(hi == lo for (_, hi), (lo, _) in zip(segments[:-1], segments[1:]))
        x, w = quadrature_rule(basis, 2048)
        # A one-segment basis on each piece gets that piece's share of the nodes.
        parts = [quadrature_rule(BasisSystem.trigonometric(Window(lo, hi), 1), -(-2048 // 5)) for lo, hi in segments]
        assert x.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
        assert w.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()
        assert BasisSystem.trigonometric(D_PRIME, 4).segments() == [(D_PRIME.a, D_PRIME.b)]

    def test_rule_independent_of_k(self):
        x8, w8 = quadrature_rule(BasisSystem.trigonometric(D_PRIME, 8), 2048)
        x16, w16 = quadrature_rule(BasisSystem.trigonometric(D_PRIME, 16), 2048)
        assert np.array_equal(x8, x16) and np.array_equal(w8, w16)


class TestFeatures:
    def test_trig_k1_exact(self):
        f = BasisSystem.trigonometric(D_PRIME, 1).features()
        assert f.F1 == pytest.approx(1.0 / math.sqrt(D_PRIME.length), rel=1e-15)
        assert f.F2 == pytest.approx(1.0 / D_PRIME.length, rel=1e-15)

    def test_trig_matches_grid_estimate(self):
        basis = BasisSystem.trigonometric(D_PRIME, 6)
        f = basis.features()
        f1_num, f2_num = numeric_features(basis)
        assert f.F1 == pytest.approx(f1_num, rel=1e-4)
        assert f.F2 == pytest.approx(f2_num, rel=1e-4)

    def test_legendre_matches_grid_estimate(self):
        basis = BasisSystem.piecewise_legendre(Window(0.0, 1.0), J=3, L=2)
        f = basis.features()
        f1_num, f2_num = numeric_features(basis)
        assert f.F1 == pytest.approx(f1_num, rel=1e-4)
        assert f.F2 == pytest.approx(f2_num, rel=1e-4)

    def test_trig_f1_linear_growth(self):
        for k in (8, 16, 32):
            r = (
                BasisSystem.trigonometric(D_PRIME, 2 * k).features().F1
                / BasisSystem.trigonometric(D_PRIME, k).features().F1
            )
            assert 1.5 <= r <= 2.5

    def test_legendre_f1_sqrt_growth(self):
        # fixed J, quadrupling the pieces quadruples K and doubles F1
        for L in (2, 4, 8):
            r = (
                BasisSystem.piecewise_legendre(D_PRIME, J=3, L=4 * L).features().F1
                / BasisSystem.piecewise_legendre(D_PRIME, J=3, L=L).features().F1
            )
            assert 1.6 <= r <= 2.4


class TestProjection:
    def test_zero_density(self):
        basis = BasisSystem.trigonometric(D_PRIME, 6)
        theta = project_density(basis, lambda x: np.zeros_like(x))
        assert np.all(theta.values == 0.0)

    def test_basis_function_projects_to_unit_vector(self):
        basis = BasisSystem.trigonometric(D_PRIME, 8)
        theta = project_density(basis, lambda x: basis.eval(3, x))
        expect = np.zeros(8)
        expect[2] = 1.0
        np.testing.assert_allclose(theta.values, expect, atol=1e-10)
        assert np.max(theta.quad_error) < 1e-10

    def test_vg_coefficients_match_simpson(self):
        basis = BasisSystem.trigonometric(D_PRIME, 8)
        psi = STUDY_VG.levy_density()
        theta = project_density(basis, psi)
        x = np.linspace(D_PRIME.a, D_PRIME.b, 100_001)
        fx = basis.evaluate_all(x) * psi(x)
        oracle = np.array([simpson(row, x=x) for row in fx])
        np.testing.assert_allclose(theta.values, oracle, atol=1e-8)

    def test_nested_prefix_exact(self):
        psi = STUDY_VG.levy_density()
        theta8 = project_density(BasisSystem.trigonometric(D_PRIME, 8), psi)
        theta16 = project_density(BasisSystem.trigonometric(D_PRIME, 16), psi)
        assert np.array_equal(theta16.values[:8], theta8.values)

    def test_nonfinite_density_rejected(self):
        basis = BasisSystem.trigonometric(D_PRIME, 4)
        with pytest.raises(IntegrationError):
            project_density(basis, lambda x: 1.0 / (x - 0.01))


class TestSynthesize:
    def test_zero_vector(self):
        basis = BasisSystem.trigonometric(D_PRIME, 5)
        x = np.linspace(0.004, 0.016, 50)
        assert np.all(synthesize(basis, np.zeros(5), x) == 0.0)

    def test_e1_is_constant_ten(self):
        basis = BasisSystem.trigonometric(D_PRIME, 5)
        theta = np.zeros(5)
        theta[0] = 1.0
        x = np.linspace(D_PRIME.a, D_PRIME.b, 11)
        np.testing.assert_allclose(synthesize(basis, theta, x), 10.0, atol=1e-12)
        assert synthesize(basis, theta, 0.02) == 0.0

    def test_parseval_example(self):
        basis = BasisSystem.trigonometric(D_PRIME, 8)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(8)
        x, w = quadrature_rule(basis, 2048)
        quad = float(np.sum(w * synthesize(basis, theta, x) ** 2))
        assert abs(quad - theta @ theta) < 1e-8

    def test_parseval_relative_invariant(self):
        rng = np.random.default_rng(7)
        for basis in (
            BasisSystem.trigonometric(D_PRIME, 32),
            BasisSystem.piecewise_legendre(D_PRIME, J=4, L=8),
        ):
            for _ in range(10):
                theta = rng.standard_normal(basis.K) * rng.uniform(0.1, 100.0)
                x, w = quadrature_rule(basis, 4 * basis.K)
                quad = math.sqrt(np.sum(w * synthesize(basis, theta, x) ** 2))
                norm = float(np.linalg.norm(theta))
                assert abs(quad - norm) < 1e-6 * norm

    def test_length_mismatch(self):
        basis = BasisSystem.trigonometric(D_PRIME, 5)
        with pytest.raises(DimensionError):
            synthesize(basis, np.zeros(4), 0.01)


class TestSerialization:
    def test_descriptor_round_trip(self):
        for basis in (
            BasisSystem.trigonometric(D_PRIME, 12),
            BasisSystem.piecewise_legendre(D_PRIME, J=2, L=6),
        ):
            assert BasisSystem.from_descriptor(basis.descriptor()) == basis

    def test_descriptor_key_order(self):
        assert list(BasisSystem.trigonometric(D_PRIME, 12).descriptor()) == ["family", "a", "b", "K"]
        legendre = BasisSystem.piecewise_legendre(D_PRIME, J=2, L=6).descriptor()
        assert legendre == {"family": "piecewise-legendre", "a": 0.005, "b": 0.015, "K": 12, "J": 2, "L": 6}
        assert list(legendre) == ["family", "a", "b", "K", "J", "L"]

    def test_unknown_family_refused(self):
        with pytest.raises(ParameterError, match="unknown basis family 'wavelet'"):
            BasisSystem.from_descriptor({"family": "wavelet", "a": 0.005, "b": 0.015, "K": 4})

    def test_coefficient_round_trip_lossless(self):
        basis = BasisSystem.trigonometric(D_PRIME, 6)
        rng = np.random.default_rng(0)
        theta = CoefficientVector(basis, rng.standard_normal(6) * 1e3, role="empirical", t_n=20.0)
        back = CoefficientVector.from_dict(theta.to_dict())
        assert np.array_equal(back.values, theta.values)
        assert back.basis == basis
        assert back.role == "empirical" and back.t_n == 20.0

    def test_length_checked(self):
        basis = BasisSystem.trigonometric(D_PRIME, 6)
        with pytest.raises(DimensionError):
            CoefficientVector(basis, np.zeros(5))
