"""Basis tests: orthonormality, analytic features, projection quadrature.

Independent oracles: dense-grid sup/total-variation estimates for the
feature functionals, composite Simpson for projection coefficients, the
exact trig/Legendre closed forms for single-point evaluations, and
scipy's eval_legendre for the Legendre rows.
"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import eval_legendre

from levygibbs import (
    BasisSystem,
    CoefficientVector,
    DimensionError,
    IntegrationError,
    ParameterError,
    ResourceGuardError,
    VarianceGammaParams,
    Window,
    WindowError,
    gram_matrix,
    project_density,
    quadrature_rule,
    synthesize,
)
from levygibbs.basis import MAX_LEGENDRE_J, MAX_LEGENDRE_L, MAX_TRIG_K, _TRIG_TABLE, _legendre_variations
from levygibbs.util import MATERIALIZE_LIMIT

from conftest import trig_closed_form

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


# Points inside, outside and at both endpoints of D'.
TRIG_X = np.concatenate([
    np.linspace(0.0, 0.02, 2001),
    [D_PRIME.a, D_PRIME.b, np.nextafter(D_PRIME.a, -np.inf), np.nextafter(D_PRIME.b, np.inf), -1.0, 2.0],
])


def value(basis, k, x):
    """f_k(x) at one point: row k-1 of evaluate_all."""
    return basis.evaluate_all(x)[k - 1, 0]


class TestEval:
    def test_trig_constant_is_ten(self):
        basis = BasisSystem.trigonometric(D_PRIME, 4)
        for x in (0.005, 0.0101, 0.015):
            assert value(basis, 1, x) == pytest.approx(10.0, abs=1e-12)

    def test_trig_k2_at_left_endpoint(self):
        basis = BasisSystem.trigonometric(D_PRIME, 4)
        assert value(basis, 2, 0.005) == pytest.approx(math.sqrt(200.0), rel=1e-15)

    def test_trig_frequencies_as_printed(self):
        # even k carries frequency k, odd k > 1 carries k - 1
        basis = BasisSystem.trigonometric(D_PRIME, 5)
        u = 0.3
        x = D_PRIME.a + u * D_PRIME.length
        s = math.sqrt(2.0 / D_PRIME.length)
        assert value(basis, 4, x) == pytest.approx(s * math.cos(4 * math.pi * u), rel=1e-12)
        assert value(basis, 5, x) == pytest.approx(s * math.sin(4 * math.pi * u), rel=1e-12)

    def test_legendre_degree0_indicator(self):
        basis = BasisSystem.piecewise_legendre(Window(0.0, 1.0), J=1, L=4)
        # k = 2 (degree 0 on piece 2) is the normalized indicator of piece (0.25, 0.5)
        assert value(basis, 2, 0.3) == pytest.approx(2.0, rel=1e-15)
        assert value(basis, 2, 0.7) == 0.0

    def test_legendre_open_pieces(self):
        basis = BasisSystem.piecewise_legendre(Window(0.0, 1.0), J=2, L=4)
        # interior edge and both window ends
        assert np.all(basis.evaluate_all([0.25, 0.0, 1.0]) == 0.0)

    def test_zero_outside_window_exactly(self):
        for basis in (
            BasisSystem.trigonometric(D_PRIME, 8),
            BasisSystem.piecewise_legendre(D_PRIME, J=2, L=4),
        ):
            outside = np.array([-1.0, 0.0, 0.0049, 0.0151, 2.0])
            assert np.all(basis.evaluate_all(outside) == 0.0)

    def test_trig_libm_rows_bit_identical_to_closed_form(self):
        # every row is its own libm cos/sin call at the angle (2j*pi)*u: at K = 512 all 512 rows
        # equal the per-row closed form bit for bit, on TRIG_X and at NaN and +-inf
        x = np.concatenate([TRIG_X, [np.nan, np.inf, -np.inf]])
        rows = BasisSystem.trigonometric(D_PRIME, MAX_TRIG_K).evaluate_all(x)
        assert rows.tobytes() == trig_closed_form(D_PRIME, MAX_TRIG_K, x).tobytes()

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is no wider than double"
    )
    def test_trig_rows_within_angle_rounding_of_longdouble_oracle(self):
        # rounding the angle freq*pi*u to a double dominates the per-row libm form: each row k
        # is within 4*pi*k*eps*s of cos/sin at the exact angle
        s = math.sqrt(2.0 / D_PRIME.length)
        bound = 4.0 * math.pi * np.arange(1, MAX_TRIG_K + 1) * np.finfo(float).eps * s
        oracle = trig_closed_form(D_PRIME, MAX_TRIG_K, TRIG_X, np.longdouble)
        evaluated = BasisSystem.trigonometric(D_PRIME, MAX_TRIG_K).evaluate_all(TRIG_X)
        for rows in (evaluated, trig_closed_form(D_PRIME, MAX_TRIG_K, TRIG_X)):
            err = np.max(np.abs(rows - oracle), axis=1)
            assert np.all(err <= bound), np.max(err / bound)

    def test_trig_exact_zeros_off_window_and_at_left_endpoint(self):
        # every row is +0.0 just off either end and far off the window; at x = a every sine
        # row is exactly 0 and every cosine row exactly s, up to K = 512
        a, b = D_PRIME.a, D_PRIME.b
        x = np.array([a, np.nextafter(a, -np.inf), np.nextafter(b, np.inf), -1.0, 2.0])
        rows = BasisSystem.trigonometric(D_PRIME, MAX_TRIG_K).evaluate_all(x)
        assert np.all(rows[:, 1:] == 0.0) and not np.any(np.signbit(rows[:, 1:]))
        assert np.all(rows[2::2, 0] == 0.0) and not np.any(np.signbit(rows[2::2, 0]))
        assert np.all(rows[1::2, 0] == math.sqrt(2.0 / D_PRIME.length))

    def test_trig_rows_do_not_depend_on_K_or_on_the_other_points(self):
        # the rows of K = 320, and of K around the fold's table size 2T, are the first rows of
        # K = 512, and a point evaluated alone gets its column of the whole evaluation, bit for bit
        full = BasisSystem.trigonometric(D_PRIME, MAX_TRIG_K).evaluate_all(TRIG_X)
        for K in (1, 2, 2 * _TRIG_TABLE - 1, 2 * _TRIG_TABLE, 2 * _TRIG_TABLE + 1, 320):
            assert BasisSystem.trigonometric(D_PRIME, K).evaluate_all(TRIG_X).tobytes() == full[:K].tobytes()
        for i in (0, 700, 1000, 1400, len(TRIG_X) - 1):
            alone = BasisSystem.trigonometric(D_PRIME, MAX_TRIG_K).evaluate_all(TRIG_X[i])
            assert alone.tobytes() == full[:, i].tobytes()

    def test_rows_are_piece_major(self):
        # row (l-1)*J + j (0-based) is degree j on piece l: the scaled Q_j on
        # that piece's open interval and exactly 0 off it, for every J; Q_j is
        # scipy's eval_legendre, to 1e-13 on the unit scale
        L = 4
        h = D_PRIME.length / L
        t = np.linspace(0.01, 0.99, 25)
        x = np.concatenate([D_PRIME.a + (l - 1 + t) * h for l in range(1, L + 1)])
        for J in range(1, MAX_LEGENDRE_J + 1):
            rows = BasisSystem.piecewise_legendre(D_PRIME, J=J, L=L).evaluate_all(x)
            for l in range(1, L + 1):
                on = slice((l - 1) * len(t), l * len(t))
                for j in range(J):
                    row = rows[(l - 1) * J + j]
                    unit = row[on] / math.sqrt((2 * j + 1) / h)
                    np.testing.assert_allclose(unit, eval_legendre(j, 2.0 * t - 1.0), rtol=0, atol=1e-13)
                    assert np.count_nonzero(row) == np.count_nonzero(row[on])
        # the feature variations, at their own critical points, by scipy
        for j in range(MAX_LEGENDRE_J):
            q = np.polynomial.legendre.Legendre.basis(j)
            crit = np.sort(np.concatenate([[-1.0, 1.0], np.real(q.deriv().roots())]))
            crit_sq = np.sort(np.concatenate([crit, np.real(q.roots())]))
            tv = np.sum(np.abs(np.diff(eval_legendre(j, crit))))
            sq_tv = np.sum(np.abs(np.diff(eval_legendre(j, crit_sq) ** 2)))
            assert _legendre_variations(j) == pytest.approx((tv, sq_tv), rel=1e-13)

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
        theta = project_density(basis, lambda x: basis.evaluate_all(x)[2])
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


TRIG8 = BasisSystem.trigonometric(D_PRIME, 8)


@pytest.mark.parametrize("call, error, message", [
    (lambda: quadrature_rule(TRIG8, 0), ParameterError, "quad_nodes must be a positive integer, got 0"),
    (lambda: gram_matrix(TRIG8, quad_nodes=31), ParameterError, "quad_nodes=31 below the 4K floor for K=8"),
    (lambda: project_density(TRIG8, np.ones_like, quad_nodes=31), ParameterError,
     "quad_nodes=31 below the 4K floor for K=8"),
    (lambda: project_density(TRIG8, lambda x: np.where(x < 0.01, np.nan, 1.0)), IntegrationError,
     "density is not finite everywhere on the window"),
    (lambda: synthesize(TRIG8, np.zeros((1, 8)), 0.01), DimensionError, "coefficient vector must be 1-d, got shape (1, 8)"),
    (lambda: BasisSystem.from_descriptor({"family": "trigonometric", "a": 0.005, "b": 0.015}), ParameterError,
     "basis descriptor missing field 'K'"),
], ids=["no-quadrature-nodes", "gram-below-4K", "projection-below-4K", "density-not-finite", "coefficients-2d", "descriptor-without-K"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as excinfo:
        call()
    assert excinfo.type is error


@pytest.mark.parametrize("basis", [TRIG8, BasisSystem.piecewise_legendre(D_PRIME, 2, 4)], ids=lambda b: b.family)
def test_evaluate_all_refuses_points_of_more_than_one_dimension(monkeypatch, basis):
    # refused before check_rows, which would take len(x) for the point count; 0-d and 1-d points evaluate
    x = np.full((2, 3), 0.01)
    assert basis.evaluate_all(0.01).tobytes() == basis.evaluate_all(x[0]).T[0].tobytes()
    monkeypatch.setattr(BasisSystem, "check_rows", lambda self, points: pytest.fail("check_rows before the shape check"))
    with pytest.raises(DimensionError, match=re.escape("basis points must be a scalar or 1-d, got shape (2, 3)")):
        basis.evaluate_all(x)


def test_quadrature_guard_fires_before_allocating():
    # segments() is the rule's first step towards its nodes, so the stub fails the test if the guard is missing.
    stub = SimpleNamespace(segments=lambda: pytest.fail("quadrature_rule went past its guard"))
    with pytest.raises(ResourceGuardError, match=f"quad_nodes={MATERIALIZE_LIMIT + 1} is above the materialization limit"):
        quadrature_rule(stub, MATERIALIZE_LIMIT + 1)
