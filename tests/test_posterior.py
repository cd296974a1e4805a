"""Gibbs posterior tests.

The central oracle is brute-force quadrature of the unnormalized posterior

    exp(-omega * t_n * R_n(theta)) * prior(theta)

on a tensor Gauss-Legendre grid: a one-dimensional rule for conditional
moments at K=1 and a genuinely three-dimensional rule for the marginal pmf
over K <= 3, so the closed forms are checked without assuming the
coordinate factorization they rely on.  R_n is the library's own loss,
`empirical_risk`, evaluated node by node.
"""

import functools
import hashlib
import math

import numpy as np
import pytest

from levygibbs import posterior
from levygibbs import (
    BasisSystem,
    CoefficientVector,
    DimensionError,
    EmptyDrawsError,
    GibbsConfig,
    ParameterError,
    PosteriorDraws,
    ResourceGuardError,
    VarianceGammaParams,
    Window,
    WindowError,
    conditional_posterior,
    concentration_probability,
    credible_band,
    empirical_risk,
    marginal_k,
    MarginalK,
    posterior_mean_function,
    project_density,
    sample_posterior,
    synthesize,
    validate_config,
)
from levygibbs.experiment import write_draws_jsonl
from levygibbs.posterior import DISTANCE_TILE_ROWS, DRAW_BLOCK, DrawBlocks, _draw_distances, _log_sum_exp
from levygibbs.util import MATERIALIZE_LIMIT

D_PRIME = Window(0.005, 0.015)
STUDY_VG = VarianceGammaParams(mu=0.0, sigma=3.7 * 10**-1.5, nu=2e-3)

# Handcrafted small-scale posterior for quadrature oracles: large omega*t_n
# so shrinkage is far from both 0 and 1.
ORACLE_CONFIG = GibbsConfig(omega=0.05, sigma0=2.0, beta=0.4, k_max=3)
ORACLE_TN = 10.0
ORACLE_THETA_HAT = np.array([0.8, -0.3, 0.5])


def gl_grid(points, lim=14.0):
    x, w = np.polynomial.legendre.leggauss(points)
    return lim * x, lim * w


def brute_force_pmf_and_moments(theta_hat, t_n, config, points=56):
    """Tensor-quadrature pmf over K = 1..3 plus conditional moments at K=3.

    Z_K = int exp(-omega*t_n*R_{n,K}(theta)) dPhi_{sigma0}(theta) over R^K
    with R_{n,K} the library's own loss, empirical_risk(theta, theta_hat[:K]),
    called at every node of the K-dimensional grid, and pmf(K) proportional
    to exp(-beta*K*log K) * Z_K.  56 nodes per axis on [-14, 14] put the rule
    within 1e-11 of the pmf and 1e-8 of the moments.
    """
    w_rate = config.omega * t_n
    x, w = gl_grid(points)
    phi = w * np.exp(-(x**2) / (2.0 * config.sigma0**2)) / (config.sigma0 * math.sqrt(2.0 * math.pi))
    grids = np.meshgrid(x, x, x, indexing="ij")
    weights3 = phi[:, None, None] * phi[None, :, None] * phi[None, None, :]

    z = []
    for K in (1, 2, 3):
        nodes = np.stack(grids[:K], axis=-1)[(slice(None),) * K + (0,) * (3 - K)].reshape(-1, K)
        risk = np.array([empirical_risk(node, theta_hat[:K]) for node in nodes])
        # the unused coordinates of the 3-d grid are integrated out against the prior
        post = weights3 * np.exp(-w_rate * risk).reshape((points,) * K + (1,) * (3 - K))
        z.append(float(np.sum(post)))
    prior = np.array([math.exp(-config.beta * K * math.log(K)) for K in (1, 2, 3)])
    weights = prior * np.array(z)
    pmf = weights / weights.sum()

    # post and z[2] are the K = 3 posterior from the last pass of the loop
    means = np.array([float(np.sum(post * grids[k])) / z[2] for k in range(3)])
    second = np.array([float(np.sum(post * grids[k] ** 2)) / z[2] for k in range(3)])
    return pmf, means, second - means**2


@functools.cache
def oracle_pmf_and_moments():
    """brute_force_pmf_and_moments at the ORACLE_* posterior, computed once."""
    return brute_force_pmf_and_moments(ORACLE_THETA_HAT, ORACLE_TN, ORACLE_CONFIG)


class TestConditionalPosterior:
    def test_flat_prior_limit(self):
        config = GibbsConfig(omega=1e-5, sigma0=1e12)
        theta_hat = np.array([2.0, -1.0, 0.5])
        cond = conditional_posterior(theta_hat, 320.0, config)
        np.testing.assert_allclose(cond.means, theta_hat, rtol=1e-9)
        assert cond.variance == pytest.approx(1.0 / (2.0 * 1e-5 * 320.0), rel=1e-9)

    def test_paper_constants_frozen(self):
        # omega=1e-5, t_n=320, sigma0=1e3 by direct substitution
        cond = conditional_posterior(np.array([1.0]), 320.0, GibbsConfig())
        assert cond.means[0] == pytest.approx(0.9998437744102483, rel=1e-14)
        assert cond.variance == pytest.approx(156.2255897516013, rel=1e-14)

    def test_shrinkage_componentwise(self):
        rng = np.random.default_rng(0)
        theta_hat = rng.standard_normal(20) * 100.0
        cond = conditional_posterior(theta_hat, 20.0, GibbsConfig())
        assert np.all(np.abs(cond.means) <= np.abs(theta_hat))
        assert cond.variance > 0.0

    def test_k1_quadrature_oracle(self):
        # 1e6-point trapezoid of the unnormalized posterior at K=1
        config = ORACLE_CONFIG
        theta_hat = np.array([0.7])
        cond = conditional_posterior(theta_hat, ORACLE_TN, config)
        t = np.linspace(-12.0, 12.0, 1_000_001)
        dens = np.exp(
            -config.omega * ORACLE_TN * (-2.0 * t * theta_hat[0] + t**2)
        ) * np.exp(-(t**2) / (2.0 * config.sigma0**2))
        z = np.trapezoid(dens, t)
        mean = np.trapezoid(t * dens, t) / z
        var = np.trapezoid(t**2 * dens, t) / z - mean**2
        assert cond.means[0] == pytest.approx(mean, abs=1e-6)
        assert cond.variance == pytest.approx(var, abs=1e-6)

    def test_bad_horizon(self):
        with pytest.raises(ParameterError):
            conditional_posterior(np.array([1.0]), 0.0, GibbsConfig())


def scipy_logsumexp():
    """scipy.special.logsumexp, the reference _log_sum_exp reproduces; skip where its formula differs."""
    scipy = pytest.importorskip("scipy")
    if np.lib.NumpyVersion(scipy.__version__) < "1.15.0":
        pytest.skip(f"scipy {scipy.__version__} < 1.15 computes log(sum(exp(a - max))) + max, another formula")
    from scipy.special import logsumexp

    return logsumexp


def log_sum_exp_cases():
    """Random, tied and wide-range 1-d vectors, with the edge cases of one element and all equal."""
    rng = np.random.default_rng(21)
    cases = [np.array([0.0]), np.array([-7.5]), np.array([3.0, 3.0]), np.full(9, -2.5), np.array([1e300, -1e300])]
    for i in range(3000):
        n = int(rng.integers(1, 400))
        kind = i % 4
        if kind == 0:
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        elif kind == 1:
            a = rng.integers(-3, 3, n).astype(float)
        elif kind == 2:
            a = rng.uniform(-1e300, 1e300, n)
        else:
            a = rng.standard_normal(n) * 1e4
            a[rng.integers(0, n, 3)] = a.max()
        cases.append(a)
    return cases


class TestLogSumExp:
    def test_bits_match_scipy(self):
        logsumexp = scipy_logsumexp()
        for a in log_sum_exp_cases():
            assert same_bits(_log_sum_exp(a), logsumexp(a)), a

    def test_marginal_probs_match_scipy_normalisation(self):
        # The pmf marginal_k computed with scipy.special.logsumexp, bit for bit.
        logsumexp = scipy_logsumexp()
        rng = np.random.default_rng(22)
        cases = [(np.zeros(12), 20.0, 12), (600.0 / np.arange(1.0, 151.0), 320.0, 150)]
        cases += [(rng.standard_normal(k) * 600.0, float(k), k) for k in (1, 2, 20, 80, 320)]
        for theta_hat, t_n, k_max in cases:
            marg = marginal_k(theta_hat, t_n, GibbsConfig(k_max=k_max))
            probs = np.exp(marg.log_weights - logsumexp(marg.log_weights))
            probs /= probs.sum()
            assert same_bits(marg.probs, probs)


class TestMarginalK:
    def test_zero_data_penalty_only(self):
        config = GibbsConfig(k_max=12)
        marg = marginal_k(np.zeros(12), 20.0, config)
        assert np.all(np.diff(marg.log_weights) < 0.0)
        assert marg.mode() == 1

    def test_klogk_zero_at_one(self):
        config = GibbsConfig(k_max=3)
        marg = marginal_k(np.zeros(3), 20.0, config)
        penalty = -0.5 * math.log(2.0 * config.omega * 20.0 * config.sigma0**2 + 1.0)
        assert marg.log_weights[0] == pytest.approx(penalty, rel=1e-15)

    def test_pmf_matches_tensor_quadrature(self):
        pmf, _, _ = oracle_pmf_and_moments()
        marg = marginal_k(ORACLE_THETA_HAT, ORACLE_TN, ORACLE_CONFIG)
        np.testing.assert_allclose(marg.probs, pmf, atol=1e-8)

    def test_moments_match_tensor_quadrature(self):
        _, means, var = oracle_pmf_and_moments()
        cond = conditional_posterior(ORACLE_THETA_HAT, ORACLE_TN, ORACLE_CONFIG)
        np.testing.assert_allclose(cond.means, means, atol=1e-6)
        assert cond.variance == pytest.approx(var[0], abs=1e-6)
        np.testing.assert_allclose(var, var[0], atol=1e-6)  # common variance

    def test_normalization_invariant(self):
        rng = np.random.default_rng(1)
        for t_n, k_max in ((20.0, 20), (80.0, 80), (320.0, 320)):
            config = GibbsConfig(k_max=k_max)
            theta_hat = rng.standard_normal(k_max) * 600.0
            marg = marginal_k(theta_hat, t_n, config)
            assert abs(marg.probs.sum() - 1.0) < 1e-12
            assert np.all(marg.probs >= 0.0)

    def test_truncation_stability(self):
        # beyond the meaningful support, extending k_max must not move the pmf
        theta_hat = 600.0 / np.arange(1.0, 151.0)
        a = marginal_k(theta_hat[:100], 320.0, GibbsConfig(k_max=100))
        b = marginal_k(theta_hat, 320.0, GibbsConfig(k_max=150))
        np.testing.assert_allclose(b.probs[:100], a.probs, atol=1e-12)

    def test_length_must_match_k_max(self):
        with pytest.raises(DimensionError):
            marginal_k(np.zeros(5), 20.0, GibbsConfig(k_max=6))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_refused(self, bad):
        values = np.arange(1.0, 9.0)
        values[[3, 6]] = bad
        theta_hat = CoefficientVector(BasisSystem.trigonometric(D_PRIME, 8), values, t_n=20.0)
        with pytest.raises(ParameterError, match=rf"finite numbers, got {bad!r} at index 3$"):
            marginal_k(theta_hat, 20.0, GibbsConfig(k_max=8))
        with pytest.raises(ParameterError, match="at index 3"):
            sample_posterior(theta_hat, 20.0, GibbsConfig(k_max=8), 10, seed=1)
        values[3] = 0.0  # beyond k_max = 6 a value is never read
        assert marginal_k(values, 20.0, GibbsConfig(k_max=6)).probs.sum() == pytest.approx(1.0)

    def test_point_mass(self):
        marg = MarginalK.point_mass(3, 10)
        assert marg.probs[2] == 1.0 and marg.probs.sum() == 1.0
        assert marg.mode() == 3
        with pytest.raises(ParameterError):
            MarginalK.point_mass(11, 10)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def per_draw_sample(theta_hat, t_n, config, num_draws, seed, basis, marginal, grid_points=512):
    """Reference sampler: one normal call and one theta @ rows product per draw.

    This is the loop sample_posterior vectorizes; its K's, thetas and grid
    values must come out bit for bit the same.
    """
    k_max = config.k_max_for(t_n)
    cond = conditional_posterior(np.asarray(theta_hat, dtype=float)[:k_max], t_n, config)
    sd = math.sqrt(cond.variance)
    cum = np.cumsum(marginal.probs)
    cum[-1] = 1.0
    rows = basis.evaluate_all(np.linspace(config.D.a, config.D.b, grid_points))
    draws, grid_values = [], np.empty((num_draws, grid_points))
    for start in range(0, num_draws, DRAW_BLOCK):
        m = min(DRAW_BLOCK, num_draws - start)
        spawn = np.random.SeedSequence(entropy=seed, spawn_key=(start // DRAW_BLOCK,))
        rng = np.random.Generator(np.random.Philox(spawn))
        ks = np.searchsorted(cum, rng.random(m), side="right") + 1
        for i, K in enumerate(ks):
            theta = cond.means[:K] + sd * rng.standard_normal(K)
            draws.append((int(K), theta))
            grid_values[start + i] = theta @ rows[:K]
    return draws, grid_values


class TestSamplePosterior:
    def setup_method(self):
        self.config = GibbsConfig(k_max=20)
        self.t_n = 20.0
        self.basis = BasisSystem.trigonometric(D_PRIME, 20)
        psi = STUDY_VG.levy_density()
        self.theta_perp = project_density(self.basis, psi)

    def test_reproducible(self):
        a = sample_posterior(self.theta_perp, self.t_n, self.config, 200, seed=3)
        b = sample_posterior(self.theta_perp, self.t_n, self.config, 200, seed=3)
        assert np.array_equal(a.grid_values, b.grid_values)
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(a.draws, b.draws))
        c = sample_posterior(self.theta_perp, self.t_n, self.config, 200, seed=4)
        assert not np.array_equal(a.grid_values, c.grid_values)

    def test_draw_lengths_match_k(self):
        draws = sample_posterior(self.theta_perp, self.t_n, self.config, 300, seed=0)
        assert all(len(theta) == k for k, theta in draws.draws)

    def test_point_mass_marginal_fixes_k(self):
        a = sample_posterior(self.theta_perp, self.t_n, self.config, 250, seed=7, marginal=MarginalK.point_mass(8, 20))
        assert all(k == 8 and len(theta) == 8 for k, theta in a.draws)

    def test_fixed_k_gaussian_moments(self):
        # 1e5 draws at fixed K: sample mean/variance against the closed form
        # within 4 SE per coefficient
        n = 100_000
        draws = sample_posterior(
            self.theta_perp, self.t_n, self.config, n, seed=0, marginal=MarginalK.point_mass(4, 20), grid_points=2
        )
        cond = conditional_posterior(self.theta_perp.values[:4], self.t_n, self.config)
        mat = np.array([theta for _, theta in draws.draws])
        sd = math.sqrt(cond.variance)
        se_mean = sd / math.sqrt(n)
        se_var = cond.variance * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(mat.mean(axis=0) - cond.means) < 4 * se_mean)
        assert np.all(np.abs(mat.var(axis=0, ddof=1) - cond.variance) < 4 * se_var)

    def test_k_frequencies_match_pmf(self):
        # empirical K frequencies over 1e5 draws vs the exact pmf, 3
        # multinomial SEs per cell; cells with expected count < 10 are
        # skipped (normal approximation breaks down there), and the seed is
        # fixed so the check is deterministic.
        n = 100_000
        marg = marginal_k(self.theta_perp, self.t_n, self.config)
        draws = sample_posterior(
            self.theta_perp, self.t_n, self.config, n, seed=0, grid_points=2
        )
        ks = np.array([k for k, _ in draws.draws])
        counts = np.bincount(ks, minlength=21)[1:]
        expected = n * marg.probs
        se = np.sqrt(n * marg.probs * (1.0 - marg.probs))
        cells = expected >= 10.0
        assert cells.sum() >= 3
        assert np.all(np.abs(counts[cells] - expected[cells]) <= 3.0 * se[cells])

    def test_validation(self):
        with pytest.raises(ParameterError):
            sample_posterior(self.theta_perp, self.t_n, self.config, 0, seed=0)
        with pytest.raises(ParameterError, match="CoefficientVector"):
            sample_posterior(self.theta_perp.values, self.t_n, self.config, 10, seed=0)
        short = CoefficientVector(BasisSystem.trigonometric(D_PRIME, 5), np.zeros(5))
        with pytest.raises(DimensionError):
            sample_posterior(short, self.t_n, self.config, 10, seed=0)

    @pytest.mark.parametrize("num_draws", [1.5, True, 10.0, "10", -1])
    def test_num_draws_must_be_a_positive_integer(self, num_draws):
        with pytest.raises(ParameterError, match="num_draws must be a positive integer"):
            sample_posterior(self.theta_perp, self.t_n, self.config, num_draws, seed=0)

    def test_D_outside_the_basis_window_refused_before_allocating(self, monkeypatch):
        # A basis on D' with D = [0.1, 0.9] would draw every density as 0 on D and band it with radius 0.0.
        config = GibbsConfig(k_max=20, D=Window(0.1, 0.9), D_prime=Window(0.0, 1.0))
        monkeypatch.setattr(posterior, "MATERIALIZE_LIMIT", 0)
        with pytest.raises(WindowError, match=r"D=\[0.1, 0.9\] must be contained in the basis window \[0.005, 0.015\]"):
            sample_posterior(self.theta_perp, self.t_n, config, 10, seed=0)

    def test_marginal_must_cover_k_max(self):
        with pytest.raises(DimensionError, match="marginal covers K=1..21, expected k_max=20"):
            sample_posterior(self.theta_perp, self.t_n, self.config, 10, seed=0, marginal=MarginalK.point_mass(2, 21))

    def test_basis_must_be_nested(self):
        # Piece-major legendre prefixes are not models: K = 20 of J=4, L=8 covers 5 of the 8 pieces.
        legendre = BasisSystem.piecewise_legendre(D_PRIME, J=4, L=8)
        theta = CoefficientVector(legendre, np.ones(legendre.K), role="empirical", t_n=self.t_n)
        with pytest.raises(DimensionError, match="nested"):
            marginal_k(theta, self.t_n, self.config)
        with pytest.raises(DimensionError, match="nested"):
            sample_posterior(theta, self.t_n, self.config, 10, seed=0, marginal=MarginalK.point_mass(2, 20))
        with pytest.raises(DimensionError, match="nested"):
            sample_posterior(theta, self.t_n, self.config, 10, seed=0)

    def test_allocation_guard(self):
        # the guard fires before any (num_draws, grid_points) allocation;
        # 1e9 x 512 values would need 3.7 TiB
        assert 10**9 * 512 > MATERIALIZE_LIMIT
        with pytest.raises(ResourceGuardError):
            sample_posterior(self.theta_perp, self.t_n, self.config, 10**9, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            sample_posterior(self.theta_perp, self.t_n, self.config, 10, seed=seed)

    def test_theta_storage_guard(self, monkeypatch):
        # 400 x 2 grid values pass the limit, but the theta matrices may hold 400 x k_max = 8,000 values
        monkeypatch.setattr(posterior, "MATERIALIZE_LIMIT", 1000)
        with pytest.raises(ResourceGuardError, match="k_max=20"):
            sample_posterior(self.theta_perp, self.t_n, self.config, 400, seed=0, grid_points=2)
        sample_posterior(self.theta_perp, self.t_n, self.config, 50, seed=0, grid_points=2)

    def check_matches_per_draw(self, theta_hat, t_n, config, num_draws, seed, basis, marginal):
        got = sample_posterior(CoefficientVector(basis, theta_hat), t_n, config, num_draws, seed, marginal=marginal)
        draws, grid_values = per_draw_sample(theta_hat, t_n, config, num_draws, seed, basis, marginal)
        assert [k for k, _ in got.draws] == [k for k, _ in draws]
        assert all(same_bits(a, b) for (_, a), (_, b) in zip(got.draws, draws))
        assert same_bits(got.grid_values, grid_values)

    @pytest.mark.parametrize("num_draws", [1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 1000])
    def test_bit_identical_to_per_draw_loop(self, num_draws):
        marg = marginal_k(self.theta_perp, self.t_n, self.config)
        assert np.count_nonzero(marg.probs > 1e-3) >= 3
        self.check_matches_per_draw(
            self.theta_perp.values, self.t_n, self.config, num_draws, 5, self.basis, marg
        )

    def test_fixed_k_bit_identical_to_per_draw_loop(self):
        marg = MarginalK.point_mass(7, 20)
        self.check_matches_per_draw(self.theta_perp.values, self.t_n, self.config, 600, 9, self.basis, marg)

    def test_k_max_320_bit_identical_to_per_draw_loop(self):
        # a geometric pmf over 1..320, so a block mixes many K up to k_max
        config = GibbsConfig(k_max=320)
        basis = BasisSystem.trigonometric(D_PRIME, 320)
        theta_hat = np.random.default_rng(1).normal(0.0, 30.0, 320)
        log_w = -0.01 * np.arange(320)
        marg = MarginalK(log_w, np.exp(log_w) / np.exp(log_w).sum())
        self.check_matches_per_draw(theta_hat, 320.0, config, 600, 2, basis, marg)


class TestInProcessPath:
    """Several blocks, the last one partial, and partial distance tiles give the per-draw bits, with no pool."""

    NUM_DRAWS = 5 * DRAW_BLOCK + 77  # 6 blocks, the last one partial

    def setup_method(self):
        self.config = GibbsConfig(k_max=20)
        self.basis = BasisSystem.trigonometric(D_PRIME, 20)
        self.theta = project_density(self.basis, STUDY_VG.levy_density())
        self.marginal = marginal_k(self.theta, 20.0, self.config)

    def sample(self):
        return sample_posterior(self.theta, 20.0, self.config, self.NUM_DRAWS, seed=5, marginal=self.marginal)

    def test_blocks_and_tiles_match_per_draw(self, monkeypatch):
        monkeypatch.setattr(posterior, "DISTANCE_TILE_ROWS", 64)  # NUM_DRAWS is no multiple of 64
        draws = self.sample()
        ref_draws, ref_values = per_draw_sample(
            self.theta.values, 20.0, self.config, self.NUM_DRAWS, 5, self.basis, self.marginal
        )
        assert same_bits(draws.grid_values, ref_values)
        assert len(draws) == self.NUM_DRAWS
        assert all(
            K == ref_K and same_bits(theta, ref_theta)
            for (K, theta), (ref_K, ref_theta) in zip(draws.draws, ref_draws, strict=True)
        )
        center = ref_values.mean(axis=0)
        assert same_bits(posterior_mean_function(draws), center)
        ref_dist = {
            "sup": np.max(np.abs(ref_values - center), axis=1),
            "l2": np.sqrt(np.trapezoid((ref_values - center) ** 2, draws.grid, axis=1)),
        }
        for metric in ("sup", "l2"):
            assert same_bits(_draw_distances(draws, center, metric), ref_dist[metric])

    def test_start_no_pool(self, pooled_io):
        draws = self.sample()
        for metric in ("sup", "l2"):
            credible_band(draws, 0.9, metric=metric)
        concentration_probability(draws, STUDY_VG.levy_density(), 100.0)
        assert pooled_io.pools == 0


class TestDrawBlocks:
    def setup_method(self):
        self.config = GibbsConfig(k_max=20)
        self.basis = BasisSystem.trigonometric(D_PRIME, 20)
        self.theta = project_density(self.basis, STUDY_VG.levy_density())

    def test_len_iteration_and_indexing(self):
        num_draws = 2 * DRAW_BLOCK + 5
        draws = sample_posterior(self.theta, 20.0, self.config, num_draws, seed=2).draws
        marginal = marginal_k(self.theta, 20.0, self.config)
        ref, _ = per_draw_sample(self.theta.values, 20.0, self.config, num_draws, 2, self.basis, marginal)
        pairs = list(draws)
        assert isinstance(draws, DrawBlocks) and len(draws) == len(pairs) == num_draws
        for (K, theta), (ref_K, ref_theta) in zip(pairs, ref, strict=True):
            assert type(K) is int and K == ref_K and same_bits(theta, ref_theta)
        for i in (0, 1, DRAW_BLOCK - 1, DRAW_BLOCK, 2 * DRAW_BLOCK, num_draws - 1, -1, -DRAW_BLOCK - 1, -num_draws):
            K, theta = draws[i]
            assert type(K) is int and K == ref[i][0] and same_bits(theta, ref[i][1])
        for i in (num_draws, -num_draws - 1):
            with pytest.raises(IndexError):
                draws[i]

    def test_empty(self):
        empty = DrawBlocks([])
        assert len(empty) == 0 and list(empty) == []
        for i in (0, -1):
            with pytest.raises(IndexError):
                empty[i]
        draws = PosteriorDraws(self.basis, np.linspace(0.006, 0.014, 8), np.empty((0, 8)), empty, seed=0)
        assert len(draws) == 0
        with pytest.raises(EmptyDrawsError):
            credible_band(draws, 0.9)

    def test_draws_jsonl_digest(self, tmp_path):
        # The file's sha256 as written before draws were kept per block; the grid's
        # sha256 and the band radii of these 20 blocks as computed by the forked sampler.
        draws = sample_posterior(self.theta, 20.0, self.config, 5000, seed=11)
        write_draws_jsonl(tmp_path / "draws.jsonl", draws)
        digest = hashlib.sha256((tmp_path / "draws.jsonl").read_bytes()).hexdigest()
        assert digest == "125acd13c1c93ab090365bbbcef02ee33a2554e7a9a18288e8229db48df11b72"
        grid_digest = hashlib.sha256(draws.grid_values.tobytes()).hexdigest()
        assert grid_digest == "170da787026e282425c2b2bed84340f335ca9347359c729eeb36d314887efb21"
        assert credible_band(draws, 0.9, "sup").radius == 3472.2867864141485
        assert credible_band(draws, 0.9, "l2").radius == 164.19673797112074


class TestPosteriorSummaries:
    def make_draws(self, num=400, seed=0):
        config = GibbsConfig(k_max=20)
        basis = BasisSystem.trigonometric(D_PRIME, 20)
        psi = STUDY_VG.levy_density()
        theta = project_density(basis, psi)
        return sample_posterior(theta, 20.0, config, num, seed=seed), psi

    def test_mean_of_identical_draws(self):
        basis = BasisSystem.trigonometric(D_PRIME, 4)
        grid = np.linspace(0.006, 0.014, 64)
        row = synthesize(basis, np.array([1.0, 2.0, 0.0, -1.0]), grid)
        blocks = DrawBlocks([(np.full(5, 4), np.tile([1.0, 2.0, 0.0, -1.0], (5, 1)))])
        draws = PosteriorDraws(basis, grid, np.tile(row, (5, 1)), blocks, seed=0)
        np.testing.assert_allclose(posterior_mean_function(draws), row, rtol=1e-14)

    def test_fixed_k_mean_function_matches_closed_form(self):
        config = GibbsConfig(k_max=20)
        basis = BasisSystem.trigonometric(D_PRIME, 20)
        psi = STUDY_VG.levy_density()
        theta = project_density(basis, psi)
        n = 2000
        draws = sample_posterior(theta, 20.0, config, n, seed=1, marginal=MarginalK.point_mass(6, 20))
        cond = conditional_posterior(theta.values[:6], 20.0, config)
        sub = BasisSystem.trigonometric(D_PRIME, 6)
        expect = synthesize(sub, cond.means, draws.grid)
        rows = sub.evaluate_all(draws.grid)
        se = np.sqrt(cond.variance * np.sum(rows**2, axis=0) / n)
        assert np.all(np.abs(posterior_mean_function(draws) - expect) < 3.0 * se + 1e-12)

    def test_empty_draws_error(self):
        basis = BasisSystem.trigonometric(D_PRIME, 4)
        empty = PosteriorDraws(basis, np.linspace(0.006, 0.014, 8), np.empty((0, 8)), DrawBlocks([]), seed=0)
        with pytest.raises(EmptyDrawsError):
            posterior_mean_function(empty)

    def test_band_radius_is_extreme_quantile_near_one(self):
        draws, _ = self.make_draws()
        center = posterior_mean_function(draws)
        dist = np.max(np.abs(draws.grid_values - center), axis=1)
        band = credible_band(draws, 1.0 - 1e-12, metric="sup")
        assert band.radius == pytest.approx(dist.max(), rel=1e-15)
        np.testing.assert_allclose(band.lo, center - band.radius, atol=0)
        np.testing.assert_allclose(band.hi, center + band.radius, atol=0)

    def test_band_of_identical_draws_is_zero(self):
        basis = BasisSystem.trigonometric(D_PRIME, 4)
        grid = np.linspace(0.006, 0.014, 32)
        row = synthesize(basis, np.ones(4), grid)
        draws = PosteriorDraws(basis, grid, np.tile(row, (6, 1)), DrawBlocks([(np.full(6, 4), np.ones((6, 4)))]), seed=0)
        # identical up to the rounding introduced by averaging the center
        assert credible_band(draws, 0.9).radius < 1e-12

    def test_band_coverage_at_level(self):
        draws, _ = self.make_draws(num=1000)
        for metric in ("sup", "l2"):
            band = credible_band(draws, 0.9, metric=metric)
            center = posterior_mean_function(draws)
            if metric == "sup":
                dist = np.max(np.abs(draws.grid_values - center), axis=1)
                assert band.lo is not None and band.hi is not None
            else:
                dist = np.sqrt(
                    np.trapezoid((draws.grid_values - center) ** 2, draws.grid, axis=1)
                )
                assert band.lo is None and band.hi is None
            assert np.mean(dist <= band.radius) >= 0.9

    def test_band_level_validated(self):
        draws, _ = self.make_draws(num=20)
        for level in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                credible_band(draws, level)

    def test_concentration_extremes(self):
        draws, psi = self.make_draws()
        assert concentration_probability(draws, psi, 0.0) == 1.0
        assert concentration_probability(draws, psi, np.inf) == 0.0

    def test_concentration_monotone_in_radius(self):
        draws, psi = self.make_draws()
        radii = np.linspace(0.0, 400.0, 9)
        probs = [concentration_probability(draws, psi, r) for r in radii]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_chunked_distances_match_full_matrix(self):
        # several tiles of rows plus a remainder
        draws, psi = self.make_draws(num=3 * DISTANCE_TILE_ROWS + 23, seed=4)
        center = posterior_mean_function(draws)
        full = {
            "sup": np.max(np.abs(draws.grid_values - center), axis=1),
            "l2": np.sqrt(np.trapezoid((draws.grid_values - center) ** 2, draws.grid, axis=1)),
        }
        for metric, dist in full.items():
            assert same_bits(_draw_distances(draws, center, metric), dist)
            for level in (0.1, 0.5, 0.9, 0.999):
                band = credible_band(draws, level, metric=metric)
                assert band.radius == float(np.quantile(dist, level, method="higher"))
        # radii at exact reference distances: one ulp of drift flips a comparison
        ref = psi(draws.grid)
        dist = np.sqrt(np.trapezoid((draws.grid_values - ref) ** 2, draws.grid, axis=1))
        for r in dist[[0, DISTANCE_TILE_ROWS - 1, DISTANCE_TILE_ROWS, -1]]:
            assert concentration_probability(draws, psi, r) == float(np.mean(dist > r))


class TestValidateConfig:
    def test_paper_constants_pass(self):
        config = GibbsConfig()
        psi = STUDY_VG.levy_density()
        grid = np.linspace(config.D.a, config.D.b, 512)
        sup = float(np.max(psi(grid)))
        diag = validate_config(config, sup)
        assert diag.c_squared == pytest.approx(2.0 * sup, rel=1e-15)
        assert diag.basic_ok and diag.tau_ok

    def test_beta_zero_fails_both(self):
        config = GibbsConfig(beta=0.0)
        diag = validate_config(config, 100.0)
        assert not diag.basic_ok and not diag.tau_ok

    def test_tau_two_threshold(self):
        config = GibbsConfig()
        diag = validate_config(config, 50.0, tau=2.0)
        assert diag.tau_threshold == pytest.approx(2.0 * diag.c_squared * config.omega, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ParameterError):
            validate_config(GibbsConfig(), 0.0)
        with pytest.raises(ParameterError):
            validate_config(GibbsConfig(), 10.0, tau=1.0)
