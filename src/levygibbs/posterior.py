"""Gibbs posterior over basis coefficients and over the sieve dimension K.

The quasi-likelihood exp(-omega * t_n * R_{n,K}(theta)) paired with the
independent N(0, sigma0^2) prior on each coefficient is conjugate:

    theta_k | K, data  ~  N( theta_hat_k / (1 + (2 omega t_n)^{-1} sigma0^{-2}),
                             1 / (2 omega t_n + sigma0^{-2}) ),   k <= K.

Integrating the coefficients out gives the marginal posterior over K against
the sieve prior proportional to exp(-beta K log K) on K = 1..k_max:

    log pi_n(K)  =  sum_{k<=K} omega t_n theta_hat_k^2 / (1 + (2 omega t_n)^{-1} sigma0^{-2})
                    - (K/2) log(2 omega t_n sigma0^2 + 1)  -  beta K log K  + const.

All pmf work happens in log space with max subtraction, so k_max in the
hundreds neither overflows nor loses normalization.  The normalisation is
numpy only (`_log_sum_exp`), so this module imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSystem, CoefficientVector, Window, _coefficient_values
from .errors import DimensionError, EmptyDrawsError, ParameterError, ResourceGuardError
from .estimator import DEFAULT_GRID_POINTS
from .processes import _block_rng
from .util import MATERIALIZE_LIMIT, check_seed, is_integer, snap_ceil

# Draws are generated in fixed blocks, each from its own substream of the
# seed, so one block can be redrawn on its own, bit for bit.
DRAW_BLOCK = 256

# Draw distances are computed per tile of this many grid rows in one reused
# buffer (0.5 MB at 512 grid points, so it stays in a core's L2 cache).  Rows
# are independent, so the tile size changes no distance.
DISTANCE_TILE_ROWS = 128


@dataclass(frozen=True)
class GibbsConfig:
    """Gibbs-posterior hyperparameters and the estimation windows.

    D is the reporting window (errors, bands); D_prime strictly contains it
    and carries the basis.  k_max=None defers the prior truncation to
    ceil(t_n) at the point of use.  The class attributes (GibbsConfig.D, ...)
    are the package's defaults, readable without building a config.
    """

    omega: float = 1e-5
    sigma0: float = 1e3
    beta: float = 0.5
    k_max: int | None = None
    D: Window = Window(0.006, 0.014)
    D_prime: Window = Window(0.005, 0.015)

    def __post_init__(self) -> None:
        for name in ("omega", "sigma0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ParameterError(f"{name} must be positive and finite, got {v!r}")
        # beta = 0 (a uniform prior over 1..k_max) stays constructible so the
        # admissibility diagnostics can report on it; the pmf is still proper.
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ParameterError(f"beta must be nonnegative and finite, got {self.beta!r}")
        if self.k_max is not None and not (is_integer(self.k_max) and self.k_max >= 1):
            raise ParameterError(f"k_max must be a positive integer or None, got {self.k_max!r}")
        self.D_prime.check_contains(self.D, "D_prime")

    def k_max_for(self, t_n: float) -> int:
        return self.k_max if self.k_max is not None else snap_ceil(t_n)


@dataclass(frozen=True)
class ConditionalPosterior:
    """Gaussian posterior of the first K = len(means) coefficients: independent, common variance."""

    means: np.ndarray
    variance: float


@dataclass(frozen=True)
class MarginalK:
    """Marginal posterior over the sieve dimension K = 1..k_max."""

    log_weights: np.ndarray
    probs: np.ndarray

    @property
    def k_max(self) -> int:
        return len(self.probs)

    def mode(self) -> int:
        return int(np.argmax(self.probs)) + 1

    @classmethod
    def point_mass(cls, k0: int, k_max: int) -> "MarginalK":
        if not 1 <= k0 <= k_max:
            raise ParameterError(f"point mass K={k0} outside 1..{k_max}")
        lw = np.full(k_max, -np.inf)
        lw[k0 - 1] = 0.0
        probs = np.zeros(k_max)
        probs[k0 - 1] = 1.0
        return cls(lw, probs)


def _shrink_and_variance(t_n: float, config: GibbsConfig) -> tuple[float, float]:
    if not (math.isfinite(t_n) and t_n > 0.0):
        raise ParameterError(f"horizon must be positive and finite, got t_n={t_n!r}")
    two_wt = 2.0 * config.omega * t_n
    shrink = 1.0 / (1.0 + 1.0 / (two_wt * config.sigma0**2))
    variance = 1.0 / (two_wt + config.sigma0**-2)
    return shrink, variance


def conditional_posterior(theta_hat, t_n: float, config: GibbsConfig) -> ConditionalPosterior:
    """Closed-form coefficient posterior at fixed dimension K = len(theta_hat)."""
    vec = _coefficient_values(theta_hat)
    if len(vec) == 0:
        raise DimensionError(f"theta_hat must be a nonempty 1-d vector, got shape {vec.shape}")
    shrink, variance = _shrink_and_variance(t_n, config)
    return ConditionalPosterior(shrink * vec, variance)


def _log_sum_exp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite 1-d array, bit for bit as scipy.special.logsumexp (scipy >= 1.15).

    The m maxima are taken out of the sum: log1p(s / m) + log(m) + max, with
    s the sum of exp(a - max) over the other entries.
    """
    top = a.max()
    at_top = a == top
    count = at_top.sum(dtype=float)
    rest = np.exp(np.where(at_top, -np.inf, a) - top).sum() / count
    return np.log1p(rest) + np.log(count) + top


def _require_nested(basis: BasisSystem) -> None:
    """Model K keeps the first K basis functions, a sieve only when the basis is nested."""
    if not basis.nested:
        raise DimensionError(f"the K posterior needs a nested basis, got the {basis.family} basis")


def marginal_k(theta_hat_full, t_n: float, config: GibbsConfig) -> MarginalK:
    """Marginal posterior pmf of K from the first k_max empirical coefficients.

    A CoefficientVector on a basis that is not nested raises DimensionError,
    and a non-finite value among the first k_max raises ParameterError.
    """
    if isinstance(theta_hat_full, CoefficientVector):
        _require_nested(theta_hat_full.basis)
    vec = _coefficient_values(theta_hat_full)
    k_max = config.k_max_for(t_n)
    if len(vec) < k_max:
        raise DimensionError(
            f"need at least k_max={k_max} coefficients, got shape {vec.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(vec[:k_max]))
    if len(bad):
        i = int(bad[0])
        raise ParameterError(f"coefficient values must be finite numbers, got {float(vec[i])!r} at index {i}")
    shrink, _ = _shrink_and_variance(t_n, config)
    wt = config.omega * t_n
    ks = np.arange(1, k_max + 1)
    data_term = np.cumsum(wt * shrink * vec[:k_max] ** 2)
    dim_penalty = 0.5 * ks * math.log(2.0 * wt * config.sigma0**2 + 1.0)
    prior_penalty = config.beta * ks * np.log(ks)
    log_w = data_term - dim_penalty - prior_penalty
    probs = np.exp(log_w - _log_sum_exp(log_w))
    probs /= probs.sum()
    return MarginalK(log_w, probs)


class DrawBlocks:
    """The sampler's (K_i, theta_i) pairs, kept as its per-block (ks, theta) matrices.

    Block b holds draws b*DRAW_BLOCK onward: draw r of the block has
    K = ks[r] and theta = theta[r, :ks[r]], a view of the block's matrix, so
    a theta_i keeps its block alive.  Indexing and iteration give the pairs,
    K as an int; no per-draw object is stored.
    """

    def __init__(self, blocks: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self.blocks = blocks
        self._len = sum(len(ks) for ks, _ in blocks)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> tuple[int, np.ndarray]:
        if not -self._len <= i < self._len:
            raise IndexError(f"draw index {i} out of range for {self._len} draws")
        block, r = divmod(i % self._len, DRAW_BLOCK)
        ks, theta = self.blocks[block]
        K = int(ks[r])
        return K, theta[r, :K]

    def __iter__(self):
        for ks, theta in self.blocks:
            for K, row in zip(ks.tolist(), theta):
                yield K, row[:K]


@dataclass
class PosteriorDraws:
    """Monte Carlo draws from the hierarchical posterior with grid evaluations on D.

    draws[i] is (K_i, theta_i); grid_values[i] is the synthesized density of
    draw i on `grid` (a uniform grid over the reporting window D).  `draws`
    is the sampler's DrawBlocks.
    """

    basis: BasisSystem
    grid: np.ndarray
    grid_values: np.ndarray
    draws: DrawBlocks
    seed: int

    def __len__(self) -> int:
        return len(self.draws)


def sample_posterior(
    theta_hat_full: CoefficientVector,
    t_n: float,
    config: GibbsConfig,
    num_draws: int,
    seed: int,
    marginal: MarginalK | None = None,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> PosteriorDraws:
    """Draw (K, theta) from the hierarchical Gibbs posterior.

    theta_hat_full is a CoefficientVector, whose basis the draws are
    synthesized on.  K is drawn from `marginal`, by default
    marginal_k(theta_hat_full, t_n, config); pass
    MarginalK.point_mass(k, k_max) to fix K = k.  Then theta | K is drawn
    from the conjugate Gaussian.  Draws are generated in fixed blocks of
    DRAW_BLOCK with per-block substreams of `seed`, so the stream is
    reproducible and one block can be redrawn alone.  Each block's substream
    gives the block's uniforms for K first, then the standard normals of its
    draws in draw order, K_i of them for draw i.  The theta_i of the result
    are views of the blocks' theta matrices; see DrawBlocks.

    Raises ParameterError when theta_hat_full is not a CoefficientVector,
    num_draws is not a positive integer or seed is not a non-negative
    integer, DimensionError for a basis that is not nested, WindowError when
    config.D is not inside the basis window, and ResourceGuardError, before
    allocating, when the grid evaluations or the theta matrices (up to
    num_draws * k_max values) would hold more than MATERIALIZE_LIMIT values.
    """
    if not (is_integer(num_draws) and num_draws >= 1):
        raise ParameterError(f"num_draws must be a positive integer, got {num_draws!r}")
    check_seed(seed)
    if not isinstance(theta_hat_full, CoefficientVector):
        raise ParameterError(f"theta_hat_full must be a CoefficientVector, got {type(theta_hat_full).__name__}")
    basis = theta_hat_full.basis
    _require_nested(basis)
    basis.window.check_contains(config.D, "the basis window")
    vec = theta_hat_full.values
    k_max = config.k_max_for(t_n)
    if len(vec) < k_max:
        raise DimensionError(f"need at least k_max={k_max} coefficients, got {len(vec)}")
    if marginal is None:
        marginal = marginal_k(theta_hat_full, t_n, config)
    if marginal.k_max != k_max:
        raise DimensionError(f"marginal covers K=1..{marginal.k_max}, expected k_max={k_max}")

    cond = conditional_posterior(vec[:k_max], t_n, config)
    means = cond.means
    sd = math.sqrt(cond.variance)
    cum = np.cumsum(marginal.probs)
    cum[-1] = 1.0

    if num_draws * grid_points > MATERIALIZE_LIMIT:
        raise ResourceGuardError(
            f"{num_draws} draws on {grid_points} grid points exceed the materialization "
            f"limit of {MATERIALIZE_LIMIT} values; draw fewer or use a coarser grid"
        )
    if num_draws * k_max > MATERIALIZE_LIMIT:
        raise ResourceGuardError(
            f"{num_draws} draws of up to k_max={k_max} coefficients exceed the materialization "
            f"limit of {MATERIALIZE_LIMIT} values; draw fewer or lower k_max"
        )
    grid = config.D.grid(grid_points)
    rows = basis.evaluate_all(grid)  # (k_max-truncated synthesis reuses leading rows)

    grid_values = np.empty((num_draws, grid_points))
    blocks = []
    for start in range(0, num_draws, DRAW_BLOCK):
        m = min(DRAW_BLOCK, num_draws - start)
        rng = _block_rng(seed, start // DRAW_BLOCK)
        u = rng.random(m)
        ks = np.searchsorted(cum, u, side="right") + 1
        # Row i holds draw i's coefficients in its first K_i entries; one call
        # for all normals continues the stream exactly as one call per draw.
        width = int(ks.max())
        filled = np.arange(width) < ks[:, None]
        z = np.zeros((m, width))
        z[filled] = rng.standard_normal(int(ks.sum()))
        theta = means[:width] + sd * z
        for K in np.unique(ks):
            idx = np.flatnonzero(ks == K)
            # A stack of 1xK products runs one GEMV per draw, the kernel and
            # summation order of theta_i @ rows[:K]; a GEMM over the group, or
            # a product over the zero-padded width, can differ in the last ulp.
            grid_values[start + idx] = np.matmul(theta[idx, None, :K], rows[:K])[:, 0]
        blocks.append((ks, theta))
    return PosteriorDraws(basis, grid, grid_values, DrawBlocks(blocks), seed)


def posterior_mean_function(draws: PosteriorDraws) -> np.ndarray:
    """Pointwise Monte Carlo mean of the drawn densities on draws.grid."""
    if len(draws) == 0:
        raise EmptyDrawsError("no posterior draws to average")
    return draws.grid_values.mean(axis=0)


@dataclass(frozen=True)
class BandResult:
    """Credible band: radius is the level-quantile of draw distances to the mean.

    For the sup metric, lo/hi give the uniform envelope mean -+ radius on the
    grid; the L2 metric defines a ball rather than an envelope, so lo/hi are
    None.
    """

    level: float
    metric: str
    radius: float
    center: np.ndarray
    lo: np.ndarray | None
    hi: np.ndarray | None


def _draw_distances(draws: PosteriorDraws, center: np.ndarray, metric: str) -> np.ndarray:
    """Distance of every drawn density to `center` on draws.grid, in the sup or L2(D) metric.

    The rows are taken in tiles of DISTANCE_TILE_ROWS, each differenced into
    one reused buffer, so no temporary of the grid's size is made.
    """
    if metric not in ("sup", "l2"):
        raise ParameterError(f"metric must be 'sup' or 'l2', got {metric!r}")
    grid_values = draws.grid_values
    dist = np.empty(len(grid_values))
    buf = np.empty((DISTANCE_TILE_ROWS, grid_values.shape[1]))
    for lo in range(0, len(grid_values), DISTANCE_TILE_ROWS):
        tile = grid_values[lo : lo + DISTANCE_TILE_ROWS]
        diffs = np.subtract(tile, center, out=buf[: len(tile)])
        if metric == "sup":
            np.max(np.abs(diffs, out=diffs), axis=1, out=dist[lo : lo + len(tile)])
        else:
            dist[lo : lo + len(tile)] = np.sqrt(np.trapezoid(np.square(diffs, out=diffs), draws.grid, axis=1))
    return dist


def credible_band(draws: PosteriorDraws, level: float, metric: str = "sup") -> BandResult:
    """Band around the posterior mean containing `level` of the drawn densities."""
    if len(draws) == 0:
        raise EmptyDrawsError("no posterior draws to band")
    if not 0.0 < level < 1.0:
        raise ParameterError(f"level must lie in (0, 1), got {level!r}")
    center = posterior_mean_function(draws)
    dist = _draw_distances(draws, center, metric)
    radius = float(np.quantile(dist, level, method="higher"))
    if metric == "sup":
        return BandResult(level, metric, radius, center, center - radius, center + radius)
    return BandResult(level, metric, radius, center, None, None)


def concentration_probability(draws: PosteriorDraws, psi_star, radius: float) -> float:
    """Posterior probability that the L2(D) distance to psi_star exceeds radius."""
    if len(draws) == 0:
        raise EmptyDrawsError("no posterior draws")
    if not radius >= 0.0:
        raise ParameterError(f"radius must be >= 0, got {radius!r}")
    ref = np.asarray(psi_star(draws.grid), dtype=float)
    return float(np.mean(_draw_distances(draws, ref, "l2") > radius))


@dataclass(frozen=True)
class ConfigDiagnostics:
    """Learning-rate admissibility report; informative only, never aborts."""

    beta: float
    omega: float
    c_squared: float
    basic_threshold: float
    basic_ok: bool
    tau: float
    tau_threshold: float
    tau_ok: bool


def validate_config(config: GibbsConfig, psi_sup_estimate: float, tau: float = 3.0) -> ConfigDiagnostics:
    """Check beta against the learning-rate thresholds implied by sup_D psi.

    With C^2 = 2 * psi_sup_estimate the basic requirement is
    beta > omega * C^2; the strengthened form for a margin parameter tau > 1
    is beta > tau/(tau-1) * omega * C^2.
    """
    if not (math.isfinite(psi_sup_estimate) and psi_sup_estimate > 0.0):
        raise ParameterError(f"psi_sup_estimate must be positive, got {psi_sup_estimate!r}")
    if not tau > 1.0:
        raise ParameterError(f"tau must exceed 1, got {tau!r}")
    c2 = 2.0 * psi_sup_estimate
    basic = config.omega * c2
    strong = tau / (tau - 1.0) * basic
    return ConfigDiagnostics(
        beta=config.beta,
        omega=config.omega,
        c_squared=c2,
        basic_threshold=basic,
        basic_ok=config.beta > basic,
        tau=tau,
        tau_threshold=strong,
        tau_ok=config.beta > strong,
    )
