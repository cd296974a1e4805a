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
from .errors import DimensionError, EmptyDrawsError, ParameterError
from .estimator import DEFAULT_GRID_POINTS, _l2_norm
from . import processes
from .processes import _block_rng
from .util import check_budget, check_count, check_real, check_seed, snap_ceil

# Draws are generated in fixed blocks, each from its own substream of the
# seed, so one block can be redrawn on its own, bit for bit.
DRAW_BLOCK = 256

# Draw distances are computed per tile of this many grid rows, in one reused
# buffer per thread (0.5 MB at 512 grid points, so it stays in a core's L2
# cache).  Rows are independent, so the tile size changes no distance.
DISTANCE_TILE_ROWS = 128


def _fan_out(job, items: int) -> None:
    """Run job(lo, hi) on each run lo..hi of range(items), cut into one run of consecutive items per thread.

    There are min(processes._io_workers(), items) threads, so one per CPU at
    most.  The calling thread runs the first run and a thread pool the
    others; with fewer than two threads, job(0, items) runs here alone.  Each
    job writes only its own slice of a shared output and returns nothing, so
    the cut changes no result's bits.  numpy runs the jobs' einsum and ufunc
    loops without the GIL.  An exception of any job is raised here.  Every
    pool thread has exited on return, so a later fork copies none.
    """
    workers = min(processes._io_workers(), items)
    if workers < 2:
        job(0, items)
        return
    # Imported here, so that importing the package does not load concurrent.futures.
    from concurrent.futures import ThreadPoolExecutor

    cuts = [items * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(job, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
        job(cuts[0], cuts[1])
    for future in rest:
        future.result()


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
        # beta = 0 (a uniform prior over 1..k_max) stays constructible so the
        # admissibility diagnostics can report on it; the pmf is still proper.
        for name, within in (("omega", "> 0"), ("sigma0", "> 0"), ("beta", ">= 0")):
            object.__setattr__(self, name, check_real(getattr(self, name), name, within))
        if self.k_max is not None:
            object.__setattr__(self, "k_max", check_count(self.k_max, "k_max"))
        if not (isinstance(self.D, Window) and isinstance(self.D_prime, Window)):
            raise ParameterError(f"D and D_prime must be Windows, got {self.D!r} and {self.D_prime!r}")
        self.D_prime.check_contains(self.D, "D_prime")

    def k_max_for(self, t_n: float) -> int:
        return self.k_max if self.k_max is not None else snap_ceil(t_n)


@dataclass(frozen=True)
class ConditionalPosterior:
    """Gaussian posterior of the first K = len(means) coefficients: independent, common variance; means = shrink * theta_hat."""

    means: np.ndarray
    variance: float
    shrink: float


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
        k_max = check_budget(check_count(k_max, "point mass k_max"), "point mass k_max")
        k0 = check_count(k0, "point mass K", hi=k_max)
        lw = np.full(k_max, -np.inf)
        lw[k0 - 1] = 0.0
        probs = np.zeros(k_max)
        probs[k0 - 1] = 1.0
        return cls(lw, probs)


def conditional_posterior(theta_hat, t_n: float, config: GibbsConfig) -> ConditionalPosterior:
    """Closed-form coefficient posterior at fixed dimension K = len(theta_hat)."""
    vec = _coefficient_values(theta_hat)
    if len(vec) == 0:
        raise DimensionError(f"theta_hat must be a nonempty 1-d vector, got shape {vec.shape}")
    two_wt = 2.0 * config.omega * check_real(t_n, "t_n", "> 0")
    shrink = 1.0 / (1.0 + 1.0 / (two_wt * config.sigma0**2))
    variance = 1.0 / (two_wt + config.sigma0**-2)
    return ConditionalPosterior(shrink * vec, variance, shrink)


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


def _leading_coefficients(theta_hat_full, k_max: int) -> np.ndarray:
    """The first k_max values of theta_hat_full, the input of both parts of the posterior.

    Model K keeps the first K basis functions, a sieve only on a nested basis:
    another basis or fewer than k_max values raise DimensionError, and a value
    among them that is not finite ParameterError.  Later values are never read.
    """
    if isinstance(theta_hat_full, CoefficientVector) and not theta_hat_full.basis.nested:
        raise DimensionError(f"the K posterior needs a nested basis, got the {theta_hat_full.basis.family} basis")
    vec = _coefficient_values(theta_hat_full)
    if len(vec) < k_max:
        raise DimensionError(f"need at least k_max={k_max} coefficients, got shape {vec.shape}")
    bad = np.flatnonzero(~np.isfinite(vec[:k_max]))
    if len(bad):
        i = int(bad[0])
        raise ParameterError(f"coefficient values must be finite numbers, got {float(vec[i])!r} at index {i}")
    return vec[:k_max]


def marginal_k(theta_hat_full, t_n: float, config: GibbsConfig) -> MarginalK:
    """Marginal posterior pmf of K from the first k_max empirical coefficients (_leading_coefficients)."""
    t_n = check_real(t_n, "t_n", "> 0")
    k_max = config.k_max_for(t_n)
    vec = _leading_coefficients(theta_hat_full, k_max)
    shrink = conditional_posterior(vec, t_n, config).shrink
    wt = config.omega * t_n
    ks = np.arange(1, k_max + 1)
    data_term = np.cumsum(wt * shrink * vec**2)
    dim_penalty = 0.5 * ks * math.log(2.0 * wt * config.sigma0**2 + 1.0)
    prior_penalty = config.beta * ks * np.log(ks)
    log_w = data_term - dim_penalty - prior_penalty
    probs = np.exp(log_w - _log_sum_exp(log_w))
    probs /= probs.sum()
    return MarginalK(log_w, probs)


@dataclass
class PosteriorDraws:
    """Monte Carlo draws from the hierarchical posterior with grid evaluations on D.

    Draw i has K_i = int(ks[i]) and coefficients theta[i, :K_i]; the entries
    of row i past K_i are exactly 0.0.  rows holds the basis rows 1..width on
    `grid` (a uniform grid over the reporting window D), width being theta's
    number of columns; grid_values[i] is draw i's synthesized density there,
    sum_k theta[i, k] rows[k] added in k order from +0.0.  Iteration gives the
    (K_i, theta_i) pairs, K_i as an int and theta_i a view of row i.
    """

    grid: np.ndarray
    grid_values: np.ndarray
    ks: np.ndarray
    theta: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.ks)

    def __iter__(self):
        for K, row in zip(self.ks.tolist(), self.theta):
            yield K, row[:K]


def check_draw_budget(basis: BasisSystem, num_draws: int, grid_points: int, k_max: int) -> None:
    """ResourceGuardError (check_budget) unless sample_posterior's arrays fit: basis rows, grid values, theta (num_draws x k_max at most)."""
    basis.check_rows(grid_points)
    check_budget(num_draws * grid_points, f"grid values (num_draws={num_draws}, grid_points={grid_points})")
    check_budget(num_draws * k_max, f"theta values (num_draws={num_draws}, k_max={k_max})")


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
    draws in draw order, K_i of them for draw i.  Every K is drawn here;
    then runs of consecutive blocks draw their normals on one thread per CPU
    (_fan_out), each writing only its blocks' rows of theta and grid_values,
    so the result has the same bits on any number of CPUs.  A block's grid
    values are one einsum of its zero-padded theta with the rows, never BLAS,
    whose bits depend on the kernel: each draw gets its own sum in k order.

    Raises ParameterError when theta_hat_full is not a CoefficientVector,
    num_draws is not a positive integer, grid_points is not an integer >= 2
    or seed is not a non-negative integer, the errors of _leading_coefficients whatever `marginal` is,
    WindowError when config.D is not inside the basis window, DimensionError
    when `marginal` does not cover K = 1..k_max, and ResourceGuardError
    (check_draw_budget) before the grid is built or a draw made.
    """
    num_draws, grid_points = check_count(num_draws, "num_draws"), check_count(grid_points, "grid_points", lo=2)
    check_seed(seed)
    t_n = check_real(t_n, "t_n", "> 0")
    if not isinstance(theta_hat_full, CoefficientVector):
        raise ParameterError(f"theta_hat_full must be a CoefficientVector, got {type(theta_hat_full).__name__}")
    k_max = config.k_max_for(t_n)
    vec = _leading_coefficients(theta_hat_full, k_max)
    basis = theta_hat_full.basis
    basis.window.check_contains(config.D, "the basis window")
    if marginal is None:
        marginal = marginal_k(theta_hat_full, t_n, config)
    if marginal.k_max != k_max:
        raise DimensionError(f"marginal covers K=1..{marginal.k_max}, expected k_max={k_max}")

    cond = conditional_posterior(vec, t_n, config)
    means = cond.means
    sd = math.sqrt(cond.variance)
    cum = np.cumsum(marginal.probs)
    cum[-1] = 1.0

    check_draw_budget(basis, num_draws, grid_points, k_max)
    grid = config.D.grid(grid_points)
    rows = basis.evaluate_all(grid)

    # Every K here, from the head of its block's substream; the jobs draw the
    # normals from the same generators, which stand just past the uniforms.
    rngs = [_block_rng(seed, b) for b in range((num_draws + DRAW_BLOCK - 1) // DRAW_BLOCK)]
    u = np.concatenate([rng.random(min(DRAW_BLOCK, num_draws - b * DRAW_BLOCK)) for b, rng in enumerate(rngs)])
    ks = np.searchsorted(cum, u, side="right") + 1
    width = int(ks.max())
    theta = np.empty((num_draws, width))
    grid_values = np.empty((num_draws, grid_points))

    def draw_blocks(lo: int, hi: int) -> None:
        for b in range(lo, hi):
            start = b * DRAW_BLOCK
            block = slice(start, start + DRAW_BLOCK)
            block_ks = ks[block]
            # Row i holds draw i's coefficients in its first K_i entries and 0.0
            # past them; one call for all normals continues the stream exactly as
            # one call per draw.
            drawn = np.arange(width) < block_ks[:, None]
            z = np.zeros((len(block_ks), width))
            z[drawn] = rngs[b].standard_normal(int(block_ks.sum()))
            theta[block] = np.where(drawn, means[:width] + sd * z, 0.0)
            np.einsum("ik,kj->ij", theta[block], rows[:width], out=grid_values[block])

    _fan_out(draw_blocks, len(rngs))
    return PosteriorDraws(grid, grid_values, ks, theta, rows[:width])


def posterior_mean_function(draws: PosteriorDraws) -> np.ndarray:
    """Monte Carlo mean of the drawn densities on draws.grid: the mean coefficient draw, synthesized as the draws are.

    Synthesis is linear and theta is 0.0 past each K, so this is the mean of
    grid_values up to rounding, without reading grid_values.
    """
    if len(draws) == 0:
        raise EmptyDrawsError("no posterior draws to average")
    return np.einsum("k,kj->j", draws.theta.mean(axis=0), draws.rows)


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
    its thread's one reused buffer, so no temporary of the grid's size is
    made.  Runs of consecutive tiles go to one thread per CPU (_fan_out).
    """
    grid_values = draws.grid_values
    dist = np.empty(len(grid_values))

    def measure(first_tile: int, end_tile: int) -> None:
        buf = np.empty((DISTANCE_TILE_ROWS, grid_values.shape[1]))
        for lo in range(first_tile * DISTANCE_TILE_ROWS, end_tile * DISTANCE_TILE_ROWS, DISTANCE_TILE_ROWS):
            tile = grid_values[lo : lo + DISTANCE_TILE_ROWS]
            diffs = np.subtract(tile, center, out=buf[: len(tile)])
            if metric == "sup":
                np.max(np.abs(diffs, out=diffs), axis=1, out=dist[lo : lo + len(tile)])
            else:
                dist[lo : lo + len(tile)] = _l2_norm(diffs, draws.grid)

    _fan_out(measure, (len(grid_values) + DISTANCE_TILE_ROWS - 1) // DISTANCE_TILE_ROWS)
    return dist


def credible_band(draws: PosteriorDraws, level: float, metric: str = "sup") -> BandResult:
    """Band around the posterior mean containing `level` of the drawn densities."""
    # The level and metric before the mean, so a bad one costs nothing; the mean refuses empty draws.
    level = check_real(level, "level", "(0, 1)")
    if metric not in ("sup", "l2"):
        raise ParameterError(f"metric must be 'sup' or 'l2', got {metric!r}")
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
    radius = check_real(radius, "radius", ">= 0")
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

    With C^2 = 2 * psi_sup_estimate, the basic requirement is beta > omega * C^2
    and the strengthened one, for a margin tau > 1, beta > tau/(tau-1) * omega * C^2.
    A density that vanishes on D gives C^2 = 0, so both thresholds are 0.
    """
    c2 = 2.0 * check_real(psi_sup_estimate, "psi_sup_estimate", ">= 0")
    tau = check_real(tau, "tau", "> 1")
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
