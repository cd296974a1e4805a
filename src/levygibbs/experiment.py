"""Seeded end-to-end study: simulate, estimate, sample the posterior, report.

A regime is indexed by j: spacing delta = 1e-3 * 2^{-3j} and sample size
n = ceil(0.05 * delta^{-5/3}), so the horizon t_n = n * delta grows as j
does while the spacing shrinks fast enough for the small-time increment
approximation to hold.  A regime runs on any process model of `processes`
(its increments from simulate, its truth from levy_density).  The default
process/hyperparameters reproduce the variance gamma study:
(mu, sigma, nu) = (0, 3.7e-1.5, 2e-3), (omega, sigma0, beta) = (1e-5, 1e3, 0.5),
windows D = [0.006, 0.014] inside D' = [0.005, 0.015], trig basis of size
k_max = ceil(t_n).

All randomness flows from one master seed through named child seeds, so a
regime run is a pure function of (j, seed, hyperparameters).  Large regimes
are streamed block-by-block and never materialize the increment array.

This module also owns the package's report formats: the CSV and JSON
writers below serve both the study and the `levy-gibbs` command line.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisFeatures, BasisSystem, CoefficientVector
from .errors import DimensionError, InputParseError, ParameterError, WindowError
from .estimator import DEFAULT_GRID_POINTS, empirical_coefficients, l2_error_on_D
from .posterior import (
    GibbsConfig,
    PosteriorDraws,
    credible_band,
    marginal_k,
    sample_posterior,
)
from .processes import ProcessModel, SamplingScheme, VarianceGammaParams, simulate
from .util import derive_seed, fmt_float, is_integer, open_ascii, snap_ceil

# Default study process parameters.
DEFAULT_VG_PARAMS = VarianceGammaParams(mu=0.0, sigma=3.7 * 10**-1.5, nu=2e-3)

# Default posterior draws per regime and credible level of the band.
DEFAULT_NUM_DRAWS = 1000
DEFAULT_BAND_LEVEL = 0.9

# Default sieve smoothness alpha of the rate and no-overfit diagnostics.  It does
# not describe the default study: the trig sieve on D' sees any psi with
# psi(a') != psi(b') with alpha = 1/2.
DEFAULT_ALPHA_ASSUMED = 2.0

BASE_DELTA = 1e-3
DELTA_EXPONENT = 5.0 / 3.0
SAMPLE_FACTOR = 0.05


@dataclass(frozen=True)
class RegimeSpec:
    """Sampling regime j: delta = 1e-3 * 2^{-3j}, n = ceil(0.05 * delta^{-5/3}), t_n = n * delta.

    j, a positive integer stored as an int, is the one field; the others derive from it.
    """

    j: int

    def __post_init__(self) -> None:
        if not (is_integer(self.j) and self.j >= 1):
            raise ParameterError(f"regime index j must be a positive integer, got {self.j!r}")
        object.__setattr__(self, "j", int(self.j))

    @classmethod
    def from_j(cls, j: int) -> "RegimeSpec":
        return cls(j)

    @property
    def delta(self) -> float:
        return BASE_DELTA * 2.0 ** (-3 * self.j)

    @property
    def n(self) -> int:
        return snap_ceil(SAMPLE_FACTOR * self.delta**-DELTA_EXPONENT)

    def scheme(self) -> SamplingScheme:
        return SamplingScheme(self.delta, self.n)


@dataclass(frozen=True)
class DeltaDiagnostics:
    """Sampling-spacing check: each named quantity must be O(1), i.e. <= bound."""

    case: str
    bound: float
    values: dict
    passed: dict
    all_ok: bool


def delta_condition(
    features: BasisFeatures,
    scheme: SamplingScheme,
    case: str = "prior-on-K",
    bound: float = 1.0,
) -> DeltaDiagnostics:
    """Evaluate the spacing conditions max{F1^2 n delta^3, F2 delta} = O(1).

    case "fixed-K" additionally reports the bare n delta^3 (the condition the
    feature form reduces to when K is constant); case "prior-on-K" reports
    n delta^{5/3}, the sufficient condition for the trig sieve with the prior
    on K.
    """
    if case not in ("fixed-K", "prior-on-K"):
        raise ParameterError(f"case must be 'fixed-K' or 'prior-on-K', got {case!r}")
    if not (math.isfinite(bound) and bound > 0.0):
        raise ParameterError(f"bound must be positive, got {bound!r}")
    n, d = scheme.n, scheme.delta
    values = {
        "F1^2*n*delta^3": features.F1**2 * n * d**3,
        "F2*delta": features.F2 * d,
    }
    if case == "fixed-K":
        values["n*delta^3"] = n * d**3
    else:
        values["n*delta^(5/3)"] = n * d**DELTA_EXPONENT
    passed = {name: v <= bound for name, v in values.items()}
    return DeltaDiagnostics(case, bound, values, passed, all(passed.values()))


@dataclass
class ExperimentReport:
    """Everything a single seeded regime run produced.

    Errors are L2(D) distances to the model's true Levy density
    (model.levy_density(), the decaying-tail form for variance gamma): the
    projection estimator truncated at the posterior mode of K, and the
    posterior mean function.  Grid arrays back the band CSV.
    """

    j: int
    delta: float
    n: int
    t_n: float
    seed: int
    num_draws: int
    k_probs: np.ndarray
    k_mode: int
    projection_K: int
    err_projection: float
    err_postmean: float
    band_level: float
    band_radius: float
    runtime_s: float
    config: dict
    theta_hat: CoefficientVector = field(repr=False)
    grid: np.ndarray = field(repr=False)
    psi_true: np.ndarray = field(repr=False)
    psi_mean: np.ndarray = field(repr=False)
    band_lo: np.ndarray = field(repr=False)
    band_hi: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("err_projection", "err_postmean", "band_radius"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ParameterError(f"{name} must be nonnegative and finite, got {v!r}")


def _config_echo(config: GibbsConfig, k_max: int, num_draws: int) -> dict:
    return {
        "omega": config.omega,
        "sigma0": config.sigma0,
        "beta": config.beta,
        "k_max": k_max,
        "D": [config.D.a, config.D.b],
        "D_prime": [config.D_prime.a, config.D_prime.b],
        "num_draws": num_draws,
    }


def run_regime(
    spec: RegimeSpec,
    model: ProcessModel = DEFAULT_VG_PARAMS,
    config: GibbsConfig | None = None,
    num_draws: int = DEFAULT_NUM_DRAWS,
    seed: int = 0,
    band_level: float = DEFAULT_BAND_LEVEL,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> ExperimentReport:
    """Run one seeded regime of a process model end to end; increments are streamed, never stored.

    The truth the errors and psi_true are measured against is model.levy_density().

    Child seeds are derive_seed(seed, "simulate") and derive_seed(seed,
    "draws"), so each stage can be reproduced standalone from the master seed.
    """
    start = time.perf_counter()
    if config is None:
        config = GibbsConfig()
    scheme = spec.scheme()
    k_max = config.k_max_for(scheme.t_n)
    basis = BasisSystem.trigonometric(config.D_prime, k_max)

    series = simulate(model, scheme, derive_seed(seed, "simulate"), materialize=False)
    theta_hat = empirical_coefficients(series, basis)

    marginal = marginal_k(theta_hat, scheme.t_n, config)
    draws = sample_posterior(
        theta_hat,
        scheme.t_n,
        config,
        num_draws,
        derive_seed(seed, "draws"),
        marginal=marginal,
        grid_points=grid_points,
    )

    psi_star = model.levy_density()
    psi_true = np.asarray(psi_star(draws.grid), dtype=float)
    band = credible_band(draws, band_level, metric="sup")
    psi_mean = band.center
    err_postmean = float(np.sqrt(np.trapezoid((psi_mean - psi_true) ** 2, draws.grid)))

    k_mode = marginal.mode()
    truncated = theta_hat.values.copy()
    truncated[k_mode:] = 0.0
    err_projection = l2_error_on_D(
        CoefficientVector(basis, truncated, role="projected"), psi_star, config.D, grid_points
    )

    runtime = time.perf_counter() - start
    return ExperimentReport(
        j=spec.j,
        delta=spec.delta,
        n=spec.n,
        t_n=scheme.t_n,
        seed=seed,
        num_draws=num_draws,
        k_probs=marginal.probs,
        k_mode=k_mode,
        projection_K=k_mode,
        err_projection=err_projection,
        err_postmean=err_postmean,
        band_level=band_level,
        band_radius=band.radius,
        runtime_s=runtime,
        config=_config_echo(config, k_max, num_draws),
        theta_hat=theta_hat,
        grid=draws.grid,
        psi_true=psi_true,
        psi_mean=psi_mean,
        band_lo=band.lo,
        band_hi=band.hi,
    )


def check_alpha(alpha_assumed: float) -> None:
    """ParameterError unless the assumed smoothness alpha is positive and finite."""
    if not (math.isfinite(alpha_assumed) and alpha_assumed > 0.0):
        raise ParameterError(f"alpha_assumed must be positive and finite, got {alpha_assumed!r}")


def oracle_dimension(t_n: float, alpha_assumed: float) -> int:
    """K_n = ceil(t_n^{1/(2*alpha+1)}), the rate-optimal dimension under smoothness alpha.

    alpha is the smoothness in the sieve's approximation sense,
    sum_{k>K} theta_k^2 ~ K^{-2 alpha}, not the smoothness of psi inside the
    window.  For the trig sieve on D' any psi with psi(a') != psi(b') has
    alpha = 1/2: its sine coefficients decay as 1/k.
    """
    check_alpha(alpha_assumed)
    return snap_ceil(t_n ** (1.0 / (2.0 * alpha_assumed + 1.0)))


def contraction_rate(t_n: float, alpha_assumed: float) -> float:
    """eps_n = sqrt(log t_n) * t_n^{-alpha/(2*alpha+1)} (meaningful for t_n > 1).

    alpha is the sieve smoothness of `oracle_dimension`: 1/2 for the trig
    sieve on D' whenever psi(a') != psi(b').
    """
    if t_n <= 1.0:
        raise ParameterError(f"contraction rate needs t_n > 1, got {t_n!r}")
    check_alpha(alpha_assumed)
    return math.sqrt(math.log(t_n)) * t_n ** (-alpha_assumed / (2.0 * alpha_assumed + 1.0))


@dataclass(frozen=True)
class NoOverfitRow:
    j: int
    t_n: float
    K_n: int
    threshold: float
    mass_above: float


def no_overfit_diagnostic(
    reports: list[ExperimentReport],
    tau: float = 2.0,
    alpha_assumed: float = DEFAULT_ALPHA_ASSUMED,
) -> list[NoOverfitRow]:
    """Posterior mass on {K > tau * K_n} per regime; should shrink as j grows.

    K_n = oracle_dimension(t_n, alpha_assumed), with alpha the sieve
    smoothness (sum_{k>K} theta_k^2 ~ K^{-2 alpha}).  At the default
    alpha = 2 the mass above tau * K_n of the default study stays near 1 at
    every horizon (see DEFAULT_ALPHA_ASSUMED).
    """
    if not tau > 1.0:
        raise ParameterError(f"tau must exceed 1, got {tau!r}")
    rows = []
    for rep in reports:
        k_n = oracle_dimension(rep.t_n, alpha_assumed)
        threshold = tau * k_n
        ks = np.arange(1, len(rep.k_probs) + 1)
        mass = float(rep.k_probs[ks > threshold].sum())
        rows.append(NoOverfitRow(rep.j, rep.t_n, k_n, threshold, mass))
    return rows


@dataclass(frozen=True)
class RateRow:
    j: int
    t_n: float
    err_postmean: float
    eps_n: float
    ratio: float


def rate_table(reports: list[ExperimentReport], alpha_assumed: float = DEFAULT_ALPHA_ASSUMED) -> list[RateRow]:
    """Posterior-mean error against the theoretical contraction rate eps_n.

    alpha_assumed is the sieve smoothness (sum_{k>K} theta_k^2 ~ K^{-2 alpha}).
    """
    if len(reports) < 2:
        raise ParameterError("rate_table needs at least two regimes to compare")
    return _rate_rows(reports, alpha_assumed)


def _rate_rows(reports: list[ExperimentReport], alpha_assumed: float) -> list[RateRow]:
    """One RateRow per regime, of any number: the rate_table rows that errors.csv writes too."""
    eps = [contraction_rate(rep.t_n, alpha_assumed) for rep in reports]
    return [RateRow(rep.j, rep.t_n, rep.err_postmean, e, rep.err_postmean / e) for rep, e in zip(reports, eps)]


# ---------------------------------------------------------------------------
# Deterministic report files.  Every CSV goes through _write_csv and every
# JSON document through _write_json: floats are written with shortest
# round-trip repr, lines end in "\n", and runtimes are kept out, so identical
# (flags, seed) runs produce byte-identical files.
# ---------------------------------------------------------------------------


def _write_csv(path, header: str, rows) -> None:
    """Write the header line, then one line per row; ints print as ints, other cells as floats."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, np.integer)) else fmt_float(v) for v in row))
            fh.write("\n")


def _write_json(path, payload) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_band_table(path, grid, psi_true, psi_mean, lo, hi) -> None:
    """Grid rows x, psi_true, psi_mean, lo, hi; a column passed as None is written as nan."""
    nan = np.full(len(grid), np.nan)
    columns = [nan if c is None else c for c in (grid, psi_true, psi_mean, lo, hi)]
    _write_csv(path, "x,psi_true,psi_mean,lo,hi", zip(*columns))


def write_k_table(path, tables) -> None:
    """Rows j, K, prob for each (j, probs) in tables, K running over 1..len(probs)."""
    _write_csv(path, "j,K,prob", ((j, k, p) for j, probs in tables for k, p in enumerate(probs, start=1)))


def write_errors_csv(reports: list[ExperimentReport], path, alpha_assumed: float = DEFAULT_ALPHA_ASSUMED) -> None:
    """One row per regime: j, t_n, err_projection, err_postmean, eps_n, ratio."""
    rows = [
        (row.j, row.t_n, rep.err_projection, row.err_postmean, row.eps_n, row.ratio)
        for rep, row in zip(reports, _rate_rows(reports, alpha_assumed))
    ]
    _write_csv(path, "j,t_n,err_projection,err_postmean,eps_n,ratio", rows)


def write_k_posterior_csv(reports: list[ExperimentReport], path) -> None:
    """One row per (regime, K): j, K, prob."""
    write_k_table(path, [(rep.j, rep.k_probs) for rep in reports])


def write_band_csv(report: ExperimentReport, path) -> None:
    """Grid rows for one regime: x, psi_true, psi_mean, lo, hi."""
    write_band_table(path, report.grid, report.psi_true, report.psi_mean, report.band_lo, report.band_hi)


def write_coefficients_json(path, theta_hat: CoefficientVector) -> None:
    """Coefficient file: basis descriptor, role, values and (when known) t_n."""
    _write_json(path, theta_hat.to_dict())


def read_coefficients_json(path) -> CoefficientVector:
    """Read a file written by write_coefficients_json; a malformed file raises InputParseError."""
    try:
        with open_ascii(path) as fh:
            return CoefficientVector.from_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise InputParseError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ParameterError, DimensionError, WindowError) as exc:
        raise InputParseError(f"{path}: {exc}") from exc


def write_draws_jsonl(path, draws: PosteriorDraws) -> None:
    """One {"draw_index", "K", "theta"} record per posterior draw, one per line."""
    with open(path, "w", encoding="ascii") as fh:
        for i, (K, theta) in enumerate(draws.draws):
            fh.write(json.dumps({"draw_index": i, "K": K, "theta": [float(v) for v in theta]}))
            fh.write("\n")


def report_to_dict(report: ExperimentReport) -> dict:
    """JSON-ready summary of one regime (runtime deliberately excluded)."""
    return {
        "j": report.j,
        "delta": report.delta,
        "n": report.n,
        "t_n": report.t_n,
        "seed": report.seed,
        "num_draws": report.num_draws,
        "k_mode": report.k_mode,
        "projection_K": report.projection_K,
        "k_probs": [float(p) for p in report.k_probs],
        "err_projection": report.err_projection,
        "err_postmean": report.err_postmean,
        "band_level": report.band_level,
        "band_radius": report.band_radius,
        "config": report.config,
        "basis": report.theta_hat.basis.descriptor(),
        "theta_hat": [float(v) for v in report.theta_hat.values],
    }


def write_report_json(reports: list[ExperimentReport], path) -> None:
    _write_json(path, {"schema": "levygibbs-report-v1", "regimes": [report_to_dict(r) for r in reports]})
