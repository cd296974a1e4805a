"""The benchmark's workloads: fixed inputs from a seed, one timed pass, output checks.

Each workload is built from the workload seed at set-up time.  `run(workdir)`
is one timed pass: it calls the public functions of `levygibbs`, writes its
files under `workdir` and returns its outputs as named arrays.  `check(outputs)`
returns the problems it finds; an empty list means the pass is correct.  The
seed stays here: the program receives only regime specs, derived child seeds,
increment series and command lines.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Calls go through the module attributes, so a traced pass sees them.
from levygibbs import basis, cli, estimator, experiment, posterior, processes
from levygibbs.util import derive_seed


@dataclass(frozen=True)
class Sizes:
    vg_js: tuple[int, ...]
    vg_draws: int
    cli_j: int
    dense_n: int
    dense_draws: int


# FULL is the benchmark; TINY only keeps the smoke test fast.
FULL = Sizes(vg_js=(1, 2), vg_draws=1000, cli_j=2, dense_n=1 << 21, dense_draws=100_000)
TINY = Sizes(vg_js=(1,), vg_draws=200, cli_j=1, dense_n=1 << 16, dense_draws=2_000)

# Criterion-6 values at master seed 0 with 1000 draws: j -> (err_postmean, k_mode).
FROZEN_SEED0 = {1: (125.71867444127629, 5), 2: (91.14508688833367, 9)}
FROZEN_RTOL = 1e-12


def write_reports(reports: list[experiment.ExperimentReport], workdir: str) -> None:
    """The four report writers, laid out as `levy-gibbs experiment` lays them out."""
    experiment.write_report_json(reports, os.path.join(workdir, "report.json"))
    experiment.write_errors_csv(reports, os.path.join(workdir, "errors.csv"))
    experiment.write_k_posterior_csv(reports, os.path.join(workdir, "k_posterior.csv"))
    for report in reports:
        experiment.write_band_csv(report, os.path.join(workdir, f"band_j{report.j}.csv"))


def report_outputs(report: experiment.ExperimentReport, prefix: str) -> dict:
    return {
        f"{prefix}theta_hat": report.theta_hat.values,
        f"{prefix}k_probs": report.k_probs,
        f"{prefix}psi_mean": report.psi_mean,
        f"{prefix}band": np.stack([report.band_lo, report.band_hi]),
        f"{prefix}scalars": np.array(
            [report.k_mode, report.err_projection, report.err_postmean, report.band_radius]
        ),
    }


def report_problems(out: dict, prefix: str) -> list[str]:
    problems = [f"{prefix}{k}: non-finite values" for k, v in out.items() if not np.all(np.isfinite(v))]
    probs = out[f"{prefix}k_probs"]
    if not math.isclose(float(probs.sum()), 1.0, rel_tol=1e-9):
        problems.append(f"{prefix}k_probs sums to {probs.sum()!r}")
    lo, hi = out[f"{prefix}band"]
    if not np.all((lo <= out[f"{prefix}psi_mean"]) & (out[f"{prefix}psi_mean"] <= hi)):
        problems.append(f"{prefix}band does not enclose the posterior mean")
    return problems


class VgStudy:
    """`run_regime` at each study regime, streamed, then the four report writers."""

    # One untimed pass first: the first of these sub-second passes pays one-off costs.
    WARMUP_PASSES = 1

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.specs = [experiment.RegimeSpec.from_j(j) for j in sizes.vg_js]
        self.seed = seed
        self.num_draws = sizes.vg_draws
        self.n = sum(spec.n for spec in self.specs)
        full_study = sizes.vg_js == FULL.vg_js and sizes.vg_draws == FULL.vg_draws
        self.frozen = FROZEN_SEED0 if seed == 0 and full_study else {}

    def run(self, workdir: str) -> dict:
        reports = [
            experiment.run_regime(spec, num_draws=self.num_draws, seed=self.seed) for spec in self.specs
        ]
        write_reports(reports, workdir)
        out = {}
        for report in reports:
            out.update(report_outputs(report, f"j{report.j}."))
        return out

    def check(self, out: dict) -> list[str]:
        problems = []
        for spec in self.specs:
            prefix = f"j{spec.j}."
            problems += report_problems({k: v for k, v in out.items() if k.startswith(prefix)}, prefix)
            if spec.j in self.frozen:
                err, mode = self.frozen[spec.j]
                k_mode, _, err_postmean, _ = out[f"{prefix}scalars"]
                if not math.isclose(err_postmean, err, rel_tol=FROZEN_RTOL) or k_mode != mode:
                    problems.append(
                        f"j={spec.j}: err_postmean={err_postmean!r} k_mode={k_mode:g}, "
                        f"frozen {err!r} and {mode}"
                    )
        return problems


class CliFiles:
    """`levy-gibbs simulate | estimate | posterior` as in-process `cli.main` calls."""

    # A pass takes over ten seconds, so one-off costs are a small share of the first.
    WARMUP_PASSES = 0

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.spec = experiment.RegimeSpec.from_j(sizes.cli_j)
        self.seed = seed
        self.n = self.spec.n
        self.num_draws = sizes.vg_draws
        self._reference = None

    def argvs(self, workdir: str) -> list[list[str]]:
        inc = os.path.join(workdir, "increments.txt")
        coeffs = os.path.join(workdir, "coeffs.json")
        return [
            ["simulate", "--j", str(self.spec.j), "--seed", str(derive_seed(self.seed, "simulate")), "--out", inc],
            ["estimate", "--increments", inc, "--out", coeffs],
            ["posterior", "--coeffs", coeffs, "--out-dir", os.path.join(workdir, "posterior"),
             "--draws", str(self.num_draws), "--seed", str(derive_seed(self.seed, "draws"))],
        ]

    def run(self, workdir: str) -> dict:
        argvs = self.argvs(workdir)
        codes = [cli.main(argv) for argv in argvs]
        with open(argvs[1][-1], encoding="ascii") as fh:
            coeffs = json.load(fh)
        return {"exit_codes": np.array(codes), "theta_hat": np.array(coeffs["values"], dtype=float)}

    def reference(self) -> np.ndarray:
        """`theta_hat` of the same regime and master seed run in memory by `run_regime`."""
        if self._reference is None:
            report = experiment.run_regime(self.spec, num_draws=self.num_draws, seed=self.seed)
            self._reference = report.theta_hat.values
        return self._reference

    def check(self, out: dict) -> list[str]:
        problems = []
        if np.any(out["exit_codes"] != 0):
            problems.append(f"exit codes {out['exit_codes'].tolist()}")
        if not np.array_equal(out["theta_hat"], self.reference()):
            problems.append(f"coefficients differ from run_regime j={self.spec.j} theta_hat")
        return problems


class DenseWindow:
    """Compound Poisson with t_n = k_max = 320: fold, K marginal, 100k draws, sup band, reports.

    Jumps are N(0.01, 0.003^2), so most of them land in the basis window, and
    the true Levy density is rate times that normal density.
    """

    WARMUP_PASSES = 1
    RATE = 320.0
    JUMP_MEAN, JUMP_SD = 0.01, 0.003
    LEVEL = 0.9

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.n = sizes.dense_n
        scheme = processes.SamplingScheme(self.RATE / self.n, self.n)
        jumps = processes.JumpDistribution.normal(self.JUMP_MEAN, self.JUMP_SD)
        params = processes.CompoundPoissonParams(self.RATE, jumps)
        self.series = processes.simulate_compound_poisson(params, scheme, derive_seed(seed, "simulate"))
        self.t_n = scheme.t_n
        self.config = posterior.GibbsConfig()
        self.k_max = self.config.k_max_for(self.t_n)
        self.basis = basis.BasisSystem.trigonometric(self.config.D_prime, self.k_max)
        self.seed = seed
        self.draws_seed = derive_seed(seed, "draws")
        self.num_draws = sizes.dense_draws
        self.truth = processes.TrueLevyDensity.custom(self._truth, {"rate": self.RATE})

    def _truth(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.JUMP_MEAN) / self.JUMP_SD
        return self.RATE * np.exp(-0.5 * z * z) / (self.JUMP_SD * math.sqrt(2.0 * math.pi))

    def run(self, workdir: str) -> dict:
        theta_hat = estimator.empirical_coefficients(self.series, self.basis)
        marginal = posterior.marginal_k(theta_hat, self.t_n, self.config)
        draws = posterior.sample_posterior(
            theta_hat, self.t_n, self.config, self.num_draws, self.draws_seed, marginal=marginal
        )
        band = posterior.credible_band(draws, self.LEVEL, "sup")

        k_mode = marginal.mode()
        truncated = theta_hat.values.copy()
        truncated[k_mode:] = 0.0
        projected = basis.CoefficientVector(self.basis, truncated, role="projected")
        psi_true = np.asarray(self.truth(draws.grid), dtype=float)
        report = experiment.ExperimentReport(
            j=0,
            delta=self.series.scheme.delta,
            n=self.n,
            t_n=self.t_n,
            seed=self.seed,
            num_draws=self.num_draws,
            k_probs=marginal.probs,
            k_mode=k_mode,
            projection_K=k_mode,
            err_projection=estimator.l2_error_on_D(projected, self.truth, self.config.D),
            err_postmean=float(np.sqrt(np.trapezoid((band.center - psi_true) ** 2, draws.grid))),
            band_level=self.LEVEL,
            band_radius=band.radius,
            runtime_s=0.0,
            config={"k_max": self.k_max, "num_draws": self.num_draws, "rate": self.RATE},
            theta_hat=theta_hat,
            grid=draws.grid,
            psi_true=psi_true,
            psi_mean=band.center,
            band_lo=band.lo,
            band_hi=band.hi,
        )
        write_reports([report], workdir)
        out = report_outputs(report, "")
        out["grid_values"] = draws.grid_values
        return out

    def check(self, out: dict) -> list[str]:
        return report_problems(out, "")


WORKLOADS = {"vg_study": VgStudy, "cli_files": CliFiles, "dense_window": DenseWindow}


def simulate_and_fold(seed: int, js: tuple[int, ...], max_workers: int) -> list[np.ndarray]:
    """The streamed simulate + fold of `run_regime` at each regime, at a given worker count."""
    config = posterior.GibbsConfig()
    out = []
    for j in js:
        scheme = experiment.RegimeSpec.from_j(j).scheme()
        system = basis.BasisSystem.trigonometric(config.D_prime, config.k_max_for(scheme.t_n))
        params, seed_j = experiment.DEFAULT_VG_PARAMS, derive_seed(seed, "simulate")
        series = processes.simulate_vg(params, scheme, seed_j, materialize=False)
        out.append(estimator.empirical_coefficients(series, system, max_workers=max_workers).values)
    return out
