"""Harness tests: regime arithmetic, diagnostics, seeded regression fixtures.

The frozen constants below are regression fixtures: they were produced by
the first verified run under master seed 0 and pin the seeded study
byte-for-byte (the report writers exclude wall-clock time for this reason).
"""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import norm

from levygibbs import (
    BasisSystem,
    CompoundPoissonParams,
    GibbsConfig,
    JumpDistribution,
    ParameterError,
    SamplingScheme,
    concentration_probability,
    contraction_rate,
    delta_condition,
    marginal_k,
    no_overfit_diagnostic,
    oracle_dimension,
    project_density,
    rate_table,
    run_regime,
    sample_posterior,
    write_band_csv,
    write_errors_csv,
    write_k_posterior_csv,
    write_report_json,
)
from levygibbs.experiment import DEFAULT_VG_PARAMS, RegimeSpec
from levygibbs.util import derive_seed, snap_ceil

from conftest import MASTER_SEED

# Regression fixtures (master seed 0, default config, 1000 draws).
FROZEN = {
    1: dict(k_mode=5, err_projection=129.13722087236616, err_postmean=125.71867444127629),
    2: dict(k_mode=9, err_projection=96.74615003284464, err_postmean=91.14508688833367),
    3: dict(k_mode=17, err_projection=48.66229949926915, err_postmean=39.16267763286257),
}


class TestRegimeArithmetic:
    def test_exact_regime_constants(self):
        expect = {
            1: (1.25e-4, 160_000, 20.0),
            2: (1.5625e-5, 5_120_000, 80.0),
            3: (1.953125e-6, 163_840_000, 320.0),
        }
        for j, (delta, n, t_n) in expect.items():
            spec = RegimeSpec.from_j(j)
            assert spec.delta == delta
            assert spec.n == n
            assert spec.scheme().t_n == t_n

    def test_ceiling_bound_invariant(self):
        for j in (1, 2, 3):
            spec = RegimeSpec.from_j(j)
            prod = spec.n * spec.delta ** (5.0 / 3.0)
            assert 0.05 - 1e-12 <= prod <= 0.05 + spec.delta ** (5.0 / 3.0)

    def test_j_validated(self):
        for j in (0, -1, 1.5):
            with pytest.raises(ParameterError):
                RegimeSpec.from_j(j)
            with pytest.raises(ParameterError):
                RegimeSpec(j)
        # larger regimes are well defined, just expensive
        assert RegimeSpec.from_j(4).delta == 1e-3 * 2.0**-12

    @pytest.mark.parametrize(
        "make",
        [lambda: SamplingScheme(0.5, True), lambda: RegimeSpec(True), lambda: GibbsConfig(k_max=True)],
        ids=["SamplingScheme.n", "RegimeSpec.j", "GibbsConfig.k_max"],
    )
    def test_bool_is_not_a_count(self, make):
        with pytest.raises(ParameterError, match="must be a positive integer"):
            make()

    def test_delta_n_t_n_derived_from_j(self):
        # j is the one field, so no regime can carry a delta, n or t_n of another j.
        assert [f.name for f in dataclasses.fields(RegimeSpec)] == ["j"]
        assert RegimeSpec(7).delta == 1e-3 * 2.0**-21
        with pytest.raises(TypeError):
            RegimeSpec(7, 1.25e-4, 160000, 20.0)
        spec = RegimeSpec.from_j(np.int64(2))
        assert type(spec.j) is int and spec == RegimeSpec(2)
        assert json.loads(json.dumps({"j": spec.j})) == {"j": 2}

    def test_snap_ceil(self):
        assert snap_ceil(160000.00000000012) == 160_000
        assert snap_ceil(159999.99999999988) == 160_000
        assert snap_ceil(7.2) == 8
        assert snap_ceil(-2.5) == -2
        assert snap_ceil(5.0) == 5
        with pytest.raises(ValueError):
            snap_ceil(float("nan"))

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(0, "simulate") == derive_seed(0, "simulate")
        assert derive_seed(0, "simulate") != derive_seed(0, "draws")
        assert derive_seed(0, "simulate") != derive_seed(1, "simulate")
        with pytest.raises(ValueError):
            derive_seed(0, "mystery")
        for seed in (-1, 1.5, True, None):
            with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
                derive_seed(seed, "simulate")


class TestDeltaCondition:
    def setup_method(self):
        self.spec = RegimeSpec.from_j(3)
        k_max = GibbsConfig().k_max_for(self.spec.scheme().t_n)
        self.features = BasisSystem.trigonometric(GibbsConfig().D_prime, k_max).features()

    def test_j3_passes_default_bound(self):
        diag = delta_condition(self.features, self.spec.scheme())
        assert diag.values["n*delta^(5/3)"] == pytest.approx(0.05, rel=1e-9)
        assert diag.all_ok

    def test_quadrupling_n_flips_flag(self):
        scheme4 = SamplingScheme(self.spec.delta, 4 * self.spec.n)
        lo = delta_condition(self.features, self.spec.scheme(), bound=0.1)
        hi = delta_condition(self.features, scheme4, bound=0.1)
        assert lo.passed["n*delta^(5/3)"]
        assert not hi.passed["n*delta^(5/3)"]
        assert hi.values["n*delta^(5/3)"] == pytest.approx(
            4.0 * lo.values["n*delta^(5/3)"], rel=1e-12
        )

    def test_fixed_k_reports_bare_spacing_product(self):
        diag = delta_condition(self.features, self.spec.scheme(), case="fixed-K")
        assert "n*delta^3" in diag.values
        assert "n*delta^(5/3)" not in diag.values
        n, d = self.spec.n, self.spec.delta
        assert diag.values["n*delta^3"] == pytest.approx(n * d**3, rel=1e-15)

    def test_feature_products_reported(self):
        diag = delta_condition(self.features, self.spec.scheme())
        n, d = self.spec.n, self.spec.delta
        assert diag.values["F1^2*n*delta^3"] == pytest.approx(self.features.F1**2 * n * d**3)
        assert diag.values["F2*delta"] == pytest.approx(self.features.F2 * d)

    def test_case_validated(self):
        with pytest.raises(ParameterError):
            delta_condition(self.features, self.spec.scheme(), case="increasing")


class TestRateHelpers:
    def test_oracle_dimension(self):
        assert oracle_dimension(20.0, 2.0) == 2
        assert oracle_dimension(80.0, 2.0) == 3
        assert oracle_dimension(320.0, 2.0) == 4

    def test_contraction_rate_formula(self):
        t = 320.0
        assert contraction_rate(t, 2.0) == pytest.approx(math.sqrt(math.log(t)) * t**-0.4, rel=1e-15)
        with pytest.raises(ParameterError):
            contraction_rate(1.0, 2.0)

    def test_no_overfit_point_mass(self):
        rep = SimpleNamespace(j=1, t_n=20.0, k_probs=np.array([1.0]))
        rows = no_overfit_diagnostic([rep], tau=2.0, alpha_assumed=2.0)
        assert rows[0].K_n == 2 and rows[0].mass_above == 0.0

    def test_no_overfit_uniform_counting(self):
        rep = SimpleNamespace(j=1, t_n=20.0, k_probs=np.full(10, 0.1))
        # K_n = 2, tau = 2.5 puts the threshold at K > 5: half the mass
        rows = no_overfit_diagnostic([rep], tau=2.5, alpha_assumed=2.0)
        assert rows[0].threshold == 5.0
        assert rows[0].mass_above == pytest.approx(0.5, rel=1e-12)

    def test_rate_table_needs_two_regimes(self):
        rep = SimpleNamespace(j=1, t_n=20.0, err_postmean=1.0)
        with pytest.raises(ParameterError):
            rate_table([rep])

    def test_rate_table_equal_rows(self):
        reps = [
            SimpleNamespace(j=1, t_n=20.0, err_postmean=3.0),
            SimpleNamespace(j=2, t_n=20.0, err_postmean=3.0),
        ]
        rows = rate_table(reps)
        assert rows[0].ratio == rows[1].ratio

    def test_rate_table_scale_invariance(self):
        # errors proportional to eps_n give a constant ratio
        reps = [
            SimpleNamespace(j=j, t_n=t, err_postmean=7.0 * contraction_rate(t, 2.0))
            for j, t in ((1, 20.0), (2, 80.0), (3, 320.0))
        ]
        ratios = [row.ratio for row in rate_table(reps)]
        np.testing.assert_allclose(ratios, 7.0, rtol=1e-12)


class TestNoOverfitOnProjection:
    """The K posterior of the exact projection, with no data and no noise.

    psi is not periodic on D', so the trig sieve sees it with smoothness
    alpha = 1/2: the mass above 2*K_n(1/2) vanishes as t_n grows, while the
    mass above 2*K_n(2) stays near 1 at every horizon.  This is why criterion
    7 takes its K_n at alpha = 1/2.
    """

    def test_tail_mass_by_assumed_smoothness(self):
        config = GibbsConfig()
        psi = DEFAULT_VG_PARAMS.levy_density()
        theta = project_density(BasisSystem.trigonometric(config.D_prime, 320), psi)
        reps = [
            SimpleNamespace(j=j, t_n=t_n, k_probs=marginal_k(theta, t_n, config).probs)
            for j, t_n in ((1, 20.0), (2, 80.0), (3, 320.0))
        ]
        sieve = [row.mass_above for row in no_overfit_diagnostic(reps, tau=2.0, alpha_assumed=0.5)]
        assumed = [row.mass_above for row in no_overfit_diagnostic(reps, tau=2.0, alpha_assumed=2.0)]
        assert sieve[0] > sieve[1] > sieve[2]
        assert min(assumed) >= 0.99


class TestRunRegime:
    def test_report_invariants(self, regime_reports):
        for j, rep in regime_reports.items():
            assert rep.j == j and rep.seed == MASTER_SEED
            assert abs(rep.k_probs.sum() - 1.0) < 1e-12
            assert rep.k_mode == int(np.argmax(rep.k_probs)) + 1
            assert rep.projection_K == rep.k_mode
            assert rep.err_projection >= 0.0 and rep.err_postmean >= 0.0
            assert len(rep.theta_hat) == rep.config["k_max"]
            assert rep.grid[0] == 0.006 and rep.grid[-1] == 0.014
            np.testing.assert_allclose(rep.band_hi - rep.psi_mean, rep.band_radius, atol=1e-9)
            np.testing.assert_allclose(rep.psi_mean - rep.band_lo, rep.band_radius, atol=1e-9)

    def test_config_echo_defaults(self, regime_reports):
        cfg = regime_reports[1].config
        assert cfg["omega"] == 1e-5 and cfg["sigma0"] == 1e3 and cfg["beta"] == 0.5
        assert cfg["D"] == [0.006, 0.014] and cfg["D_prime"] == [0.005, 0.015]
        assert cfg["k_max"] == 20 and cfg["num_draws"] == 1000

    def test_frozen_regression_values(self, regime_reports):
        for j, rep in regime_reports.items():
            assert rep.k_mode == FROZEN[j]["k_mode"]
            assert rep.err_projection == pytest.approx(FROZEN[j]["err_projection"], rel=1e-12)
            assert rep.err_postmean == pytest.approx(FROZEN[j]["err_postmean"], rel=1e-12)

    def test_frozen_values_with_forked_fold(self, regime_reports, pooled_io):
        # pooled_io: 2 CPUs, so the 5 blocks of j=2 are folded by 2 forked workers.
        for j in (1, 2):
            rep = run_regime(RegimeSpec.from_j(j), seed=MASTER_SEED)
            assert rep.k_mode == FROZEN[j]["k_mode"]
            assert rep.err_postmean == pytest.approx(FROZEN[j]["err_postmean"], rel=1e-12)
            assert np.array_equal(rep.theta_hat.values, regime_reports[j].theta_hat.values)
        assert pooled_io.workers == [2]

    def test_deterministic_rerun(self, regime_reports):
        again = run_regime(RegimeSpec.from_j(1), seed=MASTER_SEED)
        assert again.err_postmean == regime_reports[1].err_postmean
        assert np.array_equal(again.theta_hat.values, regime_reports[1].theta_hat.values)
        other = run_regime(RegimeSpec.from_j(1), seed=MASTER_SEED + 1)
        assert other.err_postmean != regime_reports[1].err_postmean

    def test_error_decreases_j1_to_j2(self, regime_reports):
        assert regime_reports[2].err_postmean < regime_reports[1].err_postmean
        assert regime_reports[2].err_projection < regime_reports[1].err_projection

    def test_mode_nondecreasing(self, regime_reports):
        assert regime_reports[2].k_mode >= regime_reports[1].k_mode

    def test_compound_poisson_model(self):
        model = CompoundPoissonParams(320.0, JumpDistribution.normal(0.01, 0.003))
        rep = run_regime(RegimeSpec.from_j(1), model=model, num_draws=200, seed=MASTER_SEED)
        assert math.isfinite(rep.err_projection) and math.isfinite(rep.err_postmean)
        np.testing.assert_allclose(rep.psi_true, 320.0 * norm.pdf(rep.grid, 0.01, 0.003), rtol=1e-13)
        # Most jumps land in D', so the posterior mean is within 10% of the truth in L2(D) (about 4% at this seed).
        assert rep.err_postmean < 0.1 * float(np.sqrt(np.trapezoid(rep.psi_true**2, rep.grid)))

    def test_validation_on_report_fields(self, regime_reports):
        with pytest.raises(ParameterError):
            dataclasses.replace(regime_reports[1], err_postmean=-1.0)


class TestConcentrationStudy:
    def reconstruct_draws(self, rep):
        return sample_posterior(
            rep.theta_hat, rep.t_n, GibbsConfig(), rep.num_draws, derive_seed(rep.seed, "draws")
        )

    def test_concentration_direction(self, regime_reports):
        psi = DEFAULT_VG_PARAMS.levy_density()
        grid = regime_reports[1].grid
        norm = float(np.sqrt(np.trapezoid(psi(grid) ** 2, grid)))
        # At half the reference norm every draw is already inside the ball
        # for this seed (frozen: both probabilities are exactly 0), so the
        # shrink direction is resolved at a quarter of the norm.
        at_half = {}
        at_quarter = {}
        for j, rep in regime_reports.items():
            draws = self.reconstruct_draws(rep)
            at_half[j] = concentration_probability(draws, psi, 0.5 * norm)
            at_quarter[j] = concentration_probability(draws, psi, 0.25 * norm)
        assert at_half[1] == 0.0 and at_half[2] == 0.0
        assert at_quarter[2] < at_quarter[1]

    def test_band_coverage_j1(self, regime_reports):
        rep = regime_reports[1]
        assert bool(np.all((rep.band_lo <= rep.psi_true) & (rep.psi_true <= rep.band_hi)))


@pytest.mark.slow
class TestSlowRegime:
    """j=3 end-to-end checks; opt-in via LEVY_GIBBS_RUN_SLOW=1."""

    def test_frozen_j3(self, regime_report_j3):
        rep = regime_report_j3
        assert rep.k_mode == FROZEN[3]["k_mode"]
        assert rep.err_projection == pytest.approx(FROZEN[3]["err_projection"], rel=1e-12)
        assert rep.err_postmean == pytest.approx(FROZEN[3]["err_postmean"], rel=1e-12)

    def test_j3_sharpens_everything(self, regime_reports, regime_report_j3):
        rep3 = regime_report_j3
        assert rep3.err_postmean < regime_reports[2].err_postmean
        assert rep3.err_projection < regime_reports[2].err_projection
        assert rep3.k_mode >= regime_reports[2].k_mode

    def test_band_covers_truth_at_j3(self, regime_report_j3):
        rep = regime_report_j3
        assert bool(np.all((rep.band_lo <= rep.psi_true) & (rep.psi_true <= rep.band_hi)))

    def test_rate_ratio_bounded_within_factor_four(self, regime_reports, regime_report_j3):
        rows = rate_table([regime_reports[1], regime_reports[2], regime_report_j3])
        ratios = [row.ratio for row in rows]
        assert max(ratios) / min(ratios) < 4.0


class TestWriters:
    def test_errors_csv_round_trips(self, regime_reports, tmp_path):
        path = tmp_path / "errors.csv"
        reports = [regime_reports[1], regime_reports[2]]
        write_errors_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,t_n,err_projection,err_postmean,eps_n,ratio"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[2]) == regime_reports[1].err_projection  # repr round trip

    def test_k_posterior_csv(self, regime_reports, tmp_path):
        path = tmp_path / "k.csv"
        write_k_posterior_csv([regime_reports[1]], path)
        rows = path.read_text().splitlines()
        assert rows[0] == "j,K,prob"
        probs = [float(r.split(",")[2]) for r in rows[1:]]
        assert len(probs) == 20
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_band_csv(self, regime_reports, tmp_path):
        path = tmp_path / "band.csv"
        write_band_csv(regime_reports[1], path)
        rows = path.read_text().splitlines()
        assert rows[0] == "x,psi_true,psi_mean,lo,hi"
        assert len(rows) == 1 + len(regime_reports[1].grid)

    def test_report_json_deterministic_and_runtime_free(self, regime_reports, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report_json([regime_reports[1]], p1)
        write_report_json([regime_reports[1]], p2)
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        regime = payload["regimes"][0]
        assert "runtime" not in json.dumps(payload).lower()
        assert list(regime.keys()) == sorted(regime.keys())
        assert regime["err_postmean"] == regime_reports[1].err_postmean
