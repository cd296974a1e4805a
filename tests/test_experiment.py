"""Harness tests: regime arithmetic, diagnostics, seeded regression fixtures.

The frozen constants below are regression fixtures: they were produced by
the first verified run under master seed 0 and pin the seeded study
byte-for-byte (the report writers exclude wall-clock time for this reason).
"""

import dataclasses
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import norm

from levygibbs import (
    BasisFeatures,
    BasisSystem,
    CoefficientVector,
    CompoundPoissonParams,
    ExperimentReport,
    GibbsConfig,
    IncrementSeries,
    JumpDistribution,
    MarginalK,
    ParameterError,
    ResourceGuardError,
    SamplingScheme,
    VarianceGammaParams,
    Window,
    WindowError,
    concentration_probability,
    conditional_posterior,
    contraction_rate,
    credible_band,
    delta_condition,
    l2_error_on_D,
    marginal_k,
    no_overfit_diagnostic,
    oracle_dimension,
    project_density,
    quadrature_rule,
    rate_table,
    run_regime,
    sample_posterior,
    validate_config,
    write_band_csv,
    write_errors_csv,
    write_k_posterior_csv,
    write_report_json,
)
import levygibbs.experiment as experiment
import levygibbs.posterior as posterior
import levygibbs.util as util
from levygibbs.basis import TrigonometricBasis
from levygibbs.experiment import DEFAULT_VG_PARAMS, RegimeSpec
from levygibbs.util import check_budget, check_seed, derive_seed, snap_ceil

from conftest import MASTER_SEED

# Regression fixtures (master seed 0, default config, 1000 draws).
FROZEN = {
    1: dict(k_mode=5, err_projection=129.13722087236616, err_postmean=125.71867444127629),
    2: dict(k_mode=9, err_projection=96.74615003284464, err_postmean=91.14508688833367),
    3: dict(k_mode=17, err_projection=48.66229949926915, err_postmean=39.16267763286257),
}


D_PRIME = Window(0.005, 0.015)
THETA4 = CoefficientVector(BasisSystem.trigonometric(D_PRIME, 4), np.ones(4), role="empirical", t_n=20.0)

# Each size the library takes: (make(value), the stored int of make's result, a legal value).
COUNT_SITES = {
    "SamplingScheme.n": (lambda v: SamplingScheme(0.5, v), lambda s: s.n, 4),
    "RegimeSpec.j": (RegimeSpec, lambda s: s.j, 2),
    "GibbsConfig.k_max": (lambda v: GibbsConfig(k_max=v), lambda c: c.k_max, 4),
    "MarginalK.point_mass.K": (lambda v: MarginalK.point_mass(v, 8), MarginalK.mode, 4),
    "MarginalK.point_mass.k_max": (lambda v: MarginalK.point_mass(2, v), lambda m: m.k_max, 4),
    "sample_posterior.num_draws": (
        lambda v: sample_posterior(THETA4, 20.0, GibbsConfig(k_max=4), v, seed=0, grid_points=8), len, 4,
    ),
    "sample_posterior.grid_points": (
        lambda v: sample_posterior(THETA4, 20.0, GibbsConfig(k_max=4), 2, seed=0, grid_points=v),
        lambda draws: draws.grid_values.shape[1], 4,
    ),
    "TrigonometricBasis.K": (lambda v: BasisSystem.trigonometric(D_PRIME, v), lambda b: b.K, 4),
    "PiecewiseLegendreBasis.J": (lambda v: BasisSystem.piecewise_legendre(D_PRIME, v, 2), lambda b: b.J, 4),
    "PiecewiseLegendreBasis.L": (lambda v: BasisSystem.piecewise_legendre(D_PRIME, 2, v), lambda b: b.L, 4),
    "descriptor.K": (
        lambda v: BasisSystem.from_descriptor({"family": "trigonometric", "a": 0.005, "b": 0.015, "K": v}),
        lambda b: b.K, 4,
    ),
    "Window.grid": (D_PRIME.grid, len, 4),
    "quadrature_rule": (lambda v: quadrature_rule(THETA4.basis, v), lambda rule: len(rule[0]), 32),
    "check_seed": (check_seed, lambda seed: seed, 4),
}

# Each array size the library checks against the budget: (limit, call, the `what=count` of the message,
# attributes (owner, name) that must not be called before the check).  Each call asks for more than the limit.
CP_NORMAL = JumpDistribution.normal(0.0, 1.0)
BUDGET_SITES = {
    "Window.grid": (64, lambda: D_PRIME.grid(65), "grid_points=65", [(np, "linspace")]),
    "quadrature_rule": (64, lambda: quadrature_rule(THETA4.basis, 65), "quad_nodes=65", [(TrigonometricBasis, "segments")]),
    "BasisSystem.evaluate_all": (
        64, lambda: THETA4.basis.evaluate_all(np.zeros(17)), "basis values (K=4, points=17)=68",
        [(TrigonometricBasis, "_row_chunks"), (TrigonometricBasis, "_unit"), (TrigonometricBasis, "_cos_sin"), (np, "empty")],
    ),
    "l2_error_on_D": (
        64, lambda: l2_error_on_D(THETA4, THETA4, Window(0.006, 0.014), grid_points=17), "basis values (K=4, points=17)=68",
        [(Window, "grid")],
    ),
    "sample_posterior.basis_rows": (
        64, lambda: sample_posterior(THETA4, 20.0, GibbsConfig(k_max=4), 1, seed=0, grid_points=17),
        "basis values (K=4, points=17)=68", [(Window, "grid"), (posterior, "_block_rng")],
    ),
    "sample_posterior.grid_values": (
        64, lambda: sample_posterior(THETA4, 20.0, GibbsConfig(k_max=4), 20, seed=0, grid_points=4),
        "grid values (num_draws=20, grid_points=4)=80", [(Window, "grid"), (posterior, "_block_rng")],
    ),
    "sample_posterior.theta": (
        64, lambda: sample_posterior(THETA4, 20.0, GibbsConfig(k_max=4), 20, seed=0, grid_points=2),
        "theta values (num_draws=20, k_max=4)=80", [(Window, "grid"), (posterior, "_block_rng")],
    ),
    "run_regime": (
        64, lambda: run_regime(RegimeSpec(1), config=GibbsConfig(k_max=20), num_draws=2, grid_points=4),
        "basis values (K=20, points=4)=80", [(experiment, "simulate"), (Window, "grid")],
    ),
    "IncrementSeries.values": (
        64, lambda: IncrementSeries(SamplingScheme(0.5, 65), 0, block_fn=np.zeros).values, "increments=65",
        [(IncrementSeries, "iter_chunks")],
    ),
    "CompoundPoissonParams.block.expects": (
        64, lambda: CompoundPoissonParams(5.0, CP_NORMAL).block(SamplingScheme(1.0, 16), 0, 0), "block 0 expects jumps=80.0",
        [],  # a generator's Poisson draw cannot be patched; test_jump_guard shows it refused before numpy's own check
    ),
    # The expected 1.25 * 8 = 10 jumps are at the limit; seed 2 draws 13.
    "CompoundPoissonParams.block.drew": (
        10, lambda: CompoundPoissonParams(1.25, CP_NORMAL).block(SamplingScheme(1.0, 8), 2, 0), "block 0 drew jumps=13",
        [(JumpDistribution, "sample")],
    ),
    "MarginalK.point_mass": (64, lambda: MarginalK.point_mass(1, 65), "point mass k_max=65", [(np, "full")]),
}

DRAWS4 = sample_posterior(THETA4, 20.0, GibbsConfig(k_max=4), 4, seed=0, grid_points=8)
BLANK_REPORT = ExperimentReport(
    **dict.fromkeys((f.name for f in dataclasses.fields(ExperimentReport)), None)
    | dict(err_projection=0.0, err_postmean=0.0, band_radius=0.0)
)


def vg(mu=0.0, sigma=0.117, nu=0.002):
    return VarianceGammaParams(mu, sigma, nu)


# Each real the library takes: (make(value), what make's result stores or gives of it, a legal value,
# a finite value out of range or None when every finite value is legal).
REAL_SITES = {
    "GibbsConfig.omega": (lambda v: GibbsConfig(omega=v), lambda c: c.omega, 1e-5, 0.0),
    "GibbsConfig.sigma0": (lambda v: GibbsConfig(sigma0=v), lambda c: c.sigma0, 1e3, -1.0),
    "GibbsConfig.beta": (lambda v: GibbsConfig(beta=v), lambda c: c.beta, 0.5, -0.5),
    "conditional_posterior.t_n": (
        lambda v: conditional_posterior([1.0, 2.0], v, GibbsConfig()), lambda post: post.variance, 20.0, 0.0,
    ),
    "marginal_k.t_n": (lambda v: marginal_k(THETA4, v, GibbsConfig(k_max=4)), lambda m: m.log_weights, 20.0, -1.0),
    "sample_posterior.t_n": (
        lambda v: sample_posterior(THETA4, v, GibbsConfig(k_max=4), 4, seed=0, grid_points=8),
        lambda draws: draws.grid_values, 20.0, 0.0,
    ),
    "credible_band.level": (lambda v: credible_band(DRAWS4, v), lambda band: band.level, 0.9, 1.0),
    "concentration_probability.radius": (
        lambda v: concentration_probability(DRAWS4, DEFAULT_VG_PARAMS.levy_density(), v), lambda p: p, 100.0, -1.0,
    ),
    "validate_config.psi_sup_estimate": (lambda v: validate_config(GibbsConfig(), v), lambda d: d.c_squared, 10.0, -1.0),
    "validate_config.tau": (lambda v: validate_config(GibbsConfig(), 10.0, tau=v), lambda d: d.tau, 3.0, 1.0),
    "SamplingScheme.delta": (lambda v: SamplingScheme(v, 160_000), lambda s: s.t_n, 1.25e-4, 0.0),
    "VarianceGammaParams.mu": (lambda v: vg(mu=v), lambda m: m.mu, 0.01, None),
    "VarianceGammaParams.sigma": (lambda v: vg(sigma=v), lambda m: m.sigma, 0.117, -1.0),
    "VarianceGammaParams.nu": (lambda v: vg(nu=v), lambda m: m.nu, 0.002, 0.0),
    "JumpDistribution.params": (lambda v: JumpDistribution("normal", (v, 0.003)), lambda j: j.params[0], 0.01, None),
    "CompoundPoissonParams.rate": (
        lambda v: CompoundPoissonParams(v, JumpDistribution.point(0.01)), lambda m: m.rate, 2.0, 0.0,
    ),
    "delta_condition.bound": (
        lambda v: delta_condition(BasisFeatures(1.0, 1.0), SamplingScheme(1e-3, 10), bound=v), lambda d: d.bound, 1.0, 0.0,
    ),
    "run_regime.band_level": (
        lambda v: run_regime(RegimeSpec(1), config=GibbsConfig(k_max=20), num_draws=200, seed=MASTER_SEED, band_level=v),
        lambda r: r.band_level, 0.9, 0.0,
    ),
    "contraction_rate.t_n": (lambda v: contraction_rate(v, 0.5), lambda eps: eps, 20.0, 1.0),
    "contraction_rate.alpha_assumed": (lambda v: contraction_rate(20.0, v), lambda eps: eps, 0.5, 0.0),
    "no_overfit_diagnostic.tau": (
        lambda v: no_overfit_diagnostic([SimpleNamespace(j=1, t_n=20.0, k_probs=np.full(20, 0.05))], tau=v),
        lambda rows: rows[0].threshold, 2.0, 1.0,
    ),
    **{
        f"ExperimentReport.{name}": (
            lambda v, name=name: dataclasses.replace(BLANK_REPORT, **{name: v}), lambda r, name=name: getattr(r, name), 1.0, -1.0,
        )
        for name in ("err_projection", "err_postmean", "band_radius")
    },
    "Window.a": (lambda v: Window(v, 0.015), lambda w: w.a, 0.005, None),
    "Window.b": (lambda v: Window(0.005, v), lambda w: w.b, 0.015, None),
    "descriptor.a": (
        lambda v: BasisSystem.from_descriptor({"family": "trigonometric", "a": v, "b": 0.015, "K": 4}),
        lambda b: b.window.a, 0.005, None,
    ),
    "coefficient record value": (
        lambda v: CoefficientVector.from_dict({"basis": THETA4.basis.descriptor(), "values": [v, 1.0, 1.0, 1.0]}),
        lambda theta: theta.values, 2.0, None,
    ),
    "CoefficientVector.t_n": (lambda v: CoefficientVector(THETA4.basis, np.ones(4), t_n=v), lambda theta: theta.t_n, 20.0, 0.0),
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

    @pytest.mark.parametrize("make, stored, k", list(COUNT_SITES.values()), ids=list(COUNT_SITES))
    def test_bool_is_not_a_count(self, make, stored, k):
        # util.check_count at every size the library takes: no bool or float, and a numpy integer is stored as an int.
        for bad in (True, 2.5, np.float64(4.0)):
            with pytest.raises(ParameterError, match="must be (a positive|a non-negative|an) integer"):
                make(bad)
        value = stored(make(np.int64(k)))
        assert type(value) is int and value == k

    @pytest.mark.parametrize("name", list(REAL_SITES))
    def test_real_rule(self, name):
        # util.check_real at every real the library takes: a finite real in range, not a bool, stored as a float.
        make, stored, good, out_of_range = REAL_SITES[name]
        error = WindowError if name.startswith("Window.") else ParameterError
        bad_values = [True, "1", math.nan, math.inf, -math.inf]
        bad_values += [] if name == "CoefficientVector.t_n" else [None]  # a vector's t_n may be unknown
        bad_values += [] if out_of_range is None else [out_of_range]
        for bad in bad_values:
            with pytest.raises(error, match="must (be|exceed|lie)") as excinfo:
                make(bad)
            assert excinfo.type is error
        for as_real in (np.float32, np.float64):
            value, reference = stored(make(as_real(good))), stored(make(float(as_real(good))))
            assert type(value) is type(reference) and np.asarray(value).dtype == np.float64
            assert np.array_equal(value, reference)

    @pytest.mark.parametrize("name", list(BUDGET_SITES))
    def test_budget_rule(self, monkeypatch, name):
        # util.check_budget at every array size the library checks: one message form, before the array's inputs are made.
        limit, call, what, untouched = BUDGET_SITES[name]
        monkeypatch.setattr(util, "MATERIALIZE_LIMIT", limit)
        for owner, attr in untouched:
            monkeypatch.setattr(owner, attr, lambda *args, **kwargs: pytest.fail(f"{attr} called before the budget check"))
        with pytest.raises(ResourceGuardError) as excinfo:
            call()
        assert excinfo.type is ResourceGuardError
        assert str(excinfo.value) == f"{what} is above the materialization limit of {limit}"

    def test_check_budget(self, monkeypatch):
        monkeypatch.setattr(util, "MATERIALIZE_LIMIT", 8)
        assert check_budget(8, "n") == 8 and check_budget(7.5, "n") == 7.5
        for count in (9, 8.5, math.inf, math.nan):
            with pytest.raises(ResourceGuardError, match=f"^n={count} is above the materialization limit of 8$"):
                check_budget(count, "n")

    @pytest.mark.parametrize("call, message", [
        (lambda: oracle_dimension(-5.0, 2.0), "t_n must be positive and finite, got -5.0"),
        (lambda: oracle_dimension(True, 2.0), "t_n must be positive and finite, got True"),
        (lambda: JumpDistribution("point", 1.0), "jump distribution 'point' takes 1 parameter(s), got 1.0"),
        (lambda: GibbsConfig(D=(0.006, 0.014)), "D and D_prime must be Windows, got (0.006, 0.014) and"),
        (lambda: GibbsConfig(D_prime=(0.005, 0.015)), "D and D_prime must be Windows, got Window(a=0.006, b=0.014) and (0.005, 0.015)"),
        (lambda: CompoundPoissonParams(1.0, "normal:0,1"), "jumps must be a JumpDistribution, got 'normal:0,1'"),
    ], ids=["oracle-negative-t_n", "oracle-bool-t_n", "jump-params-not-a-tuple", "config-D-a-tuple",
            "config-D_prime-a-tuple", "cpois-jumps-a-string"])
    def test_wrong_kind_of_input_is_a_parameter_error(self, call, message):
        with pytest.raises(ParameterError, match="^" + re.escape(message)) as excinfo:
            call()
        assert excinfo.type is ParameterError

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
        with pytest.raises(ParameterError, match="unknown seed label"):
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
        assert all(diag.passed.values())

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

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, -1.0, math.nan, math.inf])
    def test_alpha_not_positive_refused(self, alpha):
        # alpha = -1/2 used to divide by zero; 0 and -1 gave a rate that means nothing.
        for rate in (contraction_rate, oracle_dimension):
            with pytest.raises(ParameterError, match="alpha_assumed must be positive and finite"):
                rate(320.0, alpha)

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

    def test_model_without_density_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(experiment, "simulate", lambda *args, **kwargs: pytest.fail("simulate ran"))
        model = CompoundPoissonParams(2.0, JumpDistribution.point(0.01))
        with pytest.raises(ParameterError, match="no Levy density"):
            run_regime(RegimeSpec(2), model=model)

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


    def test_failed_json_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "coeffs.json"
        experiment.write_coefficients_json(path, THETA4)
        before = path.read_bytes()
        unserializable = CoefficientVector(THETA4.basis, THETA4.values, role=object(), t_n=20.0)
        with pytest.raises(TypeError, match="object"):
            experiment.write_coefficients_json(path, unserializable)
        assert path.read_bytes() == before

    def test_numpy_float32_fields_write_and_read_back(self, tmp_path):
        f32 = np.float32
        window = Window(f32(0.005), 0.015)
        for theta in (
            CoefficientVector(THETA4.basis, THETA4.values, role="empirical", t_n=f32(2.0)),
            CoefficientVector(BasisSystem.trigonometric(window, 4), np.ones(4), role="empirical", t_n=20.0),
        ):
            path = tmp_path / "coeffs.json"
            experiment.write_coefficients_json(path, theta)
            back = experiment.read_coefficients_json(path)
            assert back.t_n == float(theta.t_n) and back.basis.window.a == float(theta.basis.window.a)
            assert np.array_equal(back.values, theta.values)
        config = GibbsConfig(omega=f32(1e-5), k_max=20)
        report = run_regime(RegimeSpec(1), config=config, num_draws=200, seed=MASTER_SEED, band_level=f32(0.9))
        write_report_json([report], tmp_path / "report.json")
        regime = json.loads((tmp_path / "report.json").read_text())["regimes"][0]
        assert regime["config"]["omega"] == float(f32(1e-5)) and regime["band_level"] == float(f32(0.9))

    def test_coefficient_files_of_numpy_sizes_read_back(self, tmp_path):
        for basis in (
            BasisSystem.trigonometric(D_PRIME, np.int64(6)),
            BasisSystem.piecewise_legendre(D_PRIME, np.int64(3), np.int64(2)),
        ):
            theta = CoefficientVector(basis, np.arange(6.0), role="empirical", t_n=20.0)
            path = tmp_path / f"{basis.family}.json"
            experiment.write_coefficients_json(path, theta)
            back = experiment.read_coefficients_json(path)
            assert back.basis == basis and np.array_equal(back.values, theta.values)

    def test_report_of_numpy_floats_has_the_bytes_of_floats(self, tmp_path):
        paths = [tmp_path / "float.json", tmp_path / "numpy.json"]
        for path, as_real in zip(paths, (float, np.float64)):
            config = GibbsConfig(omega=as_real(2e-5), sigma0=as_real(1e2), beta=as_real(0.25), k_max=20)
            report = run_regime(RegimeSpec(1), config=config, num_draws=200, seed=MASTER_SEED, band_level=as_real(0.8))
            write_report_json([report], path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_report_of_numpy_counts_has_the_bytes_of_int_counts(self, tmp_path):
        paths = [tmp_path / "int.json", tmp_path / "numpy.json"]
        for path, as_count in zip(paths, (int, np.int64)):
            config = GibbsConfig(k_max=as_count(20))
            report = run_regime(RegimeSpec(1), config=config, num_draws=as_count(200), seed=as_count(MASTER_SEED))
            write_report_json([report], path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("call, message", [
    (lambda: delta_condition(BasisFeatures(1.0, 1.0), SamplingScheme(1e-3, 10), bound=0.0), "bound must be positive and finite, got 0.0"),
    (lambda: delta_condition(BasisFeatures(1.0, 1.0), SamplingScheme(1e-3, 10), bound=math.nan),
     "bound must be positive and finite, got nan"),
    (lambda: no_overfit_diagnostic([], tau=1.0), "tau must exceed 1 and be finite, got 1.0"),
], ids=["delta-bound-zero", "delta-bound-nan", "no-overfit-tau-one"])
def test_input_checks(call, message):
    with pytest.raises(ParameterError, match=re.escape(message)) as excinfo:
        call()
    assert excinfo.type is ParameterError


@pytest.mark.parametrize("kwargs", [
    dict(band_level=1.5), dict(band_level=math.nan), dict(grid_points=1), dict(grid_points=512.0),
], ids=["level-above-one", "level-nan", "one-grid-point", "float-grid-points"])
def test_run_regime_checks_before_any_work(monkeypatch, kwargs):
    # The checks come before the simulation, so a bad argument costs nothing even at a large regime.
    monkeypatch.setattr(experiment, "simulate", lambda *args, **kw: pytest.fail("run_regime simulated before its checks"))
    with pytest.raises(ParameterError, match=f"{next(iter(kwargs))} must") as excinfo:
        run_regime(RegimeSpec(3), **kwargs)
    assert excinfo.type is ParameterError
