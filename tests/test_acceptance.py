"""Acceptance gate: nine criteria, one visible pass/fail line each.

Each test prints `criterion N: PASS/FAIL - details` outside pytest's capture
so the lines appear in any run, then asserts.  Tolerances and budgets are
pinned in-line; the timing budgets are generous (observed runtimes are a
small fraction of each limit).
"""

import math
import time
import warnings

import numpy as np
import pytest

from levygibbs import (
    BasisSystem,
    GibbsConfig,
    SamplingScheme,
    conditional_posterior,
    empirical_risk,
    gram_matrix,
    marginal_k,
    project_density,
    rate_table,
    sample_posterior,
    simulate,
)
from levygibbs.experiment import DEFAULT_VG_PARAMS, RegimeSpec
from levygibbs.processes import VarianceGammaParams

from conftest import MASTER_SEED, slow_enabled
from test_posterior import ORACLE_CONFIG, ORACLE_THETA_HAT, ORACLE_TN, oracle_pmf_and_moments


def emit(capsys, line):
    with capsys.disabled():
        print(line)


def test_criterion_01_regime_arithmetic_exact(capsys):
    start = time.monotonic()
    spec = RegimeSpec.from_j(3)
    elapsed = time.monotonic() - start
    ok = spec.scheme().t_n == 320.0 and spec.n == 163_840_000 and spec.delta == 1.953125e-6
    emit(capsys, f"criterion 1: {'PASS' if ok else 'FAIL'} - j=3 gives delta={spec.delta!r}, "
                 f"n={spec.n}, t_n={spec.scheme().t_n!r} in {elapsed:.4f}s")
    assert spec.scheme().t_n == 320.0
    assert spec.n == 163_840_000
    assert spec.delta == 1.953125e-6
    assert elapsed < 1.0


def test_criterion_02_gram_identity(capsys):
    start = time.monotonic()
    trig = BasisSystem.trigonometric(GibbsConfig().D_prime, 20)
    dev_trig = float(np.max(np.abs(gram_matrix(trig, quad_nodes=2000) - np.eye(20))))
    leg = BasisSystem.piecewise_legendre(GibbsConfig().D_prime, 3, 4)
    dev_leg = float(np.max(np.abs(gram_matrix(leg, quad_nodes=2000) - np.eye(12))))
    elapsed = time.monotonic() - start
    ok = dev_trig < 1e-8 and dev_leg < 1e-8 and elapsed < 1.0
    emit(capsys, f"criterion 2: {'PASS' if ok else 'FAIL'} - gram deviation trig={dev_trig:.3e}, "
                 f"legendre={dev_leg:.3e} in {elapsed:.3f}s")
    assert dev_trig < 1e-8
    assert dev_leg < 1e-8
    assert elapsed < 1.0


def test_criterion_03_conjugacy_oracle(capsys):
    pmf_oracle, means_oracle, _ = oracle_pmf_and_moments()
    cond = conditional_posterior(ORACLE_THETA_HAT, ORACLE_TN, ORACLE_CONFIG)
    marg = marginal_k(ORACLE_THETA_HAT, ORACLE_TN, ORACLE_CONFIG)
    dev_mean = float(np.max(np.abs(cond.means - means_oracle)))
    dev_pmf = float(np.max(np.abs(marg.probs - pmf_oracle)))
    ok = dev_mean < 1e-6 and dev_pmf < 1e-8
    emit(capsys, f"criterion 3: {'PASS' if ok else 'FAIL'} - conditional means vs quadrature "
                 f"{dev_mean:.3e} (tol 1e-6), pmf {dev_pmf:.3e} (tol 1e-8)")
    assert dev_mean < 1e-6
    assert dev_pmf < 1e-8


def test_criterion_04_risk_difference_identity(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(MASTER_SEED)
    theta_hat = rng.normal(scale=50.0, size=8)
    worst = 0.0
    for _ in range(1000):
        t1 = rng.normal(scale=100.0, size=8)
        t2 = rng.normal(scale=100.0, size=8)
        d_risk = empirical_risk(t1, theta_hat) - empirical_risk(t2, theta_hat)
        d_norm = float((t1 - theta_hat) @ (t1 - theta_hat) - (t2 - theta_hat) @ (t2 - theta_hat))
        worst = max(worst, abs(d_risk - d_norm) / max(abs(d_risk), abs(d_norm), 1.0))
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 1.0
    emit(capsys, f"criterion 4: {'PASS' if ok else 'FAIL'} - worst relative deviation "
                 f"{worst:.3e} over 1000 pairs in {elapsed:.3f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_05_vg_increment_moments(capsys):
    start = time.monotonic()
    params = VarianceGammaParams(mu=0.0, sigma=3.7 * 10**-1.5, nu=2e-3)
    scheme = SamplingScheme(1e-3, 1_000_000)
    y = simulate(params, scheme, MASTER_SEED).values
    var_true = params.sigma**2 * scheme.delta
    # mu = 0: fourth moment is 3 sigma^4 E[U^2] with U ~ Gamma(delta/nu, nu)
    mu4 = 3.0 * params.sigma**4 * (scheme.delta * params.nu + scheme.delta**2)
    se_mean = math.sqrt(var_true / scheme.n)
    se_var = math.sqrt((mu4 - var_true**2) / scheme.n)
    dev_mean = abs(float(y.mean())) / se_mean
    dev_var = abs(float(y.var(ddof=1)) - var_true) / se_var
    elapsed = time.monotonic() - start
    ok = dev_mean < 4.0 and dev_var < 4.0 and elapsed < 10.0
    emit(capsys, f"criterion 5: {'PASS' if ok else 'FAIL'} - n=1e6 mean at {dev_mean:.2f} SE, "
                 f"variance at {dev_var:.2f} SE (limit 4) in {elapsed:.2f}s")
    assert dev_mean < 4.0
    assert dev_var < 4.0
    assert elapsed < 10.0


def test_criterion_06_seeded_study_ordering(capsys, regime_reports, request):
    reports = [regime_reports[1], regime_reports[2]]
    if slow_enabled():
        reports.append(request.getfixturevalue("regime_report_j3"))
    errs = [rep.err_postmean for rep in reports]
    modes = [rep.k_mode for rep in reports]
    ratios = [row.ratio for row in rate_table(reports)]
    spread = max(ratios) / min(ratios)
    frozen_errs = [125.71867444127629, 91.14508688833367, 39.16267763286257][: len(reports)]
    frozen_modes = [5, 9, 17][: len(reports)]
    ok = (
        all(b < a for a, b in zip(errs, errs[1:]))
        and all(b >= a for a, b in zip(modes, modes[1:]))
        and modes == frozen_modes
        and all(abs(e - f) <= 1e-12 * abs(f) for e, f in zip(errs, frozen_errs))
        and spread < 4.0
    )
    emit(capsys, f"criterion 6: {'PASS' if ok else 'FAIL'} - err_postmean {errs} strictly "
                 f"decreasing, K modes {modes} nondecreasing, rate-ratio spread {spread:.2f} "
                 f"(limit 4), regimes j<= {len(reports)}")
    for a, b in zip(errs, errs[1:]):
        assert b < a
    for a, b in zip(modes, modes[1:]):
        assert b >= a
    assert modes == frozen_modes
    np.testing.assert_allclose(errs, frozen_errs, rtol=1e-12)
    assert spread < 4.0


def test_criterion_07_no_overfit_mass(capsys, regime_reports):
    from levygibbs import no_overfit_diagnostic

    # K_n needs the truth's smoothness in the study's own sieve.  psi is not
    # periodic on D', so its sine coefficients decay as 1/k, with
    # k * |theta_k| -> sqrt(2L)/pi * |psi(a') - psi(b')|; then
    # sum_{k>K} theta_k^2 ~ K^{-1}, i.e. alpha = 1/2.
    window = GibbsConfig().D_prime
    psi = DEFAULT_VG_PARAMS.levy_density()
    theta = project_density(BasisSystem.trigonometric(window, 80), psi).values
    psi_a, psi_b = psi(np.array([window.a, window.b]))
    edge = math.sqrt(2.0 * window.length) / math.pi * abs(psi_a - psi_b)
    odd = np.arange(9, 80, 2)
    np.testing.assert_allclose(
        odd * np.abs(theta[odd - 1]), edge, rtol=0.1,
        err_msg="the truth no longer has alpha = 1/2 in the trig sieve on D'",
    )
    alpha = 0.5

    rows = no_overfit_diagnostic([regime_reports[1], regime_reports[2]], tau=2.0, alpha_assumed=alpha)
    m1, m2 = rows[0].mass_above, rows[1].mass_above
    ok = m2 <= m1
    emit(capsys, f"criterion 7: {'PASS' if ok else 'FAIL'} - alpha {alpha}, mass(K > "
                 f"{rows[0].threshold:g}) j=1: {m1!r}, mass(K > {rows[1].threshold:g}) j=2: "
                 f"{m2!r}; requires j=2 <= j=1")
    assert m2 <= m1, (
        f"posterior mass above 2*K_n grew with the horizon for the master seed: "
        f"{m1!r} (j=1) -> {m2!r} (j=2) at alpha {alpha}: the K posterior overfits "
        f"the sieve's rate-optimal dimension"
    )


def test_criterion_08_marginal_normalization_no_warnings(capsys):
    config = GibbsConfig()
    basis = BasisSystem.trigonometric(config.D_prime, 320)
    psi = DEFAULT_VG_PARAMS.levy_density()
    theta_hat = project_density(basis, psi)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="warn"):
            marg = marginal_k(theta_hat, 320.0, config)
            norm_dev = abs(float(marg.probs.sum()) - 1.0)
    peak = float(marg.log_weights.max())
    ok = norm_dev < 1e-12 and not caught and peak > 709.78
    emit(capsys, f"criterion 8: {'PASS' if ok else 'FAIL'} - k_max=320 normalization off by "
                 f"{norm_dev:.3e} (tol 1e-12), {len(caught)} warnings, peak log-weight "
                 f"{peak:.1f} (naive exp would overflow past 709.78)")
    assert norm_dev < 1e-12
    assert not caught, [str(w.message) for w in caught]
    assert peak > 709.78  # the log-space path is actually load-bearing here
    assert marg.k_max == 320


def test_criterion_09_draw_frequencies_match_pmf(capsys):
    start = time.monotonic()
    config = GibbsConfig()
    basis = BasisSystem.trigonometric(config.D_prime, 320)
    psi = DEFAULT_VG_PARAMS.levy_density()
    theta_hat = project_density(basis, psi)
    marg = marginal_k(theta_hat, 320.0, config)
    num = 100_000
    draws = sample_posterior(theta_hat, 320.0, config, num, MASTER_SEED, grid_points=2)
    counts = np.bincount(draws.ks, minlength=321)[1:]
    # Per-cell binomial check on every cell with expected count >= 10.  With
    # ~7 such cells at 3 SE the chance of a spurious flag is about 2%, and the
    # draw seed is frozen, so this is a deterministic fixture rather than a
    # repeated statistical trial.
    cells = np.flatnonzero(marg.probs * num >= 10.0)
    se = np.sqrt(marg.probs[cells] * (1.0 - marg.probs[cells]) / num)
    devs = np.abs(counts[cells] / num - marg.probs[cells]) / se
    elapsed = time.monotonic() - start
    ok = len(cells) > 0 and float(devs.max()) < 3.0 and elapsed < 10.0
    emit(capsys, f"criterion 9: {'PASS' if ok else 'FAIL'} - {len(cells)} cells with expected "
                 f">= 10 draws, worst deviation {float(devs.max()):.2f} SE (limit 3) in {elapsed:.2f}s")
    assert len(cells) > 0
    assert float(devs.max()) < 3.0
    assert elapsed < 10.0
