"""Simulator tests: analytic moment oracles, reproducibility, file round trips.

Moment oracles are derived from the subordinated representation.  With
U ~ Gamma(shape=delta/nu, scale=nu) and Y | U ~ N(mu*U, sigma^2*U):

    E Y      = mu*delta
    Var Y    = sigma^2*delta + mu^2*nu*delta
    mu4(Y)   = mu^4*m4U + 6*mu^2*sigma^2*(m3U + delta*m2U) + 3*sigma^4*E[U^2]

with central gamma moments m2U = delta*nu, m3U = 2*delta*nu^2,
m4U = 3*delta^2*nu^2 + 6*delta*nu^3 and E[U^2] = delta*nu + delta^2.
Monte Carlo checks use 4-standard-error tolerances with fixed seeds.
"""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import expon, ks_2samp, norm, uniform

import levygibbs.processes as processes
import levygibbs.util as util
from levygibbs import (
    BLOCK,
    BasisSystem,
    CompoundPoissonParams,
    DomainError,
    IncrementSeries,
    InputParseError,
    JumpDistribution,
    ParameterError,
    RangeError,
    ResourceGuardError,
    SamplingScheme,
    VarianceGammaParams,
    Window,
    empirical_coefficients,
    parse_process,
    read_increments,
    simulate,
    write_increments,
)
from levygibbs.basis import TrigonometricBasis

from conftest import reference_write_increments

STUDY_VG = VarianceGammaParams(mu=0.0, sigma=3.7 * 10**-1.5, nu=2e-3)
DENSE_CP = CompoundPoissonParams(50.0, JumpDistribution.normal(0.01, 0.003))
BOTH_FAMILIES = pytest.mark.parametrize("model", [STUDY_VG, DENSE_CP], ids=["vg", "cpois"])


def reference_read_increments(path, delta=None):
    """The per-line float() reader the C-level parse replaced, kept as an oracle; it refuses values that are not finite."""
    header_n = header_seed = None
    values = []
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    first = lines[0].strip() if lines else ""
    if first.startswith("#"):
        delta, header_n, header_seed = processes._parse_header(path, first)
    elif delta is None:
        raise InputParseError(f"{path}: no header and no delta supplied; sampling spacing unknown")
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError as exc:
            raise InputParseError(f"{path}: line {lineno}: not a number: {text!r}") from exc
        if not math.isfinite(value):
            raise InputParseError(f"{path}: line {lineno}: not a finite number: {text!r}")
        values.append(value)
    if header_n is not None and header_n != len(values):
        raise InputParseError(
            f"{path}: header declares n={header_n} but file has {len(values)} increments"
        )
    if not values:
        raise InputParseError(f"{path}: no increments found")
    return np.asarray(values), len(values), delta, header_seed


def read_outcome(reader, path, delta):
    """(values bytes, n, delta, seed) of a read, or (exception type, message) of a refusal."""
    try:
        out = reader(path, delta)
    except InputParseError as exc:
        return type(exc), str(exc)
    if isinstance(out, IncrementSeries):
        out = (out.values, out.scheme.n, out.scheme.delta, out.seed)
    values, n, d, seed = out
    return values.tobytes(), n, d, seed


def spy_line_batches(monkeypatch):
    """The list to which each batch of lines the text reader reads appends its line count."""
    sizes, line_batches = [], processes._line_batches

    def spy(path, fh):
        for lines in line_batches(path, fh):
            sizes.append(len(lines))
            yield lines

    monkeypatch.setattr(processes, "_line_batches", spy)
    return sizes


def values_series(values, seed=None):
    """A streamed series of `values`, which may be non-finite: IncrementSeries(values=...) refuses those."""
    values = np.asarray(values, dtype=float)
    return IncrementSeries(
        SamplingScheme(1e-3, len(values)), seed, block_fn=lambda b: values[b * processes.BLOCK : (b + 1) * processes.BLOCK]
    )


def _write_and_fold(path):
    """write_increments and a fold of a 2,500-increment series; run by a multiprocessing.Pool worker too."""
    series = simulate(STUDY_VG, SamplingScheme(1e-3, 2500), seed=5, materialize=False)
    write_increments(path, series)
    return empirical_coefficients(series, BasisSystem.trigonometric(Window(-0.01, 0.01), 8)).values


def _pid_blocks(series):
    """Make every block of `series` the one value os.getpid() of the process that draws it."""
    series._block_fn = lambda b: np.array([float(os.getpid())])
    return series


def _worker_and_block_pids():
    """(this process's pid, the pid that masks each block of a 3-block series); run in a ProcessPoolExecutor worker."""
    series = _pid_blocks(simulate(STUDY_VG, SamplingScheme(1e-3, 2500), seed=5, materialize=False))
    return os.getpid(), [int(y[0]) for y in series.in_window(0.0, math.inf)]


def vg_moments(params, scheme):
    """(mean, variance, fourth central moment) of one VG increment."""
    d, nu = scheme.delta, params.nu
    mean = params.mu * d
    var = params.sigma**2 * d + params.mu**2 * nu * d
    m2u, m3u = d * nu, 2 * d * nu**2
    m4u = 3 * d**2 * nu**2 + 6 * d * nu**3
    m4 = (
        params.mu**4 * m4u
        + 6 * params.mu**2 * params.sigma**2 * (m3u + d * m2u)
        + 3 * params.sigma**4 * (d * nu + d**2)
    )
    return mean, var, m4


class TestSamplingScheme:
    def test_t_n_defaults_to_n_delta(self):
        s = SamplingScheme(1e-3, 10**6)
        assert s.t_n == 10**6 * 1e-3

    def test_t_n_is_derived(self):
        assert [f.name for f in dataclasses.fields(SamplingScheme)] == ["delta", "n"]
        with pytest.raises(TypeError):
            SamplingScheme(0.5, 100, 50.0)

    def test_invalid_scheme(self):
        with pytest.raises(ParameterError):
            SamplingScheme(0.0, 10)
        with pytest.raises(ParameterError):
            SamplingScheme(1e-3, 0)


class TestVarianceGamma:
    def test_moments_drifted(self):
        # (0.5, 0.1, 1e-2), delta=1e-3, n=1e6: mean and variance against the
        # analytic formulas, 4 SE each.
        params = VarianceGammaParams(0.5, 0.1, 1e-2)
        scheme = SamplingScheme(1e-3, 10**6)
        y = simulate(params, scheme, seed=0).values
        mean, var, m4 = vg_moments(params, scheme)
        se_mean = math.sqrt(var / scheme.n)
        se_var = math.sqrt((m4 - var**2) / scheme.n)
        assert abs(y.mean() - mean) < 4 * se_mean
        assert abs(y.var(ddof=1) - var) < 4 * se_var

    def test_moments_paper_params(self):
        params = STUDY_VG
        scheme = SamplingScheme(1e-3, 10**6)
        y = simulate(params, scheme, seed=0).values
        mean, var, m4 = vg_moments(params, scheme)
        assert abs(y.mean() - mean) < 4 * math.sqrt(var / scheme.n)
        assert abs(y.var(ddof=1) - var) < 4 * math.sqrt((m4 - var**2) / scheme.n)

    def test_zero_vol_zero_drift_gives_zeros(self):
        y = simulate(VarianceGammaParams(0.0, 0.0, 2e-3), SamplingScheme(0.1, 1000), seed=3)
        assert np.all(y.values == 0.0)

    def test_reproducible(self):
        scheme = SamplingScheme(1e-3, 50_000)
        a = simulate(STUDY_VG, scheme, seed=11).values
        b = simulate(STUDY_VG, scheme, seed=11).values
        assert np.array_equal(a, b)
        c = simulate(STUDY_VG, scheme, seed=12).values
        assert not np.array_equal(a, c)

    @BOTH_FAMILIES
    def test_streamed_equals_materialized(self, model):
        # Cross a block boundary so more than one substream is exercised.
        scheme = SamplingScheme(1e-3, BLOCK + 12_345)
        materialized = simulate(model, scheme, seed=5)
        mat = materialized.values
        streamed = simulate(model, scheme, seed=5, materialize=False)
        assert not streamed.materialized
        chunks = list(streamed.iter_chunks())
        assert len(chunks) == 2 and np.count_nonzero(chunks[1])
        assert np.array_equal(np.concatenate(chunks), mat)
        assert [c.tobytes() for c in materialized.iter_chunks()] == [c.tobytes() for c in chunks]

    @BOTH_FAMILIES
    def test_in_window_parallel_matches_serial(self, pooled_io, model):
        scheme = SamplingScheme(1e-3, 2 * BLOCK + 777)
        streamed = simulate(model, scheme, seed=5, materialize=False)
        materialized = simulate(model, scheme, seed=5)
        assert materialized.values.tobytes() == simulate(model, scheme, seed=5, materialize=False).values.tobytes()

        def masked(series, workers):
            return [y.tobytes() for y in series.in_window(0.005, 0.015, max_workers=workers)]

        serial = masked(streamed, 1)
        assert pooled_io.workers == []  # neither materializing nor one worker starts a pool
        assert len(serial) == 3 and all(0 < len(y) < 8 * BLOCK for y in serial)
        assert masked(streamed, 4) == masked(materialized, 1) == masked(materialized, 4) == serial
        pids = _pid_blocks(simulate(model, scheme, seed=5, materialize=False)).in_window(0.0, math.inf)
        assert len(pids) == 3 and os.getpid() not in np.concatenate(pids)
        assert pooled_io.workers == [2, 2, 2]  # pooled_io: 2 CPUs

    @pytest.mark.parametrize("source", ["vg-streamed", "cpois-materialized", "binary-file"])
    def test_in_window_blocks_are_the_masked_blocks(self, tmp_path, monkeypatch, pooled_io, source):
        monkeypatch.setattr(processes, "BLOCK", 1000)
        scheme, a, b = SamplingScheme(1e-3, 2500), 0.005, 0.015
        model = DENSE_CP if source == "cpois-materialized" else STUDY_VG
        values = simulate(model, scheme, seed=5).values
        if source == "binary-file":
            write_increments(tmp_path / "inc.bin", simulate(model, scheme, seed=5, materialize=False))
            series = read_increments(tmp_path / "inc.bin")
        else:
            series = simulate(model, scheme, seed=5, materialize=source == "cpois-materialized")
        expected = [chunk[(chunk >= a) & (chunk <= b)].tobytes() for chunk in np.split(values, [1000, 2000])]
        assert all(expected) and sum(map(len, expected)) < 8 * 2500 // 2
        pools = len(pooled_io.workers)
        for workers in (1, 2):
            assert [y.tobytes() for y in series.in_window(a, b, max_workers=workers)] == expected
        assert pooled_io.workers[pools:] == [2] and series.materialized == (source == "cpois-materialized")

    def test_fold_sums_every_block_in_this_process(self, monkeypatch, pooled_io):
        # The forked workers only draw and mask; each block's row sums run here, on threads.
        monkeypatch.setattr(processes, "BLOCK", 1000)
        calls = []
        row_sums = TrigonometricBasis._row_sums
        monkeypatch.setattr(TrigonometricBasis, "_row_sums", lambda self, x: calls.append(os.getpid()) or row_sums(self, x))
        series = simulate(STUDY_VG, SamplingScheme(1e-3, 2500), seed=5, materialize=False)
        theta = empirical_coefficients(series, BasisSystem.trigonometric(Window(-0.01, 0.01), 8)).values
        assert calls == [os.getpid()] * 3 and pooled_io.pools == 1 and pooled_io.workers == [2]
        assert np.count_nonzero(theta) == 8

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_fold_starts_one_pool_of_at_most_one_worker_per_block(self, monkeypatch, pooled_io, cpus):
        monkeypatch.setattr(processes, "_io_workers", lambda: cpus)
        monkeypatch.setattr(processes, "BLOCK", 1000)
        basis = BasisSystem.trigonometric(Window(-0.01, 0.01), 40)
        cp = CompoundPoissonParams(50.0, JumpDistribution.normal(0.0, 0.01))
        cases = [
            (simulate(STUDY_VG, SamplingScheme(1e-3, 2500), seed=5, materialize=False), 3),
            (simulate(cp, SamplingScheme(1e-2, 2000), seed=5), 2),
            (simulate(STUDY_VG, SamplingScheme(1e-3, 1000), seed=5, materialize=False), 1),
        ]
        for series, blocks in cases:
            pooled_io.workers.clear()
            theta = empirical_coefficients(series, basis).values
            assert pooled_io.workers == ([min(cpus, blocks)] if blocks > 1 else [])
            assert np.count_nonzero(theta) == basis.K
            for workers in (1, 2):
                assert np.array_equal(empirical_coefficients(series, basis, max_workers=workers).values, theta)

    @pytest.mark.parametrize("entry", ["in_window", "empirical_coefficients"])
    def test_max_workers_follows_the_count_rule(self, monkeypatch, pooled_io, entry):
        monkeypatch.setattr(processes, "BLOCK", 1000)
        series = simulate(STUDY_VG, SamplingScheme(1e-3, 2500), seed=5, materialize=False)
        basis = BasisSystem.trigonometric(Window(-0.01, 0.01), 8)
        drawn = []
        block_fn = series._block_fn
        monkeypatch.setattr(series, "_block_fn", lambda b: drawn.append(b) or block_fn(b))
        call = {
            "in_window": lambda workers: [y.tobytes() for y in series.in_window(-0.01, 0.01, max_workers=workers)],
            "empirical_coefficients": lambda workers: empirical_coefficients(series, basis, max_workers=workers).values.tobytes(),
        }[entry]
        for bad in (2.5, True, 0, -1):
            with pytest.raises(ParameterError, match=re.escape(f"max_workers must be a positive integer, got {bad!r}")):
                call(bad)
        assert drawn == [] and pooled_io.workers == []
        assert call(np.int64(2)) == call(None)
        assert pooled_io.workers == [2, 2]

    def test_worker_error_reaches_caller(self, monkeypatch, pooled_io):
        monkeypatch.setattr(processes, "BLOCK", 1000)
        series = simulate(STUDY_VG, SamplingScheme(1e-3, 2500), seed=5, materialize=False)
        block_fn = series._block_fn

        def refuse_short_block(b):
            chunk = block_fn(b)
            if len(chunk) < 1000:
                raise ResourceGuardError(f"block of {len(chunk)} refused")
            return chunk

        monkeypatch.setattr(series, "_block_fn", refuse_short_block)
        with pytest.raises(ResourceGuardError) as excinfo:
            series.in_window(-0.01, 0.01)
        assert excinfo.type is ResourceGuardError and str(excinfo.value) == "block of 500 refused"
        assert pooled_io.workers == [2] and multiprocessing.active_children() == []

    def test_daemonic_process_maps_in_process(self, tmp_path, monkeypatch, pooled_io):
        # A multiprocessing.Pool worker may not start processes; pooled_io would otherwise fork.
        monkeypatch.setattr(processes, "BLOCK", 1000)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            daemonic = pool.apply_async(_write_and_fold, (tmp_path / "daemonic.txt",)).get(timeout=60)
        here = _write_and_fold(tmp_path / "here.txt")
        assert pooled_io.workers == [2, 2]  # the 3-block file and the 3-block fold
        assert (tmp_path / "daemonic.txt").read_bytes() == (tmp_path / "here.txt").read_bytes()
        assert np.array_equal(daemonic, here)

    def test_pool_worker_maps_in_process(self, monkeypatch, pooled_io):
        # A ProcessPoolExecutor worker is not daemonic, but it is started by multiprocessing, so it starts no pool.
        monkeypatch.setattr(processes, "BLOCK", 1000)
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            worker, pids = pool.submit(_worker_and_block_pids).result(timeout=60)
        assert worker != os.getpid() and pids == [worker] * 3

    def test_symmetry_ks(self):
        # mu = 0 makes the increment law symmetric: Y and -Y agree, two-sample
        # KS below the 1% critical value c(0.01)*sqrt(2/n).
        n = 10**5
        y = simulate(STUDY_VG, SamplingScheme(1e-3, n), seed=0).values
        stat = ks_2samp(y, -y).statistic
        assert stat < 1.628 * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            simulate(STUDY_VG, SamplingScheme(1e-3, 10), seed=seed, materialize=False)

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            VarianceGammaParams(0.0, 0.1, 0.0)
        with pytest.raises(ParameterError):
            VarianceGammaParams(0.0, -0.1, 1e-3)


class TestCompoundPoisson:
    def test_tiny_rate_all_zero(self):
        # Poisson(1e-9) counts over 1e3 increments: zero with prob ~ 1-1e-6.
        params = CompoundPoissonParams(1e-6, JumpDistribution.point(1.0))
        y = simulate(params, SamplingScheme(1e-3, 1000), seed=0)
        assert np.all(y.values == 0.0)

    def test_point_mass_mean(self):
        params = CompoundPoissonParams(2.0, JumpDistribution.point(1.0))
        scheme = SamplingScheme(0.5, 10**5)
        y = simulate(params, scheme, seed=0).values
        # mean = lambda*delta*c = 1, Var = lambda*delta*c^2 = 1
        assert abs(y.mean() - 1.0) < 4 * math.sqrt(1.0 / scheme.n)

    def test_normal_jump_variance(self):
        params = CompoundPoissonParams(1.0, JumpDistribution.normal(0.0, 1.0))
        scheme = SamplingScheme(1.0, 10**5)
        y = simulate(params, scheme, seed=0).values
        # Var = lambda*delta*E[x^2] = 1; mu4 = lambda*delta*E[x^4] + 3*Var^2 = 6.
        se_var = math.sqrt((6.0 - 1.0) / scheme.n)
        assert abs(y.var(ddof=1) - 1.0) < 4 * se_var

    def test_point_mass_multiples(self):
        c = 0.7
        params = CompoundPoissonParams(3.0, JumpDistribution.point(c))
        y = simulate(params, SamplingScheme(0.25, 20_000), seed=2).values
        counts = np.round(y / c)
        assert np.array_equal(y, counts * c)
        assert counts.max() > 1  # the multiple-jump case actually occurred

    def test_rate_must_be_positive(self):
        with pytest.raises(ParameterError):
            CompoundPoissonParams(0.0, JumpDistribution.point(1.0))

    def test_point_jumps_draw_nothing(self):
        rng = np.random.default_rng(3)
        assert JumpDistribution.point(0.7).sample(rng, 3).tolist() == [0.7, 0.7, 0.7]
        assert rng.random() == np.random.default_rng(3).random()

    def test_block_without_jumps_is_float64_zeros(self):
        params = CompoundPoissonParams(1e-9, JumpDistribution.normal(0.01, 0.003))
        block = params.block(SamplingScheme(1e-3, 4096), 0, 0)
        assert block.dtype == np.float64 and block.tobytes() == np.zeros(4096).tobytes()
        # At seed 6, block 0 draws no jump and block 1 one jump: sha256 of block 1.
        params = CompoundPoissonParams(1e-3, JumpDistribution.uniform(0.005, 0.02))
        scheme = SamplingScheme(1e-3, 2 * BLOCK)
        assert params.block(scheme, 6, 0).tobytes() == np.zeros(BLOCK).tobytes()
        digest = hashlib.sha256(params.block(scheme, 6, 1).tobytes()).hexdigest()
        assert digest == "487bf627ba9614342d2e2659af3ce95491f99359d1df91ff025f19e2a8153263"

    def test_jump_guard(self, monkeypatch):
        # A rate numpy's Poisson sampler refuses is refused before the counts are drawn.
        with pytest.raises(ResourceGuardError, match=r"^block 0 expects jumps=4e\+300 is above the materialization limit"):
            CompoundPoissonParams(1e300, JumpDistribution.normal(0.0, 1.0)).block(SamplingScheme(1.0, 4), 0, 0)
        # Expected total 1.25 * 8 = 10 is at the limit; seed 2 draws 13 jumps and seed 3 draws 10.
        monkeypatch.setattr(util, "MATERIALIZE_LIMIT", 10)
        params = CompoundPoissonParams(1.25, JumpDistribution.normal(0.0, 1.0))
        with pytest.raises(ResourceGuardError, match="^block 0 drew jumps=13 is above the materialization limit of 10$"):
            params.block(SamplingScheme(1.0, 8), 2, 0)
        assert np.count_nonzero(params.block(SamplingScheme(1.0, 8), 3, 0)) > 0
        with pytest.raises(ResourceGuardError, match="^block 0 expects jumps=10.5 is above the materialization limit of 10$"):
            CompoundPoissonParams(1.5, JumpDistribution.point(1.0)).block(SamplingScheme(1.0, 7), 0, 0)

    # sha256 of block 0 and of the 1,000-increment last block at seed 20211, rate 50, delta 0.01.
    FROZEN_BLOCKS = {
        "point:0.7": (
            "7132defb374b97796d82bcbe2545c3b885496e05f377ddbcb9b63ec12420ec1f",
            "a9d7444692a5b9cc720fc0ba1af9f5be8faaeda5dbc3d077dc60889ddaca138c",
        ),
        "normal:0.01,0.003": (
            "e12e3228411021b34e6021d35f95f3561d5f89614f7bfd4ee3c85140da1a34f1",
            "a1ae36da97e218bfeb33e23a3d04aec04eb4693c4053d575a47a58c06a1f9d6f",
        ),
        "uniform:-0.02,0.03": (
            "9537364eafc3ff0de44fb2dbb566cdd20d631f2e3da6dbdd27a217bbce71bba6",
            "43172c43fb8199ed87094603ad0c7895831c386e05472dba054f458ac41d4d72",
        ),
        "exponential:0.01": (
            "53950ab3ed1f68e0bb4fa1fb6fa26164f2b13e7512e65f85842faf91f33bbda6",
            "c4524eea13ce0dbeae20d628592765f6b0e222d04271ffbe17f2d059806acf04",
        ),
    }

    @pytest.mark.parametrize("jumps", sorted(FROZEN_BLOCKS))
    def test_frozen_block_digests(self, jumps):
        # Pins the Philox stream of every jump kind bit for bit.
        params = parse_process(f"cpois:50,{jumps}")
        scheme = SamplingScheme(1e-2, BLOCK + 1000)
        digests = tuple(hashlib.sha256(params.block(scheme, 20211, b).tobytes()).hexdigest() for b in (0, 1))
        assert digests == self.FROZEN_BLOCKS[jumps]


# Strategies for every process model: both families and all four jump kinds, each within its parameter rules.
FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
JUMPS = st.one_of(
    st.builds(JumpDistribution.point, FINITE),
    st.builds(JumpDistribution.normal, FINITE, st.floats(min_value=0.0, max_value=1e6)),
    st.builds(lambda lo, width: JumpDistribution.uniform(lo, lo + width), FINITE, POSITIVE),
    st.builds(JumpDistribution.exponential, POSITIVE),
)
MODELS = st.one_of(
    st.builds(VarianceGammaParams, FINITE, st.floats(min_value=0.0, max_value=1e6), POSITIVE),
    st.builds(CompoundPoissonParams, POSITIVE, JUMPS),
)


class TestParseProcess:
    def test_parse_forms(self):
        assert parse_process("vg:0,0.117,0.002") == VarianceGammaParams(0.0, 0.117, 0.002)
        assert parse_process("cpois:2,point:1") == CompoundPoissonParams(2.0, JumpDistribution.point(1.0))
        assert parse_process("cpois:2,normal:0,1") == CompoundPoissonParams(2.0, JumpDistribution.normal(0.0, 1.0))
        assert parse_process("cpois:2,uniform:-1,2") == CompoundPoissonParams(2.0, JumpDistribution.uniform(-1.0, 2.0))
        assert parse_process("cpois:2,exponential:0.5") == CompoundPoissonParams(2.0, JumpDistribution.exponential(0.5))

    def test_rejects_garbage(self):
        # Bad jump specs inside a cpois: spec, then malformed or refused specs of both families.
        for text in (
            "cpois:1,gamma:1", "cpois:1,normal:0", "cpois:1,point:", "cpois:1,point:1,2", "cpois:1,normal:a,b",
            "vg:0,1", "vg:0,x,1", "gauss:1", "cpois:1", "cpois:0,point:1", "vg:0,1,0", "vg:0,-1,1", "vg", "",
        ):
            with pytest.raises(InputParseError):
                parse_process(text)

    @given(model=MODELS)
    @settings(max_examples=200, deadline=None)
    def test_spec_round_trip(self, model):
        assert parse_process(model.spec()) == model

    def test_spec_of_the_study_truth(self):
        assert STUDY_VG.spec() == "vg:0.0,0.11700427342623003,0.002"
        assert DENSE_CP.spec() == "cpois:50.0,normal:0.01,0.003"


class TestTrueDensity:
    def test_symmetric_when_mu_zero(self):
        # Decaying convention: both tails fall off and psi(x) = psi(-x).
        psi = STUDY_VG.levy_density()
        x = np.array([0.002, 0.01, 0.04])
        np.testing.assert_allclose(psi(x), psi(-x), rtol=1e-15)

    def test_printed_branch_value(self):
        # eta = sigma*sqrt(nu/2) = 0.0037; as printed the x>0 branch carries
        # exp(+x/eta): psi(0.01) = 500*100*exp(0.01/0.0037).
        psi = STUDY_VG.levy_density(decaying=False)
        eta = STUDY_VG.sigma * math.sqrt(STUDY_VG.nu / 2.0)
        assert abs(eta - 0.0037) < 1e-15
        expect = (1.0 / STUDY_VG.nu) * (1.0 / 0.01) * math.exp(0.01 / eta)
        assert abs(psi(0.01) - expect) < 1e-9 * expect
        # negative branch decays either way
        expect_neg = (1.0 / STUDY_VG.nu) * (1.0 / 0.01) * math.exp(-0.01 / eta)
        assert abs(psi(-0.01) - expect_neg) < 1e-9 * expect_neg

    def test_decaying_flag_flips_positive_branch(self):
        printed = STUDY_VG.levy_density(decaying=False)
        decaying = STUDY_VG.levy_density()
        assert decaying(0.01) < printed(0.01)
        assert decaying(-0.01) == printed(-0.01)

    def test_eta_branches_with_drift(self):
        params = VarianceGammaParams(0.3, 0.1, 1e-2)
        psi = params.levy_density(decaying=False)
        root = math.sqrt(params.mu**2 * params.nu**2 / 4.0 + params.sigma**2 * params.nu / 2.0)
        eta_pos = root + params.mu * params.nu / 2.0
        eta_neg = root - params.mu * params.nu / 2.0
        x = 0.02
        assert abs(psi(x) - math.exp(x / eta_pos) / (params.nu * x)) < 1e-9 * psi(x)
        assert abs(psi(-x) - math.exp(-x / eta_neg) / (params.nu * x)) < 1e-9 * psi(-x)

    def test_origin_is_domain_error(self):
        psi = STUDY_VG.levy_density(decaying=False)
        with pytest.raises(DomainError):
            psi(0.0)
        with pytest.raises(DomainError):
            psi(np.array([0.01, 0.0]))

    def test_prefactor_vanishes_with_large_nu(self):
        x = 0.01
        small = VarianceGammaParams(0.0, 0.1, 1e6).levy_density()(x)
        assert small < 1e-4

    def test_degenerate_density_rejected(self):
        with pytest.raises(ParameterError):
            VarianceGammaParams(0.0, 0.0, 1e-3).levy_density(decaying=False)

    def test_compound_poisson_is_rate_times_jump_pdf(self):
        x = np.linspace(-0.05, 0.05, 1000)
        assert not np.any(x == 0.0)
        normal = CompoundPoissonParams(320.0, JumpDistribution.normal(0.01, 0.003))
        # The closed form the dense-window benchmark writes out by hand, bit for bit.
        z = (x - 0.01) / 0.003
        assert np.array_equal(normal.levy_density()(x), 320.0 * np.exp(-0.5 * z * z) / (0.003 * math.sqrt(2.0 * math.pi)))
        np.testing.assert_allclose(normal.levy_density()(x), 320.0 * norm.pdf(x, 0.01, 0.003), rtol=1e-13)
        flat = CompoundPoissonParams(7.0, JumpDistribution.uniform(-0.02, 0.03))
        np.testing.assert_allclose(flat.levy_density()(x), 7.0 * uniform.pdf(x, -0.02, 0.05), rtol=1e-13)
        assert np.count_nonzero(flat.levy_density()(x)) == np.count_nonzero((x >= -0.02) & (x <= 0.03))
        exponential = CompoundPoissonParams(2.5, JumpDistribution.exponential(0.01))
        np.testing.assert_allclose(exponential.levy_density()(x), 2.5 * expon.pdf(x, scale=0.01), rtol=1e-13)
        assert exponential.levy_density()(0.02) == pytest.approx(2.5 * 100.0 * math.exp(-2.0), rel=1e-15)
        assert normal.levy_density().family == "compound-poisson"

    @pytest.mark.parametrize("jumps", [JumpDistribution.point(0.01), JumpDistribution.normal(0.01, 0.0)])
    def test_compound_poisson_without_jump_density_refused(self, jumps):
        with pytest.raises(ParameterError, match="no Levy density"):
            CompoundPoissonParams(50.0, jumps).levy_density()


class TestIncrementFiles:
    def test_round_trip_exact(self, tmp_path):
        scheme = SamplingScheme(1e-3, 4096)
        series = simulate(STUDY_VG, scheme, seed=9)
        path = tmp_path / "inc.bin"
        write_increments(path, series)
        back = read_increments(path)
        assert back.scheme.n == scheme.n
        assert back.scheme.delta == scheme.delta
        assert np.array_equal(back.values, series.values)

    def test_round_trip_across_blocks_bit_for_bit(self, tmp_path):
        scheme = SamplingScheme(1e-2, BLOCK + 3)  # two blocks, the last one of 3 values
        series = simulate(DENSE_CP, scheme, seed=6, materialize=False)
        path = tmp_path / "inc.bin"
        write_increments(path, series)
        back = read_increments(path, delta=0.5)  # the header's delta wins
        assert (back.scheme, back.seed) == (scheme, 6)
        assert back.values.tobytes() == series.values.tobytes() and np.count_nonzero(back.values[BLOCK:])
        assert path.stat().st_size == path.read_bytes().index(b"\n") + 1 + 8 * scheme.n

    def test_header_carries_metadata(self, tmp_path):
        for seed, written in ((1, 1), (None, None)):
            path = tmp_path / "inc.bin"
            write_increments(path, IncrementSeries(SamplingScheme(0.25, 8), seed, values=np.arange(8.0)))
            first, body = path.read_bytes().split(b"\n", 1)
            assert json.loads(first) == {
                "format": "levygibbs-increments", "version": 1, "delta": 0.25, "n": 8, "seed": written,
            }
            assert list(json.loads(first)) == ["format", "version", "delta", "n", "seed"]
            assert body == np.arange(8.0).astype("<f8").tobytes()
            assert read_increments(path).seed == written

    def test_headerless_needs_delta(self, tmp_path):
        series = simulate(STUDY_VG, SamplingScheme(0.25, 8), seed=1)
        path = tmp_path / "inc.txt"
        reference_write_increments(path, series, header=False)
        with pytest.raises(InputParseError):
            read_increments(path)
        back = read_increments(path, delta=0.25)
        assert np.array_equal(back.values, series.values)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\nnot-a-number\n1.5\n")
        with pytest.raises(InputParseError, match="line 2"):
            read_increments(path, delta=1.0)


SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    9.999999999999999e16, 1e16, 1e17, 1e-4, 1e-5, 0.1, -0.1,
]

# Files the reader must accept or refuse exactly as the per-line float() loop does.
READER_CASES = {
    "crlf": b"# delta=0.5 n=3 seed=1\r\n0.1\r\n-2\r\n3e-5\r\n",
    "lone_cr": b"0.1\r0.2\r",
    "blank_and_padding": b"\n  0.5  \n\n\t-1.25\t\n   \n7\n",
    "no_final_newline": b"# delta=0.5 n=2 seed=\n0.1\n0.2",
    "mid_file_comment": b"# delta=0.5 n=2 seed=4\n0.1\n# note\n0.2\n",
    "inline_comment": b"0.1 # c\n0.2\n",
    "two_tokens": b"0.1 0.2\n",
    "two_tokens_every_line": b"0.1 0.2\n0.3 0.4\n",
    "specials": b"nan\ninf\n-Infinity\n+1e5\n-0\n-nan\nINF\n",
    "underscore": b"1_0\n2\n",
    "hex": b"0x1p3\n",
    "overflow": b"1e400\n-1e400\n",
    "decimal_comma": b"1,5\n",
    "header_only": b"# delta=0.5 n=3 seed=1\n",
    "header_only_n0": b"# delta=0.5 n=0 seed=1\n",
    "header_count_mismatch": b"# delta=0.5 n=3 seed=1\n0.1\n0.2\n",
    "header_count_exceeded": b"# delta=0.5 n=1 seed=1\n0.1\n0.2\n0.3\n",
    "header_negative_n": b"# delta=0.5 n=-2 seed=1\n0.1\n",
    "empty": b"",
    "blank_only": b"\n \n\t\n",
    "non_header_first_line": b"# hello\n0.1\n",
    "blank_before_header": b"\n# delta=0.5 n=1 seed=1\n0.1\n",
    "quoted": b'"0.1"\n',
    "nul": b"0.1\n\x00\n",
    "nul_in_value": b"0.1\x00\n",
    "form_feed": b"0.1\x0c\n\x0c\n0.2\n",
    "vertical_tab": b"0.1\x0b0.2\n",
    "vertical_tab_padding": b"\x0b0.1\x0b\n",
    "late_bad_line": b"".join(b"%d\n" % i for i in range(300)) + b"x\n",
}


class TestIncrementFileEquivalence:
    """The binary round trip of special values, and the text reader's batched parse against the per-line loop."""

    def test_writer_round_trips_special_values(self, tmp_path):
        path = tmp_path / "inc.bin"
        write_increments(path, values_series(SPECIAL_VALUES))
        assert read_increments(path).values.tobytes() == np.array(SPECIAL_VALUES).tobytes()

    @pytest.mark.parametrize("name", sorted(READER_CASES))
    @pytest.mark.parametrize("delta", [None, 0.25])
    def test_reader_matches_line_loop(self, tmp_path, name, delta):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(READER_CASES[name])
        assert read_outcome(read_increments, path, delta) == read_outcome(reference_read_increments, path, delta)

    @pytest.mark.parametrize("header", [True, False])
    def test_reader_matches_line_loop_across_batches(self, tmp_path, monkeypatch, header):
        # 64-character reads feed a 3003-line file to the one parse rule in many batches.
        path = tmp_path / "inc.txt"
        reference_write_increments(path, simulate(STUDY_VG, SamplingScheme(1.5625e-05, 3003), seed=2), header=header)
        monkeypatch.setattr(processes, "READ_BATCH", 64)
        for tail in (b"", b"\n\n0.5\n", b"1_0\n"):  # "1_0": only the line loop accepts it
            path.write_bytes(path.read_bytes() + tail)
            expected = read_outcome(reference_read_increments, path, 1.0)
            assert read_outcome(read_increments, path, 1.0) == expected

    def test_one_parse_call_per_batch_without_max_rows(self, tmp_path, monkeypatch):
        # One np.fromiter call per batch, sized to the batch's value lines, so nothing is reserved ahead.
        calls, fromiter = [], np.fromiter

        def spy(iterable, dtype, count):
            calls.append(count)
            return fromiter(iterable, dtype, count)

        monkeypatch.setattr(np, "fromiter", spy)
        batches = spy_line_batches(monkeypatch)
        path = tmp_path / "inc.txt"
        series = simulate(STUDY_VG, SamplingScheme(1e-3, 10), seed=1)
        reference_write_increments(path, series)
        assert len(read_increments(path)) == 10
        reference_write_increments(path, series, header=False)
        assert len(read_increments(path, delta=1e-3)) == 10
        path.write_text("# delta=0.5 n=1 seed=1\n" + "0.5\n" * 10)  # the header undercounts
        with pytest.raises(InputParseError, match="file has 10 increments"):
            read_increments(path)
        assert batches == [11, 10, 11] and calls == [10, 10, 10]

    def test_line_loop_runs_on_refused_batches_only(self, tmp_path, monkeypatch):
        monkeypatch.setattr(processes, "READ_BATCH", 16)
        seen = []
        parse_lines = processes._parse_lines

        def spy(path, lines, first_lineno, limit):
            seen.append(len(lines))
            return parse_lines(path, lines, first_lineno, limit)

        monkeypatch.setattr(processes, "_parse_lines", spy)
        body = [b"%d.5\n" % i for i in range(60)]  # 4 or 5 characters a line: 3 or 4 lines a batch
        path = tmp_path / "inc.txt"
        path.write_bytes(b"# delta=0.5 n=60 seed=1\n" + b"".join(body[:10] + [b"# note\n"] + body[10:]))
        expected = read_outcome(reference_read_increments, path, None)
        assert read_outcome(read_increments, path, None) == expected
        assert len(seen) == 1 and seen[0] < 8
        path.write_bytes(path.read_bytes() + b"".join(body[:30]) + b"x\n" + b"".join(body[:10]))
        seen.clear()
        expected = read_outcome(reference_read_increments, path, None)
        assert expected[0] is InputParseError and "line 93:" in expected[1]
        assert read_outcome(read_increments, path, None) == expected
        assert len(seen) == 2 and max(seen) < 8

    @given(
        lines=st.lists(
            st.text(alphabet="0123456789.eE+-_xpnaifINF #,\t\x0b\x0c\x1c\x00\r", max_size=8),
            max_size=6,
        ),
        header=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_reader_matches_line_loop_fuzzed(self, tmp_path_factory, lines, header):
        path = tmp_path_factory.mktemp("fuzz") / "inc.txt"
        text = ("# delta=0.5 n=%d seed=1\n" % len(lines) if header else "") + "\n".join(lines)
        path.write_bytes(text.encode("ascii"))
        assert read_outcome(read_increments, path, 1.0) == read_outcome(reference_read_increments, path, 1.0)


class TestReaderGuards:
    def test_header_above_limit_refused_before_parsing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(processes, "MATERIALIZE_LIMIT", 4)
        path = tmp_path / "inc.txt"
        path.write_bytes(b"# delta=0.5 n=5 seed=1\nnot-a-number\n")
        with pytest.raises(ResourceGuardError, match="n=5"):
            read_increments(path)

    @pytest.mark.parametrize("first", [b"1", b"1_0"])  # "1_0": a float() spelling numpy's own parsers refuse
    def test_headerless_body_above_limit_refused(self, tmp_path, monkeypatch, first):
        monkeypatch.setattr(processes, "MATERIALIZE_LIMIT", 4)
        path = tmp_path / "inc.txt"
        path.write_bytes(first + b"\n\n2\n\n3\n\n4\n\n")  # blank lines do not count
        assert len(read_increments(path, delta=0.5)) == 4
        path.write_bytes(path.read_bytes() + b"5\nnot-a-number\n")
        with pytest.raises(ResourceGuardError, match="more than 4"):
            read_increments(path, delta=0.5)

    def test_lone_cr_header_line_is_read_alone(self, tmp_path, monkeypatch):
        # Universal newlines end line 1 at its CR, so the header is refused before the 8 MB body is read.
        monkeypatch.setattr(processes, "MATERIALIZE_LIMIT", 4)
        path = tmp_path / "inc.txt"
        path.write_bytes(b"# delta=0.5 n=5 seed=1\r" + b"0.1\r" * 2_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError, match="n=5"):
                read_increments(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_long_later_line_refused_without_reading_it_whole(self, tmp_path):
        path = tmp_path / "inc.txt"
        path.write_bytes(b"0.5\n" + b"1" * (8 << 20) + b"\n0.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(InputParseError, match="line 2: longer than 4096 characters"):
                read_increments(path, delta=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @pytest.mark.parametrize("read_batch", [processes.READ_BATCH, 64], ids=["one_read", "64_char_reads"])
    @pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "unterminated_last"])
    def test_line_bound_is_4096_characters(self, tmp_path, monkeypatch, read_batch, where):
        monkeypatch.setattr(processes, "READ_BATCH", read_batch)
        path = tmp_path / "inc.txt"
        for width in (4095, 4096):
            lines = [b"0.5", b"0.5", b"0.5"]
            lines[where] = b"0" * (width - 1) + b"1"
            path.write_bytes(b"\n".join(lines) + (b"" if where == 2 else b"\n"))
            if width == 4095:
                assert read_increments(path, delta=0.5).values.tolist() == [1.0 if i == where else 0.5 for i in range(3)]
            else:
                with pytest.raises(InputParseError, match=f"line {where + 1}: longer than 4096 characters"):
                    read_increments(path, delta=0.5)

    def test_non_ascii_is_parse_error_naming_file(self, tmp_path):
        path = tmp_path / "inc.txt"
        path.write_bytes(b"0.1\n0.\xe92\n")
        with pytest.raises(InputParseError, match=r"inc\.txt: not ASCII text \(byte 0xe9\)"):
            read_increments(path, delta=0.5)

    def test_missing_delta_refused_before_body(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(processes, "_read_body", lambda *args: calls.append(args))
        path = tmp_path / "inc.txt"
        for body in (b"0.1\nbad\n", b"bad\n", b""):
            path.write_bytes(body)
            with pytest.raises(InputParseError, match="no header and no delta supplied"):
                read_increments(path)
        assert calls == []

    @pytest.mark.parametrize("delta", ["-1", "0", "nan", "inf"])
    def test_bad_header_delta_refused_before_body(self, tmp_path, monkeypatch, delta):
        calls = []
        monkeypatch.setattr(processes, "_read_body", lambda *args: calls.append(args))
        path = tmp_path / "inc.txt"
        path.write_text(f"# delta={delta} n=3 seed=1\n0.1\n0.2\n0.3\n")
        with pytest.raises(InputParseError, match=r"inc\.txt: line 1: header delta must be positive and finite"):
            read_increments(path)
        assert calls == []

    def test_malformed_header_names_file(self, tmp_path):
        path = tmp_path / "inc.txt"
        path.write_text("# delta=0.5 n=three seed=1\n0.1\n")
        with pytest.raises(InputParseError, match=r"inc\.txt: line 1: malformed header"):
            read_increments(path)

    @pytest.mark.parametrize("header, message", [
        ("# delta=0.5 n=3 sede=4 delta=0.25", "unknown header key 'sede'"),
        ("# delta=0.5 n=3 seed=4 delta=0.25", "repeated header key 'delta'"),
        ("# delta=0.5 n=3 seed= seed=4", "repeated header key 'seed'"),
        ("# delta=0.5 n=3 seed=-7", "header seed must be a non-negative integer, got -7"),
    ], ids=["unknown key", "repeated delta", "repeated seed", "negative seed"])
    def test_header_keys_and_seed_refused_before_body(self, tmp_path, monkeypatch, header, message):
        calls = []
        monkeypatch.setattr(processes, "_read_body", lambda *args: calls.append(args))
        path = tmp_path / "inc.txt"
        path.write_text(header + "\n0.1\n0.2\n0.3\n")
        with pytest.raises(InputParseError) as excinfo:
            read_increments(path)
        assert str(excinfo.value).startswith(f"{path}: line 1: {message}")
        assert calls == []

    @pytest.mark.parametrize("delta", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_delta_argument_refused_before_body(self, tmp_path, monkeypatch, delta):
        calls = []
        monkeypatch.setattr(processes, "_read_body", lambda *args: calls.append(args))
        path = tmp_path / "inc.txt"
        path.write_text("0.1\n0.2\n")
        with pytest.raises(ParameterError, match="delta must be positive and finite"):
            read_increments(path, delta=delta)
        assert calls == []

    @pytest.mark.parametrize("delta", ["1e-3", True, math.nan])
    @pytest.mark.parametrize("header", ["", "# delta=0.5 n=2 seed=1\n"], ids=["headerless", "headed"])
    def test_delta_argument_follows_the_real_rule(self, tmp_path, monkeypatch, delta, header):
        calls = []
        monkeypatch.setattr(processes, "_read_body", lambda *args: calls.append(args))
        path = tmp_path / "inc.txt"
        path.write_text(header + "0.1\n0.2\n")
        with pytest.raises(ParameterError, match=re.escape(f"delta must be positive and finite, got {delta!r}")):
            read_increments(path, delta=delta)
        assert calls == []


class TestPooledIncrementFiles:
    """Under the pooled_io fixture, binary files written by forked workers give the same bytes, and text reads start no pool."""

    def test_writer_bytes(self, tmp_path, monkeypatch, pooled_io):
        vg = simulate(STUDY_VG, SamplingScheme(1.5625e-05, 200), seed=7, materialize=False)
        special = values_series(SPECIAL_VALUES + [math.inf, -math.inf, math.nan], seed=3)
        monkeypatch.setattr(processes, "BLOCK", 5)  # blocks of 5; the 15 specials make 3 of them
        for series in (vg, special):
            pooled, one = tmp_path / "pooled.bin", tmp_path / "one.bin"
            pools = pooled_io.pools
            write_increments(pooled, series)
            assert pooled_io.pools == pools + 1
            with monkeypatch.context() as m:
                m.setattr(processes, "_io_workers", lambda: 1)
                write_increments(one, series)
            assert pooled_io.pools == pools + 1
            assert pooled.read_bytes() == one.read_bytes()
            assert pooled.read_bytes().endswith(series.values.astype("<f8").tobytes())

    def test_text_reads_run_in_process(self, tmp_path, pooled_io):
        path = tmp_path / "inc.bin"
        write_increments(path, values_series([0.5, -0.25, 1.0]))  # one block
        assert read_increments(path).values.tolist() == [0.5, -0.25, 1.0]
        path.write_bytes(b"".join(b"%d.5\n" % i for i in range(3000)))
        assert read_outcome(read_increments, path, 1.0) == read_outcome(reference_read_increments, path, 1.0)
        assert pooled_io.pools == 0

    @pytest.mark.parametrize("name", sorted(READER_CASES))
    def test_reader_matches_line_loop(self, tmp_path, monkeypatch, pooled_io, name):
        monkeypatch.setattr(processes, "READ_BATCH", 4)  # about one line a batch
        path = tmp_path / f"{name}.txt"
        path.write_bytes(READER_CASES[name])
        for delta in (None, 0.25):
            assert read_outcome(read_increments, path, delta) == read_outcome(reference_read_increments, path, delta)
        assert pooled_io.pools == 0

    @pytest.mark.parametrize("header", [True, False])
    def test_reader_matches_line_loop_across_batches(self, tmp_path, monkeypatch, pooled_io, header):
        path = tmp_path / "inc.txt"
        reference_write_increments(path, simulate(STUDY_VG, SamplingScheme(1.5625e-05, 3003), seed=2), header=header)
        monkeypatch.setattr(processes, "READ_BATCH", 1)  # one line a batch: 3003 or more parse calls
        for tail in (b"", b"\n\n0.5\n", b"1_0\n"):
            path.write_bytes(path.read_bytes() + tail)
            expected = read_outcome(reference_read_increments, path, 1.0)
            assert read_outcome(read_increments, path, 1.0) == expected
        assert pooled_io.pools == 0

    @given(
        lines=st.lists(
            st.text(alphabet="0123456789.eE+-_xpnaifINF #,\t\x0b\x0c\x1c\x00\r", max_size=8),
            max_size=6,
        ),
        header=st.booleans(),
    )
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reader_matches_line_loop_fuzzed(self, tmp_path_factory, monkeypatch, pooled_io, lines, header):
        # The patches hold for every example, which is what this test wants: batches of about one line.
        monkeypatch.setattr(processes, "READ_BATCH", 4)
        path = tmp_path_factory.mktemp("fuzz") / "inc.txt"
        text = ("# delta=0.5 n=%d seed=1\n" % len(lines) if header else "") + "\n".join(lines)
        path.write_bytes(text.encode("ascii"))
        assert read_outcome(read_increments, path, 1.0) == read_outcome(reference_read_increments, path, 1.0)
        assert pooled_io.pools == 0

    @pytest.mark.parametrize("ends", [(b"\r\n",), (b"\r", b"\n"), (b"\n", b"\r\n", b"\r")])
    def test_line_numbers_across_cr_line_ends(self, tmp_path, monkeypatch, pooled_io, ends):
        monkeypatch.setattr(processes, "READ_BATCH", 16)  # 3 or 4 lines a batch
        lines = [b"%d.5" % i for i in range(40)] + [b"bad"]
        path = tmp_path / "inc.txt"
        path.write_bytes(b"".join(line + ends[i % len(ends)] for i, line in enumerate(lines)))
        expected = read_outcome(reference_read_increments, path, 0.5)
        assert expected == (InputParseError, f"{path}: line 41: not a number: 'bad'")
        assert read_outcome(read_increments, path, 0.5) == expected
        assert pooled_io.pools == 0

    def test_non_ascii_in_later_range(self, tmp_path, monkeypatch, pooled_io):
        monkeypatch.setattr(processes, "READ_BATCH", 16)
        path = tmp_path / "inc.txt"
        body = b"".join(b"%d.25\n" % i for i in range(100))  # 590 bytes
        path.write_bytes(body + b"0.\xe92\n" + body)
        with pytest.raises(InputParseError, match=r"inc\.txt: not ASCII text \(byte 0xe9\)"):
            read_increments(path, delta=0.5)
        # The first error in file order wins once the non-ASCII byte lies beyond the decoder's 8 KiB read-ahead.
        path.write_bytes(body + b"bad\n" + body * 30 + b"0.\xe92\n")
        with pytest.raises(InputParseError, match="line 101: not a number: 'bad'"):
            read_increments(path, delta=0.5)
        assert pooled_io.pools == 0

    def test_header_above_limit_refused_before_any_range(self, tmp_path, monkeypatch, pooled_io):
        # No batch of the body is parsed once the header declares too many increments.
        monkeypatch.setattr(processes, "MATERIALIZE_LIMIT", 4)
        calls = []
        monkeypatch.setattr(processes, "_read_body", lambda *args: calls.append(args))
        path = tmp_path / "inc.txt"
        path.write_bytes(b"# delta=0.5 n=5 seed=1\n" + b"1.0\n" * 100)
        with pytest.raises(ResourceGuardError, match="n=5"):
            read_increments(path)
        assert calls == [] and pooled_io.pools == 0

    @pytest.mark.parametrize("first", [b"1.0", b"1_0"])  # "1_0": a float() spelling numpy's own parsers refuse
    def test_headerless_body_stops_after_limit(self, tmp_path, monkeypatch, pooled_io, first):
        monkeypatch.setattr(processes, "MATERIALIZE_LIMIT", 20)
        monkeypatch.setattr(processes, "READ_BATCH", 20)  # 5 lines a batch
        path = tmp_path / "inc.txt"
        path.write_bytes(first + b"\n" + b"2.0\n" * 19)
        assert len(read_increments(path, delta=0.5)) == 20
        path.write_bytes(path.read_bytes() + b"3.0\n" * 1000 + b"not-a-number\n")
        batches = spy_line_batches(monkeypatch)
        with pytest.raises(ResourceGuardError, match="more than 20"):
            read_increments(path, delta=0.5)
        assert len(batches) == 5  # value 21 is in batch 5 of 205
        # Value 21 opens a batch the C-level parse refuses; the line loop stops there, before the bad line.
        path.write_bytes(b"2.0\n" * 20 + b"1_0\nx\n")
        with pytest.raises(ResourceGuardError, match="more than 20"):
            read_increments(path, delta=0.5)
        assert pooled_io.pools == 0


class FailingModel:
    """A model whose block `fail` raises, so a write stops part way."""

    def __init__(self, fail):
        self.fail = fail

    def block(self, scheme, seed, b):
        if b == self.fail:
            raise RuntimeError(f"block {b} failed")
        return np.full(processes._block_size(scheme, b), float(b))


class TestIncrementFileWriter:
    """write_increments writes a temp file, each block at its offset, then renames it over the path."""

    @pytest.mark.parametrize("seed", [-7, True, 1.5])
    def test_seed_no_header_reads_back_refused(self, tmp_path, seed):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            write_increments(tmp_path / "inc.bin", values_series([0.5, 0.25], seed=seed))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("pooled", [True, False])
    @pytest.mark.parametrize("previous", [b"old bytes\n", None])
    def test_failed_write_leaves_path_and_no_temp_file(self, tmp_path, monkeypatch, pooled, previous):
        monkeypatch.setattr(processes, "_io_workers", lambda: 2 if pooled else 1)
        monkeypatch.setattr(processes, "BLOCK", 1000)
        path = tmp_path / "inc.bin"
        if previous is not None:
            path.write_bytes(previous)
        series = simulate(FailingModel(1), SamplingScheme(1e-3, 3000), seed=0, materialize=False)
        with pytest.raises(RuntimeError, match="block 1 failed"):
            write_increments(path, series)
        assert sorted(os.listdir(tmp_path)) == ([] if previous is None else ["inc.bin"])
        if previous is not None:
            assert path.read_bytes() == previous
        write_increments(path, simulate(FailingModel(None), SamplingScheme(1e-3, 3000), seed=0, materialize=False))
        assert read_increments(path).values.tolist() == [0.0] * 1000 + [1.0] * 1000 + [2.0] * 1000

    def test_block_of_the_wrong_length_refused(self, tmp_path, monkeypatch, pooled_io):
        monkeypatch.setattr(processes, "BLOCK", 1000)
        series = IncrementSeries(SamplingScheme(1e-3, 2500), 0, block_fn=lambda b: np.zeros(1000))
        with pytest.raises(ParameterError, match="block 2 holds"):
            write_increments(tmp_path / "inc.bin", series)
        assert os.listdir(tmp_path) == []

    def test_rewrite_of_a_read_file_round_trips(self, tmp_path, monkeypatch, pooled_io):
        monkeypatch.setattr(processes, "BLOCK", 1000)
        path = tmp_path / "inc.bin"
        write_increments(path, simulate(DENSE_CP, SamplingScheme(1e-2, 2500), seed=3, materialize=False))
        before = path.read_bytes()
        write_increments(path, read_increments(path))  # its blocks read from path while the temp file is written
        assert path.read_bytes() == before and os.listdir(tmp_path) == ["inc.bin"]

    def test_symlink_replaced_not_written_through(self, tmp_path):
        target = tmp_path / "target.bin"
        target.write_bytes(b"kept")
        link = tmp_path / "link.bin"
        link.symlink_to(target)
        write_increments(link, values_series([0.5, 1.5]))
        assert not link.is_symlink() and target.read_bytes() == b"kept"
        assert read_increments(link).values.tolist() == [0.5, 1.5]

    def test_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_increments(tmp_path / "inc.bin", values_series([0.5]))
        finally:
            os.umask(old)
        assert (tmp_path / "inc.bin").stat().st_mode & 0o777 == 0o640


def write_study_file(path, n):
    """A binary file of n study increments, and its body as np.fromfile reads it."""
    write_increments(path, simulate(STUDY_VG, SamplingScheme(1.5625e-05, n), seed=4, materialize=False))
    return np.fromfile(path, dtype="<f8", offset=path.read_bytes().index(b"\n") + 1)


class TestFileBackedSeries:
    """read_increments of a binary file reads each block at its offset when the block is used."""

    def test_values_equal_the_body(self, tmp_path, monkeypatch, pooled_io):
        monkeypatch.setattr(processes, "BLOCK", 1000)
        path = tmp_path / "inc.bin"
        body = write_study_file(path, 2500)
        series = read_increments(path)
        assert not series.materialized
        assert [len(chunk) for chunk in series.iter_chunks()] == [1000, 1000, 500]
        assert series.values.tobytes() == body.tobytes() and series.materialized

    def test_fold_reads_its_blocks_in_the_workers(self, tmp_path, monkeypatch, pooled_io):
        monkeypatch.setattr(processes, "BLOCK", 1000)
        path = tmp_path / "inc.bin"
        body = write_study_file(path, 2500)
        reads = []
        read_block = processes._read_block
        monkeypatch.setattr(processes, "_read_block", lambda *args: reads.append(os.getpid()) or read_block(*args))
        series = read_increments(path)
        basis = BasisSystem.trigonometric(Window(-0.01, 0.01), 8)
        theta = empirical_coefficients(series, basis).values
        assert reads == [] and pooled_io.workers[-1] == 2  # every block was read in a worker
        one = empirical_coefficients(series, basis, max_workers=1).values
        assert len(reads) == 3 and set(reads) == {os.getpid()}
        expected = empirical_coefficients(IncrementSeries(series.scheme, 4, values=body), basis).values
        assert theta.tobytes() == one.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("change", ["truncated", "replaced", "rewritten", "removed"])
    @pytest.mark.parametrize("pooled", [True, False])
    def test_changed_file_refused_at_the_fold(self, tmp_path, monkeypatch, change, pooled):
        monkeypatch.setattr(processes, "_io_workers", lambda: 2 if pooled else 1)
        monkeypatch.setattr(processes, "BLOCK", 1000)
        path = tmp_path / "inc.bin"
        write_study_file(path, 2500)
        series = read_increments(path)
        data = path.read_bytes()
        if change == "truncated":
            os.truncate(path, len(data) - 8)
        elif change == "replaced":
            other = tmp_path / "other.bin"
            other.write_bytes(data)
            os.replace(other, path)
        elif change == "rewritten":  # same size, later mtime
            path.write_bytes(data[:-8] + np.float64(0.5).tobytes())
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        else:
            path.unlink()
        basis = BasisSystem.trigonometric(Window(-0.01, 0.01), 8)
        with pytest.raises(InputParseError, match=rf"^{path}: file (changed|removed) since its header was read"):
            empirical_coefficients(series, basis)
        assert multiprocessing.active_children() == []

    def test_in_process_fold_holds_one_block(self, tmp_path):
        path = tmp_path / "inc.bin"
        write_study_file(path, 2 * BLOCK + 5)
        basis = BasisSystem.trigonometric(Window(0.005, 0.015), 20)
        tracemalloc.start()
        try:
            empirical_coefficients(read_increments(path), basis, max_workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * BLOCK  # 12.6 MB: one 8 MB block and its window masks

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_its_increment(self, tmp_path, monkeypatch, pooled_io, value):
        monkeypatch.setattr(processes, "BLOCK", 1000)
        path = tmp_path / "inc.bin"
        for values, index in (([value, math.inf], 1), ([0.5] * 2200 + [value] + [0.5] * 99, 2201)):
            write_increments(path, values_series(values))
            series = read_increments(path)  # only the header is read here
            with pytest.raises(InputParseError, match=rf"^{path}: increment {index} is not finite: {value!r}$"):
                empirical_coefficients(series, BasisSystem.trigonometric(Window(-0.01, 0.01), 4))
            with pytest.raises(InputParseError, match=rf"increment {index} is not finite"):
                series.values


class TestIncrementSeries:
    def test_values_length_matches_scheme(self):
        with pytest.raises(ParameterError):
            IncrementSeries(SamplingScheme(1.0, 5), seed=0, values=np.zeros(4))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_refused(self, value):
        # The window mask would drop such a value, and the fold divide by a t_n that counts it.
        for values, index in (([0.01, value, 0.011], 2), ([value], 1)):
            with pytest.raises(ParameterError, match=rf"^values must be finite, got {re.escape(repr(value))} at increment {index}$"):
                IncrementSeries(SamplingScheme(1e-3, len(values)), None, values=values)

    def test_len(self):
        series = simulate(STUDY_VG, SamplingScheme(1e-3, 321), seed=0)
        assert len(series) == 321

    def test_materialization_guard(self):
        """A streamed series above the limit refuses .values without generating."""
        from levygibbs import ResourceGuardError
        from levygibbs.processes import MATERIALIZE_LIMIT

        big = SamplingScheme(1e-6, MATERIALIZE_LIMIT + 1)
        series = IncrementSeries(big, seed=0, block_fn=lambda b: np.zeros(BLOCK))
        with pytest.raises(ResourceGuardError):
            series.values
        with pytest.raises(ResourceGuardError):
            simulate(STUDY_VG, big, seed=0, materialize=True)


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: SamplingScheme(1e308, 2), RangeError, "horizon n*delta overflows: n=2, delta=1e+308"),
    (lambda tmp: VarianceGammaParams(0.0, math.nan, 1e-3), ParameterError, "sigma must be nonnegative and finite, got nan"),
    (lambda tmp: JumpDistribution.normal(math.inf, 1.0), ParameterError, "normal jump parameter must be finite, got inf"),
    (lambda tmp: JumpDistribution.normal(0.0, -1.0), ParameterError, "normal jump sd must be >= 0, got -1.0"),
    (lambda tmp: JumpDistribution.uniform(1.0, 1.0), ParameterError,
     "uniform jump bounds must satisfy lo < hi, got (1.0, 1.0)"),
    (lambda tmp: JumpDistribution.exponential(0.0), ParameterError, "exponential jump mean must be > 0, got 0.0"),
    (lambda tmp: IncrementSeries(SamplingScheme(1.0, 4), None), ParameterError,
     "exactly one of values/block_fn must be given"),
    (lambda tmp: IncrementSeries(SamplingScheme(1.0, 4), None, np.zeros(4), lambda b: np.zeros(4)), ParameterError,
     "exactly one of values/block_fn must be given"),
    (lambda tmp: write_increments(tmp / "x.bin", IncrementSeries(SamplingScheme(1.0, 4), 0, block_fn=lambda b: np.zeros(3))),
     ParameterError, "block 0 holds 3 values, expected 4"),
], ids=[
    "horizon-overflows", "vg-nan", "jump-not-finite", "normal-sd-negative", "uniform-empty", "exponential-mean-zero",
    "series-neither", "series-both", "write-short-block",
])
def test_input_checks(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)) as excinfo:
        call(tmp_path)
    assert excinfo.type is error
    assert os.listdir(tmp_path) == []  # no temp file left behind
