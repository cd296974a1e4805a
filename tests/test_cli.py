"""End-to-end command-line tests driven through main(argv).

Covers the file formats, byte-level determinism, config precedence
(flags > config file > built-in defaults) and the exit-code contract:
0 success, 2 usage/validation, 3 input parse, 4 resource guard.
"""

import errno
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import levygibbs.cli as cli
import levygibbs.posterior as posterior
import levygibbs.processes as processes
from levygibbs import (
    BasisSystem,
    CoefficientVector,
    GibbsConfig,
    ResourceGuardError,
    SamplingScheme,
    VarianceGammaParams,
    Window,
    conditional_posterior,
    credible_band,
    empirical_coefficients,
    marginal_k,
    read_increments,
    sample_posterior,
    simulate,
    validate_config,
)
from levygibbs.cli import main
from levygibbs.estimator import DEFAULT_GRID_POINTS
from levygibbs.experiment import (
    DEFAULT_ALPHA_ASSUMED,
    DEFAULT_BAND_LEVEL,
    DEFAULT_NUM_DRAWS,
    DEFAULT_VG_PARAMS,
    RegimeSpec,
    delta_condition,
    read_coefficients_json,
    run_regime,
    write_band_table,
    write_k_table,
)
from levygibbs.util import derive_seed

from conftest import MASTER_SEED, reference_write_increments, slow_enabled


def simulate_file(tmp_path, name="inc.txt", delta=0.5, n=4096, seed=3, extra=()):
    path = tmp_path / name
    argv = ["simulate", "--delta", str(delta), "--n", str(n), "--seed", str(seed), "--out", str(path)]
    assert main(argv + list(extra)) == 0
    return path


BINARY_HEADER = {"format": "levygibbs-increments", "version": 1, "delta": 0.5, "n": 3, "seed": 1}


# Binary increments files that estimate refuses with exit 3: case -> (header, body, message).
BINARY_CASES = {
    "truncated body": (BINARY_HEADER, bytes(23), "body holds 23 bytes, expected 24"),
    "over-long body": (BINARY_HEADER, bytes(25), "body holds 25 bytes, expected 24"),
    "no body": (BINARY_HEADER, b"", "body holds 0 bytes, expected 24"),
    "negative delta": (BINARY_HEADER | {"delta": -0.5}, bytes(24), "header delta must be positive and finite"),
    "zero delta": (BINARY_HEADER | {"delta": 0}, bytes(24), "header delta must be positive and finite"),
    "nan delta": (BINARY_HEADER | {"delta": math.nan}, bytes(24), "header delta must be positive and finite"),
    "infinite delta": (BINARY_HEADER | {"delta": math.inf}, bytes(24), "header delta must be positive and finite"),
    "string delta": (BINARY_HEADER | {"delta": "0.5"}, bytes(24), "header delta must be positive and finite"),
    "bool delta": (BINARY_HEADER | {"delta": True}, bytes(24), "header delta must be positive and finite"),
    "wrong version": (BINARY_HEADER | {"version": 2}, bytes(24), "expected format 'levygibbs-increments' version 1"),
    "bool version": (BINARY_HEADER | {"version": True}, bytes(24), "expected format"),
    "wrong format": (BINARY_HEADER | {"format": "npy"}, bytes(24), "expected format"),
    "missing key": ({k: v for k, v in BINARY_HEADER.items() if k != "seed"}, bytes(24), "header keys are"),
    "extra key": (BINARY_HEADER | {"t_n": 1.5}, bytes(24), "header keys are"),
    "zero n": (BINARY_HEADER | {"n": 0}, b"", "header n must be a positive integer"),
    "float n": (BINARY_HEADER | {"n": 3.0}, bytes(24), "header n must be a positive integer"),
    "string seed": (BINARY_HEADER | {"seed": "1"}, bytes(24), "seed an integer or null"),
    "negative seed": (BINARY_HEADER | {"seed": -7}, bytes(24), "header seed must be a non-negative integer, got -7"),
    "not JSON": (b"{delta: 0.5}", bytes(24), "header is not JSON"),
    "trailing text": (json.dumps(BINARY_HEADER).encode("ascii") + b" x", bytes(24), "header is not JSON"),
    "non-ASCII header": (b'{"format": "levygibbs-incr\xe9ments"}', bytes(24), "not ASCII text (byte 0xe9)"),
}


def header_of(path) -> dict:
    """The JSON header line of a binary increments file."""
    with open(path, "rb") as fh:
        return json.loads(fh.readline())


class TestSimulate:
    def test_vg_file_round_trips_bitwise(self, tmp_path):
        path = simulate_file(tmp_path, delta=0.001, n=4096, seed=3)
        series = read_increments(path)
        direct = simulate(DEFAULT_VG_PARAMS, SamplingScheme(0.001, 4096), 3)
        assert series.scheme.delta == 0.001 and series.scheme.n == 4096
        assert np.array_equal(series.values, direct.values)

    def test_header_carries_metadata(self, tmp_path, capsys):
        path = simulate_file(tmp_path, delta=0.25, n=64, seed=11)
        first = path.read_bytes().split(b"\n", 1)[0]
        assert first == b'{"format": "levygibbs-increments", "version": 1, "delta": 0.25, "n": 64, "seed": 11}'
        assert path.stat().st_size == len(first) + 1 + 8 * 64
        assert "simulate: wrote n=64" in capsys.readouterr().out

    def test_compound_poisson_point_jumps(self, tmp_path):
        path = tmp_path / "cp.txt"
        argv = [
            "simulate", "--process", "cpois", "--lambda", "2.0", "--jump", "point:0.7",
            "--delta", "0.5", "--n", "2048", "--seed", "5", "--out", str(path),
        ]
        assert main(argv) == 0
        vals = read_increments(path).values
        counts = np.round(vals / 0.7)
        assert np.array_equal(counts * 0.7, vals)
        assert vals.max() > 0.0

    # sha256 of simulate's output: the bytes stay fixed whichever process draws or writes each block.
    @pytest.mark.parametrize("flags, digest", [
        ("--j 1 --seed 7", "f53defe65cfb00ac6c18ab4c6458926f1f8fc905fc2ad08e7e2a5642e65af910"),
        ("--delta 0.001 --n 2200000 --seed 7", "d1162a7930337c1b01d4114116bc9cf42ec00c19783ae840f2817b329f6ee74d"),
        ("--process cpois --lambda 2 --jump normal:0.01,0.003 --delta 0.001 --n 2200000 --seed 7",
         "cc4f685cf2fd2a41a30089380ea1ed021d026046eab546cf7efd68b1451e0fbd"),
    ], ids=["j1", "vg-3-blocks", "cpois-3-blocks"])
    def test_output_bytes_pinned(self, tmp_path, flags, digest):
        out = tmp_path / "inc.bin"
        assert main(["simulate", *flags.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert os.listdir(tmp_path) == ["inc.bin"]

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(processes, "BLOCK", 16)
        out = simulate_file(tmp_path, name="inc.bin", delta=0.5, n=64, seed=3)
        before = out.read_bytes()
        block = processes.VarianceGammaParams.block

        def disk_full(self, scheme, seed, b):
            if b == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return block(self, scheme, seed, b)

        monkeypatch.setattr(processes.VarianceGammaParams, "block", disk_full)
        argv = ["simulate", "--delta", "0.25", "--n", "64", "--seed", "4", "--out", str(out)]
        assert main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == before and os.listdir(tmp_path) == ["inc.bin"]
        assert main(["simulate", "--delta", "0.5", "--n", "64", "--out", str(tmp_path / "no" / "inc.bin")]) == 2
        assert os.listdir(tmp_path) == ["inc.bin"]

    def test_degenerate_vg_writes_zeros(self, tmp_path):
        path = simulate_file(tmp_path, extra=["--mu", "0", "--sigma", "0"])
        assert not np.any(read_increments(path).values)


class TestEstimate:
    def test_coefficients_round_trip(self, tmp_path):
        inc = simulate_file(tmp_path, delta=0.5, n=4096, seed=3)
        out = tmp_path / "coeffs.json"
        assert main(["estimate", "--increments", str(inc), "--K", "8", "--out", str(out)]) == 0
        loaded = CoefficientVector.from_dict(json.loads(out.read_text()))
        basis = BasisSystem.trigonometric(Window(0.005, 0.015), 8)
        direct = empirical_coefficients(read_increments(inc), basis)
        assert np.array_equal(loaded.values, direct.values)
        assert loaded.t_n == 0.5 * 4096

    def test_binary_and_text_files_give_the_same_coefficients(self, tmp_path):
        binary = simulate_file(tmp_path, delta=0.5, n=4096, seed=3)
        text = tmp_path / "inc_text.txt"
        reference_write_increments(text, read_increments(binary))
        assert text.read_bytes().startswith(b"# delta=0.5 n=4096 seed=3\n")
        outputs = []
        for inc in (binary, text):
            out = tmp_path / f"{inc.stem}.json"
            assert main(["estimate", "--increments", str(inc), "--K", "8", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert read_coefficients_json(tmp_path / "inc.json").t_n == 0.5 * 4096

    def test_output_bytes_deterministic(self, tmp_path):
        inc = simulate_file(tmp_path, delta=0.5, n=4096, seed=3)
        o1, o2 = tmp_path / "c1.json", tmp_path / "c2.json"
        for out in (o1, o2):
            assert main(["estimate", "--increments", str(inc), "--K", "8", "--out", str(out)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_truth_flag_reports_l2_error(self, tmp_path, capsys):
        inc = simulate_file(tmp_path, delta=0.5, n=1024, seed=3)
        out = tmp_path / "coeffs.json"
        argv = [
            "estimate", "--increments", str(inc), "--K", "4", "--out", str(out),
            "--truth", "vg:0,0.117,0.002",
        ]
        assert main(argv) == 0
        assert "l2_error_on_D=" in capsys.readouterr().out

    def test_legendre_family(self, tmp_path):
        inc = simulate_file(tmp_path, delta=0.5, n=1024, seed=3)
        out = tmp_path / "coeffs.json"
        argv = ["estimate", "--increments", str(inc), "--family", "legendre",
                "--J", "2", "--L", "4", "--out", str(out)]
        assert main(argv) == 0
        loaded = CoefficientVector.from_dict(json.loads(out.read_text()))
        assert loaded.basis.K == 8 and loaded.basis.family == "piecewise-legendre"

    @pytest.mark.parametrize("flags, refused", [
        (["--family", "trig", "--J", "3", "--L", "2"], "--J"),
        (["--family", "trig", "--L", "2"], "--L"),
        (["--family", "legendre", "--J", "2", "--L", "2", "--K", "50"], "--K"),
    ])
    def test_other_familys_basis_flags_exit_2(self, tmp_path, capsys, flags, refused):
        inc = simulate_file(tmp_path, delta=0.5, n=256, seed=3)
        out = tmp_path / "coeffs.json"
        assert main(["estimate", "--increments", str(inc), "--out", str(out)] + flags) == 2
        assert f"{refused} does not apply" in capsys.readouterr().err
        assert not out.exists()

    def test_D_outside_default_D_prime_is_accepted(self, tmp_path, capsys):
        """D is checked against the basis window only, not against GibbsConfig's default D'."""
        inc = simulate_file(tmp_path, delta=0.5, n=1024, seed=3)
        argv = ["estimate", "--increments", str(inc), "--window", "0.001,0.02", "--K", "10",
                "--D", "0.002,0.019", "--truth", "vg:0,0.117,0.002", "--out", str(tmp_path / "c.json")]
        assert main(argv) == 0
        assert "l2_error_on_D=" in capsys.readouterr().out

    def test_pipeline_matches_run_regime(self, tmp_path, regime_reports):
        """simulate --j 1 then estimate reproduces the harness estimator bitwise."""
        sim_seed = int(derive_seed(MASTER_SEED, "simulate"))
        inc = tmp_path / "j1.txt"
        assert main(["simulate", "--j", "1", "--seed", str(sim_seed), "--out", str(inc)]) == 0
        out = tmp_path / "coeffs.json"
        assert main(["estimate", "--increments", str(inc), "--out", str(out)]) == 0
        loaded = CoefficientVector.from_dict(json.loads(out.read_text()))
        assert np.array_equal(loaded.values, regime_reports[1].theta_hat.values)

    @pytest.mark.slow
    @pytest.mark.skipif(not slow_enabled(), reason="writes and parses 5.12M lines; set LEVY_GIBBS_RUN_SLOW=1")
    def test_pipeline_matches_run_regime_j2(self, tmp_path, regime_reports):
        """simulate --j 2 then estimate reproduces the harness estimator bitwise."""
        sim_seed = int(derive_seed(MASTER_SEED, "simulate"))
        inc = tmp_path / "j2.txt"
        assert main(["simulate", "--j", "2", "--seed", str(sim_seed), "--out", str(inc)]) == 0
        out = tmp_path / "coeffs.json"
        assert main(["estimate", "--increments", str(inc), "--out", str(out)]) == 0
        loaded = CoefficientVector.from_dict(json.loads(out.read_text()))
        assert loaded.values.tobytes() == regime_reports[2].theta_hat.values.tobytes()

    @pytest.mark.slow
    @pytest.mark.skipif(not slow_enabled(), reason="exports and parses 5.12M text lines; set LEVY_GIBBS_RUN_SLOW=1")
    def test_text_export_matches_run_regime_j2(self, tmp_path, regime_reports):
        """The README's %.17g text export of the j=2 series, read by estimate, gives run_regime's coefficients."""
        sim_seed = int(derive_seed(MASTER_SEED, "simulate"))
        inc, text = tmp_path / "j2.bin", tmp_path / "j2.txt"
        assert main(["simulate", "--j", "2", "--seed", str(sim_seed), "--out", str(inc)]) == 0
        s = read_increments(inc)
        np.savetxt(text, s.values, fmt="%.17g", comments="# ", header=f"delta={s.scheme.delta!r} n={s.scheme.n} seed={s.seed}")
        assert text.stat().st_size > 100 * processes.READ_BATCH  # about 100 batches
        out = tmp_path / "coeffs.json"
        assert main(["estimate", "--increments", str(text), "--out", str(out)]) == 0
        loaded = CoefficientVector.from_dict(json.loads(out.read_text()))
        assert loaded.values.tobytes() == regime_reports[2].theta_hat.values.tobytes()


def write_coeffs(tmp_path, values, t_n=20.0, name="coeffs.json"):
    basis = BasisSystem.trigonometric(Window(0.005, 0.015), len(values))
    vec = CoefficientVector(basis, np.asarray(values, dtype=float), role="empirical", t_n=t_n)
    path = tmp_path / name
    path.write_text(json.dumps(vec.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


class TestPosterior:
    def test_output_files(self, tmp_path):
        coeffs = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5])
        out = tmp_path / "post"
        argv = ["posterior", "--coeffs", str(coeffs), "--out-dir", str(out),
                "--draws", "200", "--seed", "1"]
        assert main(argv) == 0
        records = [json.loads(line) for line in (out / "draws.jsonl").read_text().splitlines()]
        assert len(records) == 200
        for rec in records[:20]:
            assert set(rec) == {"draw_index", "K", "theta"}
            assert len(rec["theta"]) == rec["K"]
        k_rows = (out / "k_posterior.csv").read_text().splitlines()
        assert k_rows[0] == "j,K,prob"
        assert len(k_rows) == 1 + 4  # k_max = min(K=4, ceil(t_n))
        assert sum(float(r.split(",")[2]) for r in k_rows[1:]) == pytest.approx(1.0, abs=1e-12)
        band_rows = (out / "band.csv").read_text().splitlines()
        assert band_rows[0] == "x,psi_true,psi_mean,lo,hi"
        assert len(band_rows) == 1 + 512

    def test_byte_identical_reruns(self, tmp_path):
        coeffs = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5])
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            argv = ["posterior", "--coeffs", str(coeffs), "--out-dir", str(d),
                    "--draws", "100", "--seed", "7"]
            assert main(argv) == 0
        for name in ("draws.jsonl", "k_posterior.csv", "band.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_fixed_k_pins_dimension(self, tmp_path):
        coeffs = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5])
        out = tmp_path / "post"
        argv = ["posterior", "--coeffs", str(coeffs), "--out-dir", str(out),
                "--draws", "50", "--seed", "1", "--fixed-K", "3"]
        assert main(argv) == 0
        records = [json.loads(line) for line in (out / "draws.jsonl").read_text().splitlines()]
        assert all(rec["K"] == 3 for rec in records)
        probs = [float(r.split(",")[2]) for r in (out / "k_posterior.csv").read_text().splitlines()[1:]]
        assert probs == [0.0, 0.0, 1.0, 0.0]

    def test_fixed_k1_draw_moments(self, tmp_path):
        """1e5 fixed-K draws reproduce the closed-form coefficient posterior."""
        coeffs = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5])
        out = tmp_path / "post"
        argv = ["posterior", "--coeffs", str(coeffs), "--out-dir", str(out),
                "--draws", "100000", "--seed", "2", "--fixed-K", "1", "--grid-points", "2"]
        assert main(argv) == 0
        first = np.array([
            json.loads(line)["theta"][0]
            for line in (out / "draws.jsonl").read_text().splitlines()
        ])
        cond = conditional_posterior([5.0], 20.0, GibbsConfig())
        n = len(first)
        sd = math.sqrt(cond.variance)
        assert abs(first.mean() - cond.means[0]) < 4.0 * sd / math.sqrt(n)
        assert abs(first.var(ddof=1) - cond.variance) < 4.0 * cond.variance * math.sqrt(2.0 / (n - 1))

    def test_label_j_column(self, tmp_path):
        coeffs = write_coeffs(tmp_path, [5.0, -2.0])
        out = tmp_path / "post"
        argv = ["posterior", "--coeffs", str(coeffs), "--out-dir", str(out),
                "--draws", "10", "--label-j", "2"]
        assert main(argv) == 0
        rows = (out / "k_posterior.csv").read_text().splitlines()[1:]
        assert all(row.startswith("2,") for row in rows)

    def test_non_nested_basis_exits_2(self, tmp_path, capsys):
        inc = simulate_file(tmp_path, delta=0.5, n=1024, seed=3)
        coeffs = tmp_path / "coeffs.json"
        argv = ["estimate", "--increments", str(inc), "--family", "legendre",
                "--J", "4", "--L", "8", "--out", str(coeffs)]
        assert main(argv) == 0
        out = tmp_path / "post"
        assert main(["posterior", "--coeffs", str(coeffs), "--out-dir", str(out)]) == 2
        assert "needs a nested basis" in capsys.readouterr().err
        assert not out.exists()

    def test_t_n_flag_supplies_a_missing_horizon(self, tmp_path):
        bare = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5], t_n=None, name="bare.json")
        full = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5], t_n=20.0)
        common = ["--draws", "50", "--seed", "1"]
        assert main(["posterior", "--coeffs", str(bare), "--t-n", "20", "--out-dir", str(tmp_path / "a")] + common) == 0
        assert main(["posterior", "--coeffs", str(full), "--out-dir", str(tmp_path / "b")] + common) == 0
        for name in ("draws.jsonl", "k_posterior.csv", "band.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_t_n_flag_equal_to_the_files_is_accepted(self, tmp_path):
        coeffs = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5], t_n=1.5)
        argv = ["posterior", "--coeffs", str(coeffs), "--t-n", "1.5", "--draws", "50", "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 0

    def test_t_n_flag_differing_from_the_files_exits_2(self, tmp_path, capsys):
        coeffs = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5], t_n=1.5)
        out = tmp_path / "o"
        argv = ["posterior", "--coeffs", str(coeffs), "--t-n", "40", "--draws", "50", "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--t-n 40.0" in err and "t_n = 1.5" in err
        assert not out.exists()

    @pytest.mark.parametrize("t_n", ["nan", "inf"])
    def test_non_finite_t_n_flag_exits_2(self, tmp_path, capsys, t_n):
        bare = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5], t_n=None)
        assert main(["posterior", "--coeffs", str(bare), "--t-n", t_n, "--out-dir", str(tmp_path / "o")]) == 2
        assert f"cannot take ceiling of {t_n}" in capsys.readouterr().err

    def test_missing_horizon_is_usage_error(self, tmp_path, capsys):
        basis = BasisSystem.trigonometric(Window(0.005, 0.015), 2)
        vec = CoefficientVector(basis, np.array([1.0, 2.0]))
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(vec.to_dict()) + "\n")
        assert main(["posterior", "--coeffs", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "t-n" in capsys.readouterr().err


class TestExperiment:
    def test_j1_outputs_and_byte_determinism(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(["experiment", "--j", "1", "--seed", "0", "--out-dir", str(d)]) == 0
        names = ["report.json", "errors.csv", "k_posterior.csv", "band.csv"]
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        payload = json.loads((dirs[0] / "report.json").read_text())
        assert payload["schema"] == "levygibbs-report-v1"
        assert payload["regimes"][0]["err_postmean"] == 125.71867444127629

    def test_multi_regime_band_files(self, tmp_path, capsys):
        out = tmp_path / "multi"
        argv = ["experiment", "--j", "1", "--j", "2", "--seed", "0",
                "--draws", "50", "--out-dir", str(out)]
        assert main(argv) == 0
        assert (out / "band_j1.csv").exists() and (out / "band_j2.csv").exists()
        assert not (out / "band.csv").exists()
        stdout = capsys.readouterr().out
        assert "experiment: j=1" in stdout and "experiment: j=2" in stdout

    def test_requires_regime_and_out_dir(self, tmp_path):
        assert main(["experiment", "--out-dir", str(tmp_path / "x")]) == 2
        assert main(["experiment", "--j", "1"]) == 2


# Imports the package, checks that scipy was not loaded, then blocks scipy
# (every import of it or a submodule raises ImportError) and runs the commands.
WITHOUT_SCIPY = """
import json, sys
import levygibbs, levygibbs.cli
assert "scipy" not in sys.modules, "importing levygibbs loaded scipy"
sys.modules["scipy"] = None
for argv in json.loads(sys.argv[1]):
    code = levygibbs.cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
"""


def trig_pipeline_argvs(d) -> list[list[str]]:
    return [
        ["simulate", "--j", "1", "--seed", "3", "--out", str(d / "inc.bin")],
        ["estimate", "--increments", str(d / "inc.bin"), "--out", str(d / "c.json"), "--truth", "vg:0,0.117,0.002"],
        ["posterior", "--coeffs", str(d / "c.json"), "--draws", "200", "--out-dir", str(d / "post")],
        ["experiment", "--j", "1", "--draws", "200", "--out-dir", str(d / "exp")],
    ]


def test_trig_pipeline_runs_without_scipy(tmp_path):
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    blocked.mkdir()
    free.mkdir()
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, json.dumps(trig_pipeline_argvs(blocked))],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for argv in trig_pipeline_argvs(free):
        assert main(argv) == 0
    names = sorted(str(p.relative_to(free)) for p in free.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(blocked)) for p in blocked.rglob("*") if p.is_file())
    assert len(names) == 9
    for name in names:
        assert (blocked / name).read_bytes() == (free / name).read_bytes(), name


def window_flag(w: Window) -> str:
    return f"{w.a!r},{w.b!r}"


class TestOneOwner:
    """Report files come from the library's writers and defaults from GibbsConfig."""

    TRUTH = "vg:0,0.117,0.002"

    def test_posterior_csvs_are_the_library_writers_bytes(self, tmp_path):
        coeffs = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5])
        out = tmp_path / "post"
        argv = ["posterior", "--coeffs", str(coeffs), "--out-dir", str(out),
                "--draws", "300", "--seed", "4", "--truth", self.TRUTH, "--label-j", "2"]
        assert main(argv) == 0

        theta_hat = read_coefficients_json(coeffs)
        config = GibbsConfig(k_max=4)
        marginal = marginal_k(theta_hat, 20.0, config)
        draws = sample_posterior(theta_hat, 20.0, config, 300, 4, marginal=marginal)
        band = credible_band(draws, 0.9)
        psi_true = VarianceGammaParams(0.0, 0.117, 0.002).levy_density()(draws.grid)
        write_band_table(tmp_path / "band.csv", draws.grid, psi_true, band.center, band.lo, band.hi)
        write_k_table(tmp_path / "k_posterior.csv", [(2, marginal.probs)])
        for name in ("band.csv", "k_posterior.csv"):
            data = (out / name).read_bytes()
            assert b"\r" not in data
            assert data == (tmp_path / name).read_bytes()

    def test_experiment_csvs_end_lines_with_newline_only(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "--j", "1", "--draws", "50", "--out-dir", str(out)]) == 0
        for name in ("errors.csv", "k_posterior.csv", "band.csv"):
            data = (out / name).read_bytes()
            assert b"\r" not in data and data.endswith(b"\n")

    def test_unset_hyperparameter_flags_take_gibbs_config_defaults(self, tmp_path, capsys):
        c = GibbsConfig()
        rate = ["--omega", repr(c.omega), "--beta", repr(c.beta), "--D", window_flag(c.D)]
        hyper = rate + ["--sigma0", repr(c.sigma0)]
        metric = inspect.signature(credible_band).parameters["metric"].default
        tau = inspect.signature(validate_config).parameters["tau"].default
        spacing = inspect.signature(delta_condition).parameters
        inc = simulate_file(tmp_path, delta=0.5, n=1024, seed=3)
        coeffs = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5])
        capsys.readouterr()
        runs = [
            (lambda d: ["estimate", "--increments", str(inc), "--K", "6", "--truth", self.TRUTH,
                        "--out", str(d / "c.json")],
             ["--window", window_flag(c.D_prime), "--D", window_flag(c.D)]),
            (lambda d: ["posterior", "--coeffs", str(coeffs), "--draws", "100", "--truth", self.TRUTH,
                        "--out-dir", str(d)],
             hyper + ["--metric", metric]),
            (lambda d: ["experiment", "--j", "1", "--draws", "50", "--out-dir", str(d)],
             hyper + ["--D-prime", window_flag(c.D_prime), "--alpha", repr(DEFAULT_ALPHA_ASSUMED)]),
            (lambda d: ["check", "--j", "1"],
             rate + ["--window", window_flag(c.D_prime), "--tau", repr(tau),
                      "--case", spacing["case"].default, "--bound", repr(spacing["bound"].default)]),
        ]
        for i, (argv, explicit) in enumerate(runs):
            results = []
            for tag, extra in (("omitted", []), ("explicit", explicit)):
                d = tmp_path / f"run{i}-{tag}"
                d.mkdir()
                assert main(argv(d) + extra) == 0
                stdout = capsys.readouterr().out.replace(str(d), "<out>")
                stdout = re.sub(r" runtime_s=\S+", "", stdout)
                results.append((stdout, {f.name: f.read_bytes() for f in sorted(d.iterdir())}))
            assert results[0] == results[1], argv(tmp_path)[0]

    def test_unset_draw_level_grid_flags_take_library_defaults(self, tmp_path, capsys):
        grid = ["--grid-points", str(DEFAULT_GRID_POINTS)]
        sampling = ["--draws", str(DEFAULT_NUM_DRAWS), "--level", repr(DEFAULT_BAND_LEVEL)] + grid
        inc = simulate_file(tmp_path, delta=0.5, n=1024, seed=3)
        coeffs = write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5])
        capsys.readouterr()
        runs = [
            (lambda d: ["estimate", "--increments", str(inc), "--K", "6", "--truth", self.TRUTH,
                        "--out", str(d / "c.json")], grid),
            (lambda d: ["posterior", "--coeffs", str(coeffs), "--truth", self.TRUTH, "--out-dir", str(d)],
             sampling),
            (lambda d: ["experiment", "--j", "1", "--out-dir", str(d)], sampling),
            (lambda d: ["check", "--j", "1"], grid),
        ]
        for i, (argv, explicit) in enumerate(runs):
            results = []
            for tag, extra in (("omitted", []), ("explicit", explicit)):
                d = tmp_path / f"run{i}-{tag}"
                d.mkdir()
                assert main(argv(d) + extra) == 0
                stdout = capsys.readouterr().out.replace(str(d), "<out>")
                stdout = re.sub(r" runtime_s=\S+", "", stdout)
                results.append((stdout, {f.name: f.read_bytes() for f in sorted(d.iterdir())}))
            assert results[0] == results[1], argv(tmp_path)[0]

    def test_help_prints_library_defaults(self, capsys):
        for command in ("posterior", "experiment"):
            assert main([command, "--help"]) == 0
            text = " ".join(capsys.readouterr().out.split())
            assert f"(default {DEFAULT_NUM_DRAWS})" in text
            assert f"(default {DEFAULT_BAND_LEVEL})" in text
            assert f"(default {DEFAULT_GRID_POINTS})" in text


class TestCheck:
    def test_j3_defaults_all_pass(self, capsys):
        assert main(["check", "--j", "3"]) == 0
        out = capsys.readouterr().out
        assert "K=320" in out
        assert "n*delta^(5/3)" in out
        assert "[FAIL]" not in out

    def test_beta_zero_flags_failure(self, capsys):
        assert main(["check", "--j", "1", "--beta", "0"]) == 0
        assert "[FAIL]" in capsys.readouterr().out

    def test_fixed_k_case(self, capsys):
        assert main(["check", "--j", "1", "--case", "fixed-K"]) == 0
        out = capsys.readouterr().out
        assert "n*delta^3" in out and "n*delta^(5/3)" not in out

    def test_window_is_the_D_prime_checked_against_D(self, capsys):
        assert main(["check", "--j", "1", "--window", "0.02,0.03"]) == 2
        assert "must be contained in D_prime" in capsys.readouterr().err

    def test_no_D_prime_flag_or_config_key(self, tmp_path, capsys):
        assert main(["check", "--help"]) == 0
        assert "--D-prime" not in capsys.readouterr().out
        cfg = tmp_path / "run.cfg"
        cfg.write_text("D_prime = 0.005,0.015\n")
        assert main(["check", "--j", "1", "--config", str(cfg)]) == 3
        assert "unknown config key(s): D_prime" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, key", [("--sigma0", "sigma0"), ("--k-max", "k_max")])
    def test_hyperparameters_check_does_not_read_are_refused(self, tmp_path, capsys, flag, key):
        # validate_config reads only omega and beta, and the basis size comes from --K.
        assert main(["check", "--help"]) == 0
        assert flag not in capsys.readouterr().out
        assert main(["check", "--j", "1", flag, "7"]) == 2
        assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 7\n")
        assert main(["check", "--j", "1", "--config", str(cfg)]) == 3
        assert f"unknown config key(s): {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--family", "trig", "--J", "2"],
        ["--family", "legendre", "--J", "2", "--L", "8", "--K", "16"],
    ])
    def test_other_familys_basis_flags_exit_2(self, capsys, flags):
        assert main(["check", "--j", "1"] + flags) == 2
        assert "does not apply to --family" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-3", "1"])
    def test_grid_points_below_two_exit_2(self, capsys, points):
        assert main(["check", "--j", "1", "--grid-points", points]) == 2
        assert f"grid_points must be >= 2, got {points}" in capsys.readouterr().err

    def test_grid_points_above_limit_exit_4(self, tmp_path, capsys):
        inc = tmp_path / "inc.bin"
        assert main(["simulate", "--delta", "0.001", "--n", "100", "--out", str(inc)]) == 0
        commands = [
            ["check", "--j", "1"],
            ["estimate", "--increments", str(inc), "--out", str(tmp_path / "o.json"), "--truth", "vg:0,0.117,0.002"],
            ["posterior", "--coeffs", str(write_coeffs(tmp_path, [5.0, -2.0])), "--out-dir", str(tmp_path / "post")],
        ]
        capsys.readouterr()
        for argv in commands:
            assert main(argv + ["--grid-points", "100000000000"]) == 4
            assert "materialization limit" in capsys.readouterr().err
        assert not (tmp_path / "post").exists()

    @pytest.mark.parametrize("command", ["simulate", "experiment", "posterior"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        argv = {
            "simulate": ["simulate", "--j", "1", "--seed", "-1", "--out", str(tmp_path / "inc.bin")],
            "experiment": ["experiment", "--j", "1", "--seed", "-3", "--out-dir", str(tmp_path / "exp")],
            "posterior": ["posterior", "--coeffs", str(write_coeffs(tmp_path, [5.0, -2.0])), "--seed", "-1",
                          "--out-dir", str(tmp_path / "post")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a non-negative integer, got -") and err.count("\n") == 1
        assert not list(tmp_path.rglob("*.tmp")) and not (tmp_path / "inc.bin").exists()


class TestConfigPrecedence:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nn = 64\ndelta = 0.25\n# comment line\n")
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["simulate", "--config", str(cfg), "--out", str(f1)]) == 0
        assert [header_of(f1)[key] for key in ("delta", "n", "seed")] == [0.25, 64, 7]
        assert main(["simulate", "--config", str(cfg), "--seed", "9", "--out", str(f2)]) == 0
        assert [header_of(f2)[key] for key in ("delta", "n", "seed")] == [0.25, 64, 9]

    def test_unknown_key_is_parse_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert "bogus" in capsys.readouterr().err

    def test_bad_value_is_parse_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = lots\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3

    def test_keys_are_flag_names(self, tmp_path):
        flags = {"process": "cpois", "lambda": "2", "jump": "normal:0.01,0.003", "seed": "4", "n": "300",
                 "delta": "0.25"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in flags.items()))
        by_config, by_flags = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["simulate", "--config", str(cfg), "--out", str(by_config)]) == 0
        argv = [tok for key, value in flags.items() for tok in (f"--{key}", value)]
        assert main(["simulate", *argv, "--out", str(by_flags)]) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()

    def test_regime_key_is_a_list_that_flags_replace(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("j = 1\ndraws = 50\n")
        outputs = []
        for argv in (["--config", str(cfg)], ["--j", "1", "--draws", "50"]):
            d = tmp_path / f"run{len(outputs)}"
            assert main(["experiment", *argv, "--out-dir", str(d)]) == 0
            stdout = re.sub(r" runtime_s=\S+", "", capsys.readouterr().out.replace(str(d), "<out>"))
            outputs.append((stdout, {f.name: f.read_bytes() for f in sorted(d.iterdir())}))
        assert outputs[0] == outputs[1]
        d = tmp_path / "replaced"
        assert main(["experiment", "--config", str(cfg), "--j", "2", "--out-dir", str(d)]) == 0
        report = json.loads((d / "report.json").read_text())
        assert [regime["j"] for regime in report["regimes"]] == [2]
        parser, subparsers = cli.build_parser()
        cli._apply_config_defaults(subparsers["experiment"], {"j": "1,2"}, cfg)
        assert parser.parse_args(["experiment"]).j_list == [1, 2]
        assert parser.parse_args(["experiment", "--j", "3", "--j", "4"]).j_list == [3, 4]

    @pytest.mark.parametrize("command, key", [("simulate", "lam"), ("experiment", "j_list")])
    def test_dest_names_are_not_keys(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        assert main([command, "--config", str(cfg)]) == 3
        assert f"unknown config key(s): {key}" in capsys.readouterr().err

    def test_value_outside_choices_is_parse_error(self, tmp_path, capsys):
        inc = simulate_file(tmp_path, delta=0.5, n=1024, seed=3)
        argv = ["estimate", "--increments", str(inc), "--K", "4", "--truth", "vg:0,0.117,0.002"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("truth_convention = Decaying\n")
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 3
        assert "key truth_convention: 'Decaying' is not one of decaying, printed" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()
        for convention in ("decaying", "printed"):
            cfg.write_text(f"truth_convention = {convention}\n")
            by_config, by_flag = tmp_path / "a.json", tmp_path / "b.json"
            assert main([*argv, "--config", str(cfg), "--out", str(by_config)]) == 0
            from_config = capsys.readouterr().out.replace(str(by_config), "<out>")
            assert main([*argv, "--truth-convention", convention, "--out", str(by_flag)]) == 0
            assert capsys.readouterr().out.replace(str(by_flag), "<out>") == from_config
            assert f", {convention})" in from_config and by_config.read_bytes() == by_flag.read_bytes()
        # The family and the process have no fallback past these refusals: exit 2 for a flag, 3 for a key.
        estimate_argv = ["estimate", "--increments", str(inc), "--out", str(tmp_path / "y")]
        simulate_argv = ["simulate", "--delta", "0.5", "--n", "8", "--out", str(tmp_path / "y")]
        for argv, key in ((estimate_argv, "family"), (simulate_argv, "process")):
            assert main([*argv, f"--{key}", "fancy"]) == 2
            assert "invalid choice: 'fancy'" in capsys.readouterr().err
            cfg.write_text(f"{key} = fancy\n")
            assert main([*argv, "--config", str(cfg)]) == 3
            assert f"key {key}: 'fancy' is not one of" in capsys.readouterr().err
            assert not (tmp_path / "y").exists()

    def test_config_equals_form_reads_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nn = 64\ndelta = 0.25\n")
        spaced, joined = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(["simulate", "--config", str(cfg), "--out", str(spaced)]) == 0
        assert main(["simulate", f"--config={cfg}", "--out", str(joined)]) == 0
        assert header_of(joined)["seed"] == 7 and joined.read_bytes() == spaced.read_bytes()

    @pytest.mark.parametrize("text, reason", [
        ("0.01", "expected a window as 'lo,hi', got '0.01'"),
        ("a,b", "expected a window as 'lo,hi', got 'a,b'"),
        ("0.1,0.2,0.3", "expected a window as 'lo,hi', got '0.1,0.2,0.3'"),
        ("2,1", "window requires a < b, got [2.0, 1.0]"),
        ("nan,1", "window endpoints must be finite, got [nan, 1.0]"),
    ])
    def test_bad_window_prints_its_reason(self, tmp_path, capsys, text, reason):
        inc = simulate_file(tmp_path, delta=0.5, n=64, seed=3)
        argv = ["estimate", "--increments", str(inc), "--out", str(tmp_path / "c.json")]
        capsys.readouterr()
        assert main([*argv, "--window", text]) == 2
        assert f"argument --window: {reason}\n" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"window = {text}\n")
        assert main([*argv, "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"error: {cfg}: key window: bad value {text!r} ({reason})\n"
        assert not (tmp_path / "c.json").exists()

    def test_missing_equals_is_parse_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3


class TestPooledFiles:
    """simulate and estimate through forked workers in tiny blocks (the pooled_io fixture)."""

    def test_no_worker_outlives_a_command(self, tmp_path, monkeypatch, pooled_io, capsys):
        monkeypatch.setattr(processes, "BLOCK", 16)  # 64 increments in 4 blocks
        inc = simulate_file(tmp_path, delta=0.5, n=64, seed=3)
        assert pooled_io.pools == 1 and multiprocessing.active_children() == []
        with monkeypatch.context() as m:
            m.setattr(processes, "_io_workers", lambda: 1)
            one = simulate_file(tmp_path, name="one.txt", delta=0.5, n=64, seed=3)
        assert inc.read_bytes() == one.read_bytes()
        out = tmp_path / "coeffs.json"
        assert main(["estimate", "--increments", str(inc), "--K", "8", "--out", str(out)]) == 0
        assert pooled_io.pools == 2 and multiprocessing.active_children() == []  # the 4-block fold
        basis = BasisSystem.trigonometric(Window(0.005, 0.015), 8)
        loaded = read_coefficients_json(out)
        direct = empirical_coefficients(simulate(DEFAULT_VG_PARAMS, SamplingScheme(0.5, 64), 3), basis)
        assert np.array_equal(loaded.values, direct.values)
        text = tmp_path / "inc_text.txt"
        reference_write_increments(text, read_increments(inc))
        lines = text.read_bytes().splitlines(keepends=True)
        text.write_bytes(b"".join(lines[:50] + [b"oops\n"] + lines[50:]))
        assert main(["estimate", "--increments", str(text), "--K", "8", "--out", str(out)]) == 3
        assert "line 51: not a number: 'oops'" in capsys.readouterr().err
        assert pooled_io.pools == 3 and multiprocessing.active_children() == []  # the direct fold; text is read here


    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pipeline_matches_run_regime_in_blocks(self, tmp_path, monkeypatch, pooled_io, cpus):
        """simulate --j 1 then estimate equals run_regime bit for bit when j=1 spans five blocks."""
        monkeypatch.setattr(processes, "BLOCK", 1 << 15)
        monkeypatch.setattr(processes, "_io_workers", lambda: cpus)
        expected = run_regime(RegimeSpec.from_j(1), num_draws=10, seed=MASTER_SEED).theta_hat.values
        inc, out = tmp_path / "j1.bin", tmp_path / "coeffs.json"
        assert main(["simulate", "--j", "1", "--seed", str(derive_seed(MASTER_SEED, "simulate")), "--out", str(inc)]) == 0
        assert main(["estimate", "--increments", str(inc), "--out", str(out)]) == 0
        assert read_coefficients_json(out).values.tobytes() == expected.tobytes()
        assert pooled_io.workers == ([2, 2, 2] if cpus == 2 else [])  # the regime's fold, the writer, the fold


class TestExitCodes:
    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert main([]) == 2
        assert main(["bogus-command"]) == 2
        assert main(["simulate"]) == 2  # missing --out
        assert main(["simulate", "--out", str(tmp_path / "x")]) == 2  # missing scheme
        capsys.readouterr()

    def test_estimate_error_writes_no_out_file(self, tmp_path, capsys):
        # The error summary's grid is refused after the fold; --out is written only after it.
        inc = simulate_file(tmp_path, "inc.bin", delta=0.001, n=100)
        out = tmp_path / "o.json"
        argv = ["estimate", "--increments", str(inc), "--out", str(out), "--truth", "vg:0,0.117,0.002"]
        assert main(argv + ["--grid-points", "100000000000"]) == 4
        assert "materialization limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--j", "1", "--seed", "-3"], ["--j", "0"], ["--j", "1", "--j", "0"]])
    def test_experiment_error_creates_no_out_dir(self, tmp_path, capsys, flags):
        assert main(["experiment", *flags, "--draws", "10", "--out-dir", str(tmp_path / "exp")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("alpha", ["-0.5", "0", "-1", "nan", "inf"])
    def test_experiment_alpha_not_positive_exits_2(self, tmp_path, capsys, alpha):
        argv = ["experiment", "--j", "1", "--draws", "10", "--alpha", alpha, "--out-dir", str(tmp_path / "exp")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha_assumed must be positive and finite, got ") and err.count("\n") == 1
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("flags, config", [(["--j", "1", "--j", "1"], None), ([], "j = 2,1,2\n")])
    def test_experiment_repeated_regime_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys, flags, config):
        monkeypatch.setattr(cli, "run_regime", lambda *args, **kwargs: pytest.fail("a regime ran"))
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            flags = ["--config", str(tmp_path / "run.cfg")]
        assert main(["experiment", *flags, "--out-dir", str(tmp_path / "exp")]) == 2
        assert "each regime index may be passed once" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("truth, message", [
        ("gauss:0,1,2", "unknown truth family 'gauss:0,1,2'; expected 'vg:mu,sigma,nu'"),
        ("vg:0,0.117", "expected 'vg:mu,sigma,nu', got 'vg:0,0.117'"),
        ("vg:0,x,0.002", "expected 'vg:mu,sigma,nu', got 'vg:0,x,0.002'"),
    ])
    def test_malformed_truth_exits_2(self, tmp_path, capsys, truth, message):
        inc = simulate_file(tmp_path, delta=0.5, n=64, seed=3)
        out = tmp_path / "c.json"
        assert main(["estimate", "--increments", str(inc), "--truth", truth, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_j_with_delta_exits_2(self, tmp_path, capsys):
        for argv in (["simulate", "--out", str(tmp_path / "x")], ["check"]):
            assert main([*argv, "--j", "1", "--delta", "0.5"]) == 2
            assert capsys.readouterr().err == "error: pass either --j or --delta/--n, not both\n"
        assert not (tmp_path / "x").exists()

    def test_coeffs_not_json_exits_3(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text('{"basis": {"family": "trigonometric"},\n "values": [1.0,]}\n')
        assert main(["posterior", "--coeffs", str(coeffs), "--out-dir", str(tmp_path / "post")]) == 3
        assert capsys.readouterr().err.startswith(f"error: {coeffs}: line 2: invalid JSON: ")
        assert not (tmp_path / "post").exists()

    def test_posterior_error_writes_no_out_dir(self, tmp_path, capsys):
        # A 513-point grid on D = [-0.01, 0.01] holds x = 0, where no Levy density is defined.
        inc = simulate_file(tmp_path, "inc.bin", delta=0.001, n=4096)
        coeffs = tmp_path / "c0.json"
        assert main(["estimate", "--increments", str(inc), "--window=-0.01,0.01", "--K", "20", "--out", str(coeffs)]) == 0
        argv = ["posterior", "--coeffs", str(coeffs), "--D=-0.01,0.01", "--grid-points", "513",
                "--truth", "vg:0,0.117,0.002", "--out-dir", str(tmp_path / "p")]
        assert main(argv) == 2
        assert "not defined at x = 0" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_bad_jump_spec_exits_3(self, tmp_path, capsys):
        argv = ["simulate", "--process", "cpois", "--lambda", "1.0", "--jump", "fancy:1",
                "--delta", "0.5", "--n", "16", "--out", str(tmp_path / "x")]
        assert main(argv) == 3
        assert "fancy" in capsys.readouterr().err

    def test_malformed_increments_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\nabc\n")
        assert main(["estimate", "--increments", str(bad), "--delta", "0.5",
                     "--K", "2", "--out", str(tmp_path / "o.json")]) == 3
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_text_increment_exits_3(self, tmp_path, capsys, value):
        bad = tmp_path / "inc.txt"
        bad.write_text(f"# delta=0.5 n=3 seed=1\n0.1\n{value}\n0.3\n")
        out = tmp_path / "o.json"
        assert main(["estimate", "--increments", str(bad), "--K", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {bad}: line 3: not a finite number: {value!r}\n"
        assert not out.exists()

    def test_non_finite_binary_increment_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "inc.bin"
        bad.write_bytes(json.dumps(BINARY_HEADER | {"n": 2}).encode("ascii") + b"\n" + np.array([math.nan, math.inf]).tobytes())
        out = tmp_path / "o.json"
        assert main(["estimate", "--increments", str(bad), "--K", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {bad}: increment 1 is not finite: nan\n"
        assert not out.exists()

    def test_unbounded_text_line_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "inc.txt"
        bad.write_bytes(b"1" * (8 << 20))
        out = tmp_path / "o.json"
        tracemalloc.start()
        try:
            assert main(["estimate", "--increments", str(bad), "--delta", "0.5", "--K", "2", "--out", str(out)]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 1: longer than 4096 characters")
        assert peak < 1 << 20 and not out.exists()
        bad.write_bytes(b"0.5\n" * 10 + b" " * 5000 + b"0.5\n0.5\n")  # line 11, in the first batch
        assert main(["estimate", "--increments", str(bad), "--delta", "0.5", "--K", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {bad}: line 11: longer than 4096 characters\n"

    def test_bad_header_delta_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "inc.txt"
        bad.write_text("# delta=-1 n=3 seed=1\n0.1\n0.2\n0.3\n")
        assert main(["estimate", "--increments", str(bad), "--K", "2", "--out", str(tmp_path / "o.json")]) == 3
        assert f"{bad}: line 1: header delta must be positive and finite" in capsys.readouterr().err

    def test_bad_delta_flag_exits_2(self, tmp_path, capsys):
        inc = tmp_path / "inc.txt"
        inc.write_text("0.1\n0.2\n")
        assert main(["estimate", "--increments", str(inc), "--delta", "-1",
                     "--K", "2", "--out", str(tmp_path / "o.json")]) == 2
        assert "delta must be positive and finite" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["estimate", "--increments", str(tmp_path / "nope.txt"),
                     "--K", "2", "--out", str(tmp_path / "o.json")]) == 2
        capsys.readouterr()

    def test_resource_guard_exits_4(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise ResourceGuardError("budget exceeded")

        monkeypatch.setattr(cli, "delta_condition", refuse)
        assert main(["check", "--j", "1"]) == 4
        assert "budget exceeded" in capsys.readouterr().err

    def test_posterior_draw_guard_exits_4(self, tmp_path, capsys):
        # 1e9 draws x 512 grid points would need 3.7 TiB; the guard refuses first
        coeffs = write_coeffs(tmp_path, [5.0, -2.0])
        out = tmp_path / "post"
        argv = ["posterior", "--coeffs", str(coeffs), "--out-dir", str(out), "--draws", "1000000000"]
        assert main(argv) == 4
        assert "materialization limit" in capsys.readouterr().err
        assert not out.exists()

    def test_posterior_theta_guard_exits_4(self, tmp_path, monkeypatch, capsys):
        # 400 draws on 2 grid points pass the limit, their theta matrices at k_max = 20 do not
        monkeypatch.setattr(posterior, "MATERIALIZE_LIMIT", 1000)
        coeffs = write_coeffs(tmp_path, np.ones(20))
        out = tmp_path / "post"
        argv = ["posterior", "--coeffs", str(coeffs), "--out-dir", str(out), "--draws", "400", "--grid-points", "2"]
        assert main(argv) == 4
        assert "k_max=20" in capsys.readouterr().err
        assert not out.exists()

    def test_non_ascii_increments_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "inc.txt"
        bad.write_bytes(b"0.1\n0.\xe92\n")
        assert main(["estimate", "--increments", str(bad), "--delta", "0.5",
                     "--K", "2", "--out", str(tmp_path / "o.json")]) == 3
        assert f"{bad}: not ASCII text" in capsys.readouterr().err

    def test_non_ascii_config_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# caf\xe9\nseed = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert f"{cfg}: not ASCII text" in capsys.readouterr().err

    def test_non_ascii_coeffs_exit_3(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_bytes(b'{"role": "x\xe9"}\n')
        assert main(["posterior", "--coeffs", str(coeffs), "--out-dir", str(tmp_path / "post")]) == 3
        assert f"{coeffs}: not ASCII text" in capsys.readouterr().err

    @pytest.mark.parametrize("case, malform", [
        ("K not a number", lambda d: d["basis"].update(K="x")),
        ("top-level list", lambda d: [d]),
        ("null basis", lambda d: d.update(basis=None)),
        ("values not numbers", lambda d: d.update(values="abc")),
        ("null value", lambda d: d["values"].__setitem__(1, None)),
        ("t_n not a number", lambda d: d.update(t_n="x")),
        ("t_n negative", lambda d: d.update(t_n=-1.0)),
        ("t_n zero", lambda d: d.update(t_n=0)),
        ("unknown family", lambda d: d["basis"].update(family="wavelet")),
        ("values missing", lambda d: d.pop("values")),
        ("K is not J*L", lambda d: d.update(basis={"family": "piecewise-legendre", "a": 0.005, "b": 0.015,
                                                   "K": 5, "J": 2, "L": 2})),
        ("K not integral", lambda d: d["basis"].update(K=4.7)),
        ("K a float", lambda d: d["basis"].update(K=4.0)),
        ("K a string", lambda d: d["basis"].update(K="4")),
        ("K a bool", lambda d: d["basis"].update(K=True)),
        ("J a float", lambda d: d.update(basis={"family": "piecewise-legendre", "a": 0.005, "b": 0.015,
                                                "K": 4, "J": 2.5, "L": 2})),
        ("L a bool", lambda d: d.update(basis={"family": "piecewise-legendre", "a": 0.005, "b": 0.015,
                                               "K": 4, "J": 4, "L": True})),
        ("wrong number of values", lambda d: d["values"].pop()),
        ("value a string", lambda d: d["values"].__setitem__(0, "5.0")),
        ("value a bool", lambda d: d["values"].__setitem__(1, True)),
        ("role not a string", lambda d: d.update(role=["x"])),
        ("a a string", lambda d: d["basis"].update(a="0.005")),
        ("b a bool", lambda d: d["basis"].update(b=True)),
        ("t_n a bool", lambda d: d.update(t_n=True)),
        ("value too large for a float", lambda d: d["values"].__setitem__(0, 10**400)),
    ])
    def test_malformed_coeffs_exit_3_naming_the_file(self, tmp_path, capsys, case, malform):
        payload = json.loads(write_coeffs(tmp_path, [5.0, -2.0, 1.0, 0.5]).read_text())
        result = malform(payload)
        coeffs = tmp_path / "bad.json"
        coeffs.write_text(json.dumps(result if isinstance(result, list) else payload))
        out = tmp_path / "post"
        assert main(["posterior", "--coeffs", str(coeffs), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {coeffs}: ")
        assert not out.exists()

    def test_increments_guard_exits_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(processes, "MATERIALIZE_LIMIT", 4)
        declared = tmp_path / "declared.txt"
        declared.write_text("# delta=0.5 n=5 seed=1\n")
        body = tmp_path / "body.txt"
        body.write_text("1\n2\n3\n4\n5\n")
        for path, extra in ((declared, []), (body, ["--delta", "0.5"])):
            out = tmp_path / "o.json"
            assert main(["estimate", "--increments", str(path), "--K", "2", "--out", str(out)] + extra) == 4
            assert "materialization limit" in capsys.readouterr().err
            assert not out.exists()

    def test_binary_header_above_limit_exits_4_before_the_body(self, tmp_path, monkeypatch, capsys):
        reads = []
        monkeypatch.setattr(processes, "_read_block", lambda *args: reads.append(args))
        declared = tmp_path / "declared.bin"
        n = processes.MATERIALIZE_LIMIT + 1
        declared.write_bytes(json.dumps(BINARY_HEADER | {"n": n}).encode("ascii") + b"\n" + bytes(16))
        out = tmp_path / "o.json"
        assert main(["estimate", "--increments", str(declared), "--K", "2", "--out", str(out)]) == 4
        assert f"{declared}: header declares n={n} increments" in capsys.readouterr().err
        assert reads == [] and not out.exists()

    def test_binary_header_without_line_end_exits_3(self, tmp_path, capsys):
        inc = tmp_path / "inc.bin"
        inc.write_bytes(b"{" + b" " * (8 << 20))
        out = tmp_path / "o.json"
        tracemalloc.start()
        try:
            assert main(["estimate", "--increments", str(inc), "--delta", "0.5", "--K", "2", "--out", str(out)]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err.startswith(f"error: {inc}: line 1: header has no line end")
        assert peak < 1 << 20 and not out.exists()

    @pytest.mark.parametrize("case", sorted(BINARY_CASES))
    def test_malformed_binary_increments_exit_3_naming_the_file(self, tmp_path, capsys, case):
        header, body, message = BINARY_CASES[case]
        line = header if isinstance(header, bytes) else json.dumps(header).encode("ascii")
        inc = tmp_path / "inc.bin"
        inc.write_bytes(line + b"\n" + body)
        out = tmp_path / "o.json"
        assert main(["estimate", "--increments", str(inc), "--delta", "0.5", "--K", "2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {inc}: ") and message in err
        assert not out.exists()
        inc.write_bytes(json.dumps(BINARY_HEADER).encode("ascii") + b"\n" + bytes(24))
        assert main(["estimate", "--increments", str(inc), "--K", "2", "--out", str(out)]) == 0
