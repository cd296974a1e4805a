"""levygibbs benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload vg_study --seed 0 --seconds 20 --trace 0

Workloads: vg_study, cli_files, dense_window (see perfbench/README.md); without
`--workload` all three run in turn, each printing its own result.  The
package is imported from `src/` of the checkout this file sits in; nothing
needs installing.  Every workload runs in its own child process, with
`LEVY_GIBBS_THREADS` unset so the library default of one worker applies.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics from the traced ones.
Each metric is printed as `name = value unit`, then the provenance, and the
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 only when every pass was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import LAYER_METRICS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("vg_study", "cli_files", "dense_window")
SETUP_RUNS = 3  # set-up-only child processes, besides the worker's own set-up
TIME_LIMIT_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("run_s.p50", "s"),
    ("increments_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("disk_mb", "MB"),
]


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (the maximum below 11 samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} passes"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} passes, 10 beyond it"


def provenance(seed: int, threads: str | None, versions: dict) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = read(f"{index}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = read(f"{index}/size")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "git_revision": git_revision(),
        "workload_seed": seed,
        "LEVY_GIBBS_THREADS": threads if threads is not None else "unset",
        "threads_in_run": "unset (1 worker)",
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run the worker with `args`; return its last stdout line as JSON, or raise."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args: argparse.Namespace) -> int:
    """Measure one workload in child processes, print its metrics, return the exit code."""
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    threads = env.pop("LEVY_GIBBS_THREADS", None)
    common = ["--workload", name, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    try:
        setups = [child(common + ["--setup-only"], env, deadline)["setup_s"] for _ in range(SETUP_RUNS)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        raw = child(common + extra + (["--perturb"] if args.perturb else []), env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1

    passes = raw["passes"]
    failed = sum(1 for r in passes if r["problems"])
    for r in passes:
        for problem in r["problems"]:
            print(f"FAILED: {problem}")
    untraced = [r["wall_s"] for r in passes if "wall_s" in r and not r["traced"]]
    traced = [r for r in passes if "wall_s" in r and r["traced"]]
    p50 = statistics.median(untraced) if untraced else 0.0
    notes = {}

    print(f"levygibbs benchmark: workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        units = {metric: unit for metric, unit, _ in LAYER_METRICS}
        metrics = {
            metric: statistics.median(r["layers"][metric] for r in traced) if traced else 0.0
            for metric in units
        }
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - p50 if traced else 0.0
        if "speedup" in raw:
            w1, w2 = (statistics.median(raw["speedup"][k]) for k in ("1", "2"))
            metrics["processes.speedup_2w"] = w1 / w2
            notes["processes.speedup_2w"] = f"{w1:.4f} s at 1 worker / {w2:.4f} s at 2 workers"
        notes["trace.wall_s"] = f"median of {len(traced)} traced passes; untraced p50 {p50:.4f} s"
    else:
        units = dict(END_TO_END)
        setups.append(raw["setup_s"])
        disk = [r["disk_bytes"] for r in passes if "disk_bytes" in r]
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s.p50": p50,
            "increments_per_s": raw["n"] / p50 if p50 else 0.0,
            "peak_rss_mb": raw["peak_rss_mb"],
            "disk_mb": statistics.median(disk) / 1e6 if disk else 0.0,
        }
        notes["setup_s"] = f"median of {len(setups)} set-ups"
        notes["run_s.p50"] = f"median of {len(untraced)} passes"
        notes["increments_per_s"] = f"n = {raw['n']}"
    for metric, value in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{metric} = {value:.6g} {units[metric]}{note}")
    if not args.trace and untraced:
        # Printed, not bounded: see perfbench/README.md.
        tail_value, tail_note = tail(untraced)
        print(f"run_s.tail = {tail_value:.6g} s  ({tail_note})")
    print("pass walls (s): " + " ".join(f"{w:.4f}" for w in untraced))
    print(f"failed_ops_ratio = {failed / max(1, len(passes)):.6g} ratio  ({failed} of {len(passes)} operations)")
    print("provenance: " + json.dumps(provenance(args.seed, threads, raw["versions"])))
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="levygibbs benchmark")
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",),
                   help="one workload, or all of them in turn (default)")
    p.add_argument("--seed", type=int, default=0, help="workload seed (default 0, the master seed)")
    p.add_argument("--seconds", type=int, default=20, help="pass time to measure")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes, not the benchmark")
    p.add_argument("--perturb", action="store_true", help="smoke test: corrupt one pass's output")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "levygibbs" / "__init__.py").is_file():
        print(f"error: no levygibbs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max([run_workload(name, args) for name in names])


if __name__ == "__main__":
    raise SystemExit(main())
