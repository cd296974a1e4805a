"""One workload in its own process: set up, timed passes, checks, raw results as JSON.

`run.py` starts this script; it is not meant to be run by hand.  With
`--setup-only` it times the package import plus building the workload's fixed
inputs and exits.  Otherwise it runs passes until `--seconds` of pass time
and at least the minimum pass count are reached, checks every pass, deletes
each pass's files, and prints one JSON object as its last stdout line.
The process is the workload's alone, so its peak RSS is the workload's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench" / "work"
TRACE_DIR = ROOT / ".perfbench" / "traces"

# A cli_files pass takes 15 s or more; two of them keep its run within the
# benchmark's time budget.  The other workloads fit many passes in a run.
MIN_PASSES = 2
MIN_TRACE_PASSES = 2  # traced run: of each kind, traced and untraced, alternating
SPEEDUP_REPS = 3


def digest(outputs: dict, workdir: str) -> str:
    """Hash of the pass's output arrays and of every file it wrote."""
    import numpy as np

    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode())
        h.update(memoryview(np.ascontiguousarray(outputs[name])).cast("B"))
    for path in sorted(Path(workdir).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(workdir)).encode())
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 22), b""):
                    h.update(chunk)
    return h.hexdigest()


def disk_bytes(workdir: str) -> int:
    return sum(p.stat().st_size for p in Path(workdir).rglob("*") if p.is_file())


def perturb(outputs: dict) -> None:
    """Move every coefficient output by one ulp: the smoke test's deliberate defect."""
    import numpy as np

    for name, value in outputs.items():
        if name.endswith("theta_hat"):
            outputs[name] = np.nextafter(value, np.inf)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--perturb", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # numpy and the package are imported here, not at the top, so that their
    # import counts toward the set-up time.
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import levygibbs

    if not Path(levygibbs.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"levygibbs imported from {levygibbs.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.TINY if args.tiny else workloads.FULL)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    passes, spans = [], []

    def one_pass(traced: bool, warmup: bool = False) -> None:
        index = len(passes)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
        record = {"traced": traced, "problems": []}
        try:
            tracer = tracing.Tracer() if traced else None
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                if traced:
                    with tracer.span("bench.pass"):
                        outputs = workload.run(workdir)
                else:
                    outputs = workload.run(workdir)
                if not warmup:
                    record["wall_s"] = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                record["layers"] = tracing.layer_metrics(tracer.spans)
                spans.extend(s.to_dict(args.workload, index) for s in tracer.spans)
            if args.perturb and index == 1:
                perturb(outputs)
            record["problems"] += workload.check(outputs)
            record["digest"] = digest(outputs, workdir)
            record["disk_bytes"] = disk_bytes(workdir)
        except Exception:
            record["problems"].append(f"pass {index} raised:\n{traceback.format_exc()}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if passes and "digest" in record and record["digest"] != passes[0].get("digest"):
            record["problems"].append(f"pass {index} output digest differs from pass 0")
        passes.append(record)

    for _ in range(workload.WARMUP_PASSES):
        one_pass(traced=False, warmup=True)
    min_passes = 2 * MIN_TRACE_PASSES if args.trace else MIN_PASSES
    while not (passes and passes[-1]["problems"]):
        walls = [r["wall_s"] for r in passes if "wall_s" in r]
        if sum(walls) >= args.seconds and len(walls) >= min_passes:
            break
        one_pass(traced=bool(args.trace) and len(walls) % 2 == 1)

    import numpy
    import scipy

    versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    result = {"setup_s": setup_s, "n": workload.n, "passes": passes, "versions": versions}
    if args.trace and args.workload == "vg_study" and not passes[-1]["problems"]:
        result["speedup"], same = speedup_2w(args.seed, tuple(spec.j for spec in workload.specs))
        passes.append({"traced": False, "problems": [] if same else ["1-worker and 2-worker folds differ"]})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if spans:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        with open(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl", "w", encoding="ascii") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps(result))
    return 0


def speedup_2w(seed: int, js: tuple[int, ...]) -> tuple[dict, bool]:
    """Times of the streamed simulate + fold at 1 and 2 workers, alternating, and whether they agree."""
    import numpy as np

    import workloads

    times = {1: [], 2: []}
    results = {}
    for _ in range(SPEEDUP_REPS):
        for workers in (1, 2):
            t0 = time.perf_counter()
            results[workers] = workloads.simulate_and_fold(seed, js, workers)
            times[workers].append(time.perf_counter() - t0)
    same = all(np.array_equal(a, b) for a, b in zip(results[1], results[2]))
    return {"1": times[1], "2": times[2]}, same


if __name__ == "__main__":
    raise SystemExit(main())
