"""Benchmark entry point for the vilenkin library.

    python3 perfbench/run.py --workload bound-scan --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout. Every workload runs in fresh
worker processes with `src` on PYTHONPATH and BLAS pinned to one thread;
reports go to a scratch folder inside the checkout that is removed at the
end. `--trace 0` prints the end-to-end metrics of BENCHMARK.json, and
`--trace 1` the per-layer metrics of a separate traced run. The last line
of standard output is the result object; the line before it holds the
details (op medians, report sha256s, set-up samples, machine block).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench_tmp"

# fresh processes whose set-up time is measured; the median is reported
SETUP_SAMPLES = 5
# a run must end within this many seconds, whatever --seconds asks
DEADLINE_S = 170.0

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerFailed(Exception):
    pass


def _worker(mode, args, outdir, env, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds), outdir]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker timed out") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(main, setups):
    passes = main["passes"]
    op_median = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    wall = sum(op_median.values())
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "indices_per_s": main["indices"] / wall,
        "peak_rss_mb": main["peak_rss_mb"],
    }, op_median


def _per_layer(main, names):
    layers = dict(main["layers"])
    untraced = statistics.median(sum(p.values()) for p in main["passes"])
    layers["trace.overhead_s"] = statistics.median(main["traced_walls"]) - untraced
    return {name: layers.get(name, 0) for name in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "vilenkin" / "__init__.py").is_file():
        print(f"error: no vilenkin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics_spec}

    SCRATCH.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    env = dict(os.environ, **PINNED_ENV, TMPDIR=run_dir,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))

    def setup_time():
        return _worker("setup", args, tempfile.mkdtemp(dir=run_dir), env, deadline)["setup_s"]

    try:
        if args.trace:
            main_run = _worker("trace", args, tempfile.mkdtemp(dir=run_dir), env, deadline)
            values = _per_layer(main_run, units)
            setups = [main_run["setup_s"]]
        else:
            # set-up samples on both sides of the measured run, so that a slow
            # phase of the machine weighs on them the way it weighs on the run
            setups = [setup_time() for _ in range(SETUP_SAMPLES // 2)]
            main_run = _worker("measure", args, tempfile.mkdtemp(dir=run_dir), env, deadline)
            setups += [main_run["setup_s"]] + [setup_time() for _ in range(SETUP_SAMPLES // 2)]
            values, op_median = _end_to_end(main_run, setups)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted, failed = main_run["attempted"], main_run["failed"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(main_run["passes"]),
        "error_rate": failed / attempted,
        "failures": main_run["failures"],
        "setup_samples_s": setups,
        "pass_wall_s": [sum(p.values()) for p in main_run["passes"]],
        "report_sha256": main_run["report_sha256"],
        "machine": main_run["machine"],
    }
    if args.trace:
        detail["traced_pass_wall_s"] = main_run["traced_walls"]
        detail["layers"] = main_run["layers"]
    else:
        detail["op_median_s"] = op_median
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
