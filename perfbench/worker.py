"""One benchmark process: set up a workload, time its passes, check every op.

    python3 perfbench/worker.py <setup|measure|trace> <workload> <seed> <seconds> <outdir>

`run.py` starts this with `src` on PYTHONPATH and BLAS pinned to one thread.
It prints one JSON object on stdout:

- setup:   the set-up time only (imports, systems, seeded inputs, warm caches);
- measure: set-up time, op times of every pass, check results, report
           digests, peak RSS and the machine block;
- trace:   alternates untraced and traced passes and adds the per-layer
           metrics of the traced ones.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def run_pass(workload, verified, tracer=None):
    """Time every op once, then check each output outside the timed spans.

    Returns the op times, the failures, and the peak RSS in MB up to the end
    of the ops.

    `verified` maps an op to the sha256 of an output that passed its full
    check. An output with the same bytes passes without repeating the check;
    any other output is checked in full.
    """
    times, outputs, errors = {}, [], {}
    with tracer if tracer is not None else contextlib.nullcontext():
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                outputs.append(op.run())
            except Exception:  # a crashing op counts as failed; keep going
                outputs.append(None)
                errors[op.name] = traceback.format_exc(limit=3)
            times[op.name] = time.perf_counter() - t0
    # read before the checks, which allocate memory of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op, out in zip(workload.ops, outputs):
        if op.name in errors:
            continue
        try:
            digest = op.digest(out)
            if verified.get(op.name) != digest:
                op.check(out)
                verified[op.name] = digest
        except workloads.CheckFailed as exc:
            errors[op.name] = str(exc)
        except Exception:
            errors[op.name] = traceback.format_exc(limit=3)
    return times, errors, peak_rss_mb


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu():
    model, caches = None, {}
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
        base = "/sys/devices/system/cpu/cpu0/cache"
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index"):
                with open(f"{base}/{entry}/level") as fh:
                    level = fh.read().strip()
                with open(f"{base}/{entry}/size") as fh:
                    caches[f"L{level}"] = fh.read().strip()
    except OSError:
        pass
    return model, caches


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model, caches = _cpu()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "L2_per_core": caches.get("L2"),
        "L3": caches.get("L3"),
    }


def main(argv):
    mode, name, seed, seconds, outdir = argv
    seconds = float(seconds)
    workload = workloads.build(name, int(seed), outdir)
    workload.warm()
    result = {"setup_s": time.perf_counter() - _START}
    if mode == "setup":
        return result

    tracer = spans.Tracer() if mode == "trace" else None
    passes, traced_walls, layers = [], [], []
    attempted, failures, verified, peak_rss_mb = 0, {}, {}, None
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if tracer else (False,)):
            times, errors, rss = run_pass(workload, verified, tracer if traced else None)
            peak_rss_mb = peak_rss_mb or rss
            attempted += len(workload.ops)
            for op_name, message in errors.items():
                failures.setdefault(op_name, []).append(message)
            if traced:
                traced_walls.append(sum(times.values()))
                layers.append(tracer.layer_metrics())
            else:
                passes.append(times)
        elapsed = time.perf_counter() - start
        # another round only if it fits at the mean round time so far
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    result.update(
        attempted=attempted,
        failed=sum(len(v) for v in failures.values()),
        failures={k: v[:3] for k, v in failures.items()},
        passes=passes,
        indices=sum(op.indices for op in workload.ops),
        report_sha256=verified,
        peak_rss_mb=peak_rss_mb,  # through the first pass: later passes only repeat it
        machine=machine(),
    )
    if tracer is not None:
        result.update(layers=spans.median_metrics(layers), traced_walls=traced_walls)
    return result


if __name__ == "__main__":
    json.dump(main(sys.argv[1:]), sys.stdout)
    sys.stdout.write("\n")
