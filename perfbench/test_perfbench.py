"""The benchmark's own test: its oracles, its traced layers and its failure mode.

    python3 -m pytest perfbench -q

Runs one traced pass of every workload (about 40 s), so it is kept out
of the library's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from vilenkin import radix, spectral  # noqa: E402

# Layers whose per-layer metrics must record calls on each workload.
# norms.lebesgue_scan is left out: run_lebesgue_scan inlines it.
EXPECTED_CALLS = {
    "bound-scan": [
        "cli.main", "experiments.run_lebesgue_scan", "experiments.write_report",
        "spectral.character_block", "spectral.cumulative_l1_norms",
        "norms.variation_values",
    ],
    "strong-means": [
        "cli.main", "experiments.run_gat", "experiments.run_divergence",
        "experiments.run_equiv_check", "experiments.write_report",
        "experiments.random_step_corpus", "spectral.character_block",
        "spectral.cumulative_l1_norms", "spectral.fejer_l1_norms",
        "spectral.partial_sum", "spectral.forward_fast",
        "hardy.maximal_function", "hardy.check_norm_equivalence",
    ],
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per-layer metrics and check errors of one traced pass per workload."""
    out = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 7, str(tmp_path_factory.mktemp(name)))
        workload.warm()
        tracer = spans.Tracer()
        _, errors, _ = worker.run_pass(workload, {}, tracer)
        out[name] = (tracer.layer_metrics(), errors)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_checks_and_calls(traced, name):
    layers, errors = traced[name]
    assert errors == {}
    silent = [fn for fn in EXPECTED_CALLS[name] if layers.get(f"{fn}.calls", 0) == 0]
    assert silent == [], f"no calls recorded on {name}: {silent}"


def test_every_listed_layer_metric_is_produced(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = {"trace.overhead_s", "norms.lebesgue_scan.calls"}
    for layers, _ in traced.values():
        produced |= set(layers)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    assert missing == []


def test_tracer_restores_the_library():
    before = spectral.character_block
    with spans.Tracer():
        assert spectral.character_block is not before
    assert spectral.character_block is before


@pytest.mark.parametrize("spec,depth", [("2^6", None), ("3^4", None), ("2,3,4", 6), ("5,2,7", 2)])
def test_batched_synthesis_agrees_with_the_library(spec, depth):
    sys_ = radix.parse_radix_spec(spec, depth)
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((3, sys_.cells)) + 1j * rng.standard_normal((3, sys_.cells))
    want = [spectral.inverse_transform(spectral.SpectralVector(sys_, r)).values for r in rows]
    assert np.abs(workloads._synthesize_rows(sys_, rows) - want).max() <= 1e-12


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bound-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
