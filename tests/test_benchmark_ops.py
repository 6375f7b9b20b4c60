"""The benchmark's workloads still run on the library: one traced pass of
each workload fails no op.

The benchmark (perfbench/) drives the library through CLI argv such as
`--threads 1`, checks every output against an independent route, and its
per-layer counters read call arguments by position.  A library change that
breaks any of these makes an op fail here, in the library's own suite.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_fails_no_op(tmp_path, name):
    workload = workloads.build(name, 7, str(tmp_path))
    workload.warm()
    tracer = spans.Tracer()
    times, errors, _ = worker.run_pass(workload, {}, tracer)
    assert errors == {}
    assert list(times) == [op.name for op in workload.ops]
    # every op went through the traced CLI entry point once
    assert tracer.layer_metrics()["cli.main.calls"] == len(workload.ops)


def test_strong_means_scan_counter_keeps_its_meaning(tmp_path):
    # gat scans both log-mean forms of each function on its own G_r, up to
    # M_r: 2 x sum_i (M_{r_i} - 1) = 2 x (13 x 1 + 13 x 3 + 12 x 7 + 12 x 15)
    # row steps over the 50-function corpus of ranks 1 .. 4 on 2^10
    workload = workloads.build("strong-means", 7, str(tmp_path))
    workload.warm()
    tracer = spans.Tracer()
    _, errors, _ = worker.run_pass(workload, {}, tracer)
    assert errors == {}
    assert tracer.layer_metrics()["spectral.cumulative_l1_norms.row_steps"] == 632
    # BENCHMARK.json reads hardy.maximal_function.calls: one per chunk of an
    # H1 pass and one per h1_norm, 4 + 3 + 10 over gat's four rank groups,
    # divergence's three alphas and equiv-check's ten rank groups
    assert tracer.layer_metrics()["hardy.maximal_function.calls"] == 17


def test_bound_scan_counts_one_lebesgue_scan_per_op(tmp_path):
    # BENCHMARK.json reads norms.lebesgue_scan.calls: every L_n of a
    # bound-scan op goes through the public name, one call per op
    workload = workloads.build("bound-scan", 7, str(tmp_path))
    workload.warm()
    tracer = spans.Tracer()
    _, errors, _ = worker.run_pass(workload, {}, tracer)
    assert errors == {}
    assert len(workload.ops) == 3
    assert tracer.layer_metrics()["norms.lebesgue_scan.calls"] == 3
