"""Reproducible experiment drivers and their report plumbing.

Every driver returns an ExperimentReport: a main table, optional extra
tables, a summary dict, and a violation count for the CLI exit code.  File
output is byte-identical for identical (config, seed); the thread count
enters only the config hash.  Timings are therefore logged to stderr, never
written into report files.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import sys as _sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import __version__
from .hardy import (
    CounterexampleSpec,
    build_counterexample,
    check_norm_equivalence,
    expected_counterexample_coefficients,
    fejer_maximal_check,
    gat_log_average,
    h1_norm,
    partial_sum_l1_norms,
    strong_sum_average,
    window_strong_average,
)
from .norms import (
    lebesgue_constant,
    lebesgue_scan,
    max_lebesgue_log_ratio,
    scan_variation_bounds,
    variation_average,
)
from .radix import RadixSystem
from .spectral import StepFunction, _scan_block, forward_fast

DEFAULT_EQUALITY_TOL = 1e-9
DEFAULT_ORACLE_TOL = 1e-10


@dataclass
class Table:
    columns: list[str]
    rows: list[tuple]


@dataclass
class ExperimentReport:
    experiment: str
    meta: dict[str, str]
    table: Table
    extra_tables: dict[str, Table] = field(default_factory=dict)
    summary: dict[str, object] = field(default_factory=dict)
    violations: int = 0


def config_hash(resolved: dict[str, object]) -> str:
    """sha256 over the canonical key=value rendering of a resolved config."""
    canon = "\n".join(f"{k}={resolved[k]}" for k in sorted(resolved))
    return hashlib.sha256(canon.encode()).hexdigest()


def report_meta(sys: RadixSystem, resolved: dict[str, object]) -> dict[str, str]:
    return {
        "radix": sys.spec_string(),
        "depth": str(sys.depth),
        "version": __version__,
        "config_hash": config_hash(resolved),
    }


def _fmt(x: object) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def render_csv(report: ExperimentReport, table: Table | None = None) -> str:
    """One CSV table with `#` meta header lines; deterministic float text."""
    t = table if table is not None else report.table
    buf = io.StringIO()
    buf.write(f"# experiment={report.experiment}\n")
    for key, val in report.meta.items():
        buf.write(f"# {key}={val}\n")
    buf.write(",".join(t.columns) + "\n")
    for row in t.rows:
        buf.write(",".join(_fmt(x) for x in row) + "\n")
    return buf.getvalue()


def render_json(report: ExperimentReport) -> str:
    payload = {
        "experiment": report.experiment,
        "meta": report.meta,
        "columns": report.table.columns,
        "rows": [list(r) for r in report.table.rows],
        "tables": {
            name: {"columns": t.columns, "rows": [list(r) for r in t.rows]}
            for name, t in report.extra_tables.items()
        },
        "summary": report.summary,
        "violations": report.violations,
    }
    return json.dumps(payload, indent=2) + "\n"


def write_report(report: ExperimentReport, out: str | None, fmt: str) -> list[str]:
    """Write the report; returns the paths written (empty for stdout)."""
    if fmt == "json":
        text = render_json(report)
        if out is None:
            _sys.stdout.write(text)
            return []
        with open(out, "w") as fh:
            fh.write(text)
        return [out]
    if fmt != "csv":
        raise ValueError(f"unknown output format {fmt!r}: use 'csv' or 'json'")
    written = []
    main = render_csv(report)
    if out is None:
        _sys.stdout.write(main)
    else:
        with open(out, "w") as fh:
            fh.write(main)
        written.append(out)
    for name, table in report.extra_tables.items():
        if out is None:
            _sys.stdout.write(f"# table={name}\n")
            _sys.stdout.write(render_csv(report, table))
        else:
            stem, dot, ext = out.rpartition(".")
            side = f"{stem}.{name}.{ext}" if dot else f"{out}.{name}"
            with open(side, "w") as fh:
                fh.write(render_csv(report, table))
            written.append(side)
    return written


# ---------------------------------------------------------------------------
# shared helpers


def random_step_corpus(
    sys: RadixSystem, count: int, max_rank: int, seed: int
) -> list[StepFunction]:
    """Deterministic corpus of complex step functions.

    Function i has rank r_i = 1 + (i mod max_rank); its M_{r_i} base values
    are standard complex normals drawn from numpy.random.default_rng(seed)
    in corpus order, then tiled across the remaining levels.
    """
    if count < 1:
        raise ValueError(f"corpus size must be >= 1, got {count}")
    if not 1 <= max_rank <= sys.depth:
        raise ValueError(f"max rank {max_rank} out of range [1, {sys.depth}]")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        width = sys.products[1 + (i % max_rank)]
        base = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        out.append(StepFunction(sys, np.tile(base, sys.cells // width)))
    return out


# ---------------------------------------------------------------------------
# drivers


# Peak bytes, measured with tracemalloc on 2^10 .. 2^18 and rounded up.  Per
# lebesgue-scan table row: the columns, the row tuples and the rendered text
# (about 560 as CSV, 1340 as JSON).  Per cell: one Dirichlet kernel (32 to
# 47), a kernel report with its rendered rows (190 to 345), the divergence
# vectors (about 40).  Per lemma1 index: 65 to 79.  Per cell of each corpus
# function: about 74 in gat, 16 in equiv-check, which also holds N + 1 block
# partial sums and their transform scratch (at most 32 per cell each).  Per
# element of a scan block: 40 to 56 in the partial-sum scan, 65 to 72 with
# the Fejer sums.
_SCAN_ROW_BYTES = 1536
_KERNEL_CELL_BYTES = 64
KERNEL_REPORT_CELL_BYTES = 384
_DIVERGENCE_CELL_BYTES = 64
_LEMMA_INDEX_BYTES = 128
_GAT_CELL_BYTES = 80
_EQUIV_CELL_BYTES = 16
_BLOCK_SUM_CELL_BYTES = 32
_BLOCK_ELEMENT_BYTES = 80


def require_memory(what: str, need: int) -> None:
    """Refuse, before anything is allocated, a run estimated to need more
    bytes than the machine's physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"{what} needs about {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of memory"
        )


def _scan_scratch(sys: RadixSystem) -> int:
    """Estimated peak bytes of one block of a cumulative partial-sum scan."""
    return _scan_block(sys, None) * sys.cells * _BLOCK_ELEMENT_BYTES


def run_lebesgue_scan(
    sys: RadixSystem,
    n_lo: int,
    n_hi: int,
    tol: float,
    resolved: dict[str, object],
) -> ExperimentReport:
    rows = max(0, n_hi - n_lo + 1)
    require_memory(
        f"lebesgue-scan of {rows} rows on M_N = {sys.cells}",
        rows * _SCAN_ROW_BYTES + sys.cells * _KERNEL_CELL_BYTES,
    )
    lebesgue = lebesgue_scan(sys, n_lo, n_hi)
    scan = scan_variation_bounds(sys, n_lo, n_hi, tol, lebesgue=lebesgue)
    columns = (scan.n, scan.v, scan.v_star, scan.lebesgue, scan.lower, scan.upper,
               scan.lower_slack, scan.upper_slack)
    ratio, at_n = max_lebesgue_log_ratio(lebesgue, n_lo)
    # the kernel route re-evaluates the ends and the rows the summary names
    probes = {n_lo, n_hi, int(scan.n[scan.lower_slack.argmin()]),
              int(scan.n[scan.upper_slack.argmin()])}
    if at_n:
        probes.add(at_n)
    oracle_dev = float(np.max([abs(lebesgue[n - n_lo] - lebesgue_constant(sys, n))
                               for n in sorted(probes)]))
    violations = len(scan.violations) + (0 if oracle_dev <= tol else 1)
    return ExperimentReport(
        experiment="lebesgue-scan",
        meta=report_meta(sys, resolved),
        table=Table(
            ["n", "v", "v_star", "L_n", "lower_bound", "upper_bound",
             "lower_slack", "upper_slack"],
            list(zip(*(col.tolist() for col in columns))),
        ),
        summary={
            "checked": int(scan.n.size),
            "violations": violations,
            "min_lower_slack": float(scan.lower_slack.min()),
            "min_upper_slack": float(scan.upper_slack.min()),
            "max_L_over_log_n": ratio,
            "max_L_over_log_n_at": at_n,
            "oracle_max_deviation": oracle_dev,
        },
        violations=violations,
    )


def run_variation_average(
    sys: RadixSystem, n_max: int, resolved: dict[str, object]
) -> ExperimentReport:
    if not 1 <= n_max <= sys.depth:
        raise ValueError(f"level {n_max} out of range [1, {sys.depth}]")
    require_memory(
        f"lemma1 up to M_{n_max} = {sys.products[n_max]}",
        sys.products[n_max] * _LEMMA_INDEX_BYTES,
    )
    rows = []
    for n in range(1, n_max + 1):
        rows.append(
            (
                n,
                float(variation_average(sys, n, "n_mn")),
                float(variation_average(sys, n, "mn")),
            )
        )
    c_estimate = min(r[1] for r in rows)
    return ExperimentReport(
        experiment="lemma1",
        meta=report_meta(sys, resolved),
        table=Table(["n", "average_n_mn", "average_mn"], rows),
        summary={"c_estimate": c_estimate},
        violations=0 if c_estimate > 0 else 1,
    )


def run_divergence(
    sys: RadixSystem,
    alphas: Sequence[int],
    tol: float,
    resolved: dict[str, object],
) -> ExperimentReport:
    spec = CounterexampleSpec(sys, tuple(alphas))
    require_memory(
        f"divergence on M_N = {sys.cells}",
        sys.cells * _DIVERGENCE_CELL_BYTES + _scan_scratch(sys),
    )
    f = build_counterexample(spec)
    coeffs = forward_fast(f)
    eq_dev = float(
        np.max(np.abs(coeffs.coeffs - expected_counterexample_coefficients(spec)))
    )

    norms = partial_sum_l1_norms(coeffs, 1, sys.cells)

    rows = []
    for k, a in enumerate(spec.alphas):
        b_k = window_strong_average(spec, norms, k)
        root = math.sqrt(a)
        truncated = build_counterexample(spec.truncated(k + 1))
        rows.append((k + 1, a, sys.products[a], b_k, root, b_k / root, h1_norm(truncated)))

    curve_rows = [(n, strong_sum_average(norms, n)) for n in sys.products[1:]]

    ratios = [r[5] for r in rows]
    b_values = [r[3] for r in rows]
    h1_values = [r[6] for r in rows]
    fit = float(
        sum(b * math.sqrt(a) for b, a in zip(b_values, spec.alphas))
        / sum(spec.alphas)
    )
    return ExperimentReport(
        experiment="divergence",
        meta=report_meta(sys, resolved),
        table=Table(
            ["k", "alpha_k", "M_alpha_k", "B_k", "alpha_k_sqrt", "ratio", "h1_norm"],
            rows,
        ),
        extra_tables={"cesaro": Table(["n", "cesaro_average"], curve_rows)},
        summary={
            "eq_block_coeff_deviation": eq_dev,
            "b_strictly_increasing": all(
                b < c for b, c in zip(b_values, b_values[1:])
            ),
            "min_ratio": min(ratios),
            "fit_ratio": fit,
            "h1_spread": max(h1_values) / min(h1_values),
            "tail_sum": spec.tail_sum,
        },
        violations=0 if eq_dev <= tol else 1,
    )


def run_gat(
    sys: RadixSystem,
    count: int,
    max_rank: int,
    seed: int,
    resolved: dict[str, object],
) -> ExperimentReport:
    require_memory(
        f"gat of {count} functions on M_N = {sys.cells}",
        count * sys.cells * _GAT_CELL_BYTES + _scan_scratch(sys),
    )
    corpus = random_step_corpus(sys, count, max_rank, seed)
    coeff_rows = np.vstack([forward_fast(f).coeffs for f in corpus])
    value_rows = np.vstack([f.values for f in corpus])
    h1s = np.array([h1_norm(f) for f in corpus])

    # the table covers n = M_2 .. M_N; the summary is taken at n = M_N
    ends = sys.products[2:]
    convergence, bounded = gat_log_average(sys, coeff_rows, value_rows, (*ends, sys.cells))
    ratios = bounded / h1s[:, None]
    rows = [
        (i, 1 + (i % max_rank), n, float(convergence[i, j]), float(bounded[i, j]),
         float(ratios[i, j]))
        for i in range(count)
        for j, n in enumerate(ends)
    ]
    fejer = fejer_maximal_check(sys, coeff_rows, h1s)
    fejer_rows = [
        (i, float(fejer.sup_norm[i]), float(h1s[i]), float(fejer.ratio[i]))
        for i in range(count)
    ]
    return ExperimentReport(
        experiment="gat",
        meta=report_meta(sys, resolved),
        table=Table(
            ["func_id", "rank", "n", "convergence_form", "bounded_form", "bounded_ratio"],
            rows,
        ),
        extra_tables={
            "fejer": Table(["func_id", "sup_sigma_l1", "h1_norm", "ratio"], fejer_rows)
        },
        summary={
            "count": count,
            "max_bounded_ratio": float(ratios[:, -1].max()),
            "max_fejer_ratio": float(fejer.ratio.max()),
        },
        violations=0,
    )


def run_equiv_check(
    sys: RadixSystem,
    count: int,
    rank: int,
    seed: int,
    tol: float,
    resolved: dict[str, object],
) -> ExperimentReport:
    require_memory(
        f"equiv-check of {count} functions on M_N = {sys.cells}",
        sys.cells * (count * _EQUIV_CELL_BYTES + (sys.depth + 1) * _BLOCK_SUM_CELL_BYTES),
    )
    corpus = random_step_corpus(sys, count, rank, seed)
    rows = []
    worst = 0.0
    bad = 0
    for i, f in enumerate(corpus):
        rep = check_norm_equivalence(f, tol)
        rows.append(
            (
                i,
                1 + (i % rank),
                float(rep.h1_norm),
                float(rep.sup_block_norm),
                float(rep.max_pointwise_diff),
            )
        )
        worst = max(worst, rep.max_pointwise_diff)
        if not rep.passed:
            bad += 1
    return ExperimentReport(
        experiment="equiv-check",
        meta=report_meta(sys, resolved),
        table=Table(
            ["func_id", "rank", "h1_norm", "sup_block_norm", "max_pointwise_diff"],
            rows,
        ),
        summary={"max_pointwise_diff": worst, "violations": bad},
        violations=bad,
    )
