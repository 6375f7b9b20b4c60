"""Reproducible experiment drivers and their report plumbing.

Every driver returns an ExperimentReport: a main table, optional extra
tables, a summary dict, and a violation count for the CLI exit code.  The
drivers take only the inputs they compute with, so a report comes back
with an empty meta header; the CLI fills it in (system, version, config
hash) before writing.  File output is byte-identical for identical inputs.
Timings are therefore logged to stderr, never written into report files.
"""

from __future__ import annotations

import json
import operator
import os
import sys as _sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .hardy import (
    CounterexampleSpec,
    build_counterexample,
    check_norm_equivalence,
    counterexample_l1_norms,
    expected_counterexample_coefficients,
    h1_norm,
    h1_pass,
    log_average,
    strong_sum_average,
    window_strong_average,
)
from .norms import (
    l1_norm,
    lebesgue_constant,
    lebesgue_scan,
    max_lebesgue_log_ratio,
    variation_bound_arrays,
    variation_sum,
    variation_values,
)
from .radix import RadixSystem
from .spectral import (
    SpectralVector,
    StepFunction,
    _chunk_rows,
    _level_holding,
    _scan_block,
    cumulative_l1_norms,
    dirichlet_kernel,
    fejer_l1_norms,
    forward_fast,
    partial_sum,
)

DEFAULT_EQUALITY_TOL = 1e-9
DEFAULT_ORACLE_TOL = 1e-10


@dataclass
class Table:
    """A report table held by column: `columns` names them, and `data` holds
    one 1-D int64 or float64 array per name, all of one length."""

    columns: list[str]
    data: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.data = tuple(np.asarray(col) for col in self.data)
        if len(self.data) != len(self.columns):
            raise ValueError(f"{len(self.columns)} column names for {len(self.data)} columns")
        for name, col in zip(self.columns, self.data):
            if col.ndim != 1 or col.dtype not in (np.int64, np.float64):
                raise ValueError(f"column {name!r} is {col.ndim}-D {col.dtype}, "
                                 "not 1-D int64 or float64")
        if len({col.size for col in self.data}) > 1:
            raise ValueError("columns of different lengths")


@dataclass
class ExperimentReport:
    experiment: str
    table: Table
    meta: dict[str, str] = field(default_factory=dict)
    extra_tables: dict[str, Table] = field(default_factory=dict)
    summary: dict[str, object] = field(default_factory=dict)
    violations: int = 0


# Rows rendered at a time: the cell text of one chunk is held at once.
_CHUNK_ROWS = 2048

# json.dumps writes an int64 or float64 value as its repr, which is its str,
# except for the non-finite floats, which it spells its own way
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cell_text(col: np.ndarray, spelling: dict[str, str] | None = None) -> list[str]:
    """str of every value of a 1-D int64 or float64 array, each distinct value
    formatted once and then respelled through `spelling`, if given.  Floats
    are keyed by their bits, so -0.0 stays apart from 0.0; str of a float is
    its shortest round-trip text, so rereads are exact."""
    keys = col.view(np.int64) if col.dtype == np.float64 else col
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    text = [str(v) for v in col[first].tolist()]
    if spelling:
        text = [spelling.get(s, s) for s in text]
    return np.array(text, dtype=object)[inverse].tolist()


def _chunk_text(t: Table, lo: int, first: str, lead: str, sep: str, last: str,
                spelling: dict[str, str] | None = None) -> str:
    """Rows lo .. lo + _CHUNK_ROWS - 1 of t as one text: `first` before the
    first row, `lead` before every other one, `sep` between two cells of a
    row and `last` after the last row.  The cells go into one flat list of
    text pieces, a column at a time, and one join writes it."""
    rows = min(_CHUNK_ROWS, t.data[0].size - lo)
    width = 2 * len(t.data)
    pieces = [sep] * (width * rows + 1)
    pieces[::width] = [first, *[lead] * (rows - 1), last]
    for j, col in enumerate(t.data):
        pieces[1 + 2 * j :: width] = _cell_text(col[lo : lo + rows], spelling)
    return "".join(pieces)


def render_csv(report: ExperimentReport, table: Table | None = None) -> Iterator[str]:
    """One CSV table with `#` meta header lines, as text chunks of at most
    _CHUNK_ROWS rows each; deterministic float text."""
    t = table if table is not None else report.table
    yield "".join(line + "\n" for line in (
        f"# experiment={report.experiment}",
        *(f"# {key}={val}" for key, val in report.meta.items()),
        ",".join(t.columns)))
    for lo in range(0, t.data[0].size, _CHUNK_ROWS):
        yield _chunk_text(t, lo, "", "\n", ",", "\n")


def _json_rows(t: Table, indent: int) -> Iterator[str]:
    """The rows of t as json.dumps(..., indent=2) writes a list of row lists
    whose rows sit `indent` spaces in, a chunk of _CHUNK_ROWS rows at a time."""
    if not t.data[0].size:
        yield "[]"
        return
    pad = " " * indent
    head, sep, tail = f"{pad}[\n{pad}  ", f",\n{pad}  ", f"\n{pad}]"
    for lo in range(0, t.data[0].size, _CHUNK_ROWS):
        yield _chunk_text(t, lo, ("[\n" if lo == 0 else ",\n") + head,
                          f"{tail},\n{head}", sep, tail, _JSON_SPELLING)
    yield "\n" + pad[2:] + "]"


def render_json(report: ExperimentReport) -> Iterator[str]:
    """The report as json.dumps(payload, indent=2) writes it, in text chunks:
    everything but the rows is dumped with empty row lists, and the rows are
    streamed into their place a chunk of _CHUNK_ROWS rows at a time."""
    text = json.dumps({
        "experiment": report.experiment,
        "meta": report.meta,
        "columns": report.table.columns,
        "rows": [],
        "tables": {name: {"columns": t.columns, "rows": []}
                   for name, t in report.extra_tables.items()},
        "summary": report.summary,
        "violations": report.violations,
    }, indent=2) + "\n"
    # every newline of the dump is layout (strings escape theirs), so the
    # first "rows" key at a table's own indent past the last one is its own
    at = 0
    for t, indent in [(report.table, 4), *((t, 8) for t in report.extra_tables.values())]:
        key = "\n" + " " * (indent - 2) + '"rows": '
        end = text.index(key, at) + len(key)
        yield text[at:end]
        yield from _json_rows(t, indent)
        at = end + len("[]")
    yield text[at:]


def render_interchange(sys: RadixSystem, values: np.ndarray) -> Iterator[str]:
    """The interchange object {"radices", "depth", "values"} of complex values
    on sys as json.dumps writes it, plus a newline, in text chunks: the
    header, the [re, im] pairs _CHUNK_ROWS at a time, and the close."""
    yield json.dumps({"radices": list(sys.radices), "depth": sys.depth, "values": []})[: -len("]}")]
    pairs = Table(["re", "im"], (values.real, values.imag))
    for lo in range(0, values.size, _CHUNK_ROWS):
        yield _chunk_text(pairs, lo, "[" if lo == 0 else ", [", "], [", ", ", "]", _JSON_SPELLING)
    yield "]}\n"


def parse_interchange(data: object) -> tuple[RadixSystem, np.ndarray]:
    """The system and the complex values of a decoded interchange object;
    anything else is a ValueError that starts with "parse error"."""
    try:
        radices, depth, pairs = data["radices"], data["depth"], data["values"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"parse error: missing interchange field {exc}") from None
    # JSON integers only: int() would truncate 2.7, and True is an int
    if not (isinstance(radices, list) and all(type(m) is int for m in [*radices, depth])):
        raise ValueError("parse error: radices must be a list of integers, depth an integer")
    try:
        sys = RadixSystem(tuple(radices))
    except ValueError as exc:
        raise ValueError(f"parse error: bad radices: {exc}") from None
    if depth != sys.depth:
        raise ValueError(f"parse error: depth field {depth} disagrees with {sys.depth} radices")
    try:
        vals = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
        # complex() reads true and false as 1 and 0
        if bool in set(map(type, chain.from_iterable(pairs))):
            raise TypeError
    except (TypeError, ValueError):
        raise ValueError("parse error: values must be [re, im] pairs") from None
    except OverflowError:
        raise ValueError("parse error: values must be finite, got a huge integer") from None
    if not np.isfinite(vals).all():
        raise ValueError("parse error: values must be finite, got NaN or infinity")
    return sys, vals


def emit(chunks: Iterable[str], path: str | None) -> list[str]:
    """Write the text chunks in turn to the file at path, or to stdout when
    path is None, so no more than one chunk need be held; returns the paths
    written."""
    if path is None:
        _sys.stdout.writelines(chunks)
        return []
    with open(path, "w") as fh:
        fh.writelines(chunks)
    return [path]


def write_report(report: ExperimentReport, out: str | None, fmt: str) -> list[str]:
    """Write the report; returns the paths written (empty for stdout)."""
    if fmt == "json":
        return emit(render_json(report), out)
    if fmt != "csv":
        raise ValueError(f"unknown output format {fmt!r}: use 'csv' or 'json'")
    written = emit(render_csv(report), out)
    for name, table in report.extra_tables.items():
        chunks = render_csv(report, table)
        if out is None:
            emit(chain([f"# table={name}\n"], chunks), None)
        else:
            stem, ext = os.path.splitext(out)
            written += emit(chunks, f"{stem}.{name}{ext}")
    return written


# ---------------------------------------------------------------------------
# shared helpers


@dataclass(eq=False)
class _StepCorpus(Sequence):
    """A random_step_corpus held as its bases: `groups` has, for each rank r
    that occurs, (r, the ids i of its rank-r functions, their M_r base values
    as rows (rows, M_r)).  Item i is function i, tiled to G_N on each call."""

    sys: RadixSystem
    groups: list[tuple[int, np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return sum(ids.size for _, ids, _ in self.groups)

    def __getitem__(self, i: int) -> StepFunction:
        i, count = operator.index(i), len(self)
        if not -count <= i < count:
            raise IndexError(f"corpus index {i} out of range for {count} functions")
        # ranks cycle through 1 .. max_rank and only those up to count occur,
        # so function i is row i // ranks of group i mod ranks
        i, ranks = i % count, len(self.groups)
        base = self.groups[i % ranks][2][i // ranks]
        require_memory(f"corpus function {i} on M_N = {self.sys.cells}",
                       self.sys.cells * _CORPUS_ITEM_CELL_BYTES)
        tiles = self.sys.cells // base.size
        return StepFunction(self.sys, np.broadcast_to(base, (tiles, base.size)))


def random_step_corpus(
    sys: RadixSystem, count: int, max_rank: int, seed: int
) -> Sequence[StepFunction]:
    """Deterministic corpus of complex step functions.

    Function i has rank r_i = 1 + (i mod max_rank); its M_{r_i} base values
    are standard complex normals drawn from numpy.random.default_rng(seed)
    in corpus order (real parts, then imaginary parts, function by
    function), tiled across the remaining levels.  The corpus holds only
    the bases, stacked by rank in `groups`, which the drivers read; item i
    tiles function i to G_N when it is asked for.
    """
    if count < 1:
        raise ValueError(f"corpus size must be >= 1, got {count}")
    if seed < 0:
        raise ValueError(f"corpus seed must be >= 0, got {seed}")
    if not 1 <= max_rank <= sys.depth:
        raise ValueError(f"largest corpus rank {max_rank} out of range [1, {sys.depth}]")
    # count // max_rank whole cycles of the ranks 1 .. max_rank, then the
    # first count % max_rank ranks: sized before any per-function list exists
    full, part = divmod(count, max_rank)
    total = full * sum(sys.products[1 : max_rank + 1]) + sum(sys.products[1 : part + 1])
    require_memory(f"a corpus of {count} functions on M_N = {sys.cells}",
                   total * _CORPUS_BASE_BYTES)
    widths = np.array(sys.products[1 : max_rank + 1], dtype=np.int64)[np.arange(count) % max_rank]
    starts = (np.cumsum(widths) - widths) * 2
    # one draw, cut in corpus order: the same numbers as one draw per part
    normals = np.random.default_rng(seed).standard_normal(2 * total)
    groups = []
    for r in range(1, min(count, max_rank) + 1):
        ids = np.arange(r - 1, count, max_rank)
        at = starts[ids, None] + np.arange(sys.products[r])
        bases = np.empty(at.shape, dtype=np.complex128)
        bases.real = normals[at]
        at += sys.products[r]
        bases.imag = normals[at]
        groups.append((r, ids, bases))
    return _StepCorpus(sys, groups)


# ---------------------------------------------------------------------------
# drivers


# Peak bytes, measured with tracemalloc and rounded up.  A report is written
# one chunk of _CHUNK_ROWS rows at a time, as CSV or JSON alike: the cell
# strings and text of one chunk (under 1 MB) are held at once, whatever the
# row count, and are left out of the per-row and per-cell figures below.
# Per lebesgue-scan table row, through the CLI on 2^14 .. 2^18, 3^9, 5^6,
# 7^5 and (2,3,4)x3: the columns, the closed-form scan and the kernel probes
# (97 to 133 as CSV, 97 to 143 as JSON).  Per cell: one Dirichlet kernel
# (32 to 47; a lebesgue-scan probe builds it on the group that holds n_hi),
# a kernel report (49 to 67 on 2^14 .. 2^18, 3^9 and (2,3,4)x3,
# as CSV and as JSON alike: the kernel sets the peak, not the render), a
# divergence run (98 to 151 on 2^10 .. 2^20, 3^11, 7^6, (2,3,4)x3,
# (2,3,4)x4 and (5,2,7)x3, 88 on 2^20 with (1,4,9,19): the function, its
# coefficients and their check, the norms, the oracle's synthesized partial
# sums and the H1 norms of the truncations, each built on the group its
# schedule reaches; the closed form holds at most
# spectral._SCAN_BLOCK_ELEMENTS / 16 offsets at a time and no scan
# scratch).
#
# A corpus holds only its bases, the first M_{r_i} values of each function,
# and every pass of gat and equiv-check runs on G_r, r = r_i.  Per base
# value, while the corpus is drawn: the draw, the bases and one rank's
# gather index (40 on 2^20 at full rank, 48 to 50 on depth-1 systems, where
# every base is full width); an item, one C-order copy of its broadcast
# base: 16 per cell of G_N (2^16, 2^20, 3^11, (2,3,4)x3).  gat and
# equiv-check take one chunk of rows of one rank q at a time (hardy.h1_pass)
# and count one chunk on G_top, the group of the highest rank present, which
# bounds a chunk of any G_q.  Per cell of a gat chunk, with the corpus drawn
# beforehand: 89.5 to 90.6 (16^1 with 2^16 and 2^17 rank-1 functions, 7^2
# with 2^15 and 2^16 functions of ranks 1 and 2), for the coefficients, f*,
# both partial-sum scans up to M_q with their checkpoint syntheses, the
# stacked norms, the log means and the Fejer sums.  Per gat table row, one
# per function and endpoint: 50 to 53 (2^30, 2^40 and 2^60 with 20000 to
# 40000 functions of ranks 1, 2 and 4).  Per cell of an
# equiv-check chunk of full-rank rows: 59 to 74 (2^10 .. 2^18, 3^9, 3^11,
# 7^6), for its base values, the coefficients, two level buffers of the
# synthesis, the block partial sums on G_0 .. G_q and both sups.  Per element
# of a scan block: about 40 in the partial-sum scan and 56 with the Fejer
# sums (the character rows and the scratch reused across blocks and row
# batches); it sets the gat peak at full rank (2^10, 2^12, 3^7, 7^4).
_SCAN_ROW_BYTES = 160
_KERNEL_CELL_BYTES = 64
_KERNEL_REPORT_CELL_BYTES = 96
_DIVERGENCE_CELL_BYTES = 160
_CORPUS_BASE_BYTES = 64
_CORPUS_ITEM_CELL_BYTES = 32
_GAT_CELL_BYTES = 104
_GAT_ROW_BYTES = 64
_EQUIV_CHECK_CELL_BYTES = 96
_BLOCK_ELEMENT_BYTES = 80
_TABLE_ENTRY_BYTES = 40  # per entry of a _piece_norms level table: 32.0 on full 1024^1, 4096^1


def require_memory(what: str, need: int) -> None:
    """Refuse, before anything is allocated, a run estimated to need more
    bytes than the machine's physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"{what} needs about {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of memory"
        )


def _table_bytes(sys: RadixSystem, lo: int, hi: int) -> int:
    """The largest level table of norms._piece_norms over the offsets lo .. hi:
    (m_p - 1) (d + 1) entries, d the largest digit at level p, which is
    m_p - 1 once the range crosses a multiple of M_{p+1}."""
    return _TABLE_ENTRY_BYTES * max(
        (m - 1) * (m if lo // M1 != hi // M1 else hi // M % m + 1)
        for m, M, M1 in zip(sys.radices, sys.products, sys.products[1:]))


def run_lebesgue_scan(
    sys: RadixSystem,
    n_lo: int,
    n_hi: int,
    tol: float,
) -> ExperimentReport:
    if not 1 <= n_lo <= n_hi < sys.cells:
        raise ValueError(f"bound scan range [{n_lo}, {n_hi}] outside [1, {sys.cells - 1}]")
    rows = n_hi - n_lo + 1
    # each kernel probe D_n runs on the group G_r that holds the indices k < n
    require_memory(
        f"lebesgue-scan of {rows} rows on M_N = {sys.cells}",
        rows * _SCAN_ROW_BYTES + sys.products[_level_holding(sys, n_hi)] * _KERNEL_CELL_BYTES
        + _table_bytes(sys, n_lo, n_hi),
    )
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    lebesgue = lebesgue_scan(sys, n_lo, n_hi)
    v, v_star = variation_values(sys, ns)
    lower, upper = variation_bound_arrays(v, v_star, sys.max_radix)
    ratio, at_n = max_lebesgue_log_ratio(lebesgue, n_lo)
    # the kernel route re-evaluates the ends and the rows the summary names;
    # its kernels set the peak of a long scan, so they are built before the
    # two slack columns exist
    probes = {n_lo, n_hi, int(ns[(lebesgue - lower).argmin()]),
              int(ns[(upper - lebesgue).argmin()])}
    if at_n:
        probes.add(at_n)
    oracle_dev = float(np.max([
        abs(lebesgue[n - n_lo] - lebesgue_constant(sys.truncate(_level_holding(sys, n)), n))
        for n in sorted(probes)]))
    lower_slack, upper_slack = lebesgue - lower, upper - lebesgue
    columns = (ns, v, v_star, lebesgue, lower, upper, lower_slack, upper_slack)
    bad = (lower_slack < -tol) | (upper_slack < -tol)
    violations = int(bad.sum()) + (0 if oracle_dev <= tol else 1)
    return ExperimentReport(
        experiment="lebesgue-scan",
        table=Table(
            ["n", "v", "v_star", "L_n", "lower_bound", "upper_bound",
             "lower_slack", "upper_slack"],
            columns,
        ),
        summary={
            "checked": int(ns.size),
            "violations": violations,
            "min_lower_slack": float(lower_slack.min()),
            "min_upper_slack": float(upper_slack.min()),
            "max_L_over_log_n": ratio,
            "max_L_over_log_n_at": at_n,
            "oracle_max_deviation": oracle_dev,
        },
        violations=violations,
    )


def run_kernel(sys: RadixSystem, n: int, tol: float) -> ExperimentReport:
    """The Dirichlet kernel D_n cell by cell; for n >= 1 the summary holds
    L_n = ||D_n||_1 and its gap to the closed form of lebesgue_scan, and a
    gap above tol is a violation."""
    require_memory(f"kernel on M_N = {sys.cells}",
                   sys.cells * _KERNEL_REPORT_CELL_BYTES + _table_bytes(sys, n, n))
    kern = dirichlet_kernel(sys, n)
    summary, violations = {}, 0
    if n >= 1:
        l_n = l1_norm(kern)
        gap = abs(l_n - float(lebesgue_scan(sys, n, n)[0]))
        summary = {"L_n": l_n, "oracle_max_deviation": gap}
        violations = int(gap > tol)
    return ExperimentReport(
        experiment="kernel",
        table=Table(["t", "re", "im"], (np.arange(sys.cells), kern.values.real, kern.values.imag)),
        summary=summary,
        violations=violations,
    )


def run_variation_average(sys: RadixSystem, n_max: int) -> ExperimentReport:
    if not 1 <= n_max <= sys.depth:
        raise ValueError(f"level {n_max} out of range [1, {sys.depth}]")
    ns = np.arange(1, n_max + 1)
    totals = [(n, variation_sum(sys, n), sys.products[n]) for n in ns.tolist()]
    average_n_mn = np.array([total / (n * M_n) for n, total, M_n in totals])
    average_mn = np.array([total / M_n for _, total, M_n in totals])
    c_estimate = float(average_n_mn.min())
    return ExperimentReport(
        experiment="lemma1",
        table=Table(["n", "average_n_mn", "average_mn"], (ns, average_n_mn, average_mn)),
        summary={"c_estimate": c_estimate},
        violations=0 if c_estimate > 0 else 1,
    )


def run_divergence(
    sys: RadixSystem,
    alphas: Sequence[int],
    tol: float,
) -> ExperimentReport:
    spec = CounterexampleSpec(sys, tuple(alphas))
    # the offsets of the last block take every digit at the levels up to a_K
    require_memory(f"divergence on M_N = {sys.cells}", sys.cells * _DIVERGENCE_CELL_BYTES
                   + _table_bytes(sys, 1, sys.products[spec.alphas[-1] + 1] - 1))
    f = build_counterexample(spec)
    coeffs = forward_fast(f)
    eq_dev = float(
        np.max(np.abs(coeffs.coeffs - expected_counterexample_coefficients(spec)))
    )

    norms = counterexample_l1_norms(spec)
    # the closed form against S_l f synthesized directly, at each window's ends
    # and at M_N, each on the group G_r that holds the indices k < l
    probes = {sys.cells}
    for a in spec.alphas:
        probes |= {sys.products[a], 2 * sys.products[a]}

    def probe(l: int) -> float:
        sub = sys.truncate(_level_holding(sys, l))
        held = coeffs if sub == sys else SpectralVector(sub, coeffs.coeffs[: sub.cells])
        return l1_norm(partial_sum(held, l))
    oracle_dev = max(abs(float(norms[l - 1]) - probe(l)) for l in probes)

    ks = range(len(spec.alphas))
    alphas = np.array(spec.alphas, dtype=np.int64)
    b = np.array([window_strong_average(spec, norms, k) for k in ks])
    roots = np.sqrt(alphas)
    ratios = b / roots
    h1 = np.array([h1_norm(build_counterexample(spec.truncated(k + 1))) for k in ks])
    levels = np.array(sys.products[1:], dtype=np.int64)  # M_1 .. M_N
    curve = strong_sum_average(norms, levels)

    fit = float(sum((b * roots).tolist()) / sum(spec.alphas))
    return ExperimentReport(
        experiment="divergence",
        table=Table(
            ["k", "alpha_k", "M_alpha_k", "B_k", "alpha_k_sqrt", "ratio", "h1_norm"],
            (1 + np.arange(alphas.size), alphas, levels[alphas - 1], b, roots, ratios, h1),
        ),
        extra_tables={"cesaro": Table(["n", "cesaro_average"], (levels, curve))},
        summary={
            "eq_block_coeff_deviation": eq_dev,
            "b_strictly_increasing": bool(np.all(b[:-1] < b[1:])),
            "min_ratio": float(ratios.min()),
            "fit_ratio": fit,
            "h1_spread": float(h1.max() / h1.min()),
            "tail_sum": spec.tail_sum,
            "oracle_max_deviation": oracle_dev,
        },
        violations=sum(dev > tol for dev in (eq_dev, oracle_dev)),
    )


def run_gat(
    sys: RadixSystem,
    count: int,
    max_rank: int,
    seed: int,
) -> ExperimentReport:
    # drawn first, so a bad count, rank or seed is refused by name; every pass
    # runs on G_r for a rank r present, at most min(max_rank, count) = len(groups)
    groups = random_step_corpus(sys, count, max_rank, seed).groups
    top = sys.truncate(len(groups))
    # the table covers n = M_2 .. M_N; the summary is taken at n = M_N, the
    # last endpoint (on a depth-1 system the only one, and the table is empty)
    ends = np.array(sys.products[2:], dtype=np.int64)
    ns = sys.products[min(2, sys.depth):]
    # one chunk of the H1 pass and one scan block on G_top, and the table
    require_memory(f"gat of {count} functions on M_N = {sys.cells}",
                   top.cells * (min(count, _chunk_rows(top)) * _GAT_CELL_BYTES
                                + _scan_block(top) * _BLOCK_ELEMENT_BYTES)
                   + count * len(ns) * _GAT_ROW_BYTES)
    h1s, fejer_sup = np.empty(count), np.empty(count)
    convergence, bounded = np.empty((count, len(ns))), np.empty((count, len(ns)))
    # each chunk of h1_pass holds consecutive rows of one rank r, and the
    # scans read them on G_r; their frozen tails up to M_N are closed forms
    for _, members, bases in groups:
        for rows, sub, coeffs, star in h1_pass(sys, bases):
            at = members[rows]
            h1s[at] = star.mean(axis=1)
            # ||S_k f - f||_1 and ||S_k f||_1 for k = 1 .. M_r, held only
            # while their log means are taken
            convergence[at], bounded[at] = log_average(np.stack((
                cumulative_l1_norms(sys, coeffs, 1, sub.cells, offsets=-bases[rows]),
                cumulative_l1_norms(sys, coeffs, 1, sub.cells))), ns)
            fejer_sup[at] = fejer_l1_norms(sys, coeffs, sys.cells)
    ratios = bounded / h1s[:, None]
    ids = np.arange(count)
    row_ids = np.repeat(ids, ends.size)
    fejer_ratios = fejer_sup / h1s
    return ExperimentReport(
        experiment="gat",
        table=Table(
            ["func_id", "rank", "n", "convergence_form", "bounded_form", "bounded_ratio"],
            (row_ids, 1 + row_ids % max_rank, np.tile(ends, count),
             *(col[:, : ends.size].ravel() for col in (convergence, bounded, ratios))),
        ),
        extra_tables={
            "fejer": Table(["func_id", "sup_sigma_l1", "h1_norm", "ratio"],
                           (ids, fejer_sup, h1s, fejer_ratios))
        },
        summary={
            "count": count,
            "max_bounded_ratio": float(ratios[:, -1].max()),
            "max_fejer_ratio": float(fejer_ratios.max()),
        },
        violations=0,
    )


def run_equiv_check(
    sys: RadixSystem,
    count: int,
    rank: int,
    seed: int,
    tol: float,
) -> ExperimentReport:
    # drawn first, so a bad count, rank or seed is refused by name; every pass
    # runs on G_r for a rank r present, at most min(rank, count) = len(groups)
    groups = random_step_corpus(sys, count, rank, seed).groups
    top = sys.truncate(len(groups))
    require_memory(
        f"equiv-check of {count} functions on M_N = {sys.cells}",
        top.cells * min(count, _chunk_rows(top)) * _EQUIV_CHECK_CELL_BYTES,
    )
    h1, sup, gaps = np.empty((3, count))
    for _, at, bases in groups:
        rep = check_norm_equivalence(sys, bases)
        h1[at], sup[at], gaps[at] = rep.h1_norm, rep.sup_block_norm, rep.max_pointwise_diff
    ids = np.arange(count)
    # a NaN gap counts as bad, and np.max keeps it in the summary
    bad = int(np.count_nonzero(~(gaps <= tol)))
    return ExperimentReport(
        experiment="equiv-check",
        table=Table(
            ["func_id", "rank", "h1_norm", "sup_block_norm", "max_pointwise_diff"],
            (ids, 1 + ids % rank, h1, sup, gaps),
        ),
        summary={"max_pointwise_diff": float(np.max(gaps)), "violations": bad},
        violations=bad,
    )
