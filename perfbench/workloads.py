"""The benchmark workloads: timed ops, seeded inputs and independent checks.

Each workload is a fixed list of ops. One pass runs every op once, in
order. Every op has a check against an
independent route, run after the pass and never inside a timed span, and a
sha256 of its output, recorded but not gated.

Why these workloads (see also BENCHMARK.json):

- bound-scan: the exhaustive two-sided bound scan of every L_n below M_N on
  2^12, 3^7 and (2,3,4)x3 (20104 indices). Almost all of it is the
  unit-weight cumulative scan (character_block, cumulative_l1_norms).
- strong-means: gat, divergence and equiv-check on 2^10. The same scan
  layer driven by 50 coefficient rows, offsets and the Fejer double sum,
  plus 1100 small syntheses through partial_sum.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spans import system_label
from vilenkin import cli, experiments, norms, radix, spectral

EQUAL_TOL = 1e-9  # L_n, strong and logarithmic means

# (radix spec, depth) of the bound-scan systems
SCAN_SYSTEMS = (("2^12", None), ("3^7", None), ("2,3,4", 9))
MEANS_RADIX = "2^10"
GAT_COUNT, GAT_MAX_RANK = 50, 4
DIVERGENCE_ALPHAS = (1, 4, 9)
EQUIV_COUNT = 100


class CheckFailed(Exception):
    """An op's output disagrees with its independent route."""


@dataclass
class Op:
    """One timed call; `indices` counts the Lebesgue or partial-sum indices it evaluates."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], str]
    indices: int


@dataclass
class Workload:
    ops: list[Op]
    warm: Callable[[], None]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli_argv(command: str, spec: str, depth: int | None, *rest: str) -> list[str]:
    argv = [command, "--radix", spec, "--threads", "1", *rest]
    return argv if depth is None else [*argv, "--depth", str(depth)]


def _call_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _read_tables(folder: str) -> dict[str, tuple[list[str], np.ndarray]]:
    """Every CSV report in `folder`, keyed 'main' or by its side-table name."""
    tables = {}
    for fname in sorted(os.listdir(folder)):
        with open(os.path.join(folder, fname)) as fh:
            lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
        parts = fname.split(".")
        key = parts[1] if len(parts) == 3 else "main"
        rows = [ln.split(",") for ln in lines[1:]]
        data = np.array(rows, dtype=np.float64) if rows else np.empty((0, 0))
        tables[key] = (lines[0].split(","), data)
    return tables


def _folder_digest(folder: str) -> str:
    h = hashlib.sha256()
    for fname in sorted(os.listdir(folder)):
        h.update(fname.encode())
        with open(os.path.join(folder, fname), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cli_op(name, argv, outdir, check, indices) -> Op:
    """An op that runs `vilenkin <argv>` in-process, writing into its own folder."""
    folder = os.path.join(outdir, name)
    os.makedirs(folder)
    full = [*argv, "--out", os.path.join(folder, "report.csv")]

    def checked(result):
        code, err = result
        _expect(code == 0, f"exit code {code}: {err.strip()[-300:]}")
        check(_read_tables(folder))

    return Op(name, lambda: _call_cli(full), checked,
              lambda result: _folder_digest(folder), indices)


def _column(table, name):
    header, data = table
    return data[:, header.index(name)]


def _h1_direct(sys: radix.RadixSystem, values: np.ndarray) -> float:
    """||f*||_1 with f* the sup over ranks of |cylinder means|, straight from values."""
    best = np.zeros(sys.cells)
    for rank in range(sys.depth + 1):
        means = values.reshape(-1, sys.products[rank]).mean(axis=0)
        np.maximum(best, np.tile(np.abs(means), sys.cells // sys.products[rank]), out=best)
    return float(best.mean())


def _synthesize_rows(sys: radix.RadixSystem, rows: np.ndarray) -> np.ndarray:
    """sum_k rows[i, k] psi_k for every row i at once, one dense matrix per level.

    An independent batched synthesis: it shares no code with the library's
    transforms or its running character sums.
    """
    arr = rows.reshape(rows.shape[0], *sys.radices[::-1])
    for j, m in enumerate(sys.radices):
        axis = sys.depth - j  # digit j sits on tensor axis depth-1-j, after the row axis
        synth = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m)
        arr = np.moveaxis(np.tensordot(arr, synth, axes=([axis], [0])), -1, axis)
    return arr.reshape(rows.shape)


def _partial_sums(sys: radix.RadixSystem, c: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows S_n f for n = lo .. hi, each synthesized from its masked coefficients."""
    ns = np.arange(lo, hi + 1)
    masked = np.where(np.arange(sys.cells)[None, :] < ns[:, None], c[None, :], 0)
    return _synthesize_rows(sys, masked)


# ---------------------------------------------------------------------------
# bound-scan


def _bound_scan(seed: int, outdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops, warm_argv = [], []
    for spec, depth in SCAN_SYSTEMS:
        sys = radix.parse_radix_spec(spec, depth)
        samples = sorted({1, sys.cells - 1, *rng.integers(1, sys.cells, 6).tolist()})

        def check(tables, sys=sys, samples=samples):
            table = tables["main"]
            ns = _column(table, "n")
            _expect(np.array_equal(ns, np.arange(1, sys.cells)), "rows are not n = 1 .. M_N - 1")
            v, v_star, lebesgue = (_column(table, c) for c in ("v", "v_star", "L_n"))
            lam = sys.max_radix
            lower = v / (4 * lam) + v_star / lam + 1 / (2 * lam)
            upper = 1.5 * v + 4 * v_star - 1
            bad = int(((lebesgue < lower - EQUAL_TOL) | (lebesgue > upper + EQUAL_TOL)).sum())
            _expect(bad == 0, f"{bad} bound violations")
            for n in samples:
                profile = norms.variation_profile(sys, n)
                _expect((v[n - 1], v_star[n - 1]) == (profile.v, profile.v_star),
                        f"v, v* at n={n} disagree with the digit profile")
                ref = norms.lebesgue_constant(sys, n)
                _expect(abs(lebesgue[n - 1] - ref) <= EQUAL_TOL,
                        f"L_{n}: scan {lebesgue[n - 1]!r} vs kernel route {ref!r}")

        name = "scan_" + system_label(sys)
        ops.append(_cli_op(name, _cli_argv("lebesgue-scan", spec, depth), outdir, check,
                           sys.cells - 1))
        warm_argv.append(_cli_argv("lebesgue-scan", spec, depth, "--n-min", "1", "--n-max", "2",
                                   "--out", os.path.join(outdir, f"warm_{name}.csv")))

    def warm():
        for argv in warm_argv:
            _call_cli(argv)

    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# strong-means


def _strong_means(seed: int, outdir: str) -> Workload:
    sys = radix.parse_radix_spec(MEANS_RADIX)
    cells = sys.cells
    rng = np.random.default_rng(seed)
    gat_id = int(rng.integers(GAT_COUNT))
    equiv_ids = rng.choice(EQUIV_COUNT, 3, replace=False).tolist()
    ks = np.arange(1, cells + 1)

    def check_gat(tables):
        f = experiments.random_step_corpus(sys, GAT_COUNT, GAT_MAX_RANK, seed)[gat_id]
        sums = _partial_sums(sys, spectral.forward_naive(f).coeffs, 1, cells)
        h1 = _h1_direct(sys, f.values)
        sum_s = np.cumsum(np.abs(sums).mean(axis=1) / ks)
        sum_d = np.cumsum(np.abs(sums - f.values).mean(axis=1) / ks)
        main = tables["main"]
        mine = _column(main, "func_id") == gat_id
        _expect(mine.sum() == sys.depth - 1, f"function {gat_id} has {mine.sum()} rows")
        ns = _column(main, "n")[mine].astype(np.int64)
        logs = np.log(ns)
        for col, want in (("convergence_form", sum_d[ns - 1] / logs),
                          ("bounded_form", sum_s[ns - 1] / logs),
                          ("bounded_ratio", sum_s[ns - 1] / logs / h1)):
            dev = float(np.abs(_column(main, col)[mine] - want).max())
            _expect(dev <= EQUAL_TOL, f"gat {col} of function {gat_id} off by {dev:.3e}")
        # sigma_n = (S_0 + ... + S_{n-1}) / n for n >= 2; sigma_1 = S_0 = 0
        sigma = np.cumsum(sums[:-1], axis=0) / ks[1:, None]
        sup = np.abs(sigma).mean(axis=1).max()
        fejer = tables["fejer"]
        row = int(np.flatnonzero(_column(fejer, "func_id") == gat_id)[0])
        for col, want in (("sup_sigma_l1", sup), ("h1_norm", h1)):
            got = _column(fejer, col)[row]
            _expect(abs(got - want) <= EQUAL_TOL, f"gat {col} {got!r} vs direct {want!r}")

    def check_divergence(tables):
        coeffs = np.zeros(cells, dtype=np.complex128)
        for a in DIVERGENCE_ALPHAS:
            coeffs[sys.products[a]:sys.products[a + 1]] = a ** -0.5
        table = tables["main"]
        _expect(len(table[1]) == len(DIVERGENCE_ALPHAS), "one row per alpha expected")
        for k, a in enumerate(DIVERGENCE_ALPHAS):
            lo = sys.products[a]
            window = _partial_sums(sys, coeffs, lo, 2 * lo)
            want = np.abs(window).mean(axis=1).sum() / sys.products[a + 1]
            got = _column(table, "B_k")[k]
            _expect(abs(got - want) <= EQUAL_TOL, f"B_{k + 1} {got!r} vs direct {want!r}")

    def check_equiv(tables):
        table = tables["main"]
        _expect(len(table[1]) == EQUIV_COUNT, "one row per function expected")
        worst = float(_column(table, "max_pointwise_diff").max())
        _expect(worst <= EQUAL_TOL, f"max pointwise diff {worst:.3e}")
        corpus = experiments.random_step_corpus(sys, EQUIV_COUNT, sys.depth, seed)
        for i in equiv_ids:
            want = _h1_direct(sys, corpus[i].values)
            for col in ("h1_norm", "sup_block_norm"):
                got = _column(table, col)[i]
                _expect(abs(got - want) <= EQUAL_TOL, f"{col} of function {i}: {got!r} vs {want!r}")

    seed_arg = ("--seed", str(seed))
    gat_steps = 3 * GAT_COUNT * cells  # partial sums, differences and Fejer means
    equiv_sums = EQUIV_COUNT * (sys.depth + 1)  # block partial sums S_{M_n}
    ops = [
        _cli_op("gat", _cli_argv("gat", MEANS_RADIX, None, "--count", str(GAT_COUNT),
                                 "--max-rank", str(GAT_MAX_RANK), *seed_arg),
                outdir, check_gat, gat_steps),
        _cli_op("divergence", _cli_argv("divergence", MEANS_RADIX, None, "--alphas",
                                        ",".join(map(str, DIVERGENCE_ALPHAS))),
                outdir, check_divergence, cells),
        _cli_op("equiv_check", _cli_argv("equiv-check", MEANS_RADIX, None,
                                         "--count", str(EQUIV_COUNT), *seed_arg),
                outdir, check_equiv, equiv_sums),
    ]
    warm_out = os.path.join(outdir, "warm.csv")
    warm_argv = [
        _cli_argv("gat", MEANS_RADIX, None, "--count", "1", "--max-rank", "1", "--out", warm_out),
        _cli_argv("divergence", MEANS_RADIX, None, "--alphas", "1", "--out", warm_out),
        _cli_argv("equiv-check", MEANS_RADIX, None, "--count", "1", "--out", warm_out),
    ]

    def warm():
        for argv in warm_argv:
            _call_cli(argv)

    return Workload(ops, warm)


_BUILDERS = {"bound-scan": _bound_scan, "strong-means": _strong_means}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, outdir: str) -> Workload:
    """The named workload with inputs drawn from `seed`, writing under `outdir`."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}: choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[name](seed, outdir)
