"""Command line harness for the experiment drivers.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 when a
verification check fails (bound violations, oracle deviations above
tolerance).  A config file holds `key=value` lines; precedence is
command line > config file > built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .experiments import (
    DEFAULT_EQUALITY_TOL,
    DEFAULT_ORACLE_TOL,
    KERNEL_REPORT_CELL_BYTES,
    ExperimentReport,
    Table,
    report_meta,
    require_memory,
    run_divergence,
    run_equiv_check,
    run_gat,
    run_lebesgue_scan,
    run_variation_average,
    write_report,
)
from .norms import lebesgue_constant
from .radix import parse_radix_spec
from .spectral import (
    SpectralVector,
    StepFunction,
    dirichlet_kernel,
    forward_fast,
    forward_naive,
    inverse_transform,
)

_DEFAULTS = {
    "radix": "2^10",
    "depth": None,
    "threads": 1,
    "seed": 1,
    "format": "csv",
    "out": None,
    "tolerance": None,
    "config": None,
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--radix", help="radix spec, e.g. '2,3,4' or '2^10'")
    common.add_argument("--depth", type=int, help="cycle/truncate the radix pattern to this depth")
    common.add_argument("--threads", type=int,
                        help="validated, but changes nothing: every scan is serial (default 1)")
    common.add_argument("--seed", type=int, help="seed for random corpora (default 1)")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")
    common.add_argument("--tolerance", type=float, help="override the verification tolerance")
    common.add_argument("--config", help="key=value config file; CLI flags win")

    parser = _Parser(prog="vilenkin", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vilenkin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("transform", parents=[common], help="Fourier analysis/synthesis on interchange JSON")
    p.add_argument("--in", dest="infile", required=True, help="input StepFunction/SpectralVector JSON")
    p.add_argument("--inverse", action="store_true", help="synthesize values from coefficients")
    p.add_argument("--verify", action="store_true", help="cross-check the fast path against the direct sum")

    p = sub.add_parser("kernel", parents=[common], help="emit one Dirichlet kernel")
    p.add_argument("--n", type=int, required=True, help="kernel index")

    p = sub.add_parser("lebesgue-scan", parents=[common], help="Lebesgue constants with variation bounds")
    p.add_argument("--n-min", type=int, help="first index (default 1)")
    p.add_argument("--n-max", type=int, help="last index (default M_N - 1)")

    p = sub.add_parser("lemma1", parents=[common], help="averages of v over [1, M_n), both normalizers")
    p.add_argument("--n-max", type=int, help="largest level (default: depth)")

    p = sub.add_parser("divergence", parents=[common], help="lacunary counterexample window averages")
    p.add_argument("--alphas", help="comma separated exponents, e.g. 1,4,9")
    p.add_argument("--alpha-rule", help="power rule for exponents, e.g. k4 for alpha_k = k^4")
    p.add_argument("--terms", type=int, help="number of terms for --alpha-rule")

    p = sub.add_parser("gat", parents=[common], help="logarithmic means over a random corpus")
    p.add_argument("--count", type=int, help="corpus size (default 50)")
    p.add_argument("--max-rank", type=int, help="largest corpus rank (default 4)")

    p = sub.add_parser("equiv-check", parents=[common], help="maximal function vs block partial sums")
    p.add_argument("--count", type=int, help="corpus size (default 20)")
    p.add_argument("--rank", type=int, help="corpus rank (default: depth)")

    return parser


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"parse error in {path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    return out


_CONFIG_TYPES = {
    "depth": int,
    "threads": int,
    "seed": int,
    "tolerance": float,
    "n": int,
    "n_min": int,
    "n_max": int,
    "terms": int,
    "count": int,
    "max_rank": int,
    "rank": int,
    "inverse": lambda s: s.lower() in ("1", "true", "yes"),
    "verify": lambda s: s.lower() in ("1", "true", "yes"),
}


def _resolve(args: argparse.Namespace) -> dict[str, object]:
    """Merge defaults, config file, and CLI values (CLI wins)."""
    merged: dict[str, object] = dict(_DEFAULTS)
    cli = {k: v for k, v in vars(args).items() if k != "command"}
    for key in cli:
        merged.setdefault(key, None)
    if args.config:
        for key, raw in _read_config(args.config).items():
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            caster = _CONFIG_TYPES.get(key, str)
            try:
                merged[key] = caster(raw)
            except ValueError:
                raise ValueError(f"bad value {raw!r} for config key {key!r}") from None
    for key, val in cli.items():
        if val is not None and val is not False:
            merged[key] = val
    merged["command"] = args.command
    return merged


def _resolved_for_hash(merged: dict[str, object]) -> dict[str, object]:
    skip = {"config", "out"}
    return {k: v for k, v in merged.items() if k not in skip}


def _tol(merged: dict[str, object], default: float) -> float:
    tol = merged.get("tolerance")
    return default if tol is None else float(tol)


def _int(merged: dict[str, object], key: str, default: int) -> int:
    """An integer setting, or the default when it was not given at all."""
    val = merged.get(key)
    return default if val is None else int(val)


def _parse_alphas(merged: dict[str, object]) -> tuple[int, ...]:
    alphas = merged.get("alphas")
    rule = merged.get("alpha_rule")
    if alphas and rule:
        raise ValueError("give either --alphas or --alpha-rule, not both")
    if alphas:
        try:
            return tuple(int(tok) for tok in str(alphas).split(","))
        except ValueError:
            raise ValueError(f"cannot parse alphas {alphas!r}") from None
    rule = rule or "k4"
    if not (rule.startswith("k") and rule[1:].isdigit()):
        raise ValueError(f"unknown alpha rule {rule!r}: expected e.g. 'k4'")
    power = int(rule[1:])
    terms = _int(merged, "terms", 1)
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    return tuple(k**power for k in range(1, terms + 1))


def _transform_cmd(merged: dict[str, object]) -> int:
    with open(str(merged["infile"])) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"parse error in {merged['infile']}: {exc}") from None
    out = merged.get("out")
    if merged.get("inverse"):
        vec = SpectralVector.from_json_dict(data)
        result = inverse_transform(vec).to_json_dict()
        deviation = None
    else:
        f = StepFunction.from_json_dict(data)
        fast = forward_fast(f)
        deviation = None
        if merged.get("verify"):
            import numpy as np

            deviation = float(np.max(np.abs(fast.coeffs - forward_naive(f).coeffs)))
        result = fast.to_json_dict()
    text = json.dumps(result) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(str(out), "w") as fh:
            fh.write(text)
    if deviation is not None:
        tol = _tol(merged, DEFAULT_ORACLE_TOL)
        print(f"verify: max |fast - naive| = {deviation:.3e} (tolerance {tol:.1e})",
              file=sys.stderr)
        if deviation > tol:
            return 2
    return 0


def _kernel_cmd(merged: dict[str, object], sys_obj) -> int:
    n = int(merged["n"])
    require_memory(
        f"kernel on M_N = {sys_obj.cells}", sys_obj.cells * KERNEL_REPORT_CELL_BYTES
    )
    kern = dirichlet_kernel(sys_obj, n)
    out = merged.get("out")
    if merged["format"] == "json":
        text = json.dumps(kern.to_json_dict()) + "\n"
        if out is None:
            sys.stdout.write(text)
        else:
            with open(str(out), "w") as fh:
                fh.write(text)
    else:
        rows = [(t, float(z.real), float(z.imag)) for t, z in enumerate(kern.values)]
        report = ExperimentReport(
            experiment="kernel",
            meta=report_meta(sys_obj, _resolved_for_hash(merged)),
            table=Table(["t", "re", "im"], rows),
        )
        write_report(report, out, "csv")
    if n >= 1:
        print(f"kernel n={n}: L_n = {lebesgue_constant(sys_obj, n)!r}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _resolve(args)
        command = str(merged["command"])
        if command == "transform":
            return _transform_cmd(merged)

        sys_obj = parse_radix_spec(str(merged["radix"]), merged.get("depth"))
        resolved = _resolved_for_hash(merged)
        threads = int(merged["threads"])
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        t0 = time.monotonic()

        if command == "kernel":
            return _kernel_cmd(merged, sys_obj)
        if command == "lebesgue-scan":
            n_lo = _int(merged, "n_min", 1)
            n_hi = _int(merged, "n_max", sys_obj.cells - 1)
            report = run_lebesgue_scan(
                sys_obj, n_lo, n_hi, _tol(merged, DEFAULT_EQUALITY_TOL), resolved
            )
        elif command == "lemma1":
            n_max = _int(merged, "n_max", sys_obj.depth)
            report = run_variation_average(sys_obj, n_max, resolved)
        elif command == "divergence":
            report = run_divergence(
                sys_obj,
                _parse_alphas(merged),
                _tol(merged, 1e-12),
                resolved,
            )
        elif command == "gat":
            report = run_gat(
                sys_obj,
                _int(merged, "count", 50),
                _int(merged, "max_rank", 4),
                int(merged["seed"]),
                resolved,
            )
        elif command == "equiv-check":
            report = run_equiv_check(
                sys_obj,
                _int(merged, "count", 20),
                _int(merged, "rank", sys_obj.depth),
                int(merged["seed"]),
                _tol(merged, DEFAULT_EQUALITY_TOL),
                resolved,
            )
        else:
            raise ValueError(f"unknown experiment {command!r}")

        paths = write_report(report, merged.get("out"), str(merged["format"]))
        elapsed = time.monotonic() - t0
        where = ", ".join(paths) if paths else "stdout"
        print(
            f"{command}: {len(report.table.rows)} rows -> {where} "
            f"({elapsed:.2f}s); summary: {report.summary}",
            file=sys.stderr,
        )
        return 2 if report.violations else 0
    except ValueError as exc:
        print(f"vilenkin: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"vilenkin: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
