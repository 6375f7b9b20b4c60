"""Command line harness for the experiment drivers.

Each subcommand takes only the options it reads; `vilenkin <command> -h`
lists them with their defaults.  Exit codes: 0 on success, 1 for usage or
configuration errors, 2 when a verification check fails (bound violations,
oracle deviations above tolerance).  A config file holds `key=value` lines
whose keys are option names; they are parsed like the same options given on
the command line, so precedence is command line > config file > default.

Drivers return reports without a header; `main` adds it: the system, the
version and a sha256 of the resolved settings, which leaves out where the
report goes and the thread count, as they change nothing.  Reports are
byte-identical for identical settings, `# config_hash=` line included.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .experiments import (
    DEFAULT_EQUALITY_TOL,
    DEFAULT_ORACLE_TOL,
    emit,
    parse_interchange,
    render_interchange,
    run_divergence,
    run_equiv_check,
    run_gat,
    run_kernel,
    run_lebesgue_scan,
    run_variation_average,
    write_report,
)
from .radix import RadixSystem, parse_radix_spec
from .spectral import (
    SpectralVector,
    StepFunction,
    forward_fast,
    forward_naive,
    inverse_transform,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1, and a negative
    number in any float form (-1, -.5, -1e-9) read as a value; argparse's own
    pattern takes -1e-9 for an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_tolerance(parser: _Parser, default: float) -> None:
    parser.add_argument("--tolerance", type=float, default=default,
                        help="verification tolerance (default %(default)s)")


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and the parser of each subcommand, built once per
    process: parsing leaves them unchanged."""
    # options every subcommand reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--config", help="key=value config file; CLI flags win")
    # options of the experiments, which build a radix system and a report
    experiment = argparse.ArgumentParser(add_help=False, parents=[common])
    experiment.add_argument("--radix", default="2^10",
                            help="radix spec, e.g. '2,3,4' or '2^10' (default %(default)s)")
    experiment.add_argument("--depth", type=int,
                            help="cycle/truncate the radix pattern to this depth")
    experiment.add_argument("--threads", type=int, default=1,
                            help="validated, but changes nothing: every scan is serial")
    experiment.add_argument("--format", choices=["csv", "json"], default="csv",
                            help="output format (default %(default)s)")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=1,
                        help="seed of the random corpus (default %(default)s)")

    parser = _Parser(prog="vilenkin", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vilenkin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("transform", parents=[common], help="Fourier analysis/synthesis on interchange JSON")
    _add_tolerance(p, DEFAULT_ORACLE_TOL)
    p.add_argument("--in", dest="infile", required=True, help="input StepFunction/SpectralVector JSON")
    p.add_argument("--inverse", action="store_true", help="synthesize values from coefficients")
    p.add_argument("--verify", action="store_true",
                   help="check the result against the direct sum of the definition")

    p = sub.add_parser("kernel", parents=[experiment], help="emit one Dirichlet kernel")
    _add_tolerance(p, DEFAULT_EQUALITY_TOL)
    p.add_argument("--n", type=int, required=True, help="kernel index")

    p = sub.add_parser("lebesgue-scan", parents=[experiment], help="Lebesgue constants with variation bounds")
    _add_tolerance(p, DEFAULT_EQUALITY_TOL)
    p.add_argument("--n-min", type=int, default=1, help="first index (default %(default)s)")
    p.add_argument("--n-max", type=int, help="last index (default M_N - 1)")

    p = sub.add_parser("lemma1", parents=[experiment], help="averages of v over [1, M_n), both normalizers")
    p.add_argument("--n-max", type=int, help="largest level (default: depth)")

    p = sub.add_parser("divergence", parents=[experiment], help="lacunary counterexample window averages")
    _add_tolerance(p, 1e-12)
    p.add_argument("--alphas", default="1",
                   help="comma separated exponents, e.g. 1,4,9 (default %(default)s)")

    p = sub.add_parser("gat", parents=[experiment, seeded], help="logarithmic means over a random corpus")
    p.add_argument("--count", type=int, default=50, help="corpus size (default %(default)s)")
    p.add_argument("--max-rank", type=int,
                   help="largest corpus rank (default: 4, or the depth if smaller); "
                        "function i has rank 1 + (i mod max-rank), so ranks above --count do not occur")

    p = sub.add_parser("equiv-check", parents=[experiment, seeded],
                       help="maximal function vs block partial sums")
    _add_tolerance(p, DEFAULT_EQUALITY_TOL)
    p.add_argument("--count", type=int, default=20, help="corpus size (default %(default)s)")
    p.add_argument("--rank", type=int,
                   help="largest corpus rank (default: depth); function i has rank "
                        "1 + (i mod rank), so ranks above --count do not occur")

    return parser, sub.choices


def _config_tokens(parser: _Parser, path: str) -> list[str]:
    """The `key=value` lines of a config file as command-line tokens for `parser`.

    A key names an option; a flag is given by a true value and left out by
    a false one.
    """
    settings: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    parser.error(f"parse error in {path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                settings[key.strip().replace("_", "-")] = value.strip()
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    tokens = []
    for key, value in settings.items():
        if parser.get_default(key.replace("-", "_")) is not False:
            # one token, so that a value may start with '-'
            tokens.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes"):
            tokens.append(f"--{key}")
        elif value.lower() not in ("0", "false", "no"):
            parser.error(f"config key {key!r} is a flag: expected true or false, got {value!r}")
    return tokens


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line, with the tokens of its config file placed between
    the subcommand and the command-line options, so the command line wins."""
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        find = argparse.ArgumentParser(add_help=False, exit_on_error=False)
        find.add_argument("--config")
        try:
            config = find.parse_known_args(argv[1:])[0].config
        except argparse.ArgumentError:  # --config without a path: the parse below says so
            config = None
        if config is not None:
            argv = [argv[0], *_config_tokens(commands[argv[0]], config), *argv[1:]]
    args, extra = parser.parse_known_args(argv)
    if extra:
        commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _resolved_for_hash(args: argparse.Namespace) -> dict[str, object]:
    # settings that change no report byte: where it goes, the config file
    # (its settings are in args) and the thread count
    skip = {"config", "out", "threads"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def config_hash(resolved: dict[str, object]) -> str:
    """sha256 over the canonical key=value rendering of a resolved config."""
    canon = "\n".join(f"{k}={resolved[k]}" for k in sorted(resolved))
    return hashlib.sha256(canon.encode()).hexdigest()


def report_meta(sys: RadixSystem, resolved: dict[str, object]) -> dict[str, str]:
    """The header of a report file: the system, the package version and the
    hash of the resolved settings that produced it."""
    return {
        "radix": sys.spec_string(),
        "depth": str(sys.depth),
        "version": __version__,
        "config_hash": config_hash(resolved),
    }


def _parse_alphas(alphas: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in alphas.split(","))
    except ValueError:
        raise ValueError(f"cannot parse alphas {alphas!r}") from None


def _transform_cmd(args: argparse.Namespace) -> int:
    with open(args.infile) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"parse error in {args.infile}: {exc}") from None
    if args.inverse:
        coeffs = SpectralVector(*parse_interchange(data))
        values = inverse_transform(coeffs)
        result, what = values.values, "naive(synthesis) - input"
    else:
        values = StepFunction(*parse_interchange(data))
        coeffs = forward_fast(values)
        result, what = coeffs.coeffs, "fast - naive"
    emit(render_interchange(values.sys, result), args.out)
    if not args.verify:
        return 0
    # the direct sum over the values must give back the coefficients
    deviation = float(np.max(np.abs(forward_naive(values).coeffs - coeffs.coeffs)))
    print(f"verify: max |{what}| = {deviation:.3e} (tolerance {args.tolerance:.1e})",
          file=sys.stderr)
    return 2 if deviation > args.tolerance else 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    command = args.command
    try:
        tolerance = getattr(args, "tolerance", 0.0)
        if math.isnan(tolerance):
            raise ValueError("tolerance must be a number, got nan")
        if tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        if command == "transform":
            return _transform_cmd(args)

        sys_obj = parse_radix_spec(args.radix, args.depth)
        if args.threads < 1:
            raise ValueError(f"threads must be >= 1, got {args.threads}")
        # the defaults that depend on the system, resolved before the hash
        if command == "lebesgue-scan" and args.n_max is None:
            args.n_max = sys_obj.cells - 1
        if command == "lemma1" and args.n_max is None:
            args.n_max = sys_obj.depth
        if command == "gat" and args.max_rank is None:
            args.max_rank = min(4, sys_obj.depth)
        if command == "equiv-check" and args.rank is None:
            args.rank = sys_obj.depth
        t0 = time.monotonic()

        if command == "kernel":
            report = run_kernel(sys_obj, args.n, args.tolerance)
        elif command == "lebesgue-scan":
            report = run_lebesgue_scan(sys_obj, args.n_min, args.n_max, args.tolerance)
        elif command == "lemma1":
            report = run_variation_average(sys_obj, args.n_max)
        elif command == "divergence":
            report = run_divergence(sys_obj, _parse_alphas(args.alphas), args.tolerance)
        elif command == "gat":
            report = run_gat(sys_obj, args.count, args.max_rank, args.seed)
        else:
            report = run_equiv_check(sys_obj, args.count, args.rank, args.seed, args.tolerance)
        report.meta = report_meta(sys_obj, _resolved_for_hash(args))
        rank_option = {"gat": "max_rank", "equiv-check": "rank"}.get(command)
        if rank_option and getattr(args, rank_option) > args.count:
            print(f"{command}: note: function i has rank 1 + (i mod "
                  f"--{rank_option.replace('_', '-')}), so ranks above --count "
                  f"{args.count} do not occur", file=sys.stderr)

        paths = write_report(report, args.out, args.format)
        elapsed = time.monotonic() - t0
        where = ", ".join(paths) if paths else "stdout"
        print(
            f"{command}: {report.table.data[0].size} rows -> {where} "
            f"({elapsed:.2f}s); summary: {report.summary}",
            file=sys.stderr,
        )
        return 2 if report.violations else 0
    except (ValueError, OSError) as exc:
        print(f"vilenkin: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
