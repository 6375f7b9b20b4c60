"""Write the golden reports of tests/data/golden, or check them byte for byte.

    PYTHONPATH=src python3 tests/data/regen_golden.py            # rewrite the files
    PYTHONPATH=src python3 tests/data/regen_golden.py --check    # exit 1 on any byte difference

`--check` names each file that differs, its first differing line and the
largest relative gap between float cells in the same places of its lines.

Each case is one `vilenkin` command line run through `cli.main` with
`--out <golden>/<name>`; a CSV report with side tables also writes
`<stem>.<table>.csv` beside it.  tests/test_golden.py regenerates the same
cases and compares them cell by cell, with a tolerance on float cells.  A
change that alters report bytes on purpose rewrites these files in the same
commit and says which ones changed.

The transform input, `transform-input-2p6.json`, is fixed data, never
rewritten: 64 [re, im] pairs, the rows of
`numpy.random.default_rng(6).standard_normal((64, 2))`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import re
import sys
import tempfile
from pathlib import Path

from vilenkin import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
TRANSFORM_INPUT = "transform-input-2p6.json"

SYSTEMS = {"2p6": ["--radix", "2^6"], "234x2": ["--radix", "2,3,4", "--depth", "6"]}
EXPERIMENTS = {
    "kernel": ["kernel", "--n", "11"],
    "lebesgue-scan": ["lebesgue-scan"],
    "lemma1": ["lemma1"],
    "divergence": ["divergence", "--alphas", "1,2,4"],
    "gat": ["gat", "--count", "4"],
    # ranks 1 .. 6, so the last function has full rank and the scans run on all of G
    "gat-full": ["gat", "--count", "6", "--max-rank", "6"],
    "equiv-check": ["equiv-check", "--count", "4"],
}


def cases() -> list[tuple[str, list[str]]]:
    """(file name, argv without --out) of every golden report."""
    out = []
    for label, system in SYSTEMS.items():
        for name, argv in EXPERIMENTS.items():
            if name == "lebesgue-scan" and label == "234x2":
                argv = [*argv, "--n-max", "100"]
            for fmt in ("csv", "json"):
                out.append((f"{name}-{label}.{fmt}", [*argv, *system, "--format", fmt]))
    source = str(GOLDEN / TRANSFORM_INPUT)
    out.append(("transform-2p6.json", ["transform", "--in", source]))
    out.append(("transform-inverse-2p6.json", ["transform", "--in", source, "--inverse"]))
    return out


def generate(outdir: Path) -> None:
    """Run every case into outdir; a case that does not exit 0 is an error."""
    for name, argv in cases():
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = cli.main([*argv, "--out", str(outdir / name)])
        if code != 0:
            raise RuntimeError(f"{name}: vilenkin {' '.join(argv)} exited {code}\n{log.getvalue()}")


def _files(folder: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in folder.iterdir() if p.name != TRANSFORM_INPUT}


def _float_cells(line: str) -> list[float]:
    """The non-integer numbers of a CSV or JSON line, in order."""
    cells = []
    for token in re.split(r'[\s,:\[\]{}"]+', line):
        try:
            int(token)
        except ValueError:
            with contextlib.suppress(ValueError):
                cells.append(float(token))
    return cells


def _describe(name: str, fresh: bytes | None, kept: bytes | None) -> str:
    """Where the regenerated and the checked-in file first differ, and the
    largest relative gap between their float cells, line by line."""
    if fresh is None or kept is None:
        return f"{name}: {'not regenerated' if fresh is None else 'not checked in'}"
    new, old = fresh.decode().splitlines(), kept.decode().splitlines()
    first = next((i for i, (a, b) in enumerate(zip(new, old), 1) if a != b),
                 min(len(new), len(old)) + 1)
    gap = 0.0
    for a, b in zip(new, old):
        xs, ys = _float_cells(a), _float_cells(b)
        if len(xs) != len(ys):
            continue
        for x, y in zip(xs, ys):
            if x != y and not (math.isnan(x) and math.isnan(y)):
                rel = abs(x - y) / max(abs(x), abs(y))
                gap = max(gap, rel if math.isfinite(rel) else math.inf)
    return f"{name}: first differs at line {first}, largest relative float gap {gap:.3g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the checked-in files instead of rewriting them")
    args = parser.parse_args(argv)
    if not args.check:
        for old in _files(GOLDEN):
            (GOLDEN / old).unlink()
        generate(GOLDEN)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        generate(Path(tmp))
        fresh, kept = _files(Path(tmp)), _files(GOLDEN)
    names = fresh.keys() | kept.keys()
    differ = sorted(name for name in names if fresh.get(name) != kept.get(name))
    for name in differ:
        print(f"differs: {_describe(name, fresh.get(name), kept.get(name))}", file=sys.stderr)
    print(f"{len(names) - len(differ)} of {len(names)} golden files identical", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
