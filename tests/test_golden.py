"""Every golden report in tests/data/golden regenerates to the same cells.

Header (`#`) lines, column names, JSON keys and integer cells must match
exactly; float cells within 1e-12 relative plus 1e-14 absolute, so the
files also hold on a machine whose floating point differs in the last bits.
tests/data/regen_golden.py rewrites the files and checks them byte for byte.
"""

import contextlib
import importlib.util
import io
import json
import math
import shutil
from pathlib import Path

import pytest

from vilenkin import experiments
from vilenkin.cli import main

_spec = importlib.util.spec_from_file_location(
    "regen_golden", Path(__file__).parent / "data" / "regen_golden.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

CASES = regen.cases()
REL, ABS = 1e-12, 1e-14


def _same_cell(got, want) -> bool:
    """Equal type, and equal value but for floats, which agree within REL and ABS."""
    if type(got) is not type(want):
        return False
    if not isinstance(want, float):
        return got == want
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REL * abs(want) + ABS


def _assert_same_json(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            _assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_json(g, w, f"{where}[{i}]")
    else:
        assert _same_cell(got, want), f"{where}: {got!r} != {want!r}"


def _cell(text: str):
    """An integer cell as int, any other number as float, anything else as text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_same_csv(got: str, want: str, name: str):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{name}: line count differs"
    header = True
    for lineno, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        where = f"{name}:{lineno}"
        if header:
            # the meta lines and then the column names
            assert g == w, where
            header = w.startswith("#")
            continue
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells), where
        for gc, wc in zip(g_cells, w_cells):
            assert _same_cell(_cell(gc), _cell(wc)), f"{where}: {gc} != {wc}"


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_report(name, argv, tmp_path):
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
    # a CSV report writes its side tables beside it, as <stem>.<table>.csv
    stem = name.rpartition(".")[0]
    written = sorted(p.name for p in tmp_path.iterdir())
    if name.endswith(".csv"):
        kept = sorted(p.name for p in regen.GOLDEN.glob(f"{stem}.*csv"))
    else:
        kept = [name]
    assert written == kept
    for file in written:
        got = (tmp_path / file).read_text()
        want = (regen.GOLDEN / file).read_text()
        if file.endswith(".json"):
            _assert_same_json(json.loads(got), json.loads(want), file)
        else:
            _assert_same_csv(got, want, file)


def _run_case(argv, outdir: Path, name: str) -> dict[str, str]:
    outdir.mkdir()
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--out", str(outdir / name)]) == 0
    return {p.name: p.read_text() for p in outdir.iterdir()}


CSV_CASES = [(name, argv) for name, argv in CASES if name.endswith(".csv")]


@pytest.mark.parametrize("name,argv", CSV_CASES, ids=[name for name, _ in CSV_CASES])
def test_golden_csv_across_chunk_boundaries(name, argv, tmp_path, monkeypatch):
    # every golden table is shorter than one default chunk; chunks of 7 rows
    # cross a boundary in all but the shortest, and must write the same bytes
    whole = _run_case(argv, tmp_path / "whole", name)
    monkeypatch.setattr(experiments, "_CHUNK_ROWS", 7)
    assert _run_case(argv, tmp_path / "chunked", name) == whole


def test_golden_set_is_complete_and_small():
    names = {p.name for p in regen.GOLDEN.iterdir()}
    assert {name for name, _ in CASES} <= names
    assert regen.TRANSFORM_INPUT in names
    assert sum(p.stat().st_size for p in regen.GOLDEN.iterdir()) < 150_000


def test_check_names_file_line_and_gap(tmp_path, monkeypatch, capsys):
    # one float cell of a copied golden file moved by 20%: --check names the
    # file, the line and the gap
    for p in regen.GOLDEN.iterdir():
        shutil.copy(p, tmp_path / p.name)
    target = tmp_path / "lebesgue-scan-2p6.csv"
    lines = target.read_text().splitlines(keepends=True)
    assert lines[8] == "3,2,0,1.5,0.5,2.0,1.0,0.5\n"
    lines[8] = "3,2,0,1.2,0.5,2.0,1.0,0.5\n"
    target.write_text("".join(lines))
    monkeypatch.setattr(regen, "GOLDEN", tmp_path)
    assert regen.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert ("differs: lebesgue-scan-2p6.csv: first differs at line 9, "
            "largest relative float gap 0.2\n") in err
    assert err.count("differs:") == 1
    assert "35 of 36 golden files identical" in err
