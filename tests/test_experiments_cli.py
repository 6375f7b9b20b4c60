"""Experiment drivers, report rendering, and the command line harness."""

import json
import math
import pathlib
import shutil
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin
from vilenkin import (
    CounterexampleSpec,
    StepFunction,
    build_counterexample,
    build_radix_system,
    cumulative_l1_norms,
    fejer_mean,
    forward_fast,
    h1_norm,
    l1_norm,
    lebesgue_constant,
    partial_sum,
)
from vilenkin import experiments as experiments_mod
from vilenkin.cli import config_hash, main, report_meta
from vilenkin.experiments import (
    ExperimentReport,
    Table,
    parse_interchange,
    random_step_corpus,
    render_csv,
    render_interchange,
    render_json,
    run_divergence,
    run_equiv_check,
    run_gat,
    run_kernel,
    run_lebesgue_scan,
    run_variation_average,
    write_report,
)
from conftest import small_systems, table_rows


# ---------------------------------------------------------------------------
# report plumbing


def test_config_hash_deterministic():
    a = config_hash({"radix": "2^6", "seed": 1})
    b = config_hash({"seed": 1, "radix": "2^6"})
    assert a == b and len(a) == 64
    assert config_hash({"radix": "2^6", "seed": 2}) != a


def test_report_meta_keys(dyadic6):
    meta = report_meta(dyadic6, {"seed": 1})
    assert meta["radix"] == "2^6"
    assert meta["depth"] == "6"
    assert set(meta) == {"radix", "depth", "version", "config_hash"}


def _tiny_report(sys):
    return ExperimentReport(
        experiment="demo",
        meta=report_meta(sys, {"seed": 1}),
        table=Table(["n", "x"], (np.array([1, 2]), np.array([0.5, 1.0 / 3.0]))),
        extra_tables={"side": Table(["k"], (np.array([7]),))},
        summary={"ok": True},
    )


def test_render_csv_layout(dyadic6):
    report = _tiny_report(dyadic6)
    n, x = report.table.data
    report.table = Table(report.table.columns, (np.append(n, 3), np.append(x, 0.25)))
    assert [col.dtype for col in report.table.data] == [np.int64, np.float64]
    text = "".join(render_csv(report))
    lines = text.splitlines()
    assert lines[0] == "# experiment=demo"
    assert lines[1] == "# radix=2^6"
    assert lines[2] == "# depth=6"
    assert lines[3].startswith("# version=")
    assert lines[4].startswith("# config_hash=")
    assert lines[5] == "n,x"
    assert lines[6] == "1,0.5"
    # repr keeps the full float so rereads are exact
    assert lines[7] == f"2,{1.0 / 3.0!r}"
    # a value of an int64 or float64 column is written as its number, not as
    # np.int64(...) or np.float64(...)
    assert lines[8] == "3,0.25"


def test_render_json_parses_back(dyadic6):
    payload = json.loads("".join(render_json(_tiny_report(dyadic6))))
    assert payload["experiment"] == "demo"
    assert payload["rows"] == [[1, 0.5], [2, 1.0 / 3.0]]
    assert payload["tables"]["side"]["rows"] == [[7]]
    assert payload["violations"] == 0


def test_write_report_files(tmp_path, dyadic6):
    report = _tiny_report(dyadic6)
    out = tmp_path / "demo.csv"
    written = write_report(report, str(out), "csv")
    assert written == [str(out), str(tmp_path / "demo.side.csv")]
    assert out.read_text().startswith("# experiment=demo")
    assert (tmp_path / "demo.side.csv").read_text().splitlines()[5] == "k"
    jout = tmp_path / "demo.json"
    assert write_report(report, str(jout), "json") == [str(jout)]
    with pytest.raises(ValueError, match="format"):
        write_report(report, None, "yaml")


def test_side_tables_beside_a_dotted_directory(tmp_path, dyadic6):
    # only the file name is split at its last dot, never a directory name
    where = tmp_path / "a.b"
    where.mkdir()
    report = _tiny_report(dyadic6)
    assert write_report(report, str(where / "demo"), "csv") == [
        str(where / "demo"), str(where / "demo.side")]
    assert write_report(report, str(where / "demo.csv"), "csv") == [
        str(where / "demo.csv"), str(where / "demo.side.csv")]
    assert main(["gat", "--radix", "2^4", "--count", "3", "--out", str(where / "report")]) == 0
    assert (where / "report.fejer").read_text().startswith("# experiment=gat")


def test_write_report_stdout(capsys, dyadic6):
    assert write_report(_tiny_report(dyadic6), None, "csv") == []
    captured = capsys.readouterr()
    assert "# table=side" in captured.out


def _render_csv_by_rows(report, table):
    """Oracle: the per-row rendering, str of every cell of each row tuple."""
    head = [f"# experiment={report.experiment}",
            *(f"# {key}={val}" for key, val in report.meta.items()),
            ",".join(table.columns)]
    return "".join(line + "\n" for line in head + [",".join(map(str, row)) for row in table_rows(table)])


_INT64 = st.one_of(
    st.sampled_from([0, 1, -1, 2**63 - 1, -(2**63), 2**53 + 1]),
    st.integers(-(2**63), 2**63 - 1),
)
_FLOAT64 = st.one_of(
    # few values, so that repeats are common
    st.sampled_from([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-310, 0.1, 1.0 / 3.0, 1e16, 1e-5, 2.5]),
    st.floats(width=64),
    # any bit pattern, NaN payloads included
    _INT64.map(lambda bits: float(np.int64(bits).view(np.float64))),
)


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from(["int", "float"]), min_size=1, max_size=4))
    data = []
    for kind in kinds:
        values = draw(st.lists(_INT64 if kind == "int" else _FLOAT64,
                               min_size=rows, max_size=rows))
        data.append(np.array(values, dtype=np.int64 if kind == "int" else np.float64))
    return Table([f"c{i}" for i in range(len(kinds))], tuple(data))


@pytest.mark.parametrize("chunk", [1, 3, experiments_mod._CHUNK_ROWS])
@settings(max_examples=60, deadline=None)
@given(table=_tables())
def test_render_csv_matches_row_oracle(chunk, table, dyadic6):
    report = ExperimentReport(experiment="demo", meta=report_meta(dyadic6, {}), table=table)
    with mock.patch.object(experiments_mod, "_CHUNK_ROWS", chunk):
        assert "".join(render_csv(report)) == _render_csv_by_rows(report, table)


def test_render_csv_keeps_zero_signs_and_nan(dyadic6):
    x = np.array([0.0, -0.0, np.nan, -np.nan, 0.0, -0.0, np.inf, 5e-324])
    report = ExperimentReport("demo", Table(["x"], (x,)))
    assert "".join(render_csv(report)).splitlines()[2:] == [
        "0.0", "-0.0", "nan", "nan", "0.0", "-0.0", "inf", "5e-324"]


def test_render_csv_formats_one_chunk_at_a_time(monkeypatch, mixed2):
    sizes = []
    real = experiments_mod._cell_text

    def spy(col, *spelling):
        sizes.append(col.size)
        return real(col, *spelling)

    monkeypatch.setattr(experiments_mod, "_cell_text", spy)
    chunk = experiments_mod._CHUNK_ROWS
    rows = 2 * chunk + 1
    "".join(render_csv(ExperimentReport("demo", Table(["n", "x"], (np.arange(rows), np.ones(rows))))))
    assert sizes == [chunk, chunk, chunk, chunk, 1, 1]

    sizes.clear()
    monkeypatch.setattr(experiments_mod, "_CHUNK_ROWS", 64)
    rep = run_lebesgue_scan(mixed2, 1, mixed2.cells - 1, 1e-9)
    "".join(render_csv(rep))
    assert mixed2.cells - 1 > 64
    assert max(sizes) == 64 and sum(sizes) == (mixed2.cells - 1) * len(rep.table.columns)


def _json_payload(report):
    """Oracle: the report as one dict, rows built as lists, for json.dumps."""
    def rows(t):
        return [list(row) for row in table_rows(t)]

    return {
        "experiment": report.experiment,
        "meta": report.meta,
        "columns": report.table.columns,
        "rows": rows(report.table),
        "tables": {name: {"columns": t.columns, "rows": rows(t)}
                   for name, t in report.extra_tables.items()},
        "summary": report.summary,
        "violations": report.violations,
    }


@pytest.mark.parametrize("chunk", [1, 3, experiments_mod._CHUNK_ROWS])
@settings(max_examples=60, deadline=None)
@given(table=_tables(), side=_tables())
def test_render_json_matches_json_dumps(chunk, table, side, dyadic6):
    # a side table and an empty one, and a summary that holds a "rows" key
    empty = Table(["e"], (np.empty(0, dtype=np.int64),))
    report = ExperimentReport(
        "demo", table, meta=report_meta(dyadic6, {}),
        extra_tables={"side": side, "empty": empty},
        summary={"rows": [], "nested": {"rows": [1.5, math.nan]}}, violations=3)
    with mock.patch.object(experiments_mod, "_CHUNK_ROWS", chunk):
        chunks = list(render_json(report))
    assert "".join(chunks) == json.dumps(_json_payload(report), indent=2) + "\n"
    # no chunk holds more than _CHUNK_ROWS rows of one table
    assert max(c.count("\n    [") + c.count("\n        [") for c in chunks) <= chunk


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_bytes_equal_file_bytes(tmp_path, capsysbinary, fmt):
    # gat has a side table: as CSV on stdout it follows a "# table=fejer" line
    argv = ["gat", "--radix", "2,3", "--depth", "4", "--count", "5", "--format", fmt]
    assert main([*argv, "--out", str(tmp_path / f"g.{fmt}")]) == 0
    want = (tmp_path / f"g.{fmt}").read_bytes()
    if fmt == "csv":
        want += b"# table=fejer\n" + (tmp_path / "g.fejer.csv").read_bytes()
    capsysbinary.readouterr()
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_report_peak_does_not_grow_with_the_rows(tmp_path, fmt):
    # the writer holds one chunk of rows at a time, never the whole text:
    # 2^16 has sixteen times the rows of 2^12, but not more peak bytes
    peaks = []
    for depth in (12, 16):
        sys_obj = build_radix_system([2], depth)
        rep = run_lebesgue_scan(sys_obj, 1, sys_obj.cells - 1, 1e-9)
        tracemalloc.start()
        try:
            write_report(rep, str(tmp_path / f"scan.{fmt}"), fmt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def _interchange_dumps(sys_obj, values):
    """The interchange text as json.dumps writes the object of Python floats."""
    pairs = [[float(z.real), float(z.imag)] for z in values]
    return json.dumps({"radices": list(sys_obj.radices), "depth": sys_obj.depth,
                       "values": pairs}) + "\n"


def test_render_interchange_matches_json_dumps():
    # 2^13 cells are four chunks of _CHUNK_ROWS pairs
    sys_obj = build_radix_system([2], 13)
    rng = np.random.default_rng(13)
    values = rng.standard_normal(sys_obj.cells) + 1j * rng.standard_normal(sys_obj.cells)
    chunks = list(render_interchange(sys_obj, values))
    assert len(chunks) == 2 + sys_obj.cells // experiments_mod._CHUNK_ROWS == 6
    text = "".join(chunks)
    assert text == _interchange_dumps(sys_obj, values)
    # and the text reads back exactly
    back_sys, back = parse_interchange(json.loads(text))
    assert back_sys == sys_obj
    np.testing.assert_allclose(back, values, atol=0, rtol=0)


def test_render_interchange_spells_floats_as_json_dumps():
    sys_obj = build_radix_system([2], 3)
    re = np.array([-0.0, 5e-324, 1e-5, 0.1, 3.0, 1e16, math.nan, math.inf])
    values = np.empty(re.size, dtype=np.complex128)
    values.real, values.imag = re, -re[::-1]
    text = "".join(render_interchange(sys_obj, values))
    assert text == _interchange_dumps(sys_obj, values)
    for pair in ("[-0.0, -Infinity]", "[5e-324, NaN]", "[1e-05, -1e+16]", "[Infinity, 0.0]"):
        assert pair in text


def test_table_rejects_other_columns():
    with pytest.raises(ValueError, match="int64 or float64"):
        Table(["x"], (np.zeros(3, dtype=np.complex128),))
    with pytest.raises(ValueError, match="1-D"):
        Table(["x"], (np.zeros((2, 2)),))
    with pytest.raises(ValueError, match="lengths"):
        Table(["n", "x"], (np.arange(2), np.zeros(3)))
    with pytest.raises(ValueError, match="names"):
        Table(["n"], (np.arange(2), np.zeros(2)))


# ---------------------------------------------------------------------------
# corpus


def test_corpus_deterministic(dyadic6):
    a = random_step_corpus(dyadic6, 6, 3, 9)
    b = random_step_corpus(dyadic6, 6, 3, 9)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.values, fb.values)
    c = random_step_corpus(dyadic6, 6, 3, 10)
    assert any(np.abs(fa.values - fc.values).max() > 0 for fa, fc in zip(a, c))


def test_corpus_rank_pattern(dyadic6):
    corpus = random_step_corpus(dyadic6, 5, 3, 9)
    for i, f in enumerate(corpus):
        rank = 1 + (i % 3)
        width = dyadic6.products[rank]
        # constant on rank-r cylinders: values depend on t mod M_r only
        np.testing.assert_array_equal(
            f.values, np.tile(f.values[:width], dyadic6.cells // width)
        )


def test_corpus_validation(dyadic6):
    with pytest.raises(ValueError):
        random_step_corpus(dyadic6, 0, 2, 1)
    with pytest.raises(ValueError):
        random_step_corpus(dyadic6, 3, 7, 1)
    # refused before the draw: the bases of ranks 1 .. 40 hold about 2^41 values
    with pytest.raises(ValueError, match="a corpus of 40 functions on M_N = 1099511627776"):
        random_step_corpus(build_radix_system([2], 40), 40, 40, 1)


def test_corpus_item_refused_before_it_is_tiled():
    # the bases of a rank-4 corpus on 2^60 are small, but an item tiled to
    # M_N = 2^60 cells is not
    corpus = random_step_corpus(build_radix_system([2], 60), 4, 4, 1)
    with pytest.raises(ValueError, match="corpus function 0 on M_N = 1152921504606846976 needs"):
        corpus[0]


def test_corpus_holds_bases_by_rank(mixed2):
    corpus = random_step_corpus(mixed2, 7, 3, 2)
    assert [(r, ids.tolist(), bases.shape) for r, ids, bases in corpus.groups] == [
        (1, [0, 3, 6], (3, 2)), (2, [1, 4], (2, 6)), (3, [2, 5], (2, 24))]
    assert len(corpus) == 7
    for i in range(7):
        r, ids, bases = corpus.groups[i % 3]
        assert np.array_equal(corpus[i].values[: mixed2.products[r]], bases[i // 3])
        assert np.array_equal(corpus[i - 7].values, corpus[i].values)
    for i in (7, -8):
        with pytest.raises(IndexError):
            corpus[i]
    assert [f.values.size for f in corpus] == [mixed2.cells] * 7


# ---------------------------------------------------------------------------
# drivers


def test_run_lebesgue_scan_small(dyadic6, mixed2):
    for sys_obj, hi, frozen in ((dyadic6, 10, {2: 1.0, 3: 1.5}), (mixed2, 575, {})):
        rep = run_lebesgue_scan(sys_obj, 1, hi, 1e-9)
        assert rep.table.columns[:4] == ["n", "v", "v_star", "L_n"]
        assert rep.violations == 0
        by_n = {row[0]: row for row in table_rows(rep.table)}
        for n, want in frozen.items():
            assert by_n[n][3] == pytest.approx(want)
        assert sorted(by_n) == list(range(1, hi + 1))
        for n, row in by_n.items():
            assert row[3] == pytest.approx(lebesgue_constant(sys_obj, n), abs=1e-12)
        assert rep.summary["checked"] == hi
        assert rep.summary["oracle_max_deviation"] <= 1e-12
        assert rep.summary["min_lower_slack"] >= 0
        assert rep.summary["max_L_over_log_n"] > 0


def test_run_lebesgue_scan_probes_on_their_own_group():
    # each kernel probe D_n runs on the group G_r that holds k < n, so a
    # short scan on a group of 2^62 or 3^39 cells needs no more than G_r
    # (radices, depth, n_lo, n_hi, a level q with M_q >= n_hi)
    for radices, depth, n_lo, n_hi, q in (([2], 62, 1, 5, 3), ([2], 62, 1000, 1100, 11),
                                          ([3], 39, 1, 7, 2)):
        sys_obj = build_radix_system(radices, depth)
        rep = run_lebesgue_scan(sys_obj, n_lo, n_hi, 1e-9)
        assert rep.violations == 0
        assert rep.summary["checked"] == n_hi - n_lo + 1
        assert rep.summary["oracle_max_deviation"] <= 1e-12
        want = [lebesgue_constant(sys_obj.truncate(q), n) for n in range(n_lo, n_hi + 1)]
        np.testing.assert_allclose(rep.table.data[3], want, rtol=0, atol=1e-12)


def test_run_variation_average_frozen(dyadic6):
    rep = run_variation_average(dyadic6, 4)
    assert rep.table.columns == ["n", "average_n_mn", "average_mn"]
    rows = {r[0]: r for r in table_rows(rep.table)}
    assert rows[1][1] == pytest.approx(1.0)
    assert rows[3][1] == pytest.approx(2 / 3)
    assert rows[3][2] == pytest.approx(2.0)  # plain 1/M_n normalizer
    assert rep.summary["c_estimate"] > 0
    assert rep.violations == 0


def test_run_divergence_small(dyadic6, dyadic10):
    # the 2^10 window values are the ones frozen in test_window_average_frozen
    for sys_obj, alphas, frozen_b in (
        (dyadic6, (1, 2), None),
        (dyadic10, (1, 4, 9), (0.5, 0.685546875, 0.8759403228759763)),
    ):
        rep = run_divergence(sys_obj, alphas, 1e-12)
        assert len(table_rows(rep.table)) == len(alphas)
        assert rep.summary["eq_block_coeff_deviation"] < 1e-12
        assert rep.violations == 0
        assert "cesaro" in rep.extra_tables
        assert len(table_rows(rep.extra_tables["cesaro"])) == sys_obj.depth
        if frozen_b is not None:
            assert [row[3] for row in table_rows(rep.table)] == pytest.approx(frozen_b)
        spec = CounterexampleSpec(sys_obj, alphas)
        c = forward_fast(build_counterexample(spec))
        norms = cumulative_l1_norms(sys_obj, c.coeffs, 1, sys_obj.cells)[0]
        for n, avg in table_rows(rep.extra_tables["cesaro"]):
            assert avg == pytest.approx(float(norms[:n].mean()), abs=1e-12)
        assert rep.summary["oracle_max_deviation"] < 1e-12
        # a hostile tolerance fails both the coefficient check and the oracle
        rep = run_divergence(sys_obj, alphas, -1.0)
        assert rep.violations == 2


def test_cli_divergence_oracle_deviation_exit_2(tmp_path, monkeypatch):
    # closed-form partial-sum norms that are off by 1e-9 must fail against
    # the directly synthesized partial sums
    import vilenkin.experiments as experiments_mod

    exact = experiments_mod.counterexample_l1_norms
    out = tmp_path / "div.json"
    args = ["divergence", "--radix", "2,3,4", "--depth", "6", "--alphas", "1,2,5",
            "--format", "json", "--out", str(out)]
    assert main(args) == 0
    assert json.loads(out.read_text())["summary"]["oracle_max_deviation"] <= 1e-12
    monkeypatch.setattr(experiments_mod, "counterexample_l1_norms", lambda *a: exact(*a) + 1e-9)
    assert main(args) == 2
    payload = json.loads(out.read_text())
    assert payload["summary"]["oracle_max_deviation"] > 1e-12
    assert payload["summary"]["eq_block_coeff_deviation"] <= 1e-12
    assert payload["violations"] == 1



def test_run_divergence_builds_no_character_rows(dyadic10, monkeypatch):
    # the partial-sum norms come from the closed form, not from a scan
    import vilenkin.spectral as spectral

    calls = []
    real = spectral.character_block

    def spy(sub, lo, hi):
        calls.append(hi - lo)
        return real(sub, lo, hi)

    monkeypatch.setattr(spectral, "character_block", spy)
    rep = run_divergence(dyadic10, (1, 4, 9), 1e-12)
    assert rep.violations == 0
    assert calls == []


def test_run_divergence_probes_on_their_own_group(dyadic10, monkeypatch):
    # each probe S_l f is synthesized on the smallest G_r with M_r >= l
    calls = []
    real = experiments_mod.partial_sum

    def spy(c, n):
        calls.append((n, c.sys.cells))
        return real(c, n)

    monkeypatch.setattr(experiments_mod, "partial_sum", spy)
    rep = run_divergence(dyadic10, (1, 4, 9), 1e-12)
    assert rep.summary["oracle_max_deviation"] <= 1e-12
    assert sorted(calls) == [(2, 2), (4, 4), (16, 16), (32, 32), (512, 512), (1024, 1024)]


def test_run_divergence_probes_m_n_on_the_coefficients(dyadic10, monkeypatch):
    # the probe at l = M_N synthesizes from the transform's coefficients
    # themselves, with no second copy of all M_N of them
    built = []
    real = experiments_mod.SpectralVector

    def spy(sub, coeffs):
        built.append(sub.cells)
        return real(sub, coeffs)

    monkeypatch.setattr(experiments_mod, "SpectralVector", spy)
    rep = run_divergence(dyadic10, (1, 4, 9), 1e-12)
    assert rep.summary["oracle_max_deviation"] <= 1e-12
    assert sorted(built) == [2, 4, 16, 32, 512]


@pytest.mark.parametrize("argv", [["lebesgue-scan", "--n-max", "10"], ["kernel", "--n", "3"]])
def test_cli_large_radix_runs(tmp_path, argv):
    # one level of 65536 digits: the L_n tables hold the digits that occur
    out = tmp_path / "report.json"
    assert main([argv[0], "--radix", "65536^1", *argv[1:], "--format", "json",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["oracle_max_deviation"] <= 1e-12


def test_cli_divergence_depth_16(tmp_path):
    # O(M_N^2) as a scan; the closed form takes a fraction of a second
    out = tmp_path / "div.json"
    args = ["divergence", "--radix", "2^16", "--alphas", "1,4,9,15",
            "--format", "json", "--out", str(out)]
    assert main(args) == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["oracle_max_deviation"] <= 1e-12
    assert summary["eq_block_coeff_deviation"] <= 1e-12

def test_run_gat_small(dyadic6, mixed):
    for sys_obj in (dyadic6, mixed):
        rep = run_gat(sys_obj, 4, 2, 1)
        assert rep.table.columns == [
            "func_id", "rank", "n", "convergence_form", "bounded_form", "bounded_ratio",
        ]
        assert len(table_rows(rep.table)) == 4 * (sys_obj.depth - 1)
        assert np.isfinite(rep.summary["max_bounded_ratio"])
        assert rep.summary["max_fejer_ratio"] > 0
        assert len(table_rows(rep.extra_tables["fejer"])) == 4
        # every value against partial sums and Fejer means taken one n at a time
        corpus = random_step_corpus(sys_obj, 4, 2, 1)
        for func_id, _, n, conv, bounded, ratio in table_rows(rep.table):
            f = corpus[func_id]
            sums = [partial_sum(forward_fast(f), k) for k in range(1, n + 1)]
            want_bnd = sum(l1_norm(s) / k for k, s in enumerate(sums, 1)) / math.log(n)
            want_conv = sum(
                l1_norm(StepFunction(sys_obj, s.values - f.values)) / k
                for k, s in enumerate(sums, 1)
            ) / math.log(n)
            assert conv == pytest.approx(want_conv, abs=1e-12)
            assert bounded == pytest.approx(want_bnd, abs=1e-12)
            assert ratio == pytest.approx(want_bnd / h1_norm(f), abs=1e-12)
        for func_id, sup, h1, ratio in table_rows(rep.extra_tables["fejer"]):
            c = forward_fast(corpus[func_id])
            want = max(l1_norm(fejer_mean(c, n)) for n in range(1, sys_obj.cells + 1))
            assert sup == pytest.approx(want, abs=1e-12)
            assert h1 == pytest.approx(h1_norm(corpus[func_id]), abs=1e-12)
            assert ratio == pytest.approx(want / h1, abs=1e-12)


def test_run_gat_scans_on_the_quotient(dyadic10, monkeypatch):
    # the functions of rank r of a max-rank-4 corpus live on G_r, so for each
    # rank the three scans (partial sums, their differences from f, Fejer
    # means) build one block of rows on M_r cells, and none on more than M_4 = 16
    import vilenkin.spectral as spectral

    seen = []
    real_block = spectral.character_block

    def spy(sub, lo, hi):
        seen.append(sub.cells)
        return real_block(sub, lo, hi)

    monkeypatch.setattr(spectral, "character_block", spy)
    run_gat(dyadic10, 8, 4, 1)
    assert seen == [2, 2, 2, 4, 4, 4, 8, 8, 8, 16, 16, 16]


def test_run_gat_asks_each_endpoint_once(dyadic10, monkeypatch):
    import vilenkin.experiments as experiments_mod

    asked = []
    real = experiments_mod.log_average

    def spy(norms, ns):
        asked.append((norms.shape, tuple(ns)))
        return real(norms, ns)

    monkeypatch.setattr(experiments_mod, "log_average", spy)
    run_gat(dyadic10, 3, 2, 1)
    # one call per rank, both forms stacked: functions 0, 2 of rank 1 and
    # function 1 of rank 2, each scanned on its own G_r up to M_r
    assert asked == [((2, 2, 2), dyadic10.products[2:]), ((2, 1, 4), dyadic10.products[2:])]


@settings(max_examples=25, deadline=None)
@given(small_systems.filter(lambda s: s.depth >= 2), st.integers(0, 2**31 - 1), st.data())
def test_run_gat_outputs_permute_with_the_rows(sys_obj, seed, data):
    # a corpus whose slot of rank r holds a function of period level q <= r,
    # all of them read on G_r by h1_pass; shuffling the functions among the
    # slots of each rank permutes every output row
    max_rank = data.draw(st.integers(1, sys_obj.depth))
    count = data.draw(st.integers(1, 8))
    slots = [1 + i % max_rank for i in range(count)]
    levels = [data.draw(st.integers(1, r)) for r in slots]
    rng = np.random.default_rng(seed)
    bases = []
    for r, q in zip(slots, levels):
        base = rng.standard_normal(sys_obj.products[q]) + 1j * rng.standard_normal(sys_obj.products[q])
        bases.append(np.tile(base, sys_obj.products[r] // base.size))
    perm = np.arange(count)
    for r in range(max_rank):
        perm[r::max_rank] = data.draw(st.permutations(perm[r::max_rank].tolist()))
    reports = []
    for order in (np.arange(count), perm):
        ranks = [(r, np.arange(r - 1, count, max_rank)) for r in range(1, min(count, max_rank) + 1)]
        corpus = experiments_mod._StepCorpus(
            sys_obj, [(r, ids, np.stack([bases[i] for i in order[ids]])) for r, ids in ranks])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments_mod, "random_step_corpus", lambda *args: corpus)
            reports.append(run_gat(sys_obj, count, max_rank, 1))
    plain, shuffled = reports
    steps = sys_obj.depth - 1
    main_rows = (perm[:, None] * steps + np.arange(steps)).ravel()
    for a, b in zip(plain.table.data[3:], shuffled.table.data[3:]):
        assert np.array_equal(a[main_rows], b)
    for a, b in zip(plain.extra_tables["fejer"].data[1:], shuffled.extra_tables["fejer"].data[1:]):
        assert np.array_equal(a[perm], b)
    assert shuffled.summary == plain.summary


def test_random_step_corpus_matches_one_draw_per_part():
    # the one draw of random_step_corpus, cut in corpus order, gives the
    # numbers of a draw of the real and then the imaginary part per function
    for sys_obj, count, max_rank, seed in ((build_radix_system([2], 10), 50, 4, 3),
                                           (build_radix_system([2, 3, 4], 6), 9, 6, 11),
                                           (build_radix_system([7], 3), 2, 3, 0)):
        rng = np.random.default_rng(seed)
        corpus = random_step_corpus(sys_obj, count, max_rank, seed)
        assert len(corpus) == count
        for i, f in enumerate(corpus):
            width = sys_obj.products[1 + i % max_rank]
            base = rng.standard_normal(width) + 1j * rng.standard_normal(width)
            assert np.array_equal(f.values, np.tile(base, sys_obj.cells // width))


def test_run_gat_depth_one():
    # no table row below M_2; the summary is still taken at n = M_N = 2
    sys_obj = build_radix_system([2], 1)
    rep = run_gat(sys_obj, 4, 1, 1)
    assert table_rows(rep.table) == []
    assert "".join(render_csv(rep)).endswith(
        "\nfunc_id,rank,n,convergence_form,bounded_form,bounded_ratio\n")
    want = 0.0
    for f in random_step_corpus(sys_obj, 4, 1, 1):
        c = forward_fast(f)
        bounded = (l1_norm(partial_sum(c, 1)) + l1_norm(partial_sum(c, 2)) / 2) / math.log(2)
        want = max(want, bounded / h1_norm(f))
    assert rep.summary["max_bounded_ratio"] == pytest.approx(want, abs=1e-12)


def test_run_gat_deep_rows_match_a_shallow_run(monkeypatch):
    # 50 functions of ranks up to 4: on 2^60 every row with n <= 2^20, and
    # every H1 norm, equals the 2^20 run bit for bit, since past M_4 the log
    # means take their frozen tails in closed form
    shallow = run_gat(build_radix_system([2], 20), 50, 4, 1)
    deep = run_gat(build_radix_system([2], 60), 50, 4, 1)
    keep = deep.table.data[2] <= 2**20
    assert keep.sum() == shallow.table.data[0].size == 50 * 19
    for a, b in zip(shallow.table.data, deep.table.data):
        np.testing.assert_array_equal(a, b[keep])
    np.testing.assert_array_equal(shallow.extra_tables["fejer"].data[2],
                                  deep.extra_tables["fejer"].data[2])
    # the guard counts one chunk and one scan block on G_4 and one table
    # row per function and endpoint, none of them in M_N
    needs = {}
    monkeypatch.setattr(experiments_mod, "require_memory",
                        lambda what, need: needs.setdefault(what.split()[0], need))
    run_gat(build_radix_system([2], 60), 50, 4, 1)
    block = experiments_mod._scan_block(build_radix_system([2], 4))
    assert needs["gat"] == (16 * (50 * experiments_mod._GAT_CELL_BYTES
                                  + block * experiments_mod._BLOCK_ELEMENT_BYTES)
                            + 50 * 59 * experiments_mod._GAT_ROW_BYTES)


def test_run_equiv_check_small(mixed2):
    rep = run_equiv_check(mixed2, 6, mixed2.depth, 1, 1e-9)
    assert rep.violations == 0
    assert rep.summary["max_pointwise_diff"] < 1e-9
    assert len(table_rows(rep.table)) == 6


def test_run_equiv_check_sized_by_its_ranks(monkeypatch):
    # every pass runs on G_4, so a rank-4 corpus on 2^40 or 2^60 is as cheap
    # as on 2^10, and gives the same table
    want = run_equiv_check(build_radix_system([2], 10), 8, 4, 1, 1e-9).table
    for depth in (40, 60):
        got = run_equiv_check(build_radix_system([2], depth), 8, 4, 1, 1e-9).table
        assert got.columns == want.columns
        for a, b in zip(got.data, want.data):
            np.testing.assert_array_equal(a, b)
    # the guard counts one chunk of rows on the group of the highest rank
    # present, G_min(rank, count)
    needs = {}
    monkeypatch.setattr(experiments_mod, "require_memory",
                        lambda what, need: needs.setdefault(what.split()[0], need))
    run_equiv_check(build_radix_system([2], 60), 3, 60, 1, 1e-9)
    assert needs["equiv-check"] == 3 * 2**3 * experiments_mod._EQUIV_CHECK_CELL_BYTES


# ---------------------------------------------------------------------------
# command line


def test_cli_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["divergence", "--alphas", "1,x"],
    ["gat", "--count", "0"],
    ["gat", "--max-rank", "0"],
    ["lebesgue-scan", "--n-min", "0"],
    ["lebesgue-scan", "--n-max", "0"],
    ["lebesgue-scan", "--n-max", "64"],
    ["lebesgue-scan", "--n-min", "5", "--n-max", "4"],
    ["lemma1", "--n-max", "0"],
    ["equiv-check", "--rank", "0"],
    ["equiv-check", "--count", "0"],
    ["gat", "--count", "-1"],
    ["equiv-check", "--count", "-1"],
    ["gat", "--seed", "-1"],
    ["equiv-check", "--seed", "-1"],
    ["lebesgue-scan", "--threads", "0"],
    ["gat", "--threads", "-2"],
    # 2^34 cells: refused by the memory estimate before anything is allocated
    ["lebesgue-scan", "--radix", "2^34"],
    ["kernel", "--radix", "2^34", "--n", "1"],
    # gat and equiv-check run on the group of their highest rank, so they
    # need ranks up to 34: the corpus alone is refused at 2048 GiB
    ["gat", "--radix", "2^34", "--max-rank", "34", "--count", "34"],
    ["equiv-check", "--radix", "2^34", "--count", "34"],
    ["divergence", "--radix", "2^34", "--alphas", "1,4,9"],
    # a depth whose cell count overflows 64 bits is refused within 63 levels
    ["lemma1", "--radix", "2^4", "--depth", "10000000"],
    ["lemma1", "--radix", "2^10000000"],
    # a NaN tolerance is refused before any check is made with it
    ["kernel", "--n", "3", "--tolerance", "nan"],
    ["equiv-check", "--count", "2", "--tolerance", "nan"],
    ["transform", "--in", "IN", "--verify", "--tolerance", "nan"],
    ["kernel", "--n", "3", "--config", "NAN_CFG"],
    # so is a negative one, which would count every gap as a violation
    ["equiv-check", "--count", "2", "--tolerance", "-1"],
    ["transform", "--in", "IN", "--verify", "--tolerance=-1e-9"],
    # interchange input whose radices are not a list of integers
    ["transform", "--in", "NULL_RADICES"],
    # or whose values are JSON booleans, which complex() would read as 1 and 0
    ["transform", "--in", "BOOL_VALUES"],
    # an integer value too large for a float
    ["transform", "--in", "HUGE_VALUES"],
    # one level of 2^20 digits: the L_n tables alone would take 32 TiB
    ["lebesgue-scan", "--radix", "1048576^1"],
    ["kernel", "--radix", "1048576^1", "--n", "1048575"],
    ["divergence", "--radix", "1048576,2", "--alphas", "1"],
])
def test_cli_bad_values_exit_1(tmp_path, capsys, argv):
    files = {"IN": tmp_path / "f.json", "NAN_CFG": tmp_path / "nan.cfg",
             "NULL_RADICES": tmp_path / "null.json", "BOOL_VALUES": tmp_path / "bool.json",
             "HUGE_VALUES": tmp_path / "huge.json"}
    files["IN"].write_text("".join(render_interchange(build_radix_system([2], 6), np.ones(64))))
    data = json.loads(files["IN"].read_text())
    files["NULL_RADICES"].write_text(json.dumps({**data, "radices": None}))
    files["BOOL_VALUES"].write_text(json.dumps({"radices": [2, 2], "depth": 2,
                                                "values": [[True, False]] * 4}))
    files["HUGE_VALUES"].write_text(json.dumps({"radices": [2, 2], "depth": 2,
                                                "values": [[10**400, 0]] + [[0, 0]] * 3}))
    files["NAN_CFG"].write_text("tolerance=nan\n")
    argv = [str(files.get(arg, arg)) for arg in argv]
    # a --radix in the case comes later on the line, so it wins over 2^6
    radix = [] if argv[0] == "transform" else ["--radix", "2^6"]
    # zero is a value to validate, not a request for the default
    tracemalloc.start()
    try:
        assert main([argv[0], *radix, *argv[1:]]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "vilenkin: error:" in err
    assert "Traceback" not in err
    assert "L_n" not in err
    assert peak < 2**20


@pytest.mark.parametrize("argv", [
    ["equiv-check", "--rank", "0"],
    ["gat", "--max-rank", "0"],
])
def test_cli_corpus_rank_error_names_no_other_option(capsys, argv):
    # both options are the largest rank of the corpus
    assert main([argv[0], "--radix", "2^3", *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "largest corpus rank 0 out of range [1, 3]" in err
    assert "max rank" not in err


@pytest.mark.parametrize("command", ["gat", "equiv-check"])
@pytest.mark.parametrize("option,message", [
    ("--count", "corpus size must be >= 1, got -1"),
    ("--seed", "corpus seed must be >= 0, got -1"),
])
def test_cli_corpus_option_errors_say_which(capsys, command, option, message):
    # refused by the corpus, before numpy sees a negative size or seed
    assert main([command, "--radix", "2^3", option, "-1"]) == 1
    assert f"vilenkin: error: {message}" in capsys.readouterr().err


def test_corpus_is_sized_before_it_is_listed(capsys):
    # ten million functions of ranks 1 .. 40 on 2^40: refused from the rank
    # cycle's total width, before any per-function list exists
    sys_obj = build_radix_system([2], 40)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="a corpus of 10000000 functions"):
            random_step_corpus(sys_obj, 10**7, 40, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert main(["equiv-check", "--radix", "2^40", "--count", "10000000"]) == 1
    assert "vilenkin: error: a corpus of 10000000 functions" in capsys.readouterr().err


def test_cli_bad_radix_exit_1(capsys):
    assert main(["kernel", "--radix", "bogus", "--n", "1"]) == 1
    assert "vilenkin: error:" in capsys.readouterr().err


def test_cli_kernel_csv(tmp_path, capsys):
    out = tmp_path / "kern.csv"
    rc = main(["kernel", "--radix", "2^4", "--n", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# experiment=kernel"
    assert "t,re,im" in lines
    data = [line for line in lines if not line.startswith("#")][1:]
    assert len(data) == 16
    parsed = [tuple(float(tok) for tok in line.split(",")) for line in data]
    want = [3.0, 1.0, 1.0, -1.0] * 4  # D_3 depends on t mod 4 only
    for (t, re, im), w in zip(parsed, want):
        assert re == pytest.approx(w, abs=1e-12)
        assert im == pytest.approx(0.0, abs=1e-12)
    # L_n is in the summary, which the stderr line shows for the CSV format
    summary = run_kernel(build_radix_system([2], 4), 3, 1e-9).summary
    assert summary["L_n"] == 1.5
    assert f"summary: {summary}" in capsys.readouterr().err


def test_cli_kernel_builds_one_kernel(tmp_path, monkeypatch):
    # L_n in the summary reuses the kernel of the report
    import vilenkin.norms as norms_mod

    calls = []
    real_kernel = norms_mod.dirichlet_kernel

    def counted(sys_obj, n):
        calls.append(n)
        return real_kernel(sys_obj, n)

    monkeypatch.setattr(experiments_mod, "dirichlet_kernel", counted)
    monkeypatch.setattr(norms_mod, "dirichlet_kernel", counted)
    out = tmp_path / "kern.csv"
    assert main(["kernel", "--radix", "2^10", "--n", "37", "--out", str(out)]) == 0
    assert calls == [37]


def test_cli_kernel_oracle_deviation_exit_2(tmp_path, monkeypatch, capsys):
    # L_n is checked against the closed form; a closed form off by 1e-6 must
    # fail, and L_n itself stays as it was
    exact = experiments_mod.lebesgue_scan
    out = tmp_path / "kern.json"
    args = ["kernel", "--radix", "2,3,4", "--depth", "4", "--n", "37", "--format", "json",
            "--out", str(out)]
    assert main(args) == 0
    l_n = lebesgue_constant(build_radix_system([2, 3, 4], 4), 37)
    summary = json.loads(out.read_text())["summary"]
    assert summary["L_n"] == l_n
    assert summary["oracle_max_deviation"] <= 1e-9
    # a negative tolerance is read as a value, as one token or as its own,
    # and refused
    for tol, shown in ((["--tolerance=-1e-9"], "-1e-09"), (["--tolerance", "-1e-9"], "-1e-09"),
                       (["--tolerance", "-1"], "-1.0")):
        assert main([*args, *tol]) == 1
        assert f"tolerance must be >= 0, got {shown}" in capsys.readouterr().err
    monkeypatch.setattr(experiments_mod, "lebesgue_scan", lambda *a: exact(*a) + 1e-6)
    assert main(args) == 2
    payload = json.loads(out.read_text())
    assert payload["summary"]["L_n"] == l_n
    assert payload["summary"]["oracle_max_deviation"] > 1e-9
    assert payload["violations"] == 1
    assert main([*args, "--tolerance", "1e-5"]) == 0


_EXPERIMENT_ARGS = {
    "kernel": ["--n", "37"],
    "lebesgue-scan": [],
    "lemma1": [],
    "divergence": ["--alphas", "1,2,4"],
    "gat": ["--count", "4"],
    "equiv-check": ["--count", "4"],
}


@pytest.mark.parametrize("command", sorted(_EXPERIMENT_ARGS))
def test_cli_every_experiment_json_is_a_report(tmp_path, command):
    # one JSON format for every experiment: the report, whose rows are the
    # CSV rows cell for cell
    argv = [command, "--radix", "2^6", *_EXPERIMENT_ARGS[command]]
    csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
    assert main([*argv, "--out", str(csv_out)]) == 0
    assert main([*argv, "--format", "json", "--out", str(json_out)]) == 0
    payload = json.loads(json_out.read_text())
    assert list(payload) == ["experiment", "meta", "columns", "rows", "tables", "summary",
                             "violations"]
    assert payload["experiment"] == command
    lines = [line for line in csv_out.read_text().splitlines() if not line.startswith("#")]
    assert payload["columns"] == lines[0].split(",")
    assert payload["rows"] == [json.loads(f"[{line}]") for line in lines[1:]]
    if command == "kernel":
        assert payload["summary"]["L_n"] == lebesgue_constant(build_radix_system([2], 6), 37)


def test_cli_transform_roundtrip(tmp_path):
    sys_obj = build_radix_system([2, 3], 4)
    rng = np.random.default_rng(12)
    f = StepFunction(sys_obj, rng.standard_normal(sys_obj.cells) * 1j + 1.0)
    fin = tmp_path / "f.json"
    fin.write_text("".join(render_interchange(sys_obj, f.values)))
    fout = tmp_path / "c.json"
    assert main(["transform", "--in", str(fin), "--out", str(fout)]) == 0
    back = tmp_path / "g.json"
    assert main(["transform", "--in", str(fout), "--inverse", "--out", str(back)]) == 0
    g_sys, g_values = parse_interchange(json.loads(back.read_text()))
    assert g_sys == sys_obj
    np.testing.assert_allclose(g_values, f.values, atol=1e-10)


def test_cli_transform_takes_only_its_flags(tmp_path, capsys):
    fin = tmp_path / "f.json"
    fin.write_text("".join(render_interchange(build_radix_system([2], 4), np.ones(16))))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radix=2^4\n")
    for extra in (["--threads", "0"], ["--radix", "1^3"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--in", str(fin), *extra])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        # the usage line is the subcommand's, which lists what it accepts
        assert err.startswith("usage: vilenkin transform [-h]")
        assert "{transform," not in err
        assert "vilenkin transform: error: unrecognized arguments: --" in err


@pytest.mark.parametrize("argv", [
    ["kernel", "--n", "3", "--seed", "1"],
    ["lebesgue-scan", "--seed", "1"],
    ["lemma1", "--seed", "1"],
    ["divergence", "--seed", "1"],
    ["lemma1", "--tolerance", "1e-9"],
    ["gat", "--tolerance", "1e-9"],
    ["divergence", "--alpha-rule", "k2"],
    ["divergence", "--terms", "3"],
])
def test_cli_removed_options_exit_1(capsys, argv):
    # each subcommand takes only the options it reads
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--radix", "2^4"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"vilenkin {argv[0]}: error: unrecognized arguments: {argv[-2]}" in err


def test_cli_transform_verify(tmp_path, capsys):
    sys_obj = build_radix_system([2], 6)
    f = random_step_corpus(sys_obj, 1, 3, 4)[0]
    fin = tmp_path / "f.json"
    fin.write_text("".join(render_interchange(sys_obj, f.values)))
    assert main(["transform", "--in", str(fin), "--verify"]) == 0
    assert "max |fast - naive|" in capsys.readouterr().err
    # zero tolerance: the rounding-level deviation (> 0) counts as a violation
    rc = main(["transform", "--in", str(fin), "--verify", "--tolerance", "0"])
    assert rc == 2
    # the synthesis is checked too: the direct sum of its values gives back
    # the input coefficients
    for system in (sys_obj, build_radix_system([2, 3, 4], 6), build_radix_system([5, 2, 7], 3)):
        rng = np.random.default_rng(31)
        c = forward_fast(StepFunction(system, rng.standard_normal(system.cells) + 0.5j))
        cin = tmp_path / "c.json"
        cin.write_text("".join(render_interchange(system, c.coeffs)))
        args = ["transform", "--in", str(cin), "--inverse", "--verify", "--out", str(tmp_path / "g")]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "verify: max |naive(synthesis) - input| = " in err
        assert float(err.split("= ")[1].split()[0]) <= 1e-14
        assert main([*args, "--tolerance", "0"]) == 2


def test_cli_config_flags(tmp_path, capsys):
    sys_obj = build_radix_system([2], 6)
    fin = tmp_path / "c.json"
    c = forward_fast(random_step_corpus(sys_obj, 1, 3, 4)[0])
    fin.write_text("".join(render_interchange(sys_obj, c.coeffs)))
    cfg = tmp_path / "run.cfg"
    # a config may name the input, and a value may start with '-'
    cfg.write_text(f"in={fin}\ninverse=yes\nverify=1\ntolerance=0\n")
    assert main(["transform", "--config", str(cfg)]) == 2
    assert "naive(synthesis)" in capsys.readouterr().err
    cfg.write_text(f"in={fin}\ntolerance=-1e-9\n")
    assert main(["transform", "--config", str(cfg)]) == 1
    assert "tolerance must be >= 0, got -1e-09" in capsys.readouterr().err
    cfg.write_text(f"in={fin}\ninverse=false\nverify=0\n")
    assert main(["transform", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    cfg.write_text(f"in={fin}\ninverse=maybe\n")
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--config", str(cfg)])
    assert exc.value.code == 1
    assert "config key 'inverse' is a flag" in capsys.readouterr().err


def test_cli_byte_identical_reruns(tmp_path):
    for k, args in enumerate((
        ["lebesgue-scan", "--radix", "2^6", "--n-max", "20"],
        ["divergence", "--radix", "2,3,4", "--depth", "4", "--alphas", "1,2"],
    )):
        runs = {}
        for run, extra in (("a", []), ("b", ["--threads", "1"]), ("c", ["--threads", "4"])):
            folder = tmp_path / f"{k}{run}"
            folder.mkdir()
            assert main(args + extra + ["--out", str(folder / "r.csv")]) == 0
            runs[run] = {p.name: p.read_bytes() for p in folder.iterdir()}
        # the thread count changes nothing, so the config hash leaves it out
        assert len(runs["a"]) == 1 + (k == 1)
        assert runs["a"] == runs["b"] == runs["c"]


def _config_hash_line(tmp_path, argv):
    out = tmp_path / "r.csv"
    assert main([*argv, "--out", str(out)]) == 0
    return [l for l in out.read_text().splitlines() if l.startswith("# config_hash=")]


def test_cli_config_hash_records_defaults(tmp_path):
    # a default and the same value given explicitly are the same setting
    for plain, explicit, other in (
        (["gat", "--radix", "2^6"], ["--count", "50"], ["--count", "49"]),
        (["gat", "--radix", "2^6"], ["--max-rank", "4"], ["--max-rank", "3"]),
        (["lemma1", "--radix", "2^6"], ["--n-max", "6"], ["--n-max", "5"]),
    ):
        want = _config_hash_line(tmp_path, plain)
        assert len(want) == 1
        assert _config_hash_line(tmp_path, [*plain, *explicit]) == want
        assert _config_hash_line(tmp_path, [*plain, *other]) != want


def test_cli_lebesgue_oracle_deviation_exit_2(tmp_path, monkeypatch):
    # a closed form that is off by 1e-6 must fail against the kernel route
    exact = vilenkin.experiments.lebesgue_scan
    monkeypatch.setattr(vilenkin.experiments, "lebesgue_scan", lambda *a: exact(*a) + 1e-6)
    out = tmp_path / "scan.json"
    rc = main(["lebesgue-scan", "--radix", "2,3,4", "--depth", "6", "--format", "json",
               "--out", str(out)])
    summary = json.loads(out.read_text())["summary"]
    assert rc == 2
    assert summary["oracle_max_deviation"] > 1e-9
    assert summary["violations"] >= 1


def test_cli_stdout_is_clean_csv(capsys):
    assert main(["lemma1", "--radix", "2^6", "--n-max", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# experiment=lemma1")
    assert "rows ->" not in captured.out  # progress lines stay on stderr
    assert "rows -> stdout" in captured.err


def test_cli_json_format(tmp_path):
    out = tmp_path / "r.json"
    assert main(["lemma1", "--radix", "2^6", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "lemma1"
    assert payload["meta"]["radix"] == "2^6"


def test_lemma1_runs_on_deep_systems(tmp_path):
    # variation_sum is a closed form, so 2^62 needs no per-index array; its
    # rows n <= 12 are those of the 2^12 run, bit for bit
    rows = {}
    for depth in (12, 62):
        out = tmp_path / f"{depth}.csv"
        assert main(["lemma1", "--radix", f"2^{depth}", "--out", str(out)]) == 0
        rows[depth] = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows[62]) == 1 + 62
    assert rows[62][:13] == rows[12]


def test_cli_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nradix=2^6\nn-max=6\n")
    out = tmp_path / "r.csv"
    assert main(["lemma1", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 6  # config value applied
    assert main(["lemma1", "--config", str(cfg), "--n-max", "2", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 2  # CLI wins over config


def test_cli_config_errors(tmp_path, capsys):
    # config values are checked like the same options on the command line
    bad = tmp_path / "bad.cfg"
    for argv, text, message in (
        (["lemma1"], "nonsense_key=1\n", "unrecognized arguments: --nonsense-key=1"),
        (["lemma1"], "seed=1\n", "unrecognized arguments: --seed=1"),
        (["gat"], "seed=xyz\n", "argument --seed: invalid int value: 'xyz'"),
        (["kernel", "--n", "3"], "format=xml\n", "argument --format: invalid choice: 'xml'"),
        (["lemma1"], "just a line\n", "expected key=value"),
        (["lemma1"], None, "cannot read config file"),
    ):
        cfg = tmp_path / "missing.cfg"
        if text is not None:
            cfg = bad
            bad.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert f"vilenkin {argv[0]}: error: " in captured.err and message in captured.err
        assert captured.out == ""


def test_cli_kernel_n_from_config(tmp_path):
    # a config may supply a required option
    cfg = tmp_path / "k.cfg"
    cfg.write_text("radix=2^4\nn=3\n")
    out = tmp_path / "kern.csv"
    assert main(["kernel", "--config", str(cfg), "--out", str(out)]) == 0
    want = tmp_path / "want.csv"
    assert main(["kernel", "--radix", "2^4", "--n", "3", "--out", str(want)]) == 0
    assert out.read_bytes() == want.read_bytes()


def test_cli_parser_reuse_keeps_reports(tmp_path):
    # the parser is built once per process: alternating subcommands, with and
    # without a config file, give the bytes a freshly built parser gives
    import vilenkin.cli as cli_mod

    gat_cfg, equiv_cfg = tmp_path / "gat.cfg", tmp_path / "equiv.cfg"
    gat_cfg.write_text("radix=2^6\ncount=4\nmax-rank=2\n")
    equiv_cfg.write_text("radix=2,3,4\ncount=3\ntolerance=1e-6\n")
    runs = (
        ["gat", "--config", str(gat_cfg)],
        ["equiv-check", "--radix", "2^6", "--count", "2"],
        ["gat", "--radix", "2^6", "--count", "3"],
        ["equiv-check", "--config", str(equiv_cfg), "--seed", "3"],
        ["lemma1", "--radix", "2^6"],
    )

    def report(k, argv):
        folder = tmp_path / str(k)
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir()
        assert main([*argv, "--out", str(folder / "r.csv")]) == 0
        return {p.name: p.read_bytes() for p in folder.iterdir()}

    fresh = []
    for k, argv in enumerate(runs):
        cli_mod._build_parser.cache_clear()
        fresh.append(report(k, argv))
    for order in (runs, runs[::-1]):
        for argv in order:
            k = runs.index(argv)
            assert report(k, argv) == fresh[k], argv
    assert cli_mod._build_parser() is cli_mod._build_parser()


def test_cli_gat_and_equiv_smoke(tmp_path):
    assert main(["gat", "--radix", "2^6", "--count", "4", "--max-rank", "2",
                 "--out", str(tmp_path / "g.csv")]) == 0
    assert (tmp_path / "g.fejer.csv").exists()
    assert main(["equiv-check", "--radix", "2,3,4", "--count", "3",
                 "--out", str(tmp_path / "e.csv")]) == 0


def test_cli_gat_default_rank_fits_shallow_systems(tmp_path):
    # the default largest rank is 4, or the depth when the system is shallower
    out = tmp_path / "g.csv"
    assert main(["gat", "--radix", "5,2,7", "--count", "4", "--out", str(out)]) == 0
    data = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert sorted({int(row[1]) for row in data}) == [1, 2, 3]


@pytest.mark.parametrize("command,option", [("gat", "--max-rank"), ("equiv-check", "--rank")])
def test_cli_notes_ranks_above_count(tmp_path, capsys, command, option):
    # function i has rank 1 + (i mod max rank), so with 4 functions the ranks
    # 5 and 6 never occur: one stderr note, and the report of max rank 4
    # but for its config hash
    def run(rank, name):
        out = tmp_path / name
        argv = [command, "--radix", "2^6", "--count", "4", option, str(rank), "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        return [l for l in lines if not l.startswith("# config_hash=")], capsys.readouterr().err

    high, err = run(6, "high.csv")
    assert err.count("note:") == 1
    assert (f"{command}: note: function i has rank 1 + (i mod {option}), "
            "so ranks above --count 4 do not occur\n") in err
    fits, err = run(4, "fits.csv")
    assert "note:" not in err
    assert high == fits


def test_cli_equiv_check_violations_exit_2(tmp_path):
    out = tmp_path / "e.json"
    assert main(["equiv-check", "--radix", "2^4", "--count", "3", "--tolerance=0",
                 "--format", "json", "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    # every row with a nonzero gap is a violation at zero tolerance
    gaps = [row[report["columns"].index("max_pointwise_diff")] for row in report["rows"]]
    assert report["summary"]["violations"] == sum(gap > 0 for gap in gaps) >= 1


def test_cli_equiv_check_nan_gap_exit_2(tmp_path, monkeypatch):
    # one NaN gap is a violation, and the summary keeps it rather than max()'s 0.0
    from vilenkin import experiments

    real = experiments.check_norm_equivalence
    # function 1 of the default seed, found by its values in whatever rows
    # and on whatever group the driver passes it
    target = random_step_corpus(build_radix_system([2], 4), 3, 4, 1)[1].values

    def one_nan(sys, values):
        rep = real(sys, values)
        gaps = rep.max_pointwise_diff.copy()
        for i, row in enumerate(values):
            if np.array_equal(row, target[: row.size]):
                gaps[i] = math.nan
        return type(rep)(rep.h1_norm, rep.sup_block_norm, gaps)

    monkeypatch.setattr(experiments, "check_norm_equivalence", one_nan)
    out = tmp_path / "e.json"
    assert main(["equiv-check", "--radix", "2^4", "--count", "3", "--format", "json",
                 "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["summary"]["violations"] == 1
    assert math.isnan(payload["summary"]["max_pointwise_diff"])
    assert math.isnan(payload["rows"][1][4])


def test_cli_stamps_the_header(tmp_path):
    # a driver returns its report without a header; the CLI adds it
    rep = run_equiv_check(build_radix_system([2], 4), 3, 4, 1, 1e-9)
    assert rep.meta == {}
    out = tmp_path / "e.json"
    assert main(["equiv-check", "--radix", "2^4", "--count", "3", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["meta"]) == {"radix", "depth", "version", "config_hash"}
    assert payload["rows"] == [list(r) for r in table_rows(rep.table)]


def test_cli_depth_flag(tmp_path, capsys):
    # --depth cycles the radix pattern, mirroring build_radix_system
    out = tmp_path / "k.csv"
    assert main(["kernel", "--radix", "2,3,4", "--depth", "6", "--n", "1",
                 "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(data) == 576


def test_cli_version_subprocess():
    # run from the directory holding the imported package, so the child
    # process finds the same copy without an installed package or PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "vilenkin.cli", "--version"],
        capture_output=True, text=True,
        cwd=pathlib.Path(vilenkin.__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("vilenkin ")


def test_no_subcommand_imports_numpy_ma(tmp_path):
    # numpy.ma costs tens of milliseconds to import (np.unique is one way in),
    # so no report path may pull it in
    f = tmp_path / "f.json"
    f.write_text("".join(render_interchange(build_radix_system([2], 6), np.ones(64))))
    commands = [
        ["transform", "--in", str(f), "--verify"],
        ["kernel", "--n", "37"],
        ["lebesgue-scan"],
        ["lemma1"],
        ["divergence", "--alphas", "1,4"],
        ["gat", "--count", "5"],
        ["equiv-check", "--count", "5"],
    ]
    argvs = [[*c, *([] if c[0] == "transform" else ["--radix", "2^6"]),
              "--out", str(tmp_path / f"{i}.out")] for i, c in enumerate(commands)]
    script = (
        "import sys\n"
        "from vilenkin.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd=pathlib.Path(vilenkin.__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0,", "0,", "0,", "0,", "0,", "0]", "False"]
