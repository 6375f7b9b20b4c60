"""Experiment drivers, report rendering, and the command line harness."""

import json
import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import vilenkin
from vilenkin import (
    CounterexampleSpec,
    StepFunction,
    build_counterexample,
    build_radix_system,
    fejer_mean,
    forward_fast,
    h1_norm,
    lebesgue_constant,
    lp_norm,
    partial_sum,
    partial_sum_l1_norms,
)
from vilenkin.cli import main
from vilenkin.experiments import (
    ExperimentReport,
    Table,
    config_hash,
    random_step_corpus,
    render_csv,
    render_json,
    report_meta,
    run_divergence,
    run_equiv_check,
    run_gat,
    run_lebesgue_scan,
    run_variation_average,
    write_report,
)


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
        table=Table(["n", "x"], [(1, 0.5), (2, 1.0 / 3.0)]),
        extra_tables={"side": Table(["k"], [(7,)])},
        summary={"ok": True},
    )


def test_render_csv_layout(dyadic6):
    text = render_csv(_tiny_report(dyadic6))
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


def test_render_json_parses_back(dyadic6):
    payload = json.loads(render_json(_tiny_report(dyadic6)))
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


def test_write_report_stdout(capsys, dyadic6):
    assert write_report(_tiny_report(dyadic6), None, "csv") == []
    captured = capsys.readouterr()
    assert "# table=side" in captured.out


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


# ---------------------------------------------------------------------------
# drivers


def test_run_lebesgue_scan_small(dyadic6, mixed2):
    for sys_obj, hi, frozen in ((dyadic6, 10, {2: 1.0, 3: 1.5}), (mixed2, 575, {})):
        rep = run_lebesgue_scan(sys_obj, 1, hi, 1e-9, {"seed": 1})
        assert rep.table.columns[:4] == ["n", "v", "v_star", "L_n"]
        assert rep.violations == 0
        by_n = {row[0]: row for row in rep.table.rows}
        for n, want in frozen.items():
            assert by_n[n][3] == pytest.approx(want)
        assert sorted(by_n) == list(range(1, hi + 1))
        for n, row in by_n.items():
            assert row[3] == pytest.approx(lebesgue_constant(sys_obj, n), abs=1e-12)
        assert rep.summary["checked"] == hi
        assert rep.summary["oracle_max_deviation"] <= 1e-12
        assert rep.summary["min_lower_slack"] >= 0
        assert rep.summary["max_L_over_log_n"] > 0


def test_run_variation_average_frozen(dyadic6):
    rep = run_variation_average(dyadic6, 4, {"seed": 1})
    assert rep.table.columns == ["n", "average_n_mn", "average_mn"]
    rows = {r[0]: r for r in rep.table.rows}
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
        rep = run_divergence(sys_obj, alphas, 1e-12, {"seed": 1})
        assert len(rep.table.rows) == len(alphas)
        assert rep.summary["eq_block_coeff_deviation"] < 1e-12
        assert rep.violations == 0
        assert "cesaro" in rep.extra_tables
        assert len(rep.extra_tables["cesaro"].rows) == sys_obj.depth
        if frozen_b is not None:
            assert [row[3] for row in rep.table.rows] == pytest.approx(frozen_b)
        spec = CounterexampleSpec(sys_obj, alphas)
        c = forward_fast(build_counterexample(spec))
        norms = partial_sum_l1_norms(c, 1, sys_obj.cells)
        for n, avg in rep.extra_tables["cesaro"].rows:
            assert avg == pytest.approx(float(norms[:n].mean()), abs=1e-12)
        # a hostile tolerance flips the verification outcome
        rep = run_divergence(sys_obj, alphas, -1.0, {"seed": 1})
        assert rep.violations == 1


def test_run_gat_small(dyadic6, mixed):
    for sys_obj in (dyadic6, mixed):
        rep = run_gat(sys_obj, 4, 2, 1, {"seed": 1})
        assert rep.table.columns == [
            "func_id", "rank", "n", "convergence_form", "bounded_form", "bounded_ratio",
        ]
        assert len(rep.table.rows) == 4 * (sys_obj.depth - 1)
        assert np.isfinite(rep.summary["max_bounded_ratio"])
        assert rep.summary["max_fejer_ratio"] > 0
        assert len(rep.extra_tables["fejer"].rows) == 4
        # every value against partial sums and Fejer means taken one n at a time
        corpus = random_step_corpus(sys_obj, 4, 2, 1)
        for func_id, _, n, conv, bounded, ratio in rep.table.rows:
            f = corpus[func_id]
            sums = [partial_sum(forward_fast(f), k) for k in range(1, n + 1)]
            want_bnd = sum(lp_norm(s, 1.0) / k for k, s in enumerate(sums, 1)) / math.log(n)
            want_conv = sum(
                lp_norm(StepFunction(sys_obj, s.values - f.values), 1.0) / k
                for k, s in enumerate(sums, 1)
            ) / math.log(n)
            assert conv == pytest.approx(want_conv, abs=1e-12)
            assert bounded == pytest.approx(want_bnd, abs=1e-12)
            assert ratio == pytest.approx(want_bnd / h1_norm(f), abs=1e-12)
        for func_id, sup, h1, ratio in rep.extra_tables["fejer"].rows:
            c = forward_fast(corpus[func_id])
            want = max(lp_norm(fejer_mean(c, n), 1.0) for n in range(1, sys_obj.cells + 1))
            assert sup == pytest.approx(want, abs=1e-12)
            assert h1 == pytest.approx(h1_norm(corpus[func_id]), abs=1e-12)
            assert ratio == pytest.approx(want / h1, abs=1e-12)


def test_run_equiv_check_small(mixed2):
    rep = run_equiv_check(mixed2, 6, mixed2.depth, 1, 1e-9, {"seed": 1})
    assert rep.violations == 0
    assert rep.summary["max_pointwise_diff"] < 1e-9
    assert len(rep.table.rows) == 6


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
    ["divergence", "--alpha-rule", "k2", "--terms", "0"],
    ["gat", "--count", "0"],
    ["gat", "--max-rank", "0"],
    ["lebesgue-scan", "--n-min", "0"],
    ["lebesgue-scan", "--n-max", "0"],
    ["lemma1", "--n-max", "0"],
    ["equiv-check", "--rank", "0"],
    ["equiv-check", "--count", "0"],
    ["lebesgue-scan", "--threads", "0"],
    ["gat", "--threads", "-2"],
    # 2^34 cells: refused by the memory estimate before anything is allocated
    ["lebesgue-scan", "--radix", "2^34"],
    ["kernel", "--radix", "2^34", "--n", "1"],
    ["lemma1", "--radix", "2^34"],
    ["gat", "--radix", "2^34"],
    ["equiv-check", "--radix", "2^34"],
    ["divergence", "--radix", "2^34", "--alphas", "1,4,9"],
])
def test_cli_bad_values_exit_1(capsys, argv):
    # zero is a value to validate, not a request for the default
    tracemalloc.start()
    try:
        # a --radix in the case comes later on the line, so it wins over 2^6
        assert main([argv[0], "--radix", "2^6", *argv[1:]]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "vilenkin: error:" in capsys.readouterr().err
    assert peak < 2**20


def test_cli_bad_radix_exit_1(capsys):
    assert main(["kernel", "--radix", "bogus", "--n", "1"]) == 1
    assert "vilenkin: error:" in capsys.readouterr().err


def test_cli_kernel_csv(tmp_path, capsys):
    out = tmp_path / "kern.csv"
    rc = main(["kernel", "--radix", "2^4", "--n", "3", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "L_n = 1.5" in err
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


def test_cli_transform_roundtrip(tmp_path):
    sys_obj = build_radix_system([2, 3], 4)
    rng = np.random.default_rng(12)
    f = StepFunction(sys_obj, rng.standard_normal(sys_obj.cells) * 1j + 1.0)
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(f.to_json_dict()))
    fout = tmp_path / "c.json"
    assert main(["transform", "--in", str(fin), "--out", str(fout)]) == 0
    back = tmp_path / "g.json"
    assert main(["transform", "--in", str(fout), "--inverse", "--out", str(back)]) == 0
    g = StepFunction.from_json_dict(json.loads(back.read_text()))
    np.testing.assert_allclose(g.values, f.values, atol=1e-10)


def test_cli_transform_verify(tmp_path, capsys):
    sys_obj = build_radix_system([2], 6)
    f = random_step_corpus(sys_obj, 1, 3, 4)[0]
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(f.to_json_dict()))
    assert main(["transform", "--in", str(fin), "--verify"]) == 0
    assert "max |fast - naive|" in capsys.readouterr().err
    # impossible tolerance: the deviation (>= 0) must now count as a violation
    rc = main(["transform", "--in", str(fin), "--verify", "--tolerance", "-1"])
    assert rc == 2


def test_cli_byte_identical_reruns(tmp_path):
    for k, args in enumerate((
        ["lebesgue-scan", "--radix", "2^6", "--n-max", "20"],
        ["divergence", "--radix", "2,3,4", "--depth", "4", "--alphas", "1,2"],
    )):
        runs = {}
        for run, extra in (("a", []), ("b", []), ("c", ["--threads", "4"])):
            folder = tmp_path / f"{k}{run}"
            folder.mkdir()
            assert main(args + extra + ["--out", str(folder / "r.csv")]) == 0
            runs[run] = {p.name: p.read_bytes() for p in folder.iterdir()}
        assert runs["a"] == runs["b"]
        # the thread count changes only the config hash, which records it
        assert runs["c"].keys() == runs["a"].keys()
        for name, text in runs["a"].items():
            differ = [
                (x, y) for x, y in zip(text.splitlines(), runs["c"][name].splitlines())
                if x != y
            ]
            assert len(differ) == 1 and differ[0][0].startswith(b"# config_hash=")
            assert len(runs["c"][name]) == len(text)


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
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key=1\n")
    assert main(["lemma1", "--config", str(bad)]) == 1
    assert "unknown config key" in capsys.readouterr().err
    bad.write_text("seed=xyz\n")
    assert main(["lemma1", "--config", str(bad)]) == 1
    malformed = tmp_path / "m.cfg"
    malformed.write_text("just a line\n")
    assert main(["lemma1", "--config", str(malformed)]) == 1


def test_cli_divergence_alpha_rules(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = main([
        "divergence", "--radix", "2^6", "--alpha-rule", "k2", "--terms", "2",
        "--out", str(out),
    ])
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 2 and rows[0].startswith("1,1,") and rows[1].startswith("2,4,")
    assert main(["divergence", "--radix", "2^6", "--alphas", "1,2",
                 "--alpha-rule", "k2"]) == 1
    assert "not both" in capsys.readouterr().err


def test_cli_gat_and_equiv_smoke(tmp_path):
    assert main(["gat", "--radix", "2^6", "--count", "4", "--max-rank", "2",
                 "--out", str(tmp_path / "g.csv")]) == 0
    assert (tmp_path / "g.fejer.csv").exists()
    assert main(["equiv-check", "--radix", "2,3,4", "--count", "3",
                 "--out", str(tmp_path / "e.csv")]) == 0


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
