import json
import multiprocessing

import numpy as np
import pytest

import bonmf.bench
import bonmf.bonmf
import bonmf.nmf
import bonmf.onmf
import bonmf.semi_binary
from bonmf.bench import (
    ConfigError,
    ExperimentConfig,
    _build_config,
    emit_report,
    main,
    parse_config_file,
    run_experiment,
    synth_dataset,
)
from bonmf.data_io import DatasetSpec
from bonmf.matrices import BinaryAssignment
from bonmf.nmf import FactorizeOptions


def blocks_cfg(**kw):
    defaults = dict(
        dataset=DatasetSpec(path="<in-memory>"),
        methods=("bonmf",),
        trials=1,
        rank="classes",
        max_iterations=30,
        base_seed=0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def mask_timings(payload):
    for rec in payload["records"]:
        rec["tt"] = rec["ct"] = None
    for agg in payload["aggregates"].values():
        for key in ("tt_mean", "tt_stddev", "ct_mean", "ct_stddev"):
            agg[key] = None
    return payload


def test_synth_blocks_structure():
    ds = synth_dataset("blocks", 8, 20, 2, 0.0, seed=0)
    assert ds.data.shape == (8, 20)
    # class-0 samples live on the first feature block only
    for j in range(ds.n):
        lo, hi = (0, 4) if ds.labels[j] == 0 else (4, 8)
        assert np.all(ds.data[lo:hi, j] > 0)
        other = np.r_[0:lo, hi:8]
        assert np.all(ds.data[other, j] == 0)


def test_synth_label_histogram_balanced():
    ds = synth_dataset("blocks", 10, 23, 4, 0.1, seed=1)
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.max() - counts.min() <= 1


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_dataset("spiral", 4, 10, 2, 0.0, 0)
    with pytest.raises(ValueError):
        synth_dataset("blocks", 3, 10, 5, 0.0, 0)


def test_run_experiment_perfect_blocks():
    ds = synth_dataset("blocks", 20, 100, 4, 0.0, seed=2)
    report = run_experiment(blocks_cfg(), ds=ds)
    assert len(report.records) == 1
    rec = report.records[0]
    assert not rec["failed"]
    assert rec["accuracy"] == 1.0


def test_run_experiment_all_methods_complete():
    ds = synth_dataset("blocks", 12, 60, 3, 0.05, seed=3)
    cfg = blocks_cfg(methods=("bonmf", "nmf", "onmf", "onmf-cos", "zhang"), trials=2)
    report = run_experiment(cfg, ds=ds)
    assert len(report.records) == 10
    agg = report.aggregates()
    assert set(agg) == set(cfg.methods)
    for method in cfg.methods:
        assert agg[method]["trials_ok"] + agg[method]["trials_failed"] == 2


def test_every_factorizer_in_a_trial_starts_from_the_same_basis(monkeypatch):
    starts = {}
    for module in (bonmf.bonmf, bonmf.nmf, bonmf.onmf, bonmf.semi_binary):
        def recording(*args, module=module, init=module.init_w, **kwargs):
            W = init(*args, **kwargs)
            starts[module.__name__] = W.copy()
            return W

        monkeypatch.setattr(module, "init_w", recording)
    ds = synth_dataset("noisy-blocks", 12, 60, 3, 0.1, seed=3)
    run_experiment(blocks_cfg(methods=("bonmf", "nmf", "onmf", "zhang")), ds=ds)
    assert len(starts) == 4
    first = starts["bonmf.bonmf"]
    assert all(W.tobytes() == first.tobytes() for W in starts.values())


def test_run_experiment_deterministic_modulo_timings():
    ds = synth_dataset("blocks", 10, 50, 2, 0.1, seed=4)
    cfg = blocks_cfg(methods=("bonmf", "nmf"), trials=2)
    a = mask_timings(json.loads(emit_report(run_experiment(cfg, ds=ds), "json")))
    b = mask_timings(json.loads(emit_report(run_experiment(cfg, ds=ds), "json")))
    assert a == b


def test_aggregates_match_raw_records():
    ds = synth_dataset("blocks", 10, 50, 2, 0.1, seed=5)
    report = run_experiment(blocks_cfg(trials=3), ds=ds)
    accs = [r["accuracy"] for r in report.records if not r["failed"]]
    assert report.aggregates()["bonmf"]["accuracy_mean"] == pytest.approx(
        sum(accs) / len(accs)
    )


def test_empty_methods_rejected():
    with pytest.raises(ConfigError):
        blocks_cfg(methods=())


def test_unknown_method_rejected():
    with pytest.raises(ConfigError):
        blocks_cfg(methods=("bonmf", "kmeanz"))


def test_emit_markdown_layout():
    ds = synth_dataset("blocks", 10, 40, 2, 0.0, seed=6)
    report = run_experiment(blocks_cfg(), ds=ds)
    md = emit_report(report, "markdown")
    lines = md.strip().splitlines()
    assert len(lines) == 5  # header, separator, TT, CT, AC
    assert lines[2].startswith("| TT (s) |")
    assert lines[3].startswith("| CT (s) |")
    assert lines[4].startswith("| AC (%) |")


def test_emit_json_round_trip():
    ds = synth_dataset("blocks", 10, 40, 2, 0.0, seed=7)
    report = run_experiment(blocks_cfg(), ds=ds)
    payload = json.loads(emit_report(report, "json"))
    assert payload["records"] == report.records
    assert payload["config"] == report.config


def test_emit_csv_row_count():
    ds = synth_dataset("blocks", 10, 40, 2, 0.0, seed=8)
    cfg = blocks_cfg(methods=("bonmf", "nmf"), trials=3)
    report = run_experiment(cfg, ds=ds)
    rows = emit_report(report, "csv").strip().splitlines()
    assert len(rows) == 1 + 2 * 3  # header + methods * trials


def test_emit_unknown_format():
    ds = synth_dataset("blocks", 10, 40, 2, 0.0, seed=9)
    report = run_experiment(blocks_cfg(), ds=ds)
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_parse_config_file(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# experiment\n"
        "dataset = data.csv\n"
        "methods = bonmf, nmf\n"
        "trials = 5\n"
        "rank = classes\n"
        "seed = 9\n"
    )
    values = parse_config_file(cfg_file)
    assert values["dataset"] == "data.csv"
    assert values["trials"] == "5"
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)


def test_cli_synth_and_run(tmp_path):
    data_file = tmp_path / "blocks.csv"
    out_dir = tmp_path / "out"
    assert main([
        "synth", "--kind", "blocks", "--m", "12", "--n", "60", "--k", "3",
        "--seed", "1", "--out", str(data_file),
    ]) == 0
    assert main([
        "run", "--dataset", str(data_file), "--methods", "bonmf",
        "--trials", "1", "--max-iters", "20", "--seed", "0",
        "--out", str(out_dir), "--emit", "json,csv,markdown",
    ]) == 0
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.md").exists()
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["aggregates"]["bonmf"]["accuracy_mean"] == 1.0


def test_cli_config_error_exit_code(tmp_path):
    assert main(["run", "--dataset", str(tmp_path / "nope.csv")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert main(["run", "--config", str(bad)]) == 2


def test_run_experiment_parallel_jobs_match_sequential():
    ds = synth_dataset("blocks", 10, 40, 2, 0.1, seed=10)
    seq = run_experiment(blocks_cfg(trials=2), ds=ds)
    par = run_experiment(blocks_cfg(trials=2, jobs=2), ds=ds)
    strip = lambda recs: [
        {k: v for k, v in r.items() if k not in ("tt", "ct")} for r in recs
    ]
    assert sorted(strip(seq.records), key=str) == sorted(strip(par.records), key=str)


BLOCKS_CSV = "".join(f"{1 + j % 2}.0,{2 - j % 2}.0,{j % 2}\n" for j in range(20))


@pytest.mark.parametrize(
    "csv_text, config_lines, flags",
    [
        pytest.param(BLOCKS_CSV, ["format = xml"], [], id="format-xml"),
        pytest.param(BLOCKS_CSV, ["rank = abc"], [], id="rank-abc"),
        pytest.param(BLOCKS_CSV, ["label_column = first"], [], id="label-column-first"),
        pytest.param(BLOCKS_CSV, ["label_column = -1"], [], id="label-column--1"),
        pytest.param(BLOCKS_CSV, [], ["--emit", "yaml"], id="emit-yaml"),
        pytest.param(BLOCKS_CSV, [], ["--train-frac", "1.5"], id="train-frac-1.5"),
        pytest.param(BLOCKS_CSV, [], ["--max-iters", "0"], id="max-iters-0"),
        pytest.param(BLOCKS_CSV, [], ["--tol", "-1"], id="tol-negative"),
        pytest.param(BLOCKS_CSV, [], ["--trials", "many"], id="trials-many"),
        pytest.param("1.0,2.0,0\n1.0,oops,1\n", [], [], id="malformed-csv"),
        pytest.param("1.0,2.0,0\n2.0,1.0,1\n", [], [], id="too-few-samples-to-split"),
        pytest.param(BLOCKS_CSV.replace("2.0,1.0", "2.0,nan", 1), [], [], id="nan-feature"),
        pytest.param(BLOCKS_CSV.replace("2.0,1.0", "inf,1.0", 1), [], [], id="inf-feature"),
    ],
)
def test_cli_bad_input_fails_before_any_trial(tmp_path, capsys, csv_text, config_lines, flags):
    data_file = tmp_path / "data.csv"
    data_file.write_text(csv_text)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("\n".join([f"dataset = {data_file}", *config_lines]) + "\n")
    out_dir = tmp_path / "out"
    argv = ["run", "--config", str(cfg_file), "--trials", "1", "--out", str(out_dir), *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


def test_zhang_model_keeps_labels_only():
    ds = synth_dataset("blocks", 10, 40, 2, 0.1, seed=10)
    model = bonmf.bench._train_zhang(ds, 2, FactorizeOptions(max_iterations=5))
    assert type(model.assignments) is BinaryAssignment
    assert model.assignments.sums is None


def test_build_config_defaults_are_the_dataclass_defaults():
    assert _build_config({"dataset": "d.csv"}) == ExperimentConfig(DatasetSpec("d.csv"))


def _count_calls(monkeypatch, name, log):
    """Rebind bonmf.bench.<name> to a wrapper that appends one character to
    `log` per call; forked worker processes inherit the rebinding and share
    the file."""
    original = getattr(bonmf.bench, name)

    def counting(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(".")
        return original(*args, **kwargs)

    monkeypatch.setattr(bonmf.bench, name, counting)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "methods", [("onmf", "onmf-cos"), ("onmf-cos", "onmf"), ("onmf-cos",)]
)
def test_onmf_cos_reuses_the_onmf_model(tmp_path, monkeypatch, methods, jobs):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the counting rebinding only when forked")
    log = tmp_path / "calls"
    _count_calls(monkeypatch, "factorize_onmf", log)
    ds = synth_dataset("blocks", 10, 40, 2, 0.1, seed=11)
    report = run_experiment(blocks_cfg(methods=methods, trials=2, jobs=jobs), ds=ds)
    assert len(log.read_text()) == 2
    assert not any(r["failed"] for r in report.records)
    for trial in range(2):
        tts = {r["tt"] for r in report.records if r["trial"] == trial}
        assert len(tts) == 1


def test_method_table_looks_up_classifiers_at_call_time(tmp_path, monkeypatch):
    log = tmp_path / "calls"
    _count_calls(monkeypatch, "classify_bonmf", log)
    ds = synth_dataset("blocks", 10, 40, 2, 0.1, seed=12)
    run_experiment(blocks_cfg(methods=("bonmf", "zhang")), ds=ds)
    assert len(log.read_text()) == 2 * 8  # two methods, 8 test samples
