"""Benchmark harness: repeated seeded trials of the five methods with
training time, classification time and accuracy, plus the CLI.

Per trial, all requested methods see the same train/test split (seed =
base_seed + trial index) so comparisons are paired. Timing covers the
train and classify phases only; data loading is excluded.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv as csvmod
import io
import json
import statistics
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .bonmf import BonmfModel, factorize_bonmf, update_h_cosine
from .classify import (
    LabeledDataset,
    accuracy,
    build_label_map,
    classify_angle_nearest,
    classify_bonmf,
    classify_coefficient_argmax,
)
from .data_io import DatasetSpec, load_dataset, train_test_split
from .nmf import FactorizeOptions, factorize_nmf
from .onmf import factorize_onmf
from .semi_binary import factorize_zhang

METHODS = ("bonmf", "nmf", "onmf", "onmf-cos", "zhang")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    methods: tuple = METHODS
    trials: int = 30
    rank: int | str = "classes"
    train_fraction: float = 0.8
    max_iterations: int = 200
    tolerance: float = 1e-4
    base_seed: int = 0
    jobs: int = 1
    out_dir: str = "bench-out"
    emit: tuple = ("json",)

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ConfigError(f"unknown methods: {sorted(unknown)}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if isinstance(self.rank, int) and self.rank < 1:
            raise ConfigError("rank must resolve to >= 1")


@dataclass
class TrialReport:
    config: dict
    records: list = field(default_factory=list)

    def aggregates(self) -> dict:
        """Per-method mean and sample stddev over the non-failed trials."""
        out = {}
        for method in {r["method"] for r in self.records}:
            ok = [r for r in self.records if r["method"] == method and not r["failed"]]
            failed = sum(
                1 for r in self.records if r["method"] == method and r["failed"]
            )
            agg = {"trials_ok": len(ok), "trials_failed": failed}
            for key in ("tt", "ct", "accuracy"):
                vals = [r[key] for r in ok]
                agg[f"{key}_mean"] = statistics.fmean(vals) if vals else None
                agg[f"{key}_stddev"] = (
                    statistics.stdev(vals) if len(vals) > 1 else 0.0 if vals else None
                )
            out[method] = agg
        return out


def synth_dataset(
    kind: str, m: int, n: int, k: int, noise: float, seed: int
) -> LabeledDataset:
    """Block-structured synthetic set: class c is supported on feature
    block c with uniform positive values, plus uniform noise everywhere.
    Labels are assigned round-robin."""
    if kind not in ("blocks", "noisy-blocks"):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if k > m:
        raise ValueError("need k <= m for feature blocks")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % k
    X = rng.uniform(0.0, noise, size=(m, n)) if noise > 0 else np.zeros((m, n))
    bounds = [(c * m // k, (c + 1) * m // k) for c in range(k)]
    for j in range(n):
        lo, hi = bounds[labels[j]]
        X[lo:hi, j] += rng.uniform(0.5, 1.5, size=hi - lo)
    return LabeledDataset(data=X, labels=labels, class_count=k)


def _train(method, train: LabeledDataset, k: int, opts: FactorizeOptions):
    if method == "bonmf":
        model = factorize_bonmf(train.data, k, opts)
        model.cluster_labels = build_label_map(model.assignments, train.labels)
        return model
    if method == "nmf":
        return factorize_nmf(train.data, k, opts)
    if method in ("onmf", "onmf-cos"):
        return factorize_onmf(train.data, k, opts)
    if method == "zhang":
        model = factorize_zhang(train.data, k, opts)
        # multi-hot H has no per-sample cluster, so classification goes
        # through the cosine-to-basis route like the binary model
        assign = update_h_cosine(train.data, model.basis)
        wrapped = BonmfModel(
            basis=model.basis, assignments=assign, trace=model.trace
        )
        wrapped.cluster_labels = build_label_map(assign, train.labels)
        return wrapped
    raise ConfigError(f"unknown method {method!r}")


def _classify_all(method, model, train: LabeledDataset, test: LabeledDataset):
    preds = np.empty(test.n, dtype=np.intp)
    for j in range(test.n):
        x = test.data[:, j]
        if method in ("bonmf", "zhang"):
            preds[j] = classify_bonmf(x, model)
        elif method == "nmf":
            preds[j] = classify_angle_nearest(x, model, train, scheme="nmf")
        elif method == "onmf":
            preds[j] = classify_coefficient_argmax(x, model, train)
        elif method == "onmf-cos":
            preds[j] = classify_angle_nearest(x, model, train, scheme="onmf-cos")
    return preds


def _run_trial(cfg: ExperimentConfig, ds: LabeledDataset, trial: int) -> list:
    seed = cfg.base_seed + trial
    train, test = train_test_split(ds, cfg.train_fraction, seed)
    k = ds.class_count if cfg.rank == "classes" else int(cfg.rank)
    opts = FactorizeOptions(
        max_iterations=cfg.max_iterations, tolerance=cfg.tolerance, seed=seed
    )
    records = []
    for method in cfg.methods:
        rec = {"method": method, "trial": trial, "seed": seed, "failed": False,
               "error": None, "tt": None, "ct": None, "accuracy": None}
        try:
            t0 = time.perf_counter()
            model = _train(method, train, k, opts)
            rec["tt"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            preds = _classify_all(method, model, train, test)
            rec["ct"] = time.perf_counter() - t1
            rec["accuracy"] = accuracy(preds, test.labels)
        except Exception as exc:  # noqa: BLE001 - failed trials are reported, not fatal
            rec["failed"] = True
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return records


def run_experiment(cfg: ExperimentConfig, ds: LabeledDataset | None = None) -> TrialReport:
    """Run every (trial, method) cell and aggregate. `ds` overrides
    loading cfg.dataset from disk (used for synthetic runs and tests)."""
    if ds is None:
        ds = load_dataset(cfg.dataset)
    report = TrialReport(config=_config_dict(cfg))
    if cfg.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [pool.submit(_run_trial, cfg, ds, t) for t in range(cfg.trials)]
            for fut in futures:
                report.records.extend(fut.result())
    else:
        for trial in range(cfg.trials):
            report.records.extend(_run_trial(cfg, ds, trial))
    return report


def _config_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["methods"] = list(cfg.methods)
    d["emit"] = list(cfg.emit)
    return d


def emit_report(report: TrialReport, format: str) -> str:
    """Render a report: markdown gives the method-by-metric grid, json and
    csv carry the raw per-trial records."""
    if format == "json":
        return json.dumps(
            {
                "config": report.config,
                "aggregates": report.aggregates(),
                "records": report.records,
            },
            indent=2,
        )
    if format == "csv":
        buf = io.StringIO()
        writer = csvmod.writer(buf)
        writer.writerow(["method", "trial", "seed", "tt", "ct", "accuracy", "failed", "error"])
        for r in report.records:
            writer.writerow([r["method"], r["trial"], r["seed"], r["tt"], r["ct"],
                             r["accuracy"], r["failed"], r["error"]])
        return buf.getvalue()
    if format == "markdown":
        agg = report.aggregates()
        methods = [m for m in METHODS if m in agg] or sorted(agg)
        lines = ["| | " + " | ".join(methods) + " |",
                 "|---|" + "---|" * len(methods)]
        rows = [("TT (s)", "tt_mean", "{:.4f}"),
                ("CT (s)", "ct_mean", "{:.4f}"),
                ("AC (%)", "accuracy_mean", None)]
        for title, key, fmt in rows:
            cells = []
            for m in methods:
                v = agg[m][key]
                if v is None:
                    cells.append("failed")
                elif fmt:
                    cells.append(fmt.format(v))
                else:
                    cells.append(f"{100 * v:.2f}")
            lines.append(f"| {title} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


# ---------------------------------------------------------------------------
# config files and CLI

_CONFIG_KEYS = {
    "dataset", "format", "label_column", "delimiter", "has_header", "shift_nonneg",
    "methods", "trials", "rank", "train_frac", "max_iters", "tol", "seed",
    "jobs", "out", "emit",
}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val
    return values


def _build_config(values: dict) -> ExperimentConfig:
    if "dataset" not in values:
        raise ConfigError("dataset path is required")
    spec = DatasetSpec(
        path=values["dataset"],
        format=values.get("format", "csv"),
        label_column=values.get("label_column", "last"),
        delimiter=values.get("delimiter", ","),
        has_header=str(values.get("has_header", "false")).lower() in ("1", "true", "yes"),
        shift_nonneg=str(values.get("shift_nonneg", "false")).lower() in ("1", "true", "yes"),
    )
    rank = values.get("rank", "classes")
    if rank != "classes":
        rank = int(rank)
    methods = values.get("methods", ",".join(METHODS))
    if isinstance(methods, str):
        methods = tuple(m.strip() for m in methods.split(",") if m.strip())
    emit = values.get("emit", "json")
    if isinstance(emit, str):
        emit = tuple(e.strip() for e in emit.split(",") if e.strip())
    try:
        return ExperimentConfig(
            dataset=spec,
            methods=methods,
            trials=int(values.get("trials", 30)),
            rank=rank,
            train_fraction=float(values.get("train_frac", 0.8)),
            max_iterations=int(values.get("max_iters", 200)),
            tolerance=float(values.get("tol", 1e-4)),
            base_seed=int(values.get("seed", 0)),
            jobs=int(values.get("jobs", 1)),
            out_dir=values.get("out", "bench-out"),
            emit=emit,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_outputs(cfg: ExperimentConfig, report: TrialReport):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(report.config, indent=2))
    ext = {"json": "json", "csv": "csv", "markdown": "md"}
    for fmt in cfg.emit:
        (out / f"report.{ext[fmt]}").write_text(emit_report(report, fmt))


def _cmd_run(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    overrides = {
        "dataset": args.dataset, "format": args.format, "methods": args.methods,
        "trials": args.trials, "rank": args.rank, "train_frac": args.train_frac,
        "max_iters": args.max_iters, "tol": args.tol, "seed": args.seed,
        "jobs": args.jobs, "out": args.out, "emit": args.emit,
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    cfg = _build_config(values)
    report = run_experiment(cfg)
    write_outputs(cfg, report)
    print(emit_report(report, "markdown"))
    ok = [r for r in report.records if not r["failed"]]
    if not ok:
        print("all trials failed", file=sys.stderr)
        return 1
    return 0


def _cmd_synth(args) -> int:
    from .data_io import save_dataset

    ds = synth_dataset(args.kind, args.m, args.n, args.k, args.noise, args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {ds.data.shape[0]}x{ds.n} dataset with {ds.class_count} classes to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a benchmark experiment")
    run_p.add_argument("--config")
    run_p.add_argument("--dataset")
    run_p.add_argument("--format", choices=("csv", "libsvm"))
    run_p.add_argument("--methods")
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--rank")
    run_p.add_argument("--train-frac", dest="train_frac", type=float)
    run_p.add_argument("--max-iters", dest="max_iters", type=int)
    run_p.add_argument("--tol", type=float)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--jobs", type=int)
    run_p.add_argument("--out")
    run_p.add_argument("--emit")
    run_p.set_defaults(func=_cmd_run)

    synth_p = sub.add_parser("synth", help="generate a synthetic block dataset")
    synth_p.add_argument("--kind", choices=("blocks", "noisy-blocks"), default="blocks")
    synth_p.add_argument("--m", type=int, required=True)
    synth_p.add_argument("--n", type=int, required=True)
    synth_p.add_argument("--k", type=int, required=True)
    synth_p.add_argument("--noise", type=float, default=0.0)
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--out", required=True)
    synth_p.set_defaults(func=_cmd_synth)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
