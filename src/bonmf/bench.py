"""Benchmark harness: repeated seeded trials of the five methods with
training time, classification time and accuracy, plus the CLI.

Per trial, all requested methods see the same train/test split (seed =
base_seed + trial index) so comparisons are paired. Timing covers the
train and classify phases only; data loading is excluded. onmf and
onmf-cos classify with one trained model and report its training time.
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
from dataclasses import asdict, dataclass, field, fields
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
from .matrices import BinaryAssignment
from .nmf import FactorizeOptions, factorize_nmf
from .onmf import factorize_onmf
from .semi_binary import factorize_zhang


def _train_bonmf(train: LabeledDataset, k: int, opts: FactorizeOptions):
    model = factorize_bonmf(train.data, k, opts)
    model.cluster_labels = build_label_map(model.assignments, train.labels)
    return model


def _train_onmf(train: LabeledDataset, k: int, opts: FactorizeOptions):
    return factorize_onmf(train.data, k, opts)


def _train_zhang(train: LabeledDataset, k: int, opts: FactorizeOptions):
    model = factorize_zhang(train.data, k, opts)
    # multi-hot H has no per-sample cluster, so classification goes
    # through the cosine-to-basis route like the binary model; the model
    # keeps the labels only, as factorize_bonmf's does
    assign = BinaryAssignment(update_h_cosine(train.data, model.basis).labels, k)
    wrapped = BonmfModel(basis=model.basis, assignments=assign, trace=model.trace)
    wrapped.cluster_labels = build_label_map(assign, train.labels)
    return wrapped


# method -> (train(train_set, k, opts), classify(sample, model, train_set)); a
# trial trains once per train function. Entries look this module's names up at
# call time, so a tracer that rebinds them sees every call.
_METHODS = {
    "bonmf": (_train_bonmf, lambda x, model, train: classify_bonmf(x, model)),
    "nmf": (lambda train, k, opts: factorize_nmf(train.data, k, opts),
            lambda x, model, train: classify_angle_nearest(x, model, train, "nmf")),
    "onmf": (_train_onmf, lambda x, model, train: classify_coefficient_argmax(x, model, train)),
    "onmf-cos": (_train_onmf,
                 lambda x, model, train: classify_angle_nearest(x, model, train, "onmf-cos")),
    "zhang": (_train_zhang, lambda x, model, train: classify_bonmf(x, model)),
}
METHODS = tuple(_METHODS)

_REPORT_EXTENSIONS = {"json": "json", "csv": "csv", "markdown": "md"}


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
        if self.rank != "classes" and not (isinstance(self.rank, int) and self.rank >= 1):
            raise ConfigError(f"rank must be 'classes' or an integer >= 1, got {self.rank!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")
        FactorizeOptions(max_iterations=self.max_iterations, tolerance=self.tolerance)
        unknown = set(self.emit) - set(_REPORT_EXTENSIONS)
        if unknown:
            raise ConfigError(f"unknown report formats: {sorted(unknown)}")


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


def _run_trial(cfg: ExperimentConfig, ds: LabeledDataset, trial: int) -> list:
    seed = cfg.base_seed + trial
    train, test = train_test_split(ds, cfg.train_fraction, seed)
    k = ds.class_count if cfg.rank == "classes" else cfg.rank
    opts = FactorizeOptions(
        max_iterations=cfg.max_iterations, tolerance=cfg.tolerance, seed=seed
    )
    trained = {}  # train function -> (model, seconds), or the exception it raised
    records = []
    for method in cfg.methods:
        fit, classify = _METHODS[method]
        rec = {"method": method, "trial": trial, "seed": seed, "failed": False,
               "error": None, "tt": None, "ct": None, "accuracy": None}
        try:
            if fit not in trained:
                t0 = time.perf_counter()
                try:
                    trained[fit] = (fit(train, k, opts), time.perf_counter() - t0)
                except Exception as exc:  # noqa: BLE001 - re-raised below for every sharer
                    trained[fit] = exc
            if isinstance(trained[fit], Exception):
                raise trained[fit]
            model, rec["tt"] = trained[fit]
            t1 = time.perf_counter()
            preds = np.array(
                [classify(test.data[:, j], model, train) for j in range(test.n)], dtype=np.intp
            )
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

def _names(text: str) -> tuple:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _flag(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


# config-file key -> (DatasetSpec or ExperimentConfig field, parser of the
# key's text). Every key outside _CONFIG_ONLY is also a `bench run` flag.
# Defaults live in the dataclasses only.
_OPTIONS = {
    "dataset": ("path", str),
    "format": ("format", str),
    "label_column": ("label_column", str),
    "delimiter": ("delimiter", str),
    "has_header": ("has_header", _flag),
    "shift_nonneg": ("shift_nonneg", _flag),
    "methods": ("methods", _names),
    "trials": ("trials", int),
    "rank": ("rank", lambda text: text if text == "classes" else int(text)),
    "train_frac": ("train_fraction", float),
    "max_iters": ("max_iterations", int),
    "tol": ("tolerance", float),
    "seed": ("base_seed", int),
    "jobs": ("jobs", int),
    "out": ("out_dir", str),
    "emit": ("emit", _names),
}
_CONFIG_ONLY = ("label_column", "delimiter", "has_header", "shift_nonneg")
_SPEC_FIELDS = {f.name for f in fields(DatasetSpec)}


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
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val
    return values


def _build_config(values: dict) -> ExperimentConfig:
    if "dataset" not in values:
        raise ConfigError("dataset path is required")
    spec, settings = {}, {}
    for key, text in values.items():
        name, parse = _OPTIONS[key]
        try:
            (spec if name in _SPEC_FIELDS else settings)[name] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    try:
        return ExperimentConfig(dataset=DatasetSpec(**spec), **settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_outputs(cfg: ExperimentConfig, report: TrialReport):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(report.config, indent=2))
    for fmt in cfg.emit:
        (out / f"report.{_REPORT_EXTENSIONS[fmt]}").write_text(emit_report(report, fmt))


def _cmd_run(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    values.update(
        {key: getattr(args, key) for key in _OPTIONS if getattr(args, key, None) is not None}
    )
    cfg = _build_config(values)
    try:
        ds = load_dataset(cfg.dataset)
        train_test_split(ds, cfg.train_fraction, cfg.base_seed)  # raises on too few samples
    except ValueError as exc:  # malformed file, negative features or too few samples
        raise ConfigError(str(exc)) from exc
    report = run_experiment(cfg, ds)
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
    for key in _OPTIONS:
        if key not in _CONFIG_ONLY:
            run_p.add_argument("--" + key.replace("_", "-"), dest=key)
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
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
