"""Spans around the program's layers, recorded from outside the program.

For the traced part of a run, `install` rebinds every public function of
every layer module (including names a module imported from another layer,
such as `bonmf.bonmf.update_w` or `bonmf.bench.classify_bonmf`) to a
timing wrapper, and `uninstall` puts the originals back. Calls made
through a module attribute are therefore recorded wherever they happen.
Spans stay in memory; `per_layer_metrics` turns them into the per-layer
table of `schema.PER_LAYER`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("data_io", "init", "matrices", "nmf", "bonmf", "onmf", "semi_binary", "classify", "bench")
METHODS = ("bonmf", "nmf", "onmf", "onmf-cos", "zhang")

# Instrumentation the benchmark reads for its checks; not work of a layer.
UNTRACED = frozenset({"similarity_counter", "reset_similarity_counter"})

OP, SETUP = "perfbench.op", "perfbench.setup"

# span fields
NAME, START, END, PARENT, RUN, TAG, ERROR = range(7)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, tag=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.run_id, tag, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: list):
        span[END] = time.perf_counter()
        self._stack.pop()


def layer_modules(package) -> list:
    return [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]


def rebind_targets(modules) -> list:
    """(module, attribute, function) for every public function bound in a layer module."""
    out = []
    for mod in modules:
        for attr, fn in vars(mod).items():
            if (
                inspect.isfunction(fn)
                and not attr.startswith("_")
                and attr not in UNTRACED
                and fn.__module__.startswith("bonmf.")
            ):
                out.append((mod, attr, fn))
    return out


def assert_untraced(targets):
    """Raise unless every rebinding target holds its original function."""
    for mod, attr, fn in targets:
        if getattr(mod, attr) is not fn:
            raise RuntimeError(f"{mod.__name__}.{attr} is not the original function in an untraced run")


def install(tracer: Tracer, targets):
    for mod, attr, fn in targets:
        setattr(mod, attr, _wrap(fn, tracer))


def uninstall(targets):
    for mod, attr, fn in targets:
        setattr(mod, attr, fn)


def _third(args, kwargs, key):
    return kwargs[key] if key in kwargs else args[2]


def _binary_or_dense(args, kwargs):
    return "_binary" if hasattr(_third(args, kwargs, "H"), "labels") else "_dense"


def _scheme(args, kwargs):
    return kwargs.get("scheme", args[3] if len(args) > 3 else "onmf-cos")


def _cosine_flops(args, kwargs):
    (m, n), k = np.shape(args[0]), np.shape(args[1])[1]
    return 2.0 * m * k * n


def _x_bytes(args, kwargs):
    m, n = np.shape(args[0])
    return 8.0 * m * n


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0].path)


# function name -> span-name suffix chosen from the arguments
_VARIANT = {"update_w": _binary_or_dense, "frobenius_objective": _binary_or_dense}
# span name -> tag stored on the span
_TAG = {
    "classify.classify_angle_nearest": _scheme,
    "bonmf.update_h_cosine": _cosine_flops,
    "nmf.update_w_binary": _x_bytes,
    "data_io.load_dataset": _file_bytes,
}


def _wrap(fn, tracer: Tracer):
    base = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    variant = _VARIANT.get(fn.__name__)
    observe = fn.__name__ == "factorize_bonmf"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = base + variant(args, kwargs) if variant else base
        tagger = _TAG.get(name)
        span = tracer.open(name, tagger(args, kwargs) if tagger else None)
        try:
            result = _factorize_observed(fn, span, *args, **kwargs) if observe else fn(*args, **kwargs)
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            tracer.close(span)
        if observe:
            X = np.asarray(args[0], dtype=float)
            span[TAG]["objective_rel"] = result.trace.objective_per_iteration[-1] / (0.5 * float(np.vdot(X, X)))
        return result

    return traced


def _factorize_observed(fn, span, X, k, opts=None, on_iteration=None, **kwargs):
    """Call factorize_bonmf with a counting `on_iteration` chained in front
    of the caller's; the counts go to the span's tag (the final objective
    over 0.5*||X||^2 is added after the span closes)."""
    stats = {"restarts": 0, "iterations": 0, "max_restart_iterations": 0,
             "empty_cluster_iterations": 0, "winner_iterations": 0}
    current = 0

    def hook(it, W, assign):
        nonlocal current
        if it == 0:
            stats["restarts"] += 1
            current = 0
        current += 1
        stats["iterations"] += 1
        stats["max_restart_iterations"] = max(stats["max_restart_iterations"], current)
        if np.bincount(assign.labels, minlength=assign.k).min() == 0:
            stats["empty_cluster_iterations"] += 1
        if on_iteration is not None:
            on_iteration(it, W, assign)

    span[TAG] = stats
    model = fn(X, k, opts, hook, **kwargs)
    stats["winner_iterations"] = model.trace.iterations_run
    return model


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> np.ndarray:
    """Duration minus the time covered by direct children. Children of a
    span run one after another on one thread, so their union is their sum."""
    dur = np.array([s[END] - s[START] for s in spans])
    covered = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur[i]
    return dur - covered


def _op_membership(spans) -> np.ndarray:
    """True for spans that are, or lie under, a timed-operation span."""
    inside = np.zeros(len(spans), dtype=bool)
    for i, s in enumerate(spans):
        inside[i] = s[NAME] == OP or (s[PARENT] >= 0 and inside[s[PARENT]])
    return inside


_FACTORIZER_METHOD = {
    "bonmf.factorize_bonmf": "bonmf",
    "nmf.factorize_nmf": "nmf",
    "onmf.factorize_onmf": "onmf",
    "semi_binary.factorize_zhang": "zhang",
}
_TRAIN_HELPERS = frozenset({"bonmf.update_h_cosine", "classify.build_label_map"})


def _bench_phases(spans, children) -> dict:
    """Training and classification seconds per method inside one
    run_experiment span, from the sequence of calls bonmf.bench made.

    A `factorize_*` call opens a method's segment. onmf and onmf-cos share
    `factorize_onmf`, so a segment's training time is booked when its first
    classify call shows the scheme.
    """
    totals = defaultdict(float)
    method, train = None, 0.0
    for c in children:
        name, dur = spans[c][NAME], spans[c][END] - spans[c][START]
        if name in _FACTORIZER_METHOD:
            method, train = _FACTORIZER_METHOD[name], dur
        elif method is None:
            continue
        elif name in _TRAIN_HELPERS:
            train += dur
        elif name.startswith("classify.classify_"):
            if method == "onmf" and spans[c][TAG] == "onmf-cos":
                method = "onmf-cos"
            totals[f"train_s.{method}"] += train
            totals[f"classify_s.{method}"] += dur
            train = 0.0
    return totals


def per_layer_metrics(spans, n_ops: int, op_seconds: float, sims_per_sample: float,
                      overhead: tuple) -> dict:
    """Every metric of schema.PER_LAYER from the spans of one traced run.

    `n_ops` and `op_seconds` are the count and summed timed seconds of the
    traced operations; `overhead` is (traced op_s, untraced op_s). Layer
    metrics use spans inside operations, except data_io, which is mostly
    set-up work and uses every span.
    """
    selfs = self_times(spans)
    inside = _op_membership(spans)
    by_name = defaultdict(list)  # spans inside operations
    everywhere = defaultdict(list)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        everywhere[s[NAME]].append(i)
        if inside[i]:
            by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def calls(name):
        return len(by_name[name]) / n_ops

    def mean_s(name, table=by_name):
        idx = table[name]
        return sum(dur(i) for i in idx) / len(idx) if idx else 0.0

    def rate(name, scale):
        idx = by_name[name]
        seconds = sum(dur(i) for i in idx)
        return sum(spans[i][TAG] for i in idx) / seconds / scale if seconds else 0.0

    fact = [spans[i][TAG] for i in by_name["bonmf.factorize_bonmf"]]

    def per_fact(key):
        return sum(f[key] for f in fact) / len(fact) if fact else 0.0

    iterations = sum(f["iterations"] for f in fact)
    loads = everywhere["data_io.load_dataset"]
    load_bytes = sum(spans[i][TAG] or 0 for i in loads)
    load_s = sum(dur(i) for i in loads)

    out = {
        "bonmf.update_h_cosine.calls": calls("bonmf.update_h_cosine"),
        "bonmf.update_h_cosine.s_per_call": mean_s("bonmf.update_h_cosine"),
        "bonmf.update_h_cosine.gflops_computed": rate("bonmf.update_h_cosine", 1e9),
        "bonmf.init_h.s_per_call": mean_s("bonmf.init_h"),
        "bonmf.factorize.s": mean_s("bonmf.factorize_bonmf"),
        "bonmf.objective_rel": per_fact("objective_rel"),
        "bonmf.restarts": per_fact("restarts"),
        "bonmf.iterations_total": per_fact("iterations"),
        "bonmf.iterations_per_restart.max": max((f["max_restart_iterations"] for f in fact), default=0),
        "bonmf.useful_iteration_ratio": sum(f["winner_iterations"] for f in fact) / iterations if iterations else 0.0,
        "bonmf.empty_cluster_iterations": per_fact("empty_cluster_iterations"),
        "nmf.update_w_binary.calls": calls("nmf.update_w_binary"),
        "nmf.update_w_binary.s_per_call": mean_s("nmf.update_w_binary"),
        "nmf.update_w_binary.gbytes_per_s_computed": rate("nmf.update_w_binary", 1e9),
        "nmf.update_w_dense.calls": calls("nmf.update_w_dense"),
        "nmf.update_w_dense.s_per_call": mean_s("nmf.update_w_dense"),
        "nmf.update_h_dense.s_per_call": mean_s("nmf.update_h_dense"),
        "nmf.factorize.s": mean_s("nmf.factorize_nmf"),
        "matrices.frobenius_objective_binary.calls": calls("matrices.frobenius_objective_binary"),
        "matrices.frobenius_objective_binary.s_per_call": mean_s("matrices.frobenius_objective_binary"),
        "matrices.frobenius_objective_dense.calls": calls("matrices.frobenius_objective_dense"),
        "matrices.frobenius_objective_dense.s_per_call": mean_s("matrices.frobenius_objective_dense"),
        "matrices.cosine_similarity.calls": calls("matrices.cosine_similarity"),
        "matrices.cosine_similarity.us_per_call": 1e6 * mean_s("matrices.cosine_similarity"),
        "matrices.as_data_matrix.s_per_call": mean_s("matrices.as_data_matrix"),
        "init.init_w.calls": calls("init.init_w"),
        "init.init_w.s_per_call": mean_s("init.init_w"),
        "init.init_h_real.s_per_call": mean_s("init.init_h_real"),
        "init.singular_fallbacks": sum(
            spans[i][ERROR] == "SingularInitError" for i in by_name["init.init_h_real"]) / n_ops,
        "onmf.update_h_orthogonal.s_per_call": mean_s("onmf.update_h_orthogonal"),
        "onmf.encode_sample.calls": calls("onmf.encode_sample"),
        "onmf.encode_sample.us_per_call": 1e6 * mean_s("onmf.encode_sample"),
        "onmf.factorize.s": mean_s("onmf.factorize_onmf"),
        "semi_binary.update_h_row.calls": calls("semi_binary.update_h_row"),
        "semi_binary.update_h_row.s_per_call": mean_s("semi_binary.update_h_row"),
        "semi_binary.factorize.s": mean_s("semi_binary.factorize_zhang"),
        "classify.classify_bonmf.us_per_call": 1e6 * mean_s("classify.classify_bonmf"),
        "classify.classify_coefficient_argmax.us_per_call": 1e6 * mean_s("classify.classify_coefficient_argmax"),
        "classify.classify_angle_nearest.us_per_call": 1e6 * mean_s("classify.classify_angle_nearest"),
        "classify.build_label_map.s": mean_s("classify.build_label_map"),
        "classify.similarities_per_sample": sims_per_sample,
        "data_io.load_dataset.s": mean_s("data_io.load_dataset", everywhere),
        "data_io.load_dataset.mb_per_s": load_bytes / load_s / 1e6 if load_s else 0.0,
        "data_io.save_dataset.s": mean_s("data_io.save_dataset", everywhere),
        "data_io.train_test_split.s": mean_s("data_io.train_test_split", everywhere),
    }

    experiments = by_name["bench.run_experiment"]
    phases = defaultdict(float)
    for e in experiments:
        for key, value in _bench_phases(spans, children[e]).items():
            phases[key] += value
    out["bench.run_experiment.s"] = mean_s("bench.run_experiment")
    out["bench.self_s"] = sum(selfs[e] for e in experiments) / len(experiments) if experiments else 0.0
    for phase in ("train", "classify"):
        for method in METHODS:
            key = f"{phase}_s.{method}"
            out[f"bench.{key}"] = phases[key] / len(experiments) if experiments else 0.0

    layer_self = defaultdict(float)
    for i, s in enumerate(spans):
        if inside[i] and s[NAME] != OP:
            layer_self[s[NAME].split(".")[0]] += selfs[i]
    for layer in LAYERS:
        out[f"trace.layer_share.{layer}"] = layer_self[layer] / op_seconds
    traced, untraced = overhead
    out["trace.ops"] = n_ops
    out["trace.spans_per_op"] = int(inside.sum()) / n_ops
    out["trace.overhead_s_per_op"] = traced - untraced
    out["trace.overhead_ratio"] = (traced - untraced) / untraced
    return out
