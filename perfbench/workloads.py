"""Workloads: inputs from a seed, set-up, timed operations, output checks,
and the run loop that turns them into the metrics of `schema.py`.

The benchmark drives the program only through the public functions of its
layer modules, always looked up as module attributes at call time, so the
traced run sees every call. Inputs are generated here, never by the
program, so a change to the program cannot change them.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bonmf
from bonmf import bench, classify, data_io, nmf, onmf
from bonmf import bonmf as binary

from . import tracing
from .schema import END_TO_END, PER_LAYER

NOISE = 0.1
OBJECTIVE_RTOL = 1e-9
# Cosines closer than this to the best one count as ties when a prediction
# of classify_bonmf is checked against the benchmark's own argmax.
COSINE_TIE = 1e-9
# setup_s is the median of at least MIN_SETUPS set-ups, repeated until they
# add up to MIN_SETUP_SECONDS (at most MAX_SETUPS).
MIN_SETUPS, MAX_SETUPS, MIN_SETUP_SECONDS = 3, 50, 1.5
# Timings are reported as the fastest median over blocks of BLOCK
# consecutive samples (single samples when a run has fewer than
# MIN_BLOCKS * BLOCK). On a shared machine each core alternates, for
# seconds to tens of seconds at a time, between two speeds almost 2x apart
# (classify_bonmf: 34 us against 62 us in 2 s windows), so a run's median
# reports how much of the run the neighbours were busy; the fastest block
# reports the program. Every timed operation of a workload does the same
# work, which is what makes the fastest block comparable across runs.
BLOCK, MIN_BLOCKS = 200, 20


def noisy_blocks(m: int, n: int, k: int, noise: float, seed: int):
    """The noisy-blocks recipe: uniform [0, noise) everywhere, plus
    uniform [0.5, 1.5) on feature block c for samples of class c; labels
    round-robin; block c spans rows [c*m//k, (c+1)*m//k)."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % k
    X = rng.uniform(0.0, noise, size=(m, n))
    rows = np.arange(m)[:, None]
    in_block = (rows >= labels * m // k) & (rows < (labels + 1) * m // k)
    X += in_block * rng.uniform(0.5, 1.5, size=(m, n))
    return classify.LabeledDataset(data=X, labels=labels, class_count=k)


def fastest_block_median(samples) -> float:
    x = np.asarray(samples, dtype=float)
    size = BLOCK if x.size >= MIN_BLOCKS * BLOCK else 1
    usable = x.size // size * size
    return float(np.median(x[:usable].reshape(-1, size), axis=1).min())


def quantiles(samples) -> dict:
    """Summary of a run's raw samples for the record file."""
    qs = (0, 10, 25, 50, 75, 90, 99, 100)
    return {f"p{q}": float(v) for q, v in zip(qs, np.percentile(samples, qs))} if samples else {}


def sub_seed(seed: int, i: int) -> int:
    """Seed of the i-th operation of a run; distinct across runs and ops."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


@dataclass
class Samples:
    """What the operations of one part of a run produced."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    classify_us: list = field(default_factory=list)
    hits: int = 0
    predicted: int = 0
    similarities: int = 0
    bonmf_calls: int = 0
    peak_mib: float = 0.0

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def bonmf_reference(model, X, class_count: int) -> np.ndarray:
    """labels x samples: True where classify_bonmf may return that label,
    i.e. the label of a cluster whose cosine with the sample is maximal."""
    W = model.basis
    wnorm = np.linalg.norm(W, axis=0)
    cos = (W.T @ X) / np.where(wnorm == 0, 1.0, wnorm)[:, None] / np.linalg.norm(X, axis=0)
    cos[wnorm == 0] = -np.inf
    best = cos >= cos.max(axis=0) - COSINE_TIE
    labels = np.asarray(model.cluster_labels)
    ok = np.zeros((class_count, X.shape[1]), dtype=bool)
    for c, label in enumerate(labels):
        ok[label] |= best[c]
    return ok


def valid_label(pred, class_count: int) -> bool:
    return isinstance(pred, (int, np.integer)) and 0 <= pred < class_count


def check_objective(model, X, samples: Samples) -> bool:
    """The reported final objective must equal 0.5*||X - W H||^2 recomputed
    here from W and the assignments."""
    reported = model.trace.objective_per_iteration[-1]
    R = X - model.basis[:, model.assignments.labels]
    recomputed = 0.5 * float(np.sum(R * R))
    if not math.isclose(reported, recomputed, rel_tol=OBJECTIVE_RTOL):
        samples.fail(f"objective {reported!r} != recomputed {recomputed!r}")
        return False
    return True


def timed_classify_bonmf(x, model, k: int, samples: Samples):
    """One classify_bonmf call: (label, seconds), or None if it did not
    advance the similarity counter by exactly k."""
    before = classify.similarity_counter()
    t0 = time.perf_counter()
    pred = classify.classify_bonmf(x, model)
    dt = time.perf_counter() - t0
    issued = classify.similarity_counter() - before
    samples.similarities += issued
    samples.bonmf_calls += 1
    if issued != k:
        samples.fail(f"classify_bonmf issued {issued} cosines, expected {k}")
        return None
    return pred, dt


def memory_pass(train, k: int, opts, samples: Samples):
    """factorize_bonmf under tracemalloc; its timings are discarded."""
    tracemalloc.start()
    try:
        model = binary.factorize_bonmf(train.data, k, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples.attempted += 1
    if check_objective(model, train.data, samples):
        samples.peak_mib = peak / 2**20


class Workload:
    """Interface of a workload. `setup` builds the state the ops use (it is
    timed and repeated); `prepare` adds reference data for the checks (not
    timed); `op` runs and checks one timed operation; `memory_pass` trains
    bonmf once under tracemalloc."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def prepare(self, state):
        pass

    def op(self, state, i: int, samples: Samples):
        raise NotImplementedError

    def memory_pass(self, state, samples: Samples):
        raise NotImplementedError


class Tall(Workload):
    """Training-heavy: each op generates a fresh data set, splits it 80/20,
    trains bonmf and classifies the test part.

    Every restart runs exactly `iterations` iterations (tolerance 0), so
    every op does the same work whatever the data; with the default
    stopping rule a run's work follows the seed (80 to 180 iterations per
    training at this shape). 16 restarts x 10 iterations is about what the
    default rule runs here.
    """

    m, n, k, train_fraction, iterations = 200, 3000, 10, 0.8, 10

    def opts(self, seed: int):
        return nmf.FactorizeOptions(seed=seed, max_iterations=self.iterations, tolerance=0.0)

    def setup(self):
        ds = noisy_blocks(self.m, self.n, self.k, NOISE, self.seed)
        return ds, data_io.train_test_split(ds, self.train_fraction, self.seed)

    def op(self, state, i: int, samples: Samples):
        op_seed = sub_seed(self.seed, i)
        ds = noisy_blocks(self.m, self.n, self.k, NOISE, op_seed)
        t0 = time.perf_counter()
        train, test = data_io.train_test_split(ds, self.train_fraction, op_seed)
        model = binary.factorize_bonmf(train.data, self.k, self.opts(op_seed))
        model.cluster_labels = classify.build_label_map(model.assignments, train.labels)
        elapsed = time.perf_counter() - t0
        samples.attempted += 1
        ok = check_objective(model, train.data, samples)

        preds = np.full(test.n, -1, dtype=np.intp)
        latencies = []
        for j in range(test.n):
            samples.attempted += 1
            got = timed_classify_bonmf(test.data[:, j], model, self.k, samples)
            if got is None:
                ok = False
            elif not valid_label(got[0], ds.class_count):
                samples.fail(f"classify_bonmf returned {got[0]!r}, not a class id")
                ok = False
            else:
                preds[j] = got[0]
                latencies.append(got[1])
        answered = preds >= 0
        agrees = bonmf_reference(model, test.data, ds.class_count)[np.maximum(preds, 0), np.arange(test.n)]
        if (answered & ~agrees).any():
            samples.fail(f"{int((answered & ~agrees).sum())} classify_bonmf labels are not a cosine argmax")
            ok = False
        if ok:
            samples.op_s.append(elapsed + sum(latencies))
            samples.classify_us.extend(1e6 * t for t in latencies)
            samples.hits += int(np.sum(preds == test.labels))
            samples.predicted += test.n

    def memory_pass(self, state, samples: Samples):
        _, (train, _) = state
        memory_pass(train, self.k, self.opts(self.seed), samples)


class Stream(Workload):
    """Classification-heavy: models trained in set-up, each op classifies
    one test sample with the four per-sample classifiers."""

    m, n, k, train_fraction = 50, 20000, 5, 0.1

    def setup(self):
        ds = noisy_blocks(self.m, self.n, self.k, NOISE, self.seed)
        train, test = data_io.train_test_split(ds, self.train_fraction, self.seed)
        opts = nmf.FactorizeOptions(seed=self.seed)
        bmodel = binary.factorize_bonmf(train.data, self.k, opts)
        bmodel.cluster_labels = classify.build_label_map(bmodel.assignments, train.labels)
        return {
            "train": train,
            "test": test,
            "bonmf": bmodel,
            "nmf": nmf.factorize_nmf(train.data, self.k, opts),
            "onmf": onmf.factorize_onmf(train.data, self.k, opts),
        }

    def prepare(self, state):
        state["reference"] = bonmf_reference(state["bonmf"], state["test"].data, state["test"].class_count)

    def op(self, state, i: int, samples: Samples):
        train, test = state["train"], state["test"]
        j = i % test.n
        x = test.data[:, j]
        samples.attempted += 4
        got = timed_classify_bonmf(x, state["bonmf"], self.k, samples)
        if got is None:
            return
        pred, elapsed = got
        if not valid_label(pred, train.class_count) or not state["reference"][pred, j]:
            samples.fail(f"classify_bonmf returned {pred!r}, not a cosine-argmax label")
            return
        preds = []
        for call in (
            lambda: classify.classify_angle_nearest(x, state["nmf"], train, scheme="nmf"),
            lambda: classify.classify_coefficient_argmax(x, state["onmf"], train),
            lambda: classify.classify_angle_nearest(x, state["onmf"], train, scheme="onmf-cos"),
        ):
            t0 = time.perf_counter()
            preds.append(call())
            elapsed += time.perf_counter() - t0
        if not all(valid_label(p, train.class_count) for p in preds):
            samples.fail(f"invalid class ids {preds!r}")
            return
        samples.op_s.append(elapsed)
        samples.classify_us.append(1e6 * got[1])
        samples.hits += int(pred == test.labels[j])
        samples.predicted += 1

    def memory_pass(self, state, samples: Samples):
        memory_pass(state["train"], self.k, nmf.FactorizeOptions(seed=self.seed), samples)


class Grid(Workload):
    """The paper-table path of `bench run`: set-up writes an ORL-shaped set
    to CSV and reads it back; each op is run_experiment with one trial.

    Each op runs on its own generated data set: how many of the 40 basis
    columns die (6 to 18) and hence accuracy and classify_bonmf's cost
    follow the data set, and a run should average over many.

    `bench run --max-iters 30`: at this shape nmf, onmf and zhang need 40
    to 130 iterations to meet the default tolerance, so the cap stops them
    all at 30 and every op does the same work; bonmf restarts stop on their
    own after 3 to 6.
    """

    m, n, k, trials, max_iterations = 1024, 400, 40, 1, 30
    train_fraction = 0.8  # ExperimentConfig's default

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.path = workdir / f"grid-{seed}.csv"

    def setup(self):
        ds = noisy_blocks(self.m, self.n, self.k, NOISE, self.seed)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            data_io.save_dataset(ds, self.path)
            loaded = data_io.load_dataset(data_io.DatasetSpec(path=str(self.path)))
        finally:
            self.path.unlink(missing_ok=True)
        if not (np.array_equal(loaded.data, ds.data) and np.array_equal(loaded.labels, ds.labels)):
            raise RuntimeError("load_dataset did not reproduce the saved matrix bit-exactly")
        return loaded

    def op(self, state, i: int, samples: Samples):
        op_seed = sub_seed(self.seed, i)
        ds = noisy_blocks(self.m, self.n, self.k, NOISE, op_seed)
        n_test = ds.n - math.ceil(self.train_fraction * ds.n)
        cfg = bench.ExperimentConfig(
            dataset=data_io.DatasetSpec(path=str(self.path)),
            trials=self.trials,
            max_iterations=self.max_iterations,
            train_fraction=self.train_fraction,
            base_seed=op_seed,
            jobs=1,
        )
        before = classify.similarity_counter()
        t0 = time.perf_counter()
        report = bench.run_experiment(cfg, ds)
        elapsed = time.perf_counter() - t0
        issued = classify.similarity_counter() - before
        # classify_bonmf serves the bonmf and zhang methods
        expected_calls = 2 * self.trials * n_test
        samples.similarities += issued
        samples.bonmf_calls += expected_calls
        records = report.records
        samples.attempted += len(cfg.methods) * self.trials
        ok = len(records) == len(cfg.methods) * self.trials
        for r in records:
            if r["failed"] or not 0.0 <= r["accuracy"] <= 1.0:
                samples.fail(f"{r['method']} trial {r['trial']}: {r['error'] or r['accuracy']}")
                ok = False
        if issued != self.k * expected_calls:
            samples.fail(f"similarity counter advanced {issued}, expected {self.k * expected_calls}")
            ok = False
        if ok:
            samples.op_s.append(elapsed)
            by_method = {r["method"]: r for r in records}
            # bench's own classification time of the zhang method, whose loop
            # calls classify_bonmf once per sample. Its basis keeps all k
            # columns alive, so every call does the same work; bonmf's own
            # basis loses 6 to 18 columns, and dead columns skip the cosine.
            samples.classify_us.append(1e6 * by_method["zhang"]["ct"] / n_test)
            samples.hits += round(by_method["bonmf"]["accuracy"] * n_test)
            samples.predicted += n_test

    def memory_pass(self, ds, samples: Samples):
        train, _ = data_io.train_test_split(ds, self.train_fraction, self.seed)
        opts = nmf.FactorizeOptions(seed=self.seed, max_iterations=self.max_iterations)
        memory_pass(train, self.k, opts, samples)


WORKLOADS = {"tall": Tall, "stream": Stream, "grid": Grid}


def _loop(workload, state, samples: Samples, seconds: float, first: int, tracer=None) -> int:
    """Run operations until `seconds` have passed (at least one); returns
    the index of the next operation."""
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        span = tracer.open(tracing.OP) if tracer else None
        try:
            workload.op(state, i, samples)
        except Exception as exc:  # noqa: BLE001 - an exception is a failed operation
            samples.attempted += 1
            samples.fail(f"op {i}: {type(exc).__name__}: {exc}")
        finally:
            if span:
                tracer.close(span)
        i += 1
        if time.perf_counter() >= deadline:
            return i


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        workload=None) -> dict:
    """One benchmark run. Returns the result line's fields plus `details`
    (set-up samples, errors, raw timing quantiles and, when traced, the
    spans). `workdir` takes the files a workload writes in set-up.

    `workload` overrides the instance built from `name` (the schema test
    passes tiny ones).
    """
    targets = tracing.rebind_targets(tracing.layer_modules(bonmf))
    tracing.assert_untraced(targets)
    wl = workload or WORKLOADS[name](seed, workdir)

    setup_s = []
    while len(setup_s) < MIN_SETUPS or (sum(setup_s) < MIN_SETUP_SECONDS and len(setup_s) < MAX_SETUPS):
        t0 = time.perf_counter()
        state = wl.setup()
        setup_s.append(time.perf_counter() - t0)
    wl.prepare(state)

    budget = seconds / 2 if trace else seconds
    untraced = Samples()
    next_op = _loop(wl, state, untraced, budget, 0)
    tracing.assert_untraced(targets)

    details = {"setup_s": setup_s, "errors": untraced.errors}
    if trace:
        tracer = tracing.Tracer(f"{name}-{seed}")
        traced = Samples()
        tracing.install(tracer, targets)
        try:
            span = tracer.open(tracing.SETUP)
            try:
                state = wl.setup()
            finally:
                tracer.close(span)
            wl.prepare(state)
            _loop(wl, state, traced, budget, next_op, tracer)
        finally:
            tracing.uninstall(targets)
        tracing.assert_untraced(targets)
        details["errors"] += traced.errors
        details["spans"] = tracer.spans

    wl.memory_pass(state, untraced)
    tracing.assert_untraced(targets)

    if trace:
        metrics = tracing.per_layer_metrics(
            tracer.spans,
            n_ops=sum(s[tracing.NAME] == tracing.OP for s in tracer.spans),
            op_seconds=sum(traced.op_s),
            sims_per_sample=traced.similarities / traced.bonmf_calls if traced.bonmf_calls else 0.0,
            overhead=(fastest_block_median(traced.op_s), fastest_block_median(untraced.op_s)),
        )
        units = {n: u for n, u, _, _ in PER_LAYER}
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "op_s": fastest_block_median(untraced.op_s),
            "classify_us.bonmf": fastest_block_median(untraced.classify_us),
            "accuracy.bonmf": untraced.hits / untraced.predicted,
            "train_peak_mib": untraced.peak_mib,
        }
        units = {n: u for n, u, _, _ in END_TO_END}
        attempted, failed = untraced.attempted, untraced.failed
    details["ops"] = len(untraced.op_s)
    details["op_s"] = untraced.op_s if len(untraced.op_s) <= 100 else quantiles(untraced.op_s)
    details["classify_us"] = quantiles(untraced.classify_us)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
        "details": details,
    }
