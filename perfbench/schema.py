"""Metric tables of the benchmark.

`BENCHMARK.json` at the repository root mirrors these tables (the schema
test checks that they agree). The per-layer table also records, for each
metric, which end-to-end metric on which workload it should move; that
prediction is written down here because `BENCHMARK.json` has no field for
it.

Conventions for per-layer metrics (traced run only):
  * `.calls` is calls per timed operation of the workload;
  * `.s_per_call` / `.us_per_call` is mean span duration (inclusive);
  * `.s` is mean duration per call of a once-per-operation function;
  * `*_computed` rates come from array sizes alone (2*m*k*n flops per
    cosine H step, 8*m*n bytes of X read per binary W step); they ignore
    caches and are labelled as computed;
  * a metric of a layer a workload does not use reads 0.
"""

WORKLOADS = (
    ("tall", "m=200 n=3000 k=10 noisy blocks, 80/20: each op trains bonmf (16 restarts x 10 iterations) on fresh "
             "data and classifies 600 samples; H step, W step and objective carry it"),
    ("stream", "m=50 n=20000 k=5, 2000 train: bonmf/nmf/onmf trained in setup; each op classifies one sample "
               "with classify_bonmf, nmf, onmf and onmf-cos; factorizers idle, per-sample paths carry it"),
    ("grid", "ORL-shaped m=1024 n=400 k=40 via CSV save/load in setup: each op is bench.run_experiment on fresh "
             "data, 5 methods, 1 trial, max-iters 30; dense baselines and bench's loop carry it"),
)

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.24),
    ("classify_us.bonmf", "us", "lower", 0.24),
    ("accuracy.bonmf", "ratio", "higher", 0.2),
    ("train_peak_mib", "MiB", "lower", 0.05),
)

_T, _S, _G = "op_s on tall", "op_s on stream", "op_s on grid"
_CS = "classify_us.bonmf on stream"

# name, unit, better, what it should move
PER_LAYER = (
    ("bonmf.update_h_cosine.calls", "count", "lower", f"{_T}, {_G}"),
    ("bonmf.update_h_cosine.s_per_call", "s", "lower", f"{_T}, {_G}; not stream"),
    ("bonmf.update_h_cosine.gflops_computed", "GFLOP/s", "higher", f"{_T}, {_G}"),
    ("bonmf.init_h.s_per_call", "s", "lower", f"{_T}, {_G}"),
    ("bonmf.factorize.s", "s", "lower", f"{_T}, {_G}; setup_s on stream"),
    ("bonmf.objective_rel", "ratio", "lower", "accuracy.bonmf on tall, grid"),
    ("bonmf.restarts", "count", "lower", f"{_T}, {_G}; accuracy.bonmf on tall, grid"),
    ("bonmf.iterations_total", "count", "lower", f"{_T}, {_G}"),
    ("bonmf.iterations_per_restart.max", "count", "lower", f"{_T}, {_G}"),
    ("bonmf.useful_iteration_ratio", "ratio", "higher", f"{_T}, {_G}"),
    ("bonmf.empty_cluster_iterations", "count", "lower", f"{_T}; accuracy.bonmf on grid"),
    ("nmf.update_w_binary.calls", "count", "lower", _T),
    ("nmf.update_w_binary.s_per_call", "s", "lower", _T),
    ("nmf.update_w_binary.gbytes_per_s_computed", "GB/s", "higher", _T),
    ("nmf.update_w_dense.calls", "count", "lower", _G),
    ("nmf.update_w_dense.s_per_call", "s", "lower", _G),
    ("nmf.update_h_dense.s_per_call", "s", "lower", _G),
    ("nmf.factorize.s", "s", "lower", _G),
    ("matrices.frobenius_objective_binary.calls", "count", "lower", _T),
    ("matrices.frobenius_objective_binary.s_per_call", "s", "lower", _T),
    ("matrices.frobenius_objective_dense.calls", "count", "lower", _G),
    ("matrices.frobenius_objective_dense.s_per_call", "s", "lower", _G),
    ("matrices.cosine_similarity.calls", "count", "lower", f"{_CS}, {_S}"),
    ("matrices.cosine_similarity.us_per_call", "us", "lower", f"{_CS}, {_S}"),
    ("matrices.as_data_matrix.s_per_call", "s", "lower", f"{_T}, {_G}"),
    ("init.init_w.calls", "count", "lower", f"{_T}, {_G}"),
    ("init.init_w.s_per_call", "s", "lower", f"{_T}, {_G} (k=40)"),
    ("init.init_h_real.s_per_call", "s", "lower", f"{_T}, {_G} (k=40)"),
    ("init.singular_fallbacks", "count", "lower", f"{_T}, {_G}"),
    ("onmf.update_h_orthogonal.s_per_call", "s", "lower", _G),
    ("onmf.encode_sample.calls", "count", "lower", _S),
    ("onmf.encode_sample.us_per_call", "us", "lower", f"{_S}, {_G}"),
    ("onmf.factorize.s", "s", "lower", f"{_G}; setup_s on stream"),
    ("semi_binary.update_h_row.calls", "count", "lower", _G),
    ("semi_binary.update_h_row.s_per_call", "s", "lower", _G),
    ("semi_binary.factorize.s", "s", "lower", _G),
    ("classify.classify_bonmf.us_per_call", "us", "lower", f"classify_us.bonmf on tall, stream; {_S}"),
    ("classify.classify_coefficient_argmax.us_per_call", "us", "lower", f"{_S}, {_G}"),
    ("classify.classify_angle_nearest.us_per_call", "us", "lower", f"{_S}, {_G}"),
    ("classify.build_label_map.s", "s", "lower", f"{_T}, {_G}"),
    ("classify.similarities_per_sample", "count", "lower", "must equal k; classify_us.bonmf everywhere"),
    ("data_io.load_dataset.s", "s", "lower", "setup_s on grid"),
    ("data_io.load_dataset.mb_per_s", "MB/s", "higher", "setup_s on grid"),
    ("data_io.save_dataset.s", "s", "lower", "setup_s on grid"),
    ("data_io.train_test_split.s", "s", "lower", "setup_s on all; op_s on grid"),
    ("bench.run_experiment.s", "s", "lower", _G),
    ("bench.self_s", "s", "lower", _G),
    *(
        (f"bench.{phase}_s.{method}", "s", "lower", _G)
        for phase in ("train", "classify")
        for method in ("bonmf", "nmf", "onmf", "onmf-cos", "zhang")
    ),
    *(
        (f"trace.layer_share.{layer}", "ratio", "lower", f"share of traced op time in {layer} self time")
        for layer in ("bonmf", "nmf", "matrices", "init", "onmf", "semi_binary", "classify", "data_io", "bench")
    ),
    ("trace.ops", "count", "higher", "traced operations measured"),
    ("trace.spans_per_op", "count", "lower", "spans recorded per traced operation"),
    ("trace.overhead_s_per_op", "s", "lower", "traced op_s minus untraced op_s"),
    ("trace.overhead_ratio", "ratio", "lower", "trace.overhead_s_per_op over untraced op_s"),
)
