"""Schema smoke test of the benchmark at a tiny size.

Checks the shape of what the benchmark reports, not its timings: every
declared metric is emitted with its unit, spans nest, self times are
non-negative, and tracing leaves the program's modules as it found them.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bonmf  # noqa: E402

from perfbench import tracing, workloads  # noqa: E402
from perfbench.schema import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


class TinyTall(workloads.Tall):
    m, n, k = 20, 120, 3


class TinyStream(workloads.Stream):
    m, n, k, train_fraction = 12, 300, 3, 0.2


class TinyGrid(workloads.Grid):
    m, n, k, trials = 24, 40, 4, 1


TINY = {"tall": TinyTall, "stream": TinyStream, "grid": TinyGrid}


def run_tiny(name, trace, tmp_path):
    wl = TINY[name](0, tmp_path)
    return workloads.run(name, 0, 0.05, trace, tmp_path, workload=wl)


def test_benchmark_json_mirrors_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [name for name, _ in WORKLOADS]
    assert [w["why"] for w in spec["workloads"]] == [why for _, why in WORKLOADS]
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER]


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = run_tiny(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {n: u for n, u, _, _ in END_TO_END}
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric_from_nested_spans(name, tmp_path):
    originals = tracing.rebind_targets(tracing.layer_modules(bonmf))
    result = run_tiny(name, True, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {n: u for n, u, _, _ in PER_LAYER}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["metrics"]["classify.similarities_per_sample"]["value"] == TINY[name].k

    spans = result["details"]["spans"]
    assert any(s[tracing.NAME] == tracing.OP for s in spans)
    for s in spans:
        assert s[tracing.START] <= s[tracing.END]
        if s[tracing.PARENT] >= 0:
            parent = spans[s[tracing.PARENT]]
            assert parent[tracing.START] <= s[tracing.START] and s[tracing.END] <= parent[tracing.END]
    assert (tracing.self_times(spans) >= -1e-12).all()

    # the traced run put every original function back
    tracing.assert_untraced(originals)
