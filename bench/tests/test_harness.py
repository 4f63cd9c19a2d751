"""The tracer, the workload inputs and BENCHMARK.json agree with each other."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import tracing
import workloads
import wrdyn
from wrdyn import dynamics, ensembles, matcore

ROOT = Path(__file__).resolve().parents[2]


def _traced_canonical():
    rec = tracing.Recorder()
    with tracing.instrument(rec, wrdyn):
        trace = dynamics.iterate_weighted(
            ensembles.coupled_block(0.5, 0.5, 2.0), np.array([np.sqrt(0.5), 0.0]), max_iter=300
        )
    return rec, trace


def test_instrument_restores_every_function():
    before = {n: getattr(matcore, n) for n in ("eigh", "opnorm")}
    linalg = np.linalg.eigh
    _traced_canonical()
    assert {n: getattr(matcore, n) for n in before} == before
    assert np.linalg.eigh is linalg


def test_counts_repeat_exactly_and_self_time_is_within_total():
    (a, trace), (b, _) = _traced_canonical(), _traced_canonical()
    sa, sb = a.summary(), b.summary()
    assert {k: v[0] for k, v in sa.items()} == {k: v[0] for k, v in sb.items()}
    assert a.counts == b.counts
    assert a.counts["steps"] == len(trace.records) - 1 == 300
    for calls, total, own in sa.values():
        assert 0.0 <= own <= total + 1e-12
    # the engine decomposes each iterate once with matcore.eigh
    assert sa["matcore.eigh"][0] >= 300
    assert "linalg.eigh" in sa and "identities.block_coordinates" in sa


def test_untraced_linalg_calls_are_not_recorded():
    rec = tracing.Recorder()
    with tracing.instrument(rec, wrdyn):
        np.linalg.eigh(np.eye(2))
    assert len(rec.start) == 0


def test_layer_metrics_cover_the_declared_list():
    rec, _ = _traced_canonical()
    m = tracing.layer_metrics(rec, 0.1, 1.0)
    assert list(m) == [name for name, _, _ in tracing.LAYER_METRICS]
    assert m["identities.certified_steps"] > 0
    assert m["trace.overhead_pct"] == 10.0


def test_inputs_depend_only_on_the_seed(tmp_path):
    for cls in workloads.WORKLOADS.values():
        a, b, c = (cls(seed, str(tmp_path)) for seed in (4, 4, 5))
        if cls is workloads.BlockCollapse:
            key = lambda w: [x[:3] for x in w.coupled] + w.decoupled  # noqa: E731
        elif cls is workloads.CertifiedSweep:
            key = lambda w: list(w.seeds)  # noqa: E731
        else:
            key = lambda w: [s.matrix.tobytes() for s in w.specs]  # noqa: E731
        assert key(a) == key(b)
        assert key(a) != key(c)


def test_block_collapse_design_covers_the_default_box():
    w = workloads.BlockCollapse(0, "")
    xi = np.array([x[0] for x in w.coupled])
    zeta = np.array([x[1] for x in w.coupled])
    d = np.array([x[2] for x in w.coupled])
    assert len(w.coupled) == 2 * workloads.XI_CELLS * workloads.ZETA_CELLS
    assert workloads.XI_BOX[0] <= xi.min() and xi.max() <= workloads.XI_BOX[1]
    assert workloads.ZETA_BOX[0] <= zeta.min() and zeta.max() <= workloads.ZETA_BOX[1]
    assert workloads.D_BOX[0] <= d.min() and d.max() <= workloads.D_BOX[1]
    cells = np.floor((d - workloads.D_BOX[0]) / (workloads.D_BOX[1] - workloads.D_BOX[0]) * len(d))
    assert sorted(cells) == list(range(len(d)))


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(tracing.LAYER_METRICS)
    e2e = [m["name"] for m in spec["end_to_end"]]
    assert e2e == ["setup_s", "runs_per_s", "steps_per_s", "peak_rss_mb"]
