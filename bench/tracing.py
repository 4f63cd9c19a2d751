"""Span tracing of the program's layers, from outside the program.

:func:`instrument` replaces, for the duration of a ``with`` block, every
public function of the wrdyn modules and the ``numpy.linalg`` routines wrdyn
calls with wrappers that record one span per call: name, start, end and
parent span.  Calls are looked up through module attributes everywhere in
wrdyn, so the wrappers see calls between modules and inside a module alike.
``numpy.linalg`` calls are recorded only while a wrdyn span is open, so the
benchmark's own linear algebra is not counted.  Spans are kept in flat
arrays in memory and written out once, after the traced round.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import collections
import functools
import inspect
import os
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

import numpy as np

WRDYN_MODULES = ("dynamics", "matcore", "identities", "structure", "oracle", "ensembles", "cli")
LINALG_FUNCS = ("eigh", "eigvalsh", "svd", "norm", "det", "qr")

IDENTITY_FUNCS = (
    "block_coordinates",
    "check_a_recursion",
    "check_B_decrement",
    "check_det_decay",
    "check_inverse_update",
    "inverse_stats",
    "check_offdiag_collapse",
    "defect_inverse_floor",
    "trace_inverse_floor",
)

#: (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("dynamics.iterate.self_us_per_step", "us/step", "lower"),
    ("dynamics.ambient_steps", "count", "lower"),
    ("dynamics.block_steps", "count", "lower"),
    ("dynamics.converged_runs", "count", "higher"),
    ("matcore.eigh.calls_per_step", "1/step", "lower"),
    ("matcore.eigh.us_per_call", "us/call", "lower"),
    ("matcore.psd_sqrt.calls_per_step", "1/step", "lower"),
    ("matcore.opnorm.calls_per_step", "1/step", "lower"),
    ("matcore.subspace_sine.calls_per_step", "1/step", "lower"),
    ("matcore.self_us_per_step", "us/step", "lower"),
    ("linalg.eig_calls_per_step", "1/step", "lower"),
    ("linalg.svd_calls_per_step", "1/step", "lower"),
    ("linalg.us_per_step", "us/step", "lower"),
    *((f"identities.{fn}.us_per_step", "us/step", "lower") for fn in IDENTITY_FUNCS),
    ("identities.certified_steps", "count", "higher"),
    ("identities.inverse_checked_steps", "count", "higher"),
    ("structure.maximal_reducing_in_uperp.us_per_run", "us/run", "lower"),
    ("structure.classify.us_per_run", "us/run", "lower"),
    ("structure.is_stationary.us_per_run", "us/run", "lower"),
    ("structure.analyze_instance.self_us_per_run", "us/run", "lower"),
    ("oracle.general_weight_recursion.us_per_call", "us/call", "lower"),
    ("oracle.cross_validate.us_per_call", "us/call", "lower"),
    ("ensembles.sweep_instance.us_per_run", "us/run", "lower"),
    ("cli.parse_run_spec.us_per_call", "us/call", "lower"),
    ("cli.write_trace.us_per_record", "us/record", "lower"),
    ("cli.write_trace.bytes_per_record", "B/record", "lower"),
    ("cli.cmd_run.self_us_per_call", "us/call", "lower"),
    ("cli.cmd_check.self_us_per_call", "us/call", "lower"),
    ("cli.cmd_sweep.self_us_per_run", "us/run", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _count_iterate(counts, args, kwargs, trace) -> None:
    steps = len(trace.records) - 1
    ambient = steps if trace.stabilized_at is None else min(trace.stabilized_at, steps)
    counts["steps"] += steps
    counts["ambient_steps"] += ambient
    counts["block_steps"] += steps - ambient
    counts["converged_runs"] += int(trace.converged)


def _count_write_trace(counts, args, kwargs, result) -> None:
    trace, path = args[0], args[1]
    counts["trace_records"] += len(trace.records)
    counts["trace_bytes"] += os.path.getsize(path)


#: counters taken from a call's arguments and result, at its span boundary
AFTER: Dict[str, Callable] = {
    "dynamics.iterate": _count_iterate,
    "cli.write_trace": _count_write_trace,
}


def _is_matrix_2norm(args, kwargs) -> bool:
    """``numpy.linalg.norm`` calls that compute singular values."""
    x = args[0] if args else kwargs.get("x")
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return getattr(x, "ndim", 0) == 2 and ord_ in (2, -2, "nuc")


class Recorder:
    """Spans and boundary counters of one traced section."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counts: collections.Counter = collections.Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced

    def wrap_linalg(self, name: str, fn: Callable) -> Callable:
        nid = self._id(f"linalg.{name}")
        nid_svd = self._id("linalg.norm2") if name == "norm" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            use = nid_svd if nid_svd is not None and _is_matrix_2norm(args, kwargs) else nid
            idx = self._open(use)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def summary(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        covered = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(covered, parent[inner], dur[inner])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - covered, minlength=k)
        return {
            n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


@contextmanager
def instrument(recorder: Recorder, package):
    """Wrap the public functions of ``package``'s modules and ``numpy.linalg``."""
    saved = []
    try:
        for short in WRDYN_MODULES:
            mod = getattr(package, short)
            for name, fn in list(vars(mod).items()):
                public = not name.startswith("_") and inspect.isfunction(fn)
                if not public or fn.__module__ != mod.__name__:
                    continue
                saved.append((mod, name, fn))
                span = f"{short}.{name}"
                setattr(mod, name, recorder.wrap(span, fn, AFTER.get(span)))
        for name in LINALG_FUNCS:
            fn = getattr(np.linalg, name)
            saved.append((np.linalg, name, fn))
            setattr(np.linalg, name, recorder.wrap_linalg(name, fn))
        yield recorder
    finally:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)


def layer_metrics(recorder: Recorder, overhead_s: float, untraced_s: float) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from one traced section."""
    s = recorder.summary()
    c = recorder.counts
    calls = {n: v[0] for n, v in s.items()}
    total_us = {n: v[1] * 1e6 for n, v in s.items()}
    own_us = {n: v[2] * 1e6 for n, v in s.items()}

    def ratio(x, n):
        return x / n if n else 0.0

    def per_call(name):
        return ratio(total_us.get(name, 0.0), calls.get(name, 0))

    def layer_sum(table, prefix):
        return sum(v for n, v in table.items() if n.startswith(prefix))

    steps = c["steps"]
    analyses = calls.get("structure.analyze_instance", 0)
    sweep_runs = calls.get("ensembles.sweep_instance", 0)
    classify_us = total_us.get("structure.classify_dim2_fullspace", 0.0) + total_us.get(
        "structure.classify_active_dim2", 0.0
    )
    m = {
        "dynamics.iterate.self_us_per_step": ratio(own_us.get("dynamics.iterate", 0.0), steps),
        "dynamics.ambient_steps": c["ambient_steps"],
        "dynamics.block_steps": c["block_steps"],
        "dynamics.converged_runs": c["converged_runs"],
        "matcore.eigh.calls_per_step": ratio(calls.get("matcore.eigh", 0), steps),
        "matcore.eigh.us_per_call": per_call("matcore.eigh"),
        "matcore.psd_sqrt.calls_per_step": ratio(calls.get("matcore.psd_sqrt", 0), steps),
        "matcore.opnorm.calls_per_step": ratio(calls.get("matcore.opnorm", 0), steps),
        "matcore.subspace_sine.calls_per_step": ratio(calls.get("matcore.subspace_sine", 0), steps),
        "matcore.self_us_per_step": ratio(layer_sum(own_us, "matcore."), steps),
        "linalg.eig_calls_per_step": ratio(
            calls.get("linalg.eigh", 0) + calls.get("linalg.eigvalsh", 0), steps
        ),
        "linalg.svd_calls_per_step": ratio(
            calls.get("linalg.svd", 0) + calls.get("linalg.norm2", 0), steps
        ),
        "linalg.us_per_step": ratio(layer_sum(total_us, "linalg."), steps),
    }
    for fn in IDENTITY_FUNCS:
        m[f"identities.{fn}.us_per_step"] = ratio(total_us.get(f"identities.{fn}", 0.0), steps)
    m.update({
        "identities.certified_steps": calls.get("identities.check_offdiag_collapse", 0),
        "identities.inverse_checked_steps": calls.get("identities.inverse_stats", 0),
        "structure.maximal_reducing_in_uperp.us_per_run": ratio(
            total_us.get("structure.maximal_reducing_in_uperp", 0.0), analyses
        ),
        "structure.classify.us_per_run": ratio(classify_us, analyses),
        "structure.is_stationary.us_per_run": ratio(
            total_us.get("structure.is_stationary", 0.0), analyses
        ),
        "structure.analyze_instance.self_us_per_run": ratio(
            own_us.get("structure.analyze_instance", 0.0), analyses
        ),
        "oracle.general_weight_recursion.us_per_call": per_call("oracle.general_weight_recursion"),
        "oracle.cross_validate.us_per_call": per_call("oracle.cross_validate"),
        "ensembles.sweep_instance.us_per_run": ratio(
            total_us.get("ensembles.sweep_instance", 0.0), sweep_runs
        ),
        "cli.parse_run_spec.us_per_call": per_call("cli.parse_run_spec"),
        "cli.write_trace.us_per_record": ratio(
            total_us.get("cli.write_trace", 0.0), c["trace_records"]
        ),
        "cli.write_trace.bytes_per_record": ratio(c["trace_bytes"], c["trace_records"]),
        "cli.cmd_run.self_us_per_call": ratio(
            own_us.get("cli.cmd_run", 0.0), calls.get("cli.cmd_run", 0)
        ),
        "cli.cmd_check.self_us_per_call": ratio(
            own_us.get("cli.cmd_check", 0.0), calls.get("cli.cmd_check", 0)
        ),
        "cli.cmd_sweep.self_us_per_run": ratio(own_us.get("cli.cmd_sweep", 0.0), sweep_runs),
        "trace.overhead_s": overhead_s,
        "trace.overhead_pct": ratio(100.0 * overhead_s, untraced_s),
    })
    return {k: float(v) for k, v in m.items()}
