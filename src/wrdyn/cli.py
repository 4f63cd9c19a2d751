"""Command-line front end: single runs, invariant checks and batch sweeps.

Three subcommands operate on JSON spec files (complex entries written as
``[re, im]`` pairs):

* ``wrdyn run spec.json`` — iterate one instance, write a per-step trace
  and an analysis report, exit 0/2/3 for success / iteration budget
  exhausted / numerical breakdown.
* ``wrdyn check spec.json`` — run the full identity suite on one instance,
  recompute determinant decay from the recorded block determinants, add
  scalar cross-validation when the active block is two-dimensional, print
  a residual table and exit 4 if anything breaches its tolerance.
* ``wrdyn sweep sweep.json --out DIR`` — run a (dims x weights x seeds)
  grid in parallel worker processes, write a CSV of per-run rows plus
  limit-rank histogram and residual summaries, exit 3 if any run breaks
  down numerically.

All floats are serialized with ``repr`` (shortest round-tripping decimal
form, at most 17 significant digits), so a written trace re-read from disk
reproduces every recorded value exactly.  Sweep outputs are sorted by
(seed, dim, weight) so identical specs produce identical files regardless
of worker scheduling; the ``wall_time`` column is measured and therefore
exempt from that bit-for-bit guarantee.

The ``WRDYN_LOG`` environment variable (``quiet`` | ``info`` | ``debug``)
controls diagnostic logging; the default is ``quiet``.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import dynamics, ensembles, identities, matcore, oracle, structure
from .errors import NumericalBreakdown, WRDynError

logger = logging.getLogger("wrdyn.cli")

EXIT_OK = 0
EXIT_SPEC_ERROR = 1
EXIT_MAX_ITER = 2
EXIT_BREAKDOWN = 3
EXIT_RESIDUAL = 4
EXIT_INTERRUPTED = 130

# Per-identity tolerances used by `wrdyn check`.  Keys missing from a run
# (for example inverse-side checks on an ill-conditioned block) are
# treated as vacuously passing.
CHECK_TOLERANCES: Dict[str, float] = {
    "a_recursion": 1e-10,
    "B_decrement": 1e-10,
    "det_decay": 1e-8,
    "det_decay_recomputed": 1e-8,
    "summability": 1e-8,
    "offdiag_cs": 1e-10,
    # inverse-update errors scale like eps * condition number; the tracker's
    # conditioning guard caps the condition number at 1e7
    "inv_update": 1e-7,
    "beta_bound": 1e-9,
    "s_bound": 1e-9,
    "lambda_min_bound": 1e-9,
    "transverse_persistence": 1e-9,
    "cross_validation": 1e-10,
}

_TRACE_RESIDUAL_COLUMNS = (
    "a_recursion",
    "B_decrement",
    "det_decay",
    "inv_update",
    "summability",
    "offdiag_cs",
    "beta_bound",
    "s_bound",
    "lambda_min_bound",
    "transverse_persistence",
)


class SpecError(WRDynError):
    """A spec file failed to parse or validate."""


# ---------------------------------------------------------------------------
# Spec parsing and serialization helpers


def _is_number(value: Any, kinds: Any = (int, float)) -> bool:
    # JSON true/false load as Python bools, which are ints to isinstance
    return isinstance(value, kinds) and not isinstance(value, bool)


def _parse_scalar(value: Any, path: str) -> complex:
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value, 0]
    if not all(_is_number(p) for p in parts):
        raise SpecError(f"{path}: expected a number or an [re, im] pair, got {value!r}")
    if not all(math.isfinite(p) for p in parts):
        raise SpecError(f"{path}: expected a finite number, got {value!r}")
    return complex(parts[0], parts[1])


def _parse_vector(value: Any, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise SpecError(f"{path}: expected a nonempty list")
    return np.array([_parse_scalar(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _parse_matrix(value: Any, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise SpecError(f"{path}: expected a nonempty list of rows")
    rows = [_parse_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise SpecError(f"{path}: rows have unequal lengths")
    M = np.vstack(rows)
    if M.shape[0] != M.shape[1]:
        raise SpecError(f"{path}: matrix is {M.shape[0]}x{M.shape[1]}, not square")
    return M


def _pair(z: complex) -> List[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(M: Optional[np.ndarray]) -> Optional[List[List[List[float]]]]:
    """Dense complex matrix as nested [re, im] pairs (None passes through)."""
    if M is None:
        return None
    A = np.asarray(M, dtype=np.complex128)
    return [[_pair(A[i, j]) for j in range(A.shape[1])] for i in range(A.shape[0])]


def vector_to_json(v: Optional[np.ndarray]) -> Optional[List[List[float]]]:
    if v is None:
        return None
    return [_pair(z) for z in np.asarray(v, dtype=np.complex128)]


@dataclass
class RunSpec:
    """Validated contents of a run/check spec file."""

    matrix: np.ndarray
    direction: np.ndarray
    rank_tol: float = dynamics.RANK_TOL_DEFAULT
    conv_tol: float = dynamics.CONV_TOL_DEFAULT
    coupling_tol: float = dynamics.COUPLING_TOL_DEFAULT
    max_iter: int = dynamics.MAX_ITER_DEFAULT
    trace_path: Optional[str] = None
    report_path: Optional[str] = None
    format: str = "json"


@dataclass
class SweepSpec:
    """Validated contents of a sweep spec file."""

    dims: List[int]
    tau_targets: List[float]
    seeds: List[int]
    ensemble: str = ensembles.ENSEMBLE_WISHART
    collect_histogram: bool = True
    collect_residual_max: bool = True
    rank_tol: float = dynamics.RANK_TOL_DEFAULT
    conv_tol: float = dynamics.CONV_TOL_DEFAULT
    max_iter: int = dynamics.MAX_ITER_DEFAULT


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _require_positive(value: Any, path: str) -> float:
    if not _is_number(value) or not value > 0.0 or not math.isfinite(value):
        raise SpecError(f"{path}: expected a positive finite number, got {value!r}")
    return float(value)


def _require_count(value: Any, path: str) -> int:
    if not _is_number(value, int) or value < 1:
        raise SpecError(f"{path}: expected an integer >= 1, got {value!r}")
    return value


def parse_run_spec(path: str) -> RunSpec:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise SpecError(f"{path}: top level must be a JSON object")
    if "matrix" not in data or "u" not in data:
        raise SpecError(f"{path}: required fields 'matrix' and 'u'")
    matrix = _parse_matrix(data["matrix"], f"{path}: matrix")
    matcore.require_hermitian(matrix)
    direction = _parse_vector(data["u"], f"{path}: u")
    if direction.size != matrix.shape[0]:
        raise SpecError(
            f"{path}: u has length {direction.size}, matrix is {matrix.shape[0]}x{matrix.shape[0]}"
        )
    nrm = np.linalg.norm(direction)
    if nrm == 0.0:
        raise SpecError(f"{path}: u: direction must be nonzero")
    spec = RunSpec(matrix=matrix, direction=direction / nrm)
    tols = data.get("tolerances", {})
    if not isinstance(tols, dict):
        raise SpecError(f"{path}: tolerances: expected an object")
    for key, attr in (
        ("rank_tol", "rank_tol"),
        ("conv_tol", "conv_tol"),
        ("coupling_tol", "coupling_tol"),
    ):
        if key in tols:
            setattr(spec, attr, _require_positive(tols[key], f"{path}: tolerances.{key}"))
    if "max_iter" in data:
        spec.max_iter = _require_count(data["max_iter"], f"{path}: max_iter")
    outputs = data.get("outputs", {})
    if not isinstance(outputs, dict):
        raise SpecError(f"{path}: outputs: expected an object")
    spec.trace_path = outputs.get("trace_path")
    spec.report_path = outputs.get("report_path")
    spec.format = outputs.get("format", "json")
    if spec.format not in ("json", "csv"):
        raise SpecError(f"{path}: outputs.format: expected 'json' or 'csv', got {spec.format!r}")
    return spec


def parse_sweep_spec(path: str) -> SweepSpec:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise SpecError(f"{path}: top level must be a JSON object")
    dims = data.get("dims")
    if not isinstance(dims, list) or not dims or not all(
        _is_number(d, int) and d >= 2 for d in dims
    ):
        raise SpecError(f"{path}: dims: expected a nonempty list of integers >= 2")
    taus = data.get("tau_targets", [0.5])
    if not isinstance(taus, list) or not taus or not all(
        _is_number(t) and 0.0 < t < 1.0 for t in taus
    ):
        raise SpecError(f"{path}: tau_targets: expected a nonempty list of reals in (0, 1)")
    seeds_raw = data.get("seeds")
    if _is_number(seeds_raw, int) and seeds_raw > 0:
        seeds = list(range(seeds_raw))
    elif (
        isinstance(seeds_raw, list)
        and len(seeds_raw) == 2
        and all(_is_number(s, int) for s in seeds_raw)
        and seeds_raw[0] < seeds_raw[1]
    ):
        seeds = list(range(seeds_raw[0], seeds_raw[1]))
    else:
        raise SpecError(
            f"{path}: seeds: expected a positive count or a [start, stop] pair, got {seeds_raw!r}"
        )
    ensemble = data.get("ensemble", ensembles.ENSEMBLE_WISHART)
    if ensemble not in (ensembles.ENSEMBLE_WISHART, ensembles.ENSEMBLE_COUPLED_BLOCK):
        raise SpecError(f"{path}: ensemble: unknown ensemble {ensemble!r}")
    collect = data.get("collect", {})
    if not isinstance(collect, dict):
        raise SpecError(f"{path}: collect: expected an object")
    spec = SweepSpec(
        dims=dims,
        tau_targets=[float(t) for t in taus],
        seeds=seeds,
        ensemble=ensemble,
        collect_histogram=bool(collect.get("limit_rank_histogram", True)),
        collect_residual_max=bool(collect.get("residual_max", True)),
    )
    if "max_iter" in data:
        spec.max_iter = _require_count(data["max_iter"], f"{path}: max_iter")
    return spec


# ---------------------------------------------------------------------------
# Trace / report serialization


def _record_to_dict(rec: dynamics.StepRecord) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "n": rec.n,
        "lambda_min": rec.lambda_min,
        "lambda_max": rec.lambda_max,
        "det": rec.det,
        "rank": rec.rank,
        "trace": rec.trace,
        "gap": rec.gap,
        "residuals": dict(rec.residuals),
    }
    if rec.block_coords is not None:
        out["block"] = {
            "defect_diag": rec.block_coords.defect_diag,
            "coupling_norm": rec.block_coords.coupling_norm,
            "transverse_trace": rec.block_coords.transverse_trace,
            "det": rec.block_det,
        }
    return out


def write_trace(trace: dynamics.WRTrace, path: str, fmt: str) -> None:
    """Serialize a run trace; JSON round-trips every float exactly."""
    if fmt == "json":
        payload = {
            "format": "wrdyn-trace",
            "version": 1,
            "stabilized_at": trace.stabilized_at,
            "converged": trace.converged,
            "converged_at": trace.converged_at,
            "max_iter_exceeded": trace.max_iter_exceeded,
            "tau": trace.active.tau if trace.active is not None else None,
            "records": [_record_to_dict(r) for r in trace.records],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        return
    columns = [
        "n",
        "lambda_min",
        "lambda_max",
        "det",
        "rank",
        "trace",
        "gap",
        "defect_diag",
        "coupling_norm",
        "transverse_trace",
        "block_det",
        *_TRACE_RESIDUAL_COLUMNS,
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in trace.records:
            row: List[str] = [str(rec.n)]
            row += [repr(v) for v in (rec.lambda_min, rec.lambda_max, rec.det)]
            row.append(str(rec.rank))
            row += [repr(v) for v in (rec.trace, rec.gap)]
            if rec.block_coords is not None:
                row += [
                    repr(rec.block_coords.defect_diag),
                    repr(rec.block_coords.coupling_norm),
                    repr(rec.block_coords.transverse_trace),
                    repr(rec.block_det),
                ]
            else:
                row += ["", "", "", ""]
            for key in _TRACE_RESIDUAL_COLUMNS:
                row.append(repr(rec.residuals[key]) if key in rec.residuals else "")
            writer.writerow(row)


def _report_payload(report: structure.InstanceReport, exit_code: int) -> Dict[str, Any]:
    trace = report.trace
    cls = report.classification
    active = trace.active
    return {
        "format": "wrdyn-report",
        "version": 1,
        "exit_status": exit_code,
        "converged": trace.converged,
        "converged_at": trace.converged_at,
        "max_iter_exceeded": trace.max_iter_exceeded,
        "stabilized_at": trace.stabilized_at,
        "steps": len(trace.records) - 1,
        "split": {
            "frozen_dim": report.split.frozen_dim,
            "seed_dim": report.split.seed_dim,
        },
        "active": None
        if active is None
        else {
            "dim": int(active.basis.shape[1]),
            "tau": active.tau,
            "rho": active.rho,
            "start": active.start,
        },
        "classification": {
            "kind": cls.kind,
            "rule": cls.rule,
            "certificate": dict(cls.certificate),
            "predicted_limit": matrix_to_json(cls.predicted_limit),
        },
        "limit_estimate": matrix_to_json(cls.numerical_limit),
        "residual_max": dict(trace.run_residuals),
        "stationarity": {
            "passed": report.stationarity.passed,
            "residuals": dict(report.stationarity.residuals),
            "tol": report.stationarity.tol,
        },
    }


# ---------------------------------------------------------------------------
# run


def _analyze(spec: RunSpec) -> structure.InstanceReport:
    return structure.analyze_instance(
        spec.matrix,
        spec.direction,
        rank_tol=spec.rank_tol,
        conv_tol=spec.conv_tol,
        coupling_tol=spec.coupling_tol,
        max_iter=spec.max_iter,
    )


def cmd_run(spec: RunSpec) -> int:
    try:
        report = _analyze(spec)
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        if exc.trace is not None and spec.trace_path:
            write_trace(exc.trace, spec.trace_path, spec.format)
            print(f"partial trace written to {spec.trace_path}", file=sys.stderr)
        return EXIT_BREAKDOWN

    trace = report.trace
    code = EXIT_OK
    if trace.max_iter_exceeded and not trace.converged:
        code = EXIT_MAX_ITER

    if spec.trace_path:
        write_trace(trace, spec.trace_path, spec.format)
    if spec.report_path:
        with open(spec.report_path, "w", encoding="utf-8") as fh:
            json.dump(_report_payload(report, code), fh, indent=1)
            fh.write("\n")

    cls = report.classification
    active = trace.active
    print(f"kind: {cls.kind} ({cls.rule})")
    print(f"split: frozen_dim={report.split.frozen_dim} seed_dim={report.split.seed_dim}")
    if active is not None:
        print(
            f"active: dim={active.basis.shape[1]} tau={active.tau:.6g} "
            f"start={active.start}"
        )
    status = "converged" if trace.converged else (
        "iteration budget exhausted" if trace.max_iter_exceeded else "stopped"
    )
    print(f"status: {status} after {len(trace.records) - 1} steps")
    if trace.run_residuals:
        worst = max(trace.run_residuals, key=trace.run_residuals.get)
        print(f"max residual: {worst} = {trace.run_residuals[worst]:.3e}")
    return code


# ---------------------------------------------------------------------------
# check


def _recompute_det_decay(
    trace: dynamics.WRTrace, inject_error: bool
) -> Optional[float]:
    """Re-derive the determinant decay residual from recorded block data.

    Uses only what a serialized trace contains (block determinants and
    block traces), independent of the residuals computed during the run.
    Comparisons are restricted to steps where the determinant is
    numerically resolvable (:func:`oracle.det_trusted`). Returns the max
    residual, or None when no two consecutive determinants are trusted.
    """
    active = trace.active
    if active is None or not (0.0 < active.tau < 1.0):
        return None
    recs = [r for r in trace.records[active.start :] if r.block_coords is not None]
    dets: List[Optional[float]] = [
        rec.block_det if oracle.det_trusted(rec) else None for rec in recs
    ]
    if inject_error:
        trusted_idx = [i for i, d in enumerate(dets) if d is not None]
        if trusted_idx:
            mid = trusted_idx[len(trusted_idx) // 2]
            dets[mid] = dets[mid] * (1.0 + 1e-3)
    residuals = [
        identities.check_det_decay(prev, nxt, active.tau)
        for prev, nxt in zip(dets, dets[1:])
        if prev is not None and nxt is not None
    ]
    return max(0.0, *residuals) if residuals else None


def _cross_validation_residual(trace: dynamics.WRTrace) -> Optional[float]:
    """Scalar-shadow agreement when the active block is two-dimensional.

    The scalar recursion is seeded from the first stabilized record and the
    comparison runs over the rank-stable prefix: once the block's smaller
    eigenvalue falls below the rank threshold it no longer influences the
    computed trajectory beyond roundoff, so later steps drift apart at the
    noise floor by construction and comparing them would measure nothing.
    """
    active = trace.active
    if active is None or active.basis.shape[1] != 2 or not (0.0 < active.rho < 1.0):
        return None
    tail = trace.records[active.start :]
    first = next((r for r in tail if r.block_coords is not None), None)
    if first is None:
        return None
    c = first.block_coords
    d0 = c.transverse_trace
    if d0 <= 0.0:
        return None
    y0 = c.coupling_norm / d0
    z0 = math.sqrt(max(first.block_det or 0.0, 0.0)) / d0
    stable = 0
    for rec in tail:
        if rec.rank != tail[0].rank:
            break
        stable += 1
    scalar = oracle.general_weight_recursion(
        y0, z0, d0, rho=active.rho, steps=max(stable - 1, 0)
    )
    report = oracle.cross_validate(trace, scalar, tol=CHECK_TOLERANCES["cross_validation"])
    return max(report.max_errors.values()) if report.max_errors else 0.0


def cmd_check(spec: RunSpec, inject_error: bool = False) -> int:
    try:
        report = _analyze(spec)
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN

    trace = report.trace
    rows: List[Tuple[str, Optional[float], float]] = []
    for key in _TRACE_RESIDUAL_COLUMNS:
        value = trace.run_residuals.get(key)
        rows.append((key, value, CHECK_TOLERANCES[key]))

    rows.append(
        (
            "det_decay_recomputed",
            _recompute_det_decay(trace, inject_error),
            CHECK_TOLERANCES["det_decay_recomputed"],
        )
    )
    xval = _cross_validation_residual(trace)
    rows.append(("cross_validation", xval, CHECK_TOLERANCES["cross_validation"]))

    breached = False
    print(f"{'identity':26s} {'max residual':>14s} {'tolerance':>10s}  status")
    for name, value, tol in rows:
        if value is None:
            print(f"{name:26s} {'-':>14s} {tol:>10.0e}  vacuous")
            continue
        ok = value <= tol
        breached = breached or not ok
        print(f"{name:26s} {value:>14.3e} {tol:>10.0e}  {'pass' if ok else 'FAIL'}")
    if inject_error:
        print("note: one recorded block determinant was corrupted on purpose")
    return EXIT_RESIDUAL if breached else (
        EXIT_MAX_ITER if trace.max_iter_exceeded and not trace.converged else EXIT_OK
    )


# ---------------------------------------------------------------------------
# sweep


def _sweep_task(args: Tuple[str, int, float, int, float, float, int]) -> Dict[str, Any]:
    ensemble, dim, tau_target, seed, rank_tol, conv_tol, max_iter = args
    started = time.perf_counter()
    row: Dict[str, Any] = {
        "seed": seed,
        "dim": dim,
        "tau_target": tau_target,
        "breakdown": False,
    }
    try:
        R, u = ensembles.sweep_instance(ensemble, dim, tau_target, seed)
        report = structure.analyze_instance(
            R, u, rank_tol=rank_tol, conv_tol=conv_tol, max_iter=max_iter
        )
    except WRDynError as exc:
        # one failed task is one error row; the rest of the sweep goes on
        logger.warning(
            "sweep task seed=%d dim=%d failed: %s: %s", seed, dim, type(exc).__name__, exc
        )
        partial = getattr(exc, "trace", None)
        row.update(
            active_dim=0,
            tau=float("nan"),
            limit_rank=-1,
            max_residual=float("nan"),
            steps=len(partial.records) - 1 if partial is not None else 0,
            wall_time=time.perf_counter() - started,
            breakdown=True,
        )
        return row
    trace = report.trace
    active = trace.active
    limit = report.classification.numerical_limit
    residuals = trace.run_residuals
    row.update(
        active_dim=int(active.basis.shape[1]) if active is not None else 0,
        tau=float(active.tau) if active is not None else 0.0,
        limit_rank=int(matcore.numerical_rank(limit, rank_tol)) if limit is not None else -1,
        max_residual=max(residuals.values()) if residuals else 0.0,
        steps=len(trace.records) - 1,
        wall_time=time.perf_counter() - started,
    )
    return row


_SWEEP_COLUMNS = ("seed", "dim", "active_dim", "tau", "limit_rank", "max_residual", "steps", "wall_time")


def _write_sweep_outputs(spec: SweepSpec, rows: List[Dict[str, Any]], out_dir: str) -> None:
    rows = sorted(rows, key=lambda r: (r["seed"], r["dim"], r["tau_target"]))
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    str(row["seed"]),
                    str(row["dim"]),
                    str(row["active_dim"]),
                    repr(row["tau"]),
                    str(row["limit_rank"]),
                    repr(row["max_residual"]),
                    str(row["steps"]),
                    repr(row["wall_time"]),
                ]
            )
    if spec.collect_histogram:
        hist: Dict[str, Dict[str, int]] = {}
        for row in rows:
            by_dim = hist.setdefault(str(row["active_dim"]), {})
            key = str(row["limit_rank"])
            by_dim[key] = by_dim.get(key, 0) + 1
        with open(os.path.join(out_dir, "histogram.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {"limit_rank_by_active_dim": hist, "total_runs": len(rows)}, fh, indent=1
            )
            fh.write("\n")
    if spec.collect_residual_max:
        finite = [r for r in rows if not math.isnan(r["max_residual"])]
        per_dim: Dict[str, float] = {}
        for row in finite:
            key = str(row["dim"])
            per_dim[key] = max(per_dim.get(key, 0.0), row["max_residual"])
        payload = {
            "overall_max_residual": max((r["max_residual"] for r in finite), default=0.0),
            "per_dim": per_dim,
            "breakdowns": sum(1 for r in rows if r["breakdown"]),
        }
        with open(os.path.join(out_dir, "residual_max.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


def cmd_sweep(spec: SweepSpec, out_dir: str, workers: Optional[int] = None) -> int:
    tasks = [
        (spec.ensemble, dim, tau, seed, spec.rank_tol, spec.conv_tol, spec.max_iter)
        for dim in spec.dims
        for tau in spec.tau_targets
        for seed in spec.seeds
    ]
    rows: List[Dict[str, Any]] = []
    n_workers = workers or os.cpu_count() or 1
    interrupted = False
    try:
        if n_workers == 1:
            for task in tasks:
                rows.append(_sweep_task(task))
        else:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                futures = [pool.submit(_sweep_task, t) for t in tasks]
                for fut in as_completed(futures):
                    rows.append(fut.result())
    except KeyboardInterrupt:
        interrupted = True
        logger.warning("interrupted: flushing %d completed rows", len(rows))
    _write_sweep_outputs(spec, rows, out_dir)
    breakdowns = sum(1 for r in rows if r["breakdown"])
    print(
        f"sweep: {len(rows)}/{len(tasks)} runs, {breakdowns} breakdowns, "
        f"outputs in {out_dir}"
    )
    if interrupted:
        return EXIT_INTERRUPTED
    return EXIT_BREAKDOWN if breakdowns else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _configure_logging() -> None:
    level_name = os.environ.get("WRDYN_LOG", "quiet").strip().lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"WRDYN_LOG: unknown level {level_name!r}, using 'quiet'", file=sys.stderr)
        level_name = "quiet"
    logging.basicConfig(stream=sys.stderr, format="%(name)s: %(message)s")
    logging.getLogger("wrdyn").setLevel(levels[level_name])


def _apply_overrides(spec, args: argparse.Namespace) -> None:
    if args.rank_tol is not None:
        spec.rank_tol = _require_positive(args.rank_tol, "--rank-tol")
    if args.conv_tol is not None:
        spec.conv_tol = _require_positive(args.conv_tol, "--conv-tol")
    if args.max_iter is not None:
        spec.max_iter = _require_count(args.max_iter, "--max-iter")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrdyn",
        description="Simulate and certify weighted residual operator dynamics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank-tol", type=float, default=None, help="override rank tolerance")
    common.add_argument("--conv-tol", type=float, default=None, help="override convergence tolerance")
    common.add_argument("--max-iter", type=int, default=None, help="override iteration budget")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="iterate one instance")
    p_run.add_argument("spec", help="run spec (JSON)")

    p_check = sub.add_parser("check", parents=[common], help="run the identity suite")
    p_check.add_argument("spec", help="run spec (JSON)")
    p_check.add_argument(
        "--inject-error",
        action="store_true",
        help="corrupt one recorded block determinant to demonstrate detection",
    )

    p_sweep = sub.add_parser("sweep", parents=[common], help="batch ensemble sweep")
    p_sweep.add_argument("spec", help="sweep spec (JSON)")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--workers", type=int, default=None, help="worker processes")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            spec = parse_run_spec(args.spec)
            _apply_overrides(spec, args)
            return cmd_run(spec)
        if args.command == "check":
            spec = parse_run_spec(args.spec)
            _apply_overrides(spec, args)
            return cmd_check(spec, inject_error=args.inject_error)
        spec = parse_sweep_spec(args.spec)
        _apply_overrides(spec, args)
        workers = None if args.workers is None else _require_count(args.workers, "--workers")
        return cmd_sweep(spec, args.out, workers)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except WRDynError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
