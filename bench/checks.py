"""Correctness checks on the outputs of each benchmark workload.

Every check compares a program output against an independent computation or
against a property the method must have; none compares against a stored copy
of earlier output, and none looks at wall time.  Each check records its worst
measured value, so a run reports how close it came to each tolerance.

The independent routes:

* trace identity -- the step decrement is rank one with norm ``<u, T u>``, so
  ``trace[n+1] = trace[n] - gap[n]`` exactly; checked on every record;
* coupled-block collapse -- lambda_max rebuilt from the scalar recursion
  ``oracle.general_weight_recursion`` (no matrix algebra), seeded from the
  block's prescribed coordinates ``(xi, zeta, d)``;
* decoupled blocks -- the closed form ``diag(0, d0)`` and a transverse entry
  that the exact map never touches;
* Wishart sweep -- the active weight in closed form,
  ``tau = 1 - (u* R^{-1/2} u)^2 / (u* R^{-1} u)``, from numpy's own
  eigendecomposition of the regenerated start;
* planted instances -- the planted kind and the planted closed-form limit.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Dict, Iterable, List, Sequence

import numpy as np

#: trace identity, relative to trace[0] (measured <= 1.2e-15)
TRACE_IDENTITY_TOL = 1e-13
#: final lambda_max of a coupled block run
COUPLED_FINAL_LAMBDA_MAX = 1e-7
#: engine lambda_max against the scalar route, relative, over the whole run
LAMBDA_MAX_ROUTE_TOL = 2e-5
#: decoupled limit against diag(0, d0), spectral norm
DECOUPLED_LIMIT_TOL = 1e-9
#: sweep tau against the closed form, absolute (tau lies in (0, 1))
TAU_CLOSED_FORM_TOL = 1e-12
#: worst identity residual of a sweep row
SWEEP_RESIDUAL_TOL = 1e-7
#: reported limit against the planted limit, relative to max(1, ||R||)
PLANTED_LIMIT_TOL = 1e-6


class Verdict:
    """Failures and worst measured values collected over a run's checks."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.worst: Dict[str, float] = {}

    def measure(self, name: str, value: float, tol: float, where: str) -> None:
        """Record ``value`` under ``name``; fail unless ``value <= tol`` (NaN fails)."""
        value = float(value)
        if math.isnan(value) or value > self.worst.get(name, -math.inf):
            self.worst[name] = value
        if not value <= tol:
            self.failures.append(f"{where}: {name} = {value:.3e} exceeds {tol:.1e}")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def passed(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# every workload


def trace_identity_error(traces: Sequence[float], gaps: Sequence[float]) -> float:
    """Largest ``|trace[n+1] - (trace[n] - gap[n])|`` relative to ``|trace[0]|``."""
    t = np.asarray(traces, dtype=float)
    g = np.asarray(gaps, dtype=float)
    if t.size < 2:
        return 0.0
    err = np.abs(t[1:] - (t[:-1] - g[:-1])).max()
    return float(err / max(abs(t[0]), np.finfo(float).tiny))


def check_trace_identity(v: Verdict, where: str, traces, gaps) -> None:
    v.measure("trace_identity", trace_identity_error(traces, gaps), TRACE_IDENTITY_TOL, where)


# ---------------------------------------------------------------------------
# block-collapse


def scalar_lambda_max(y: float, z: float, d: float) -> float:
    """Largest eigenvalue of the 2x2 block with coupling ratio y, root-det ratio z, corner d."""
    a = d * (y * y + z * z)
    return 0.5 * (a + d) + math.hypot(0.5 * (a - d), y * d)


def lambda_max_route_error(
    oracle, xi: float, zeta: float, d: float, tau: float, lam_max: Sequence[float]
) -> float:
    """Largest relative gap between an engine lambda_max series and the scalar route.

    ``oracle`` is the program's ``wrdyn.oracle`` module; the block is
    ``ensembles.coupled_block(xi, zeta, d)`` under weight ``(sqrt(tau), 0)``.
    """
    sc = oracle.general_weight_recursion(xi, zeta, d, rho=1.0 - tau, steps=len(lam_max) - 1)
    ys, zs, ds = sc.coupling_ratio, sc.root_det_ratio, sc.transverse_diag
    worst = 0.0
    for lam, y, z, dd in zip(lam_max, ys, zs, ds):
        ref = scalar_lambda_max(y, z, dd)
        worst = max(worst, abs(lam - ref) / ref)
    return worst


def check_coupled_run(
    v: Verdict, where: str, oracle, xi: float, zeta: float, d: float, tau: float, run
) -> None:
    v.require(run.converged, f"{where}: coupled run did not converge")
    lam = [r.lambda_max for r in run.records]
    v.measure("coupled_final_lambda_max", lam[-1], COUPLED_FINAL_LAMBDA_MAX, where)
    v.measure(
        "lambda_max_vs_scalar_route",
        lambda_max_route_error(oracle, xi, zeta, d, tau, lam),
        LAMBDA_MAX_ROUTE_TOL,
        where,
    )


def check_decoupled_run(v: Verdict, where: str, d0: float, run) -> None:
    """Transverse entry bitwise constant; limit within tolerance of diag(0, d0)."""
    v.require(run.converged, f"{where}: decoupled run did not converge")
    v.require(run.iterates is not None, f"{where}: iterates were not kept")
    for n, M in enumerate(run.iterates or ()):
        blk = M[1:, 1:]
        if not (blk[1, 1] == d0 and blk[0, 1] == 0.0 and blk[1, 0] == 0.0):
            v.require(False, f"{where}: transverse entry changed at step {n}")
            break
    limit = np.asarray(run.limit_estimate)[1:, 1:]
    err = np.linalg.norm(limit - np.diag([0.0, d0]), 2)
    v.measure("decoupled_limit_error", err, DECOUPLED_LIMIT_TOL, where)


# ---------------------------------------------------------------------------
# certified-sweep


def tau_closed_form(R: np.ndarray, u: np.ndarray) -> float:
    """Weight left on the range after one step from a strictly positive ``R``.

    One step maps ``R`` to ``R^{1/2}(I - uu*)R^{1/2}``, whose kernel is spanned
    by ``k = R^{-1/2} u``; the weight of ``u`` on the new range is therefore
    ``1 - |<k, u>|^2 / |k|^2``.
    """
    w, V = np.linalg.eigh((R + R.conj().T) / 2)
    p = np.abs(V.conj().T @ u) ** 2
    a = float(np.sum(p / np.sqrt(w)))
    b = float(np.sum(p / w))
    return 1.0 - a * a / b


def check_sweep_rows(
    v: Verdict,
    rows: List[Dict[str, str]],
    grid: Iterable[tuple],
    start_of,
    breakdowns: int,
) -> None:
    """Check ``sweep.csv`` rows against the grid of ``(seed, dim)`` points.

    ``start_of(seed, dim)`` regenerates the run's start ``(R, u)``.
    """
    expected = sorted(grid)
    seen = sorted((int(r["seed"]), int(r["dim"])) for r in rows)
    v.require(seen == expected, f"sweep: grid points {seen} differ from {expected}")
    v.require(breakdowns == 0, f"sweep: residual_max.json reports {breakdowns} breakdowns")
    for r in rows:
        seed, dim = int(r["seed"]), int(r["dim"])
        where = f"sweep seed={seed} dim={dim}"
        v.require(r["limit_rank"] != "-1", f"{where}: breakdown row")
        v.require(
            int(r["active_dim"]) == dim - 1, f"{where}: active_dim {r['active_dim']} != {dim - 1}"
        )
        R, u = start_of(seed, dim)
        tau_err = abs(float(r["tau"]) - tau_closed_form(R, u))
        v.measure("tau_vs_closed_form", tau_err, TAU_CLOSED_FORM_TOL, where)
        v.measure("sweep_max_residual", float(r["max_residual"]), SWEEP_RESIDUAL_TOL, where)


# ---------------------------------------------------------------------------
# run-check


def matrix_from_json(M) -> np.ndarray:
    """Nested ``[re, im]`` pairs, as reports write them, to a complex array."""
    return np.array([[complex(*x) for x in row] for row in M])


def check_report(
    v: Verdict,
    where: str,
    report: Dict,
    expected_kind: str,
    expected_limit: np.ndarray,
    R: np.ndarray,
) -> None:
    kind = report["classification"]["kind"]
    v.require(kind == expected_kind, f"{where}: kind {kind} != planted {expected_kind}")
    v.require(report["exit_status"] == 0, f"{where}: report exit_status {report['exit_status']}")
    limit = matrix_from_json(report["limit_estimate"])
    scale = max(1.0, float(np.linalg.norm(R, 2)))
    err = float(np.linalg.norm(limit - expected_limit, 2)) / scale
    v.measure("planted_limit_error", err, PLANTED_LIMIT_TOL, where)


def trace_columns(path: str, fmt: str) -> tuple:
    """Read the ``trace`` and ``gap`` columns of a written JSON or CSV trace."""
    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "json":
            recs = json.load(fh)["records"]
            return [r["trace"] for r in recs], [r["gap"] for r in recs]
        rows = list(csv.DictReader(fh))
    return [float(r["trace"]) for r in rows], [float(r["gap"]) for r in rows]
