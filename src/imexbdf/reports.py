"""Deterministic JSON and CSV serialization of report objects.

Conventions shared by every writer:

* JSON carries full double precision (repr round-trip, up to 17
  significant digits); CSV rounds to 12 significant digits.
* Non-finite floats become the strings ``"inf"``, ``"-inf"``, ``"nan"``
  in both formats, since strict JSON has no spelling for them.
* Complex values are written as [real, imag] pairs; the stability locus
  as [theta, real, imag] triples.
* Output is byte-deterministic for a fixed input: no timestamps, no
  environment-dependent fields, ``\\n`` line endings.
* Writers refuse empty reports (ReportError) rather than emitting
  header-only files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, is_dataclass
from fractions import Fraction

import numpy as np

from .bdf_coeffs import BdfScheme
from .convergence_harness import ConsistencyResult, ConvergenceReport, ThresholdReport
from .errors import ReportError
from .stability import RootSweepResult, StabilityReport

CSV_SIGNIFICANT_DIGITS = 12


def float_token(x: float):
    """Finite floats pass through; non-finite become strings."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def to_jsonable(obj):
    """Recursively convert reports, arrays and numbers to JSON types."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (float, np.floating)):
        return float_token(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [float_token(z.real), float_token(z.imag)]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise ReportError(f"cannot serialize {type(obj).__name__} to JSON")


def json_text(payload) -> str:
    return json.dumps(to_jsonable(payload), indent=2, allow_nan=False) + "\n"


def write_json(path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json_text(payload))


def csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        token = float_token(float(value))
        if isinstance(token, str):
            return token
        return f"{token:.{CSV_SIGNIFICANT_DIGITS}g}"
    if isinstance(value, str):
        return value
    raise ReportError(f"cannot format {type(value).__name__} as a CSV cell")


def csv_text(header, rows) -> str:
    rows = list(rows)
    if not rows:
        raise ReportError("refusing to write an empty report")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([csv_cell(v) for v in row])
    return buf.getvalue()


def write_csv(path, header, rows) -> None:
    text = csv_text(header, rows)
    with open(path, "w", newline="") as fh:
        fh.write(text)


# -- per-report serializers -------------------------------------------------

def scheme_payload(scheme: BdfScheme) -> dict:
    return {
        "k": scheme.k,
        "delta": [float(d) for d in scheme.delta_f],
        "gamma": [float(g) for g in scheme.gamma_f],
        "delta_exact": [str(d) for d in scheme.delta],
        "gamma_exact": [str(g) for g in scheme.gamma],
    }


def scheme_rows(scheme: BdfScheme):
    header = ["i", "delta", "gamma"]
    rows = []
    for i, d in enumerate(scheme.delta_f):
        g = csv_cell(float(scheme.gamma_f[i])) if i < scheme.k else ""
        rows.append([i, float(d), g])
    return header, rows


def stability_payload(report: StabilityReport) -> dict:
    locus = [
        [float(th), float(z.real), float(z.imag)]
        for th, z in zip(report.locus_theta, report.locus_values)
    ]
    return {
        "k": report.k,
        "alpha_deg": report.alpha_deg,
        "alpha_rad": math.radians(report.alpha_deg),
        "lambda_threshold": float_token(report.lambda_threshold),
        "tan_alpha": float_token(math.tan(math.radians(report.alpha_deg))),
        "a_stable": report.alpha_deg >= 90.0,
        "locus": locus,
    }


def stability_rows(report: StabilityReport):
    header = ["theta", "re", "im"]
    rows = [
        [float(th), float(z.real), float(z.imag)]
        for th, z in zip(report.locus_theta, report.locus_values)
    ]
    return header, rows


def sweep_payload(result: RootSweepResult) -> dict:
    return {
        "k": result.k,
        "phi": result.phi,
        "tau": result.tau,
        "rho": [float(r) for r in result.rho_grid],
        "max_root_modulus": [float(m) for m in result.max_root_moduli],
        "stable": [bool(s) for s in result.stable_flags],
        "all_stable": result.all_stable,
    }


def sweep_rows(result: RootSweepResult):
    header = ["rho", "max_root_modulus", "stable"]
    rows = [
        [float(r), float(m), bool(s)]
        for r, m, s in zip(result.rho_grid, result.max_root_moduli, result.stable_flags)
    ]
    return header, rows


def consistency_payload(result: ConsistencyResult) -> dict:
    return {
        "k": result.scheme_k,
        "tau": result.tau,
        "defect_norms": [float_token(v) for v in result.norms],
        "max_defect_norm": float_token(result.max_norm),
        "roundoff_floor": float_token(result.roundoff_floor),
    }


def consistency_rows(result: ConsistencyResult):
    header = ["n", "t", "defect_norm"]
    k = result.scheme_k
    rows = [
        [k + j, (k + j) * result.tau, float(v)] for j, v in enumerate(result.norms)
    ]
    return header, rows


def convergence_payload(report: ConvergenceReport) -> dict:
    rows = []
    for row in report.rows:
        rows.append(
            {
                "tau": row.tau,
                "stable": row.stable,
                "max_errors": {
                    lab: float_token(v) for lab, v in row.max_errors.items()
                },
                "time_l2_errors": {
                    lab: float_token(v) for lab, v in row.time_l2_errors.items()
                },
                "dq_time_l2": {
                    lab: float_token(v) for lab, v in row.dq_time_l2.items()
                },
            }
        )
    fits = {
        lab: {"slope": fit.slope, "residual": fit.residual, "n_used": fit.n_used}
        for lab, fit in report.fits.items()
    }
    return {
        "k": report.k,
        "expected_order": report.expected_order,
        "norms": list(report.norm_labels),
        "rows": rows,
        "fits": fits,
        "passes": dict(report.passes),
        "unstable_taus": [float(t) for t in report.unstable_taus],
    }


def convergence_rows(report: ConvergenceReport):
    labels = list(report.norm_labels)
    header = ["tau", "stable"]
    header += [f"max_err_{lab}" for lab in labels]
    header += [f"time_l2_err_{lab}" for lab in labels]
    header += [f"dq_time_l2_{lab}" for lab in labels]
    rows = []
    for row in report.rows:
        cells = [row.tau, row.stable]
        cells += [row.max_errors[lab] for lab in labels]
        cells += [row.time_l2_errors[lab] for lab in labels]
        cells += [row.dq_time_l2[lab] for lab in labels]
        rows.append(cells)
    return header, rows


def threshold_payload(report: ThresholdReport) -> dict:
    lo, hi = report.bracket
    lo = None if lo is None else float_token(lo)
    hi = None if hi is None else float_token(hi)
    return {
        "k": report.k,
        "tan_alpha": report.tan_alpha,
        "rows": [
            {
                "ratio": row.ratio,
                "tau_count": row.tau_count,
                "unstable_count": row.unstable_count,
                "bounded": row.bounded,
            }
            for row in report.rows
        ],
        "bracket": [lo, hi],
    }


def threshold_rows(report: ThresholdReport):
    header = ["ratio", "ratio_over_tan_alpha", "tau_count", "unstable_count", "bounded"]
    rows = [
        [
            row.ratio,
            row.ratio / report.tan_alpha,
            row.tau_count,
            row.unstable_count,
            row.bounded,
        ]
        for row in report.rows
    ]
    return header, rows
