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
import os
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from itertools import chain, zip_longest

import numpy as np

from .bdf_coeffs import BdfScheme
from .convergence_harness import ConsistencyResult, ConvergenceReport, ThresholdReport
from .errors import ReportError
from .stability import RootSweepResult, StabilityReport

CSV_SIGNIFICANT_DIGITS = 12
_CSV_FLOAT = f".{CSV_SIGNIFICANT_DIGITS}g"


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
    if isinstance(value, (float, np.floating)):  # first: most cells are floats
        x = float(value)
        return format(x, _CSV_FLOAT) if math.isfinite(x) else float_token(x)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    raise ReportError(f"cannot format {type(value).__name__} as a CSV cell")


def _nonempty(rows):
    """``rows`` as an iterator, refused (ReportError) when it has none."""
    rows = iter(rows)
    for first in rows:
        return chain([first], rows)
    raise ReportError("refusing to write an empty report")


def _write_rows(fh, header, rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([csv_cell(v) for v in row])


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    _write_rows(buf, header, _nonempty(rows))
    return buf.getvalue()


def write_csv(path, header, rows) -> None:
    """Write each row as it is formatted; a failing row removes the file."""
    rows = _nonempty(rows)
    try:
        with open(path, "w", newline="") as fh:
            _write_rows(fh, header, rows)
    except ReportError:
        os.remove(path)
        raise


# -- per-report serializers -------------------------------------------------
#
# Each payload is a dict of the report's own values passed once through
# to_jsonable; each CSV row holds raw values that csv_cell formats.

def scheme_payload(scheme: BdfScheme) -> dict:
    return to_jsonable({
        "k": scheme.k,
        "delta": scheme.delta_f,
        "gamma": scheme.gamma_f,
        "delta_exact": scheme.delta,
        "gamma_exact": scheme.gamma,
    })


def scheme_rows(scheme: BdfScheme):
    pairs = zip_longest(scheme.delta_f, scheme.gamma_f, fillvalue="")
    return ["i", "delta", "gamma"], [[i, d, g] for i, (d, g) in enumerate(pairs)]


def stability_payload(report: StabilityReport) -> dict:
    alpha = math.radians(report.alpha_deg)
    return to_jsonable({
        "k": report.k,
        "alpha_deg": report.alpha_deg,
        "alpha_rad": alpha,
        "lambda_threshold": report.lambda_threshold,
        "tan_alpha": math.tan(alpha),
        "a_stable": report.alpha_deg >= 90.0,
        "locus": stability_rows(report)[1],
    })


def stability_rows(report: StabilityReport):
    z = report.locus_values
    return ["theta", "re", "im"], list(zip(report.locus_theta, z.real, z.imag))


def sweep_payload(result: RootSweepResult) -> dict:
    return to_jsonable({
        "k": result.k,
        "phi": result.phi,
        "tau": result.tau,
        "rho": result.rho_grid,
        "max_root_modulus": result.max_root_moduli,
        "stable": result.stable_flags,
        "all_stable": result.all_stable,
    })


def sweep_rows(result: RootSweepResult):
    header = ["rho", "max_root_modulus", "stable"]
    return header, list(zip(result.rho_grid, result.max_root_moduli, result.stable_flags))


def consistency_payload(result: ConsistencyResult) -> dict:
    return to_jsonable({
        "k": result.scheme_k,
        "tau": result.tau,
        "defect_norms": result.norms,
        "max_defect_norm": result.max_norm,
        "roundoff_floor": result.roundoff_floor,
    })


def consistency_rows(result: ConsistencyResult):
    k = result.scheme_k
    rows = [[k + j, (k + j) * result.tau, v] for j, v in enumerate(result.norms)]
    return ["n", "t", "defect_norm"], rows


def convergence_payload(report: ConvergenceReport) -> dict:
    return to_jsonable({
        "k": report.k,
        "expected_order": report.k,
        "norms": report.norm_labels,
        "rows": report.rows,
        "fits": report.fits,
        "passes": report.passes,
        "unstable_taus": report.unstable_taus,
    })


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
    return to_jsonable({
        "k": report.k,
        "tan_alpha": report.tan_alpha,
        "rows": [{**asdict(row), "bounded": row.bounded} for row in report.rows],
        "bracket": report.bracket,
    })


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
