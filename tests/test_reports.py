import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from imexbdf import reports
from imexbdf.bdf_coeffs import bdf_scheme
from imexbdf.convergence_harness import (
    ConsistencyResult,
    ConvergenceReport,
    ConvergenceRow,
    OrderFit,
    ThresholdReport,
    ThresholdRow,
)
from imexbdf.errors import ReportError
from imexbdf.stability import stability_report, von_neumann_sweep


class TestJsonMachinery:
    def test_float_token(self):
        assert reports.float_token(1.5) == 1.5
        assert reports.float_token(math.inf) == "inf"
        assert reports.float_token(-math.inf) == "-inf"
        assert reports.float_token(math.nan) == "nan"

    def test_to_jsonable_types(self):
        out = reports.to_jsonable(
            {
                "frac": Fraction(3, 2),
                "arr": np.array([1.0, 2.0]),
                "z": 1.0 + 2.0j,
                "flag": np.bool_(True),
                "n": np.int64(7),
                "inf": np.inf,
            }
        )
        assert out == {
            "frac": "3/2",
            "arr": [1.0, 2.0],
            "z": [1.0, 2.0],
            "flag": True,
            "n": 7,
            "inf": "inf",
        }

    def test_json_full_precision_round_trip(self):
        x = 0.1 + 0.2  # not exactly representable as a short decimal
        text = reports.json_text({"x": x})
        assert json.loads(text)["x"] == x

    def test_json_refuses_unknown_types(self):
        with pytest.raises(ReportError):
            reports.json_text({"f": lambda: None})

    def test_nonfinite_floats_never_break_strict_json(self):
        text = reports.json_text({"a": math.inf, "b": [math.nan]})
        parsed = json.loads(text)
        assert parsed == {"a": "inf", "b": ["nan"]}


class TestCsvMachinery:
    def test_cells(self):
        assert reports.csv_cell(True) == "true"
        assert reports.csv_cell(False) == "false"
        assert reports.csv_cell(3) == "3"
        assert reports.csv_cell(math.inf) == "inf"
        assert reports.csv_cell(1.0 / 3.0) == "0.333333333333"

    def test_twelve_significant_digits(self):
        cell = reports.csv_cell(math.pi * 1e-7)
        assert float(cell) == pytest.approx(math.pi * 1e-7, rel=1e-11)
        digits = cell.replace(".", "").replace("e-07", "").lstrip("0")
        assert len(digits) <= 12

    def test_empty_report_refused(self):
        with pytest.raises(ReportError, match="empty"):
            reports.csv_text(["a", "b"], [])

    def test_lines_and_terminator(self):
        text = reports.csv_text(["a", "b"], [[1, 2.5], [3, 4.5]])
        assert text == "a,b\n1,2.5\n3,4.5\n"

    def test_write_matches_text(self, tmp_path):
        rows = [[1, 2.5, True], [3, math.nan, "x"]]
        reports.write_csv(tmp_path / "r.csv", ["a", "b", "c"], iter(rows))
        assert (tmp_path / "r.csv").read_text() == reports.csv_text(["a", "b", "c"], rows)

    def test_rows_are_streamed(self, tmp_path):
        rows = ([float(i)] * 50 for i in range(20_000))
        tracemalloc.start()
        try:
            reports.write_csv(tmp_path / "big.csv", [f"c{j}" for j in range(50)], rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert (tmp_path / "big.csv").read_text().count("\n") == 20_001

    def test_empty_report_opens_no_file(self, tmp_path):
        with pytest.raises(ReportError, match="empty"):
            reports.write_csv(tmp_path / "r.csv", ["a"], iter([]))
        assert list(tmp_path.iterdir()) == []

    def test_failing_row_leaves_no_partial_file(self, tmp_path):
        rows = ([i] for i in [*range(5000), object()])
        with pytest.raises(ReportError, match="cannot format"):
            reports.write_csv(tmp_path / "r.csv", ["a"], rows)
        assert list(tmp_path.iterdir()) == []


class TestSchemeSerializers:
    def test_payload(self):
        payload = reports.scheme_payload(bdf_scheme(2))
        assert payload["k"] == 2
        assert payload["delta"] == [1.5, -2.0, 0.5]
        assert payload["gamma"] == [2.0, -1.0]
        assert payload["delta_exact"] == ["3/2", "-2", "1/2"]

    def test_rows_pad_missing_gamma(self):
        header, rows = reports.scheme_rows(bdf_scheme(2))
        assert header == ["i", "delta", "gamma"]
        assert len(rows) == 3
        assert rows[2][2] == ""


class TestStabilitySerializers:
    def test_payload_fields(self):
        payload = reports.stability_payload(stability_report(bdf_scheme(3)))
        assert payload["k"] == 3
        assert payload["alpha_deg"] == pytest.approx(86.0323668602, abs=1e-6)
        assert payload["lambda_threshold"] == pytest.approx(14.4523435192, abs=1e-6)
        assert not payload["a_stable"]
        assert len(payload["locus"]) > 0 and len(payload["locus"][0]) == 3

    def test_a_stable_payload_spells_infinite_threshold(self):
        payload = reports.stability_payload(stability_report(bdf_scheme(2)))
        assert payload["a_stable"]
        assert payload["lambda_threshold"] == "inf"

    def test_sweep_rows(self):
        sweep = von_neumann_sweep(bdf_scheme(2), 0.0, [0.5, 1.0, 2.0])
        header, rows = reports.sweep_rows(sweep)
        assert header == ["rho", "max_root_modulus", "stable"]
        assert [r[0] for r in rows] == [0.5, 1.0, 2.0]
        assert all(r[2] for r in rows)
        payload = reports.sweep_payload(sweep)
        assert payload["all_stable"] is True


class TestHarnessSerializers:
    def test_consistency_rows_number_from_k(self):
        result = ConsistencyResult(
            scheme_k=3, tau=0.5, norms=[0.1, 0.2], max_norm=0.2, roundoff_floor=1e-15
        )
        header, rows = reports.consistency_rows(result)
        assert header == ["n", "t", "defect_norm"]
        assert rows[0][:2] == [3, 1.5]
        assert rows[1][:2] == [4, 2.0]

    def _report(self):
        row = ConvergenceRow(
            tau=0.1,
            stable=True,
            max_errors={"linf": 1e-3},
            time_l2_errors={"linf": 5e-4},
            dq_time_l2={"linf": 2e-3},
        )
        bad = ConvergenceRow(
            tau=0.2,
            stable=False,
            max_errors={"linf": math.inf},
            time_l2_errors={"linf": math.inf},
            dq_time_l2={"linf": math.inf},
        )
        return ConvergenceReport(
            k=2,
            norm_labels=["linf"],
            rows=[bad, row],
            fits={"linf": OrderFit(slope=2.02, residual=0.01, n_used=4)},
            passes={"linf": True},
            unstable_taus=[0.2],
        )

    def test_convergence_payload(self):
        payload = reports.convergence_payload(self._report())
        assert payload["k"] == 2
        assert payload["fits"]["linf"]["slope"] == 2.02
        assert payload["passes"] == {"linf": True}
        assert payload["rows"][0]["max_errors"]["linf"] == "inf"
        json.loads(reports.json_text(payload))

    def test_convergence_rows(self):
        header, rows = reports.convergence_rows(self._report())
        assert header == [
            "tau",
            "stable",
            "max_err_linf",
            "time_l2_err_linf",
            "dq_time_l2_linf",
        ]
        assert rows[0][1] is False and rows[1][1] is True

    def test_threshold_payload_and_rows(self):
        report = ThresholdReport(
            k=3,
            tan_alpha=14.4177,
            rows=[ThresholdRow(7.0, 27, 0), ThresholdRow(28.0, 27, 5)],
        )
        payload = reports.threshold_payload(report)
        assert payload["bracket"] == [7.0, 28.0]
        header, rows = reports.threshold_rows(report)
        assert header[0] == "ratio"
        assert rows[0][4] is True and rows[1][4] is False
        all_bounded = ThresholdReport(
            k=3, tan_alpha=14.4177, rows=[ThresholdRow(7.0, 27, 0)]
        )
        assert reports.threshold_payload(all_bounded)["bracket"][1] is None
