"""Schema-stable serialization of reports to JSON and CSV.

Exact rationals are emitted as "num/den" strings next to a float companion;
no rational ever passes through floating point on its way to the string.
JSON uses sorted keys and fixed indentation, so parse + re-emit is
byte-identical, and refuses NaN and infinities, which JSON has no words for.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from .concentration import ConcentrationReport
from .core import require_float_range
from .moments import CancellationCheck, MomentReport
from .visibility import VisibilityReport

__all__ = ["report_to_dict", "to_json", "to_csv", "write_atomic"]


def _frac_fields(d: dict, *names: str) -> None:
    for name in names:
        v = d.get(name)
        if isinstance(v, Fraction):
            require_float_range(v, name)
            d[name] = f"{v.numerator}/{v.denominator}"
            d[name + "_float"] = float(v)


def report_to_dict(report) -> dict:
    """Flatten any report dataclass into a JSON-ready dict with a verdict."""
    if isinstance(report, dict):
        return report
    if not is_dataclass(report):
        raise TypeError(f"cannot serialize {type(report).__name__}")
    d = asdict(report)
    if isinstance(report, ConcentrationReport):
        d["type"] = "concentration"
        d["verdict"] = "vacuous" if report.vacuous else ("pass" if report.passed else "fail")
    elif isinstance(report, MomentReport):
        d["type"] = "moment"
        _frac_fields(d, "formula_value", "oracle_value")
        if report.oracle_value is None:
            d["verdict"] = "formula-only"
        else:
            d["verdict"] = "exact-equal" if report.exact_equal else "mismatch"
        if d.get("alpha") is not None:
            d["alpha"] = ",".join(str(c) for c in d["alpha"])
    elif isinstance(report, VisibilityReport):
        d["type"] = "visibility"
        d["verdict"] = "pass" if report.passed else "fail"
    elif isinstance(report, CancellationCheck):
        d["type"] = "cancellation"
        d["verdict"] = "exact-equal" if report.all_match else "mismatch"
        d["alpha"] = ",".join(str(c) for c in d["alpha"])
        for name in ("linear", "quadratic", "trace_quadratic", "cubic", "quartic"):
            got, want = d[name]
            d[name] = {"enumerated": got, "closed_form": want}
    else:
        d["type"] = type(report).__name__
    return d


def to_json(reports) -> str:
    """One report -> one JSON object; several -> a JSON array."""
    if isinstance(reports, (list, tuple)):
        payload = [report_to_dict(r) for r in reports]
    else:
        payload = report_to_dict(reports)
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = "" if v is None else v
    return out


def to_csv(reports) -> str:
    """One row per report; columns are the sorted union of flattened keys."""
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    rows = [_flatten(report_to_dict(r)) for r in reports]
    fields = sorted({k for row in rows for k in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, restval="", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file and rename, so interrupted runs leave no partials."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cyclobox-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
