"""Machine-readable report rendering: canonical JSON and flat CSV.

Reports are replayable: every float is printed with 17 significant digits,
which round-trips IEEE doubles exactly. The standard json encoder hardcodes
float repr, so the small renderer here lays out the document itself and
writes floats with format_float; every other leaf, empty container and
one-line integer list goes through json.dumps. CSV cells follow the same
scalar rule, except that strings are written raw.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable
from importlib import resources

INDENT = 2


def format_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {value!r} cannot appear in a report")
    return format(value, ".17g")


def render_json(obj) -> str:
    """Serialize dicts/lists/scalars to JSON text with 17-digit floats."""
    return _render(obj, 0)


def _render(obj, level: int) -> str:
    if isinstance(obj, dict) and obj:
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
        brackets, items = "{}", [json.dumps(key) + ": " + _render(value, level + 1) for key, value in obj.items()]
    elif isinstance(obj, (list, tuple)) and not all(isinstance(x, int) and not isinstance(x, bool) for x in obj):
        brackets, items = "[]", [_render(value, level + 1) for value in obj]
    else:
        # Leaves, empty containers and index tuples, which read better on one line.
        return _scalar(obj)
    pad = "\n" + " " * (INDENT * (level + 1))
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * (INDENT * level) + brackets[1]


def _scalar(value) -> str:
    return format_float(value) if isinstance(value, float) else json.dumps(value)


def flatten_report(record: dict) -> dict:
    """Flatten a nested analysis record into one CSV row, keyed by column name."""
    row: dict = {}
    for key, value in record.items():
        if key == "verdicts":
            row.update((f"verdict_{name}", verdict) for name, verdict in value.items())
        elif key == "spectrum":
            row.update((f"spectrum_{i:02d}", lam) for i, lam in enumerate(value))
        elif key == "timings":
            row.update(value)
        else:
            row[key] = value
    return row


def _cell(value) -> str:
    return value if isinstance(value, str) else _scalar(value)


def render_csv(header: list[str], rows: Iterable[dict]) -> str:
    """A header line, then each row's cells in header order: lower-case booleans, 17-digit floats, bare newlines."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(row[key]) for key in header] for row in rows)
    return buffer.getvalue()


def load_report_schema() -> dict:
    """The JSON schema all analysis reports conform to, shipped with the package."""
    text = resources.files("fermisep").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)
