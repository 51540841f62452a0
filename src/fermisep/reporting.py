"""Machine-readable report rendering: canonical JSON and flat CSV.

Reports are replayable: every float is printed with 17 significant digits,
which round-trips IEEE doubles exactly. The standard json encoder hardcodes
float repr, so the small renderer here walks the document itself and leans
on json.dumps only for string escaping.
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
    return "".join(_render(obj, 0))


def _render(obj, level: int):
    pad = " " * (INDENT * (level + 1))
    closing = " " * (INDENT * level)
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        yield "{\n"
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            yield pad + json.dumps(key) + ": "
            yield from _render(value, level + 1)
            yield ",\n" if i < len(obj) - 1 else "\n"
        yield closing + "}"
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            yield "[]"
            return
        if all(isinstance(x, int) and not isinstance(x, bool) for x in obj):
            # Index tuples read better on one line.
            yield "[" + ", ".join(str(x) for x in obj) + "]"
            return
        yield "[\n"
        for i, value in enumerate(obj):
            yield pad
            yield from _render(value, level + 1)
            yield ",\n" if i < len(obj) - 1 else "\n"
        yield closing + "]"
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif isinstance(obj, float):
        yield format_float(obj)
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif obj is None:
        yield "null"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


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
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_float(value) if isinstance(value, float) else str(value)


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
