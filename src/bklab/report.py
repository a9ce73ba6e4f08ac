"""Deterministic JSON/CSV report emission.

``render_json`` and ``render_csv`` make a single pass over the payload: they
walk it once and append each string chunk, encoded, to one byte buffer,
whose bytes they return without a copy, so a render peaks near the size of
its output.  numpy scalars and arrays are converted where the walk meets
them (arrays through ``tolist``), so the payload is never copied.  A float
table is rendered with one precomputed ``%.17g`` bytes row template,
``_BATCH`` rows at a time, straight from the array without ``tolist``;
every list is rendered element by element.  A float table is a non-empty
2-D float64 array of finite values (the counterexample atoms).  Both paths
give the same bytes.  Before a float table the buffer moves, once, into
room for the table's longest possible text, so it never grows, and never
moves, while the table is written: the render holds its output and one
batch, whatever the allocator did before.

What the output guarantees, for a given payload:

- dict fields appear in insertion order; keys are written as ``str(key)``,
  unescaped;
- floats carry 17 significant digits (lossless for float64); in JSON nan and
  ±inf are the strings ``"nan"``, ``"inf"``, ``"-inf"``, in CSV they are bare;
- numpy integer, floating and bool scalars are written as the Python int,
  float and bool they convert to; tuples and arrays are written as lists;
- JSON is indented by two spaces, one element per line, with a final
  newline; CSV cells are scalars, each written with ``str`` unless it is a
  float.

So re-running a spec with the same seed yields byte-identical output.  The
optional timestamp is off by default and always excluded by
``canonical_bytes`` for comparisons.
"""

from __future__ import annotations

import io
import math
import time

import numpy as np

SCHEMA_VERSION = "bklab-report/1"

FINITE = "finite"
DIVERGENT = "divergent"


class Verdict(str):
    """A verdict word of bklab-report/1: the ``str`` value is the word that
    reports carry, ``kind`` is FINITE, DIVERGENT or None (undecided)."""

    def __new__(cls, word: str, kind: str | None = None):
        self = super().__new__(cls, word)
        self.kind = kind
        return self


def _verdicts(finite: str, divergent: str, undecided: str | None = None) -> dict:
    table = {FINITE: Verdict(finite, FINITE), DIVERGENT: Verdict(divergent, DIVERGENT)}
    if undecided is not None:
        table[None] = Verdict(undecided)
    return table


# Each estimator's words by kind; every verdict is evidence, never proof.
MOMENT = _verdicts("finite", "divergence-evidence")  # E[|X| G(|X|)]
SERIES = _verdicts("converging-evidence", "diverging-evidence", "inconclusive")
LAST_EXIT = _verdicts("finite-evidence", "divergent-evidence")  # E[G(L_a)] from censoring
DOUBLING = _verdicts("bounded-consistent", "unbounded-growth-detected")  # G(2t)/G(t)
MODERATION = _verdicts("moderate-consistent", "non-moderate-evidence")

_FLOAT = "%.17g"
_CELL = 24  # the longest _FLOAT text of a finite float64, as in -1.2345678901234567e-308
_BATCH = 1024  # rows of a float table formatted per chunk


def _plain(x):
    """A numpy scalar as the Python scalar it converts to; anything else as is."""
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


def _is_float_table(rows) -> bool:
    """Whether ``rows`` is a non-empty 2-D float64 array of finite values."""
    return (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64
            and rows.size > 0 and bool(np.isfinite(rows).all()))


class _Out:
    """The output buffer of a render: ``append`` writes a text chunk encoded,
    ``write`` a bytes chunk, and ``getvalue`` hands the bytes over."""

    def __init__(self):
        self._buf = io.BytesIO()

    def append(self, chunk: str) -> None:
        self._buf.write(chunk.encode())

    def write(self, chunk: bytes) -> None:
        self._buf.write(chunk)

    def reserve(self, n: int) -> None:
        """Move what is written into one buffer with room for ``n`` more bytes.
        A BytesIO made from a bytes object that nothing else holds writes
        into it in place, and ``bytes(k)`` is allocated zeroed, which leaves
        fresh pages untouched until a write reaches them."""
        old, size = self._buf, self._buf.tell()
        self._buf = io.BytesIO(bytes(size + n))
        self._buf.write(old.getbuffer()[:size])

    def getvalue(self) -> bytes:
        self._buf.truncate()  # drop the unused room of a reserve
        return self._buf.getvalue()


def _write_table(out: _Out, rows, row: str, sep: str) -> None:
    """Append the float table ``rows`` to ``out``, each row filled into the
    ``row`` template and rows joined by ``sep``, ``_BATCH`` rows at a time."""
    row, sep = row.encode(), sep.encode()
    longest = len(row) + rows.shape[1] * (_CELL - len(_FLOAT))
    out.reserve(len(rows) * (longest + len(sep)))
    for i in range(0, len(rows), _BATCH):
        part = rows[i:i + _BATCH]
        if i:
            out.write(sep)
        out.write(sep.join([row] * len(part)) % tuple(np.ravel(part).tolist()))


def _render_scalar(x) -> str:
    x = _plain(x)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return _FLOAT % x
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _write(obj, pad: str, out: _Out) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``pad`` is the indentation
    of the line on which ``obj`` starts."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n"
        for k, v in obj.items():
            out.append(f'{sep}{inner}"{str(k)}": ')
            _write(v, inner, out)
            sep = ",\n"
        out.append(f"\n{pad}}}")
        return
    if _is_float_table(obj):
        inner = pad + "  "
        cell = f"{inner}  {_FLOAT}"
        row = f"{inner}[\n" + ",\n".join([cell] * len(obj[0])) + f"\n{inner}]"
        out.append("[\n")
        _write_table(out, obj, row, ",\n")
        out.append(f"\n{pad}]")
        return
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if not isinstance(obj, (list, tuple)):
        out.append(_render_scalar(obj))
        return
    if not obj:
        out.append("[]")
        return
    inner = pad + "  "
    sep = "[\n"
    for v in obj:
        out.append(sep + inner)
        _write(v, inner, out)
        sep = ",\n"
    out.append(f"\n{pad}]")


def render_json(payload: dict) -> bytes:
    out = _Out()
    _write(payload, "", out)
    out.append("\n")
    return out.getvalue()


def _csv_cell(x) -> str:
    x = _plain(x)
    return _FLOAT % x if isinstance(x, float) else str(x)


def render_csv(header: list[str], rows) -> bytes:
    out = _Out()
    out.append(",".join(header))
    if _is_float_table(rows):
        out.append("\n")
        _write_table(out, rows, ",".join([_FLOAT] * len(rows[0])), "\n")
    else:
        for row in rows:
            if isinstance(row, np.ndarray):
                row = row.tolist()
            out.append("\n" + ",".join(map(_csv_cell, row)))
    out.append("\n")
    return out.getvalue()


def emit(payload: dict, fmt: str = "json", *, stamp: bool = False) -> bytes:
    """Serialize a report payload; csv payloads carry their own header/rows."""
    payload = dict(payload)
    if stamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if fmt == "json":
        return render_json(payload)
    if fmt == "csv":
        header = payload.get("csv_header")
        rows = payload.get("csv_rows")
        if header is None or rows is None:
            raise ValueError("payload has no CSV projection")
        return render_csv(list(header), rows)
    raise ValueError(f"unknown format {fmt!r}")


def canonical_bytes(payload: dict, fmt: str = "json") -> bytes:
    """Serialization with the timestamp removed: the comparison form."""
    payload = {k: v for k, v in payload.items() if k != "timestamp"}
    return emit(payload, fmt, stamp=False)


def bound_report_payload(report) -> dict:
    """Stable field order for a bound audit: name, lhs, lhs_se, rhs, rhs_se,
    slack, holds_within, seed."""
    return {
        "name": report.name,
        "lhs": report.lhs,
        "lhs_se": report.lhs_se,
        "rhs": report.rhs,
        "rhs_se": report.rhs_se,
        "slack": report.slack,
        "holds_within": report.holds_within,
        "seed": report.seed,
        "schema": SCHEMA_VERSION,
        "details": dict(report.details),
    }
