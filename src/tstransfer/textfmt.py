"""Text output helpers: every file tstransfer writes goes through here.

Floats are printed with 17 significant digits everywhere so that every
emitted value round-trips to the exact same float64 on re-parse. The JSON
writer is hand-rolled because the stdlib encoder always prints the shortest
repr for floats. Every file is written atomically, so a writer that fails
midway leaves the previous file in place, with the mode a plain `open`
would give it.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import os

__all__ = ["fmt17", "dump_json_17g", "dump_csv_17g", "atomic_write_bytes"]


def fmt17(value: float) -> str:
    """Render a float with 17 significant digits."""
    return format(float(value), ".17g")


def _encode(obj, pieces: list[str], indent: int) -> None:
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, numbers.Integral):  # includes numpy integer scalars
        pieces.append(str(int(obj)))
    elif isinstance(obj, numbers.Real):  # includes numpy float scalars
        pieces.append(fmt17(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            pieces.append(inner + json.dumps(key) + ": ")
            _encode(value, pieces, indent + 2)
            pieces.append(",\n" if k < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for k, value in enumerate(obj):
            pieces.append(inner)
            _encode(value, pieces, indent + 2)
            pieces.append(",\n" if k < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_json_17g(obj, path) -> None:
    """Write obj as pretty JSON with 17-significant-digit floats."""
    pieces: list[str] = []
    _encode(obj, pieces, 0)
    pieces.append("\n")
    atomic_write_bytes(path, "".join(pieces).encode("utf-8"))


def dump_csv_17g(rows, path) -> None:
    """Write rows as CSV: a str cell as is, None empty, a number with fmt17."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows(
        [c if c is None or isinstance(c, str) else fmt17(c) for c in row] for row in rows
    )
    atomic_write_bytes(path, text.getvalue().encode("utf-8"))


def atomic_write_bytes(path, data: bytes) -> None:
    """Write a file atomically: temp file in the same directory, then rename.

    The file gets the mode a plain `open(path, "wb")` would give it: the
    temp file is created with 0o666, which the system masks by the umask.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
