"""CSV/JSON serialization with round-trip-safe numeric formatting."""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["format_number", "write_csv", "write_json", "read_json", "atomic_write_text",
           "reject_unknown"]


def format_number(x) -> str:
    """17 significant digits: guarantees bit-exact float round trips."""
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return f"{float(x):.17g}"


def _format_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(int(x))
    return format_number(x)


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file + rename so readers never see partial content."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(c) for c in row))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def _jsonify(obj):
    import math

    import numpy as np

    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not math.isfinite(x):  # strict JSON has no Infinity/NaN literals
            return repr(x)
        return float(format_number(x))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


def write_json(path: Path, payload: dict) -> None:
    atomic_write_text(Path(path), json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n")


def read_json(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def reject_unknown(keys, known, message: str, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` with ``message`` and every one of ``keys`` not in ``known``, sorted."""
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise error(f"{message} " + ", ".join(f"'{name}'" for name in unknown))
