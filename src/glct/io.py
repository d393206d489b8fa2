"""File formats and deterministic serialization.

Graph files are JSON ``{"n": int, "edges": [[i, j, w], ...]}`` with i < j.
Signal files are either CSV with one value per line in linearized vertex
order, or JSON ``{"shape": [...], "data": [[re, im], ...]}``. All writes are
atomic (temp file + rename) and all numbers are serialized via ``repr`` of
Python floats, so reruns produce byte-identical files.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .graphs import Graph
from .product import SignalNd


def fmt_num(v: Any) -> str:
    """Shortest round-trip decimal text for a real number.

    Raises NumericalError for NaN and infinities, which have no such text.
    """
    if isinstance(v, str):
        return v
    f = float(v)
    if not np.isfinite(f):
        raise NumericalError(f"cannot write the non-finite number {f!r}")
    if f == int(f) and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def output_format(path: str | Path | None, fmt: str | None = None) -> str:
    """The format of an output: ``fmt`` when given, otherwise ``"csv"`` for a
    path with a ``.csv`` suffix in any case and ``"json"`` for anything else,
    stdout (``path`` None) included."""
    if fmt is not None:
        return fmt
    return "csv" if path is not None and Path(path).suffix.lower() == ".csv" else "json"


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dumps_json(obj: Any, compact: bool = False) -> str:
    """Serialize as strict JSON; a NaN or infinity raises NumericalError."""
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **layout) + "\n"
    except ValueError as exc:
        raise NumericalError(f"cannot write a non-finite number as JSON: {exc}") from exc


def write_json(path: str | Path, obj: Any, compact: bool = False) -> None:
    atomic_write_text(path, dumps_json(obj, compact=compact))


def write_csv(
    path: str | Path,
    fieldnames: Sequence[str],
    rows: Iterable[Mapping[str, Any]],
    config: Mapping[str, Any] | None = None,
) -> None:
    """Write rows as CSV; an optional config echo goes in a leading comment."""
    atomic_write_text(path, csv_text(fieldnames, rows, config))


def csv_text(
    fieldnames: Sequence[str],
    rows: Iterable[Mapping[str, Any]],
    config: Mapping[str, Any] | None = None,
) -> str:
    lines = []
    if config is not None:
        lines.append("# config: " + json.dumps(config, sort_keys=True))
    lines.append(",".join(fieldnames))
    for row in rows:
        lines.append(",".join(fmt_num(row[k]) for k in fieldnames))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graphs


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}


def write_graph(path: str | Path, g: Graph) -> None:
    """Write a graph file; graphs have no CSV form, so a path that
    :func:`output_format` maps to CSV raises ValidationError."""
    if output_format(path) == "csv":
        raise ValidationError(f"graph files are JSON only; {path} names a CSV file")
    write_json(path, graph_to_dict(g), compact=True)


def read_graph(path: str | Path) -> Graph:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read graph file {path}: {exc}") from exc
    try:  # Graph checks the indices and weights; its ValidationError is a ValueError
        return Graph(data["n"], tuple((i, j, w) for i, j, w in data["edges"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed graph file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# signals


def signal_to_dict(sig: SignalNd) -> dict:
    # the float view holds each value as its (re, im) pair, signed zeros included
    return {"shape": list(sig.shape), "data": sig.values.view(float).reshape(-1, 2).tolist()}


def signal_text(sig: SignalNd, fmt: str = "json", compact: bool = True) -> str:
    """The text of a JSON or CSV signal file; JSON is indented unless ``compact``."""
    if fmt == "json":
        return dumps_json(signal_to_dict(sig), compact=compact)
    if fmt != "csv":
        raise ValidationError(f"unknown signal format {fmt!r}; choose csv or json")
    return "\n".join(fmt_num(v.real) if v.imag == 0.0 else repr(complex(v)) for v in sig.values) + "\n"


def write_signal(path: str | Path, sig: SignalNd, fmt: str | None = None) -> None:
    """Write a signal as JSON or CSV, chosen by :func:`output_format`."""
    atomic_write_text(path, signal_text(sig, output_format(path, fmt)))


def _json_values(data) -> np.ndarray:
    """Complex values of a JSON signal's ``data``: a list of [re, im] pairs of
    numbers, or a list of real numbers. Raises ValueError for anything else."""
    values = np.array(data)
    if values.dtype.kind not in "fiu" or values.ndim == 0 or values.shape[1:] not in ((), (2,)):
        raise ValueError("data must be a list of [re, im] pairs or a list of real numbers")
    return values.astype(float).view(complex).ravel() if values.ndim == 2 else values.astype(complex)


def read_signal(path: str | Path, shape: Sequence[int] | None = None) -> SignalNd:
    """Read a signal file; CSV needs ``shape`` unless the signal is 1-D.

    Raises ValidationError for unreadable or malformed files, a shape
    mismatch, sizes that are not positive integers, and values that are not
    finite.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read signal file {path}: {exc}") from exc
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
            file_shape = tuple(data["shape"])  # SignalNd checks each size
            values = _json_values(data["data"])
        except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
            raise ValidationError(f"malformed signal file {path}: {exc}") from exc
        if shape is not None and tuple(shape) != file_shape:
            raise ValidationError(
                f"signal file {path} has shape {file_shape}, expected {tuple(shape)}"
            )
    else:
        try:
            values = np.array(
                [complex(line.strip()) for line in text.splitlines() if line.strip()],
                dtype=complex,
            )
        except ValueError as exc:
            raise ValidationError(f"malformed signal file {path}: {exc}") from exc
        file_shape = tuple(shape) if shape is not None else (values.size,)
    if not np.isfinite(values).all():
        raise ValidationError(f"signal file {path} contains a non-finite value")
    return SignalNd(file_shape, values)
