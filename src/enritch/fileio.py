"""Loading and saving of the JSON document formats.

Formats (rationals serialize as "p/q", integers as "n", infinity as "inf";
quantale elements by name):

    quantale:  {"elements": [...], "leq": [[bool]], "tensor": [[name]],
                "unit": name, "involution": [name]}
    space:     {"points": [...], "alpha": [[value]]}
    radius:    {"r": value, "values": {point: value}}
    family:    {"r": value, "family": [{"point": name, "radius": value}]}
    functor:   {"map": {name: name}}

Malformed documents, and files that cannot be read or written, raise
``SchemaError`` with enough context to locate the problem; JSON syntax
errors carry their line and column.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from .errors import SchemaError
from .parmet import ParMetSpace, RadiusFunction
from .quantale import FiniteQuantale
from .rationals import ExtRat

__all__ = [
    "read_json",
    "file_digest",
    "load_quantale",
    "load_space",
    "load_radius_function",
    "dump_radius_function",
    "load_family",
    "load_mapping",
]


def read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def file_digest(path: str | Path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _require_keys(data: Any, keys: set[str], label: str) -> None:
    if not isinstance(data, dict):
        raise SchemaError(f"{label} must be a JSON object")
    missing = keys - set(data)
    if missing:
        raise SchemaError(f"{label} is missing keys: {sorted(missing)}")


def load_quantale(path: str | Path) -> FiniteQuantale:
    data = read_json(path)
    return FiniteQuantale.from_dict(data, name=Path(path).stem)


def load_space(path: str | Path) -> ParMetSpace:
    data = read_json(path)
    _require_keys(data, {"points", "alpha"}, "space document")
    points = data["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise SchemaError("space points must be a list of names")
    alpha_rows = data["alpha"]
    if not isinstance(alpha_rows, list) or not all(
        isinstance(row, list) for row in alpha_rows
    ):
        raise SchemaError("space alpha must be a list of rows")
    alpha = tuple(
        tuple(ExtRat.parse(cell) for cell in row) for row in alpha_rows
    )
    return ParMetSpace(tuple(points), alpha)


def load_radius_function(path: str | Path, space: ParMetSpace) -> RadiusFunction:
    data = read_json(path)
    _require_keys(data, {"r", "values"}, "radius-function document")
    values = data["values"]
    if not isinstance(values, dict):
        raise SchemaError("radius-function values must map point names to rationals")
    extra = set(values) - set(space.points)
    if extra:
        raise SchemaError(f"radius function names unknown points: {sorted(extra)}")
    missing = set(space.points) - set(values)
    if missing:
        raise SchemaError(f"radius function misses points: {sorted(missing)}")
    return RadiusFunction(
        ExtRat.parse(data["r"]),
        tuple(ExtRat.parse(values[p]) for p in space.points),
    )


def dump_radius_function(
    mu: RadiusFunction, space: ParMetSpace, path: str | Path
) -> None:
    try:
        Path(path).write_text(json.dumps(mu.to_dict(space), indent=2) + "\n")
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def load_family(path: str | Path, space: ParMetSpace) -> tuple[ExtRat, list[tuple[str, ExtRat]]]:
    data = read_json(path)
    _require_keys(data, {"r", "family"}, "family document")
    if not isinstance(data["family"], list):
        raise SchemaError("family must be a list of {point, radius} objects")
    family = []
    for i, item in enumerate(data["family"]):
        _require_keys(item, {"point", "radius"}, f"family entry {i}")
        if item["point"] not in space.points:
            raise SchemaError(f"family entry {i} names unknown point {item['point']!r}")
        family.append((item["point"], ExtRat.parse(item["radius"])))
    return ExtRat.parse(data["r"]), family


def load_mapping(path: str | Path) -> dict[str, str]:
    data = read_json(path)
    _require_keys(data, {"map"}, "functor document")
    mapping = data["map"]
    if not isinstance(mapping, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
    ):
        raise SchemaError("functor map must be an object of name-to-name entries")
    return dict(mapping)

