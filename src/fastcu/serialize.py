"""JSON schemas for representations, nets, and report bundles.

Complex numbers are [re, im] pairs throughout.  Every emitted document carries
``schema_version``; loaders check it and re-validate whatever they rebuild.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import SchemaMismatch
from .net import DEFAULT_CAP, NetFamily, build_net

SCHEMA_VERSION = "1"


def complex_to_pairs(array: np.ndarray) -> list:
    a = np.asarray(array, dtype=complex)
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def pairs_to_complex(data) -> np.ndarray:
    try:
        a = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise SchemaMismatch("complex entries must be [re, im] pairs of numbers") from None
    if a.ndim == 0 or a.shape[-1] != 2 or not np.isfinite(a).all():
        raise SchemaMismatch("complex entries must be [re, im] pairs of finite numbers")
    return a[..., 0] + 1j * a[..., 1]


_NUMBER = (int, float)
_JSON_NAMES = {int: "integer", _NUMBER: "number", str: "string", list: "list", dict: "object",
               bool: "boolean"}


def _is(value, kind) -> bool:
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _field(doc: dict, path: str, kind, items=None):
    """The field at dotted ``path`` (its last part a key of ``doc``), type-checked.

    A missing field, a null or a value of another JSON type (a boolean is no
    number) raises SchemaMismatch naming the field; ``items`` types the
    entries of a list.
    """
    key = path.rpartition(".")[2]
    value = doc.get(key)
    entries = value if items is not None and isinstance(value, list) else []
    if not _is(value, kind) or not all(_is(v, items) for v in entries):
        what = _JSON_NAMES[kind] + ("" if items is None else f" of {_JSON_NAMES[items]}s")
        got = json.dumps(value)[:40] if key in doc else "nothing"
        raise SchemaMismatch(f"bundle field {path!r} must be a JSON {what}, got {got}")
    return value


def _check_version(doc: dict, kind: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"{kind}: expected a JSON object")
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise SchemaMismatch(f"{kind}: unsupported schema_version {doc.get('schema_version')!r}")


def rep_to_json(matrices: np.ndarray) -> dict:
    mats = np.asarray(matrices, dtype=complex)
    return {"schema_version": SCHEMA_VERSION, "dim": mats.shape[-1],
            "matrices": complex_to_pairs(mats)}


def rep_from_json(doc: dict) -> np.ndarray:
    _check_version(doc, "representation")
    mats = pairs_to_complex(_field(doc, "representation.matrices", list))
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise SchemaMismatch(f"representation: expected square matrices, got {mats.shape}")
    if mats.shape[1] != _field(doc, "representation.dim", int):
        raise SchemaMismatch("representation: dim field disagrees with the matrices")
    return mats


def net_to_json(net: NetFamily) -> dict:
    """A word family is its (d, m), rebuilt on load; a custom family lists its matrices."""
    if net.is_word_built:
        return {"schema_version": SCHEMA_VERSION, "kind": "words", "d": net.d, "m": net.m}
    return {"schema_version": SCHEMA_VERSION, "kind": "custom", "d": net.d,
            "matrices": complex_to_pairs(net.matrices)}


def net_from_json(doc: dict, cap: int = DEFAULT_CAP) -> NetFamily:
    """The family of ``doc``; a word family is built by ``build_net(d, m, cap)``.

    A words document holds exactly ``schema_version``, ``kind``, ``d`` and ``m``
    (the first two may be absent); any other field is refused.
    """
    _check_version(doc, "net")
    kind = doc.get("kind", "words")
    d = _field(doc, "net.d", int)
    if kind == "custom":
        return NetFamily.from_unitaries(pairs_to_complex(_field(doc, "net.matrices", list)), d=d)
    if kind != "words":
        raise SchemaMismatch(f"net: unknown kind {kind!r}")
    extra = sorted(set(doc) - {"schema_version", "kind", "d", "m"})
    if extra:
        raise SchemaMismatch(f"net: a word family is its (d, m), but the document has {extra[0]!r}")
    return build_net(d, _field(doc, "net.m", int), cap=cap)


def save_json(doc: dict, path) -> None:
    """Write strict JSON: a NaN or infinity raises ValueError instead of leaving bare NaN."""
    Path(path).write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaMismatch(f"{path}: not valid JSON ({exc})") from None
