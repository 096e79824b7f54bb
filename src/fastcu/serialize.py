"""JSON schemas for structures, states, nets, and report bundles.

Complex numbers are [re, im] pairs throughout.  Every emitted document carries
``schema_version``; loaders check it and re-validate whatever they rebuild.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .algebra import (
    FiniteGroup,
    RightQuasigroup,
    group_from_cayley,
    right_quasigroup_from_table,
)
from .errors import SchemaMismatch
from .net import NetFamily, build_net, net_size
from .qsim import PureState, RegisterLayout

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


def _check_version(doc: dict, kind: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"{kind}: expected a JSON object")
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise SchemaMismatch(f"{kind}: unsupported schema_version {doc.get('schema_version')!r}")


def group_to_json(group: FiniteGroup, labels=None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "order": group.order,
           "cayley": group.cayley.tolist()}
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def group_from_json(doc: dict) -> FiniteGroup:
    _check_version(doc, "group")
    try:
        return group_from_cayley(doc["cayley"])
    except KeyError as exc:
        raise SchemaMismatch(f"group: missing field {exc}") from None


def quasigroup_to_json(q: RightQuasigroup) -> dict:
    return {"schema_version": SCHEMA_VERSION, "order": q.order, "table": q.table.tolist()}


def quasigroup_from_json(doc: dict) -> RightQuasigroup:
    _check_version(doc, "quasigroup")
    try:
        return right_quasigroup_from_table(doc["table"])
    except KeyError as exc:
        raise SchemaMismatch(f"quasigroup: missing field {exc}") from None


def rep_to_json(matrices: np.ndarray) -> dict:
    mats = np.asarray(matrices, dtype=complex)
    return {"schema_version": SCHEMA_VERSION, "dim": mats.shape[-1],
            "matrices": complex_to_pairs(mats)}


def rep_from_json(doc: dict) -> np.ndarray:
    _check_version(doc, "representation")
    try:
        mats = pairs_to_complex(doc["matrices"])
    except KeyError as exc:
        raise SchemaMismatch(f"representation: missing field {exc}") from None
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise SchemaMismatch(f"representation: expected square matrices, got {mats.shape}")
    if mats.shape[1] != doc.get("dim", mats.shape[1]):
        raise SchemaMismatch("representation: dim field disagrees with the matrices")
    return mats


def state_to_json(state: PureState) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "layout": [[n, d] for n, d in zip(state.layout.names, state.layout.dims)],
            "amps": complex_to_pairs(state.amps)}


def state_from_json(doc: dict) -> PureState:
    _check_version(doc, "state")
    try:
        layout = RegisterLayout.of(*[(str(n), int(d)) for n, d in doc["layout"]])
        return PureState(layout, pairs_to_complex(doc["amps"]))
    except KeyError as exc:
        raise SchemaMismatch(f"state: missing field {exc}") from None


def net_to_json(net: NetFamily) -> dict:
    """Word descriptions only; matrices are rebuilt and re-verified on load."""
    if not net.is_word_built:
        return {"schema_version": SCHEMA_VERSION, "kind": "custom", "d": net.d,
                "matrices": complex_to_pairs(net.matrices)}
    elements = [{"slots": [list(map(list, net.words[w].factors)) for w in spec.slot_words],
                 "inverted": spec.inverted}
                for spec in net.element_specs]
    return {"schema_version": SCHEMA_VERSION, "kind": "words", "d": net.d, "m": net.m,
            "elements": elements}


def net_from_json(doc: dict) -> NetFamily:
    _check_version(doc, "net")
    kind = doc.get("kind", "words")
    if kind == "custom":
        return NetFamily.from_unitaries(pairs_to_complex(doc["matrices"]), d=doc.get("d"))
    d, m = int(doc["d"]), int(doc["m"])
    elements = doc["elements"]
    if len(elements) != net_size(d, m):
        raise SchemaMismatch(
            f"net: {len(elements)} elements but degree {m} in dim {d} needs {net_size(d, m)}")
    net = build_net(d, m, cap=net_size(d, m))
    if elements != net_to_json(net)["elements"]:
        raise SchemaMismatch(f"net: the elements are not the degree-{m} word family in dim {d}")
    return net


def save_json(doc: dict, path) -> None:
    """Write strict JSON: a NaN or infinity raises ValueError instead of leaving bare NaN."""
    Path(path).write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"{path}: not valid JSON ({exc})") from None
