"""JSON round trips for representations and nets."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from fastcu import net, qsim, serialize
from fastcu.errors import NetTooLarge, SchemaMismatch


def test_complex_pair_roundtrip():
    rng = np.random.default_rng(60)
    a = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    pairs = serialize.complex_to_pairs(a)
    back = serialize.pairs_to_complex(pairs)
    assert np.array_equal(a, back)


def test_rep_roundtrip_and_validation():
    rng = np.random.default_rng(62)
    mats = np.stack([qsim.haar_unitary(3, rng) for _ in range(4)])
    doc = serialize.rep_to_json(mats)
    assert doc["dim"] == 3
    back = serialize.rep_from_json(doc)
    assert np.array_equal(back, mats)
    doc["dim"] = 2
    with pytest.raises(SchemaMismatch):
        serialize.rep_from_json(doc)


@pytest.mark.parametrize("dim, mats", [(True, np.ones((1, 1, 1))), (2.0, np.stack([np.eye(2)]))],
                         ids=["true-for-1x1", "float-for-2x2"])
def test_rep_json_refuses_a_dim_that_is_no_integer(dim, mats):
    doc = dict(serialize.rep_to_json(mats), dim=dim)
    with pytest.raises(SchemaMismatch, match="'representation.dim' must be a JSON integer"):
        serialize.rep_from_json(doc)


@pytest.mark.parametrize("data", [[[None, 0.0]], [["x", 0.0]], [[1.0, 0.0], [1.0]], 1.0,
                                  [[float("nan"), 0.0]]])
def test_pairs_to_complex_rejects_malformed_entries(data):
    with pytest.raises(SchemaMismatch):
        serialize.pairs_to_complex(data)


@pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (3, 1)])
def test_net_roundtrip_exact(d, m):
    fam = net.build_net(d, m)
    back = serialize.net_from_json(serialize.net_to_json(fam))
    assert back.size == fam.size
    assert np.array_equal(back.matrices, fam.matrices)
    assert back.mixing_bound == pytest.approx(fam.mixing_bound)


def test_net_custom_roundtrip(regular_rep_net):
    _, fam = regular_rep_net
    back = serialize.net_from_json(serialize.net_to_json(fam))
    assert np.array_equal(back.matrices, fam.matrices)
    assert not back.is_word_built


@pytest.mark.parametrize("custom", [False, True], ids=["words", "custom"])
def test_net_roundtrip_keeps_matrices_and_classes_bitwise(custom):
    fam = net.build_net(2, 3)
    if custom:
        fam = net.NetFamily.from_unitaries(fam.matrices)
    back = serialize.net_from_json(serialize.net_to_json(fam))
    assert back.matrices.tobytes() == fam.matrices.tobytes()
    assert np.array_equal(back.classes, fam.classes) and back.n_classes == fam.n_classes == 156


def test_word_net_json_is_d_and_m_and_reloads_bitwise():
    fam = net.build_net(2, 5)
    doc = serialize.net_to_json(fam)
    assert doc == {"schema_version": serialize.SCHEMA_VERSION, "kind": "words", "d": 2, "m": 5}
    assert len(json.dumps(doc)) < 100
    back = serialize.net_from_json(doc)
    assert back.matrices.tobytes() == fam.matrices.tobytes()
    assert back.classes.tobytes() == fam.classes.tobytes()


def test_net_json_refuses_fields_beyond_d_and_m():
    doc = serialize.net_to_json(net.build_net(2, 1))
    with pytest.raises(SchemaMismatch, match="'elements'"):
        serialize.net_from_json(dict(doc, elements=[]))
    with pytest.raises(SchemaMismatch, match="unknown kind"):
        serialize.net_from_json(dict(doc, kind="word"))


def test_oversized_net_json_fails_before_building():
    start = time.perf_counter()
    for m in (40, 10 ** 9):
        with pytest.raises(NetTooLarge):
            serialize.net_from_json({"d": 2, "m": m})
    with pytest.raises(NetTooLarge):
        serialize.net_from_json({"d": 2, "m": 2}, cap=71)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("key, value", [("d", 2.7), ("d", "2"), ("d", True), ("m", 1.9),
                                        ("m", True), ("m", None), ("m", ...)])
def test_net_json_refuses_mistyped_d_and_m(key, value):
    doc = {"d": 2, "m": 1}
    if value is ...:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(SchemaMismatch, match=f"bundle field 'net.{key}' must be a JSON integer"):
        serialize.net_from_json(doc)


@pytest.mark.parametrize("loader, doc", [
    (serialize.rep_from_json, {"dim": 2}),
], ids=["representation"])
def test_loaders_refuse_missing_and_mistyped_fields(loader, doc):
    with pytest.raises(SchemaMismatch, match="must be a JSON list"):
        loader(doc)


def test_schema_version_checked():
    with pytest.raises(SchemaMismatch, match="unsupported schema_version"):
        serialize.rep_from_json({"schema_version": "999", "dim": 2,
                                 "matrices": serialize.complex_to_pairs(np.eye(2)[None])})
