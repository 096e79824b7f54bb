"""Command-line front end: demos, builds, compile, verify, report."""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fastcu import algebra, cli, compiler, net, qsim, serialize
from fastcu.approx_protocol import QuasigroupProtocolSpec


def test_exact_demo_all_names(tmp_path, capsys):
    for name, cost in [("pauli-klein4", 2.0), ("pauli-subset", 2.0),
                       ("c3-subset", np.log2(3))]:
        out = tmp_path / f"{name}.json"
        assert cli.main(["exact-demo", name, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["cost_ebits"] == pytest.approx(cost, abs=1e-12)
        assert doc["max_branch_deviation"] <= 1e-9
        assert doc["trials"] == 50
        assert cli.main(["verify", str(out)]) == 0


def test_unknown_demo_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["exact-demo", "nope"])
    assert err.value.code == 2


def test_net_build_and_cache(tmp_path):
    out = tmp_path / "net.json"
    assert cli.main(["net-build", "--m", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    fam = serialize.net_from_json(doc)
    assert fam.size == 72


def test_qg_build_verify_roundtrip_and_corruption(tmp_path, capsys):
    out = tmp_path / "qg.json"
    assert cli.main(["qg-build", "--m", "1", "--eta", "1.1", "--out", str(out)]) == 0
    assert cli.main(["verify", str(out)]) == 0

    doc = json.loads(out.read_text())
    doc["table"][0][3] = doc["table"][1][3]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 1
    assert "column 3" in capsys.readouterr().out

    doc = json.loads(out.read_text())
    doc["table"][0][3], doc["table"][1][3] = doc["table"][1][3], doc["table"][0][3]


def test_verify_rejects_non_integer_table_entries(tmp_path, capsys):
    out = tmp_path / "qg.json"
    assert cli.main(["qg-build", "--m", "1", "--eta", "1.1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["table"][0][0] += 0.75      # truncates back to the original entry
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 1
    assert "FAIL axioms: table entries must be integers" in capsys.readouterr().out


def test_verify_rejects_boolean_table_entries(tmp_path, capsys):
    out = tmp_path / "qg.json"
    assert cli.main(["qg-build", "--m", "1", "--eta", "1.1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["table"][1][0] == 1
    doc["table"][1][0] = True       # numpy would read it back as 1
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 1
    assert "FAIL axioms: table entries must be integers, got a boolean" in capsys.readouterr().out


def test_qg_build_verify_rejects_lowered_delta(tmp_path, capsys):
    out = tmp_path / "qg.json"
    assert cli.main(["qg-build", "--m", "1", "--eta", "0.8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["delta_cert"] > 0
    doc["delta_cert"] = doc["delta_cert"] / 2
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 1
    assert "recount" in capsys.readouterr().out


@pytest.fixture(scope="module")
def qg_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("qg") / "qg.json"
    assert cli.main(["qg-build", "--m", "1", "--eta", "0.8", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _verify_doc(doc: dict, path, capsys) -> tuple[int, str]:
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = cli.main(["verify", str(path)])
    return rc, capsys.readouterr().out


def _reversed_rows(doc: dict) -> None:
    """Reverse every column of the table (still permutations) and store its recount."""
    doc["table"] = doc["table"][::-1]
    quasigroup = algebra.right_quasigroup_from_table(np.asarray(doc["table"]))
    doc["delta_cert"] = algebra.certify_approx_rep(
        net.build_net(2, 1).matrices, quasigroup, doc["eta"]).delta_cert


@pytest.mark.parametrize("tamper, expected", [
    (lambda doc: doc.update(N=999), "FAIL order"),
    (lambda doc: doc.update(matched_counts=[0] * doc["N"]), "FAIL matching"),
    (lambda doc: doc["matched_counts"].__setitem__(5, doc["matched_counts"][5] - 1),
     "FAIL matching"),
    (_reversed_rows, "FAIL matching: recounted delta_cert"),
], ids=["order", "zero-counts", "one-count", "table-above-deficiency"])
def test_verify_rederives_qg_order_and_matching(qg_bundle, tmp_path, capsys, tamper, expected):
    doc = json.loads(json.dumps(qg_bundle))
    assert _verify_doc(doc, tmp_path / "qg.json", capsys)[0] == 0
    tamper(doc)
    rc, out = _verify_doc(doc, tmp_path / "qg.json", capsys)
    assert rc == 1
    assert expected in out


def test_compile_verify_report_flow(tmp_path):
    rng = np.random.default_rng(70)
    blocks = np.stack([qsim.haar_special_unitary(2, rng) for _ in range(2)])
    target = tmp_path / "target.json"
    serialize.save_json(serialize.rep_to_json(blocks), target)
    bundle = tmp_path / "bundle.json"
    rc = cli.main(["compile", str(target), "--zeta-target", "0.9", "--eta", "1.4",
                   "--delta-target", "0.5", "--out", str(bundle)])
    assert rc == 0
    assert cli.main(["verify", str(bundle)]) == 0

    csv_path = tmp_path / "plot.csv"
    assert cli.main(["report", str(bundle), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "m,eta,zeta,delta,cost_ebits,error_bound,accepted"
    assert len(lines) >= 2
    # deltas for fixed m are non-increasing as eta grows
    rows = [line.split(",") for line in lines[1:]]
    by_m: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        if r[1] != "nan" and r[3] != "nan":
            by_m.setdefault(r[0], []).append((float(r[1]), float(r[3])))
    for pts in by_m.values():
        pts.sort()
        for (e1, d1), (e2, d2) in zip(pts, pts[1:]):
            assert d1 >= d2 - 1e-12


def test_compile_epsilon_flag(tmp_path):
    rng = np.random.default_rng(71)
    blocks = np.stack([qsim.haar_special_unitary(2, rng)])
    target = tmp_path / "target.json"
    serialize.save_json(serialize.rep_to_json(blocks), target)
    rc = cli.main(["compile", str(target), "--epsilon-target", "3.9"])
    assert rc == 0


def test_missing_file_is_io_error(tmp_path, capsys):
    assert cli.main(["verify", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["verify", str(bad)]) == 2


def _write_non_utf8_bundle(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "quasigroup", "note": "\u00e9"}'.encode("latin-1"))
    return ["verify", str(path)]


@pytest.mark.parametrize("argv, reason", [
    (lambda tmp_path: ["verify", str(tmp_path)], "Is a directory"),
    (lambda tmp_path: ["net-build", "--m", "1", "--out", str(tmp_path)], "Is a directory"),
    (_write_non_utf8_bundle, "not valid JSON ('utf-8' codec can't decode"),
], ids=["verify-a-directory", "net-build-out-a-directory", "non-utf8-bundle"])
def test_unreadable_or_unwritable_path_is_io_error(tmp_path, capsys, argv, reason):
    assert cli.main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


def test_report_on_qg_bundle(tmp_path):
    out = tmp_path / "qg.json"
    assert cli.main(["qg-build", "--m", "1", "--eta", "1.1", "--out", str(out)]) == 0
    csv_path = tmp_path / "row.csv"
    assert cli.main(["report", str(out), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2


def _compile_seeded_bundle(root):
    """Compile two seeded blocks at (0.9, 1.4, 0.5): degree 1 is rejected on zeta, 2 accepted."""
    rng = np.random.default_rng(72)
    blocks = np.stack([qsim.haar_special_unitary(2, rng) for _ in range(2)])
    target = root / "target.json"
    serialize.save_json(serialize.rep_to_json(blocks), target)
    bundle = root / "bundle.json"
    assert cli.main(["compile", str(target), "--zeta-target", "0.9", "--eta", "1.4",
                     "--delta-target", "0.5", "--out", str(bundle)]) == 0
    return bundle


@pytest.fixture(scope="module")
def compile_bundle(tmp_path_factory):
    return json.loads(_compile_seeded_bundle(tmp_path_factory.mktemp("compile")).read_text())


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_bundle_with_rejected_degree_is_strict_json_and_reports(tmp_path):
    bundle = _compile_seeded_bundle(tmp_path)
    doc = json.loads(bundle.read_text(), parse_constant=_reject_constant)
    rejected = [p["m"] for p in doc["scan"] if p["eta"] is None]
    assert rejected == [1] and doc["scan"][0]["delta"] is None
    assert cli.main(["verify", str(bundle)]) == 0
    csv_path = tmp_path / "scan.csv"
    assert cli.main(["report", str(bundle), "--out", str(csv_path)]) == 0
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert [(r["eta"], r["delta"], r["error_bound"]) for r in rows[:1]] == [("nan",) * 3]
    assert float(rows[1]["error_bound"]) == pytest.approx(doc["report"]["certified_error_bound"])


@pytest.mark.parametrize("field", ["gap_target_plan", "gap_plan_actual", "gap_target_actual",
                                   "diamond_bound_measured", "certified_error_bound",
                                   "cost_ebits"])
@pytest.mark.parametrize("scale", [0.0, 1.5])
def test_verify_rejects_tampered_report(compile_bundle, tmp_path, capsys, field, scale):
    doc = json.loads(json.dumps(compile_bundle))
    assert doc["report"][field] > 0
    doc["report"][field] *= scale
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 1
    assert f"FAIL report: stored {field}=" in capsys.readouterr().out


def _raise_smallest_zeta(plan):
    zetas = plan["zetas"]
    i = zetas.index(min(zetas))
    assert zetas[i] + 0.01 < max(zetas)       # the stored maximum stays right
    zetas[i] += 0.01


@pytest.mark.parametrize("tamper, expected", [
    pytest.param(lambda plan: plan.update(zeta=plan["zeta"] - 0.05), "FAIL zeta", id="-0.05"),
    pytest.param(lambda plan: plan.update(zeta=plan["zeta"] + 0.5), "FAIL zeta", id="0.5"),
    pytest.param(_raise_smallest_zeta, "FAIL zeta", id="smallest-of-zetas"),
    pytest.param(lambda plan: plan.update(m=plan["m"] - 1), "FAIL degree", id="plan-m"),
    pytest.param(lambda plan: plan.update(assignment=plan["assignment"][:1]), "FAIL assignment",
                 id="short-assignment"),
])
def test_verify_rejects_tampered_zeta(compile_bundle, tmp_path, capsys, tamper, expected):
    doc = json.loads(json.dumps(compile_bundle))
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 0
    tamper(doc["plan"])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 1
    assert expected in capsys.readouterr().out


def _scan_point(i, **fields):
    return lambda doc: doc["scan"][i].update(fields)


def _target(**fields):
    return lambda doc: doc["target"].update(fields)


def _every_scan_number(doc):
    """Cheaper and closer scan points, and no accepted degree."""
    for point in doc["scan"]:
        point.update(cost_ebits=0.5, zeta=0.0)
    doc["scan"][-1]["accepted"] = False


@pytest.mark.parametrize("tamper, code, expected", [
    pytest.param(lambda doc: None, 0, "ok scan: 2 points re-derived", id="untampered"),
    pytest.param(_every_scan_number, 1, "FAIL scan", id="every-scan-number"),
    pytest.param(_scan_point(0, cost_ebits=0.5), 1, "FAIL scan", id="rejected-cost"),
    pytest.param(_scan_point(-1, cost_ebits=0.5), 1, "FAIL scan", id="accepted-cost"),
    pytest.param(_scan_point(0, zeta=0.0), 1, "FAIL scan", id="rejected-zeta"),
    pytest.param(_scan_point(-1, zeta=0.0), 1, "FAIL scan", id="accepted-zeta"),
    pytest.param(_scan_point(0, accepted=True), 1, "FAIL scan", id="rejected-accepted"),
    pytest.param(_scan_point(-1, accepted=False), 1, "FAIL scan", id="accepted-rejected"),
    pytest.param(_scan_point(-1, eta=1.0), 1, "FAIL scan", id="accepted-eta"),
    pytest.param(lambda doc: doc["scan"][-1].update(delta=doc["scan"][-1]["delta"] + 0.01), 1,
                 "FAIL scan", id="accepted-delta"),
    pytest.param(_scan_point(0, delta=1.5), 1, "FAIL scan", id="rejected-delta-above-one"),
    pytest.param(_scan_point(0, m=2), 1, "FAIL scan", id="rejected-m"),
    pytest.param(lambda doc: doc["scan"].pop(0), 1, "FAIL scan", id="dropped-degree"),
    pytest.param(_target(dim=7), 1, "FAIL target", id="dim"),
    pytest.param(_target(phases=[9.0]), 1, "FAIL target", id="one-phase"),
    pytest.param(lambda doc: doc["target"]["phases"].append(0.0), 1, "FAIL target",
                 id="extra-phase"),
    pytest.param(_target(phases=[float("nan")] * 2), 2, "not valid JSON (non-standard constant NaN)",
                 id="nan-phases"),
    pytest.param(_scan_point(0, cost_ebits="0.5"), 2, "'scan.cost_ebits'", id="cost-string"),
    pytest.param(_scan_point(-1, accepted=1), 2, "'scan.accepted'", id="accepted-integer"),
    pytest.param(_scan_point(-1, m=None), 2, "'scan.m'", id="m-null"),
])
def test_verify_rederives_scan_and_target(compile_bundle, tmp_path, capsys, tamper, code,
                                          expected):
    doc = json.loads(json.dumps(compile_bundle))
    assert [p["m"] for p in doc["scan"]] == [1, 2] and len(doc["target"]["phases"]) == 2
    tamper(doc)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == code
    captured = capsys.readouterr()
    assert expected in (captured.err if code == 2 else captured.out)


@pytest.fixture(scope="module")
def epsilon_bundle(tmp_path_factory):
    """The seed-0 Haar blocks compiled at epsilon = 3.0; its certified bound is 3 plus an ulp."""
    root = tmp_path_factory.mktemp("epsilon")
    rng = np.random.default_rng(0)
    blocks = np.stack([qsim.haar_unitary(2, rng) for _ in range(3)])
    target = root / "target.json"
    serialize.save_json(serialize.rep_to_json(blocks), target)
    bundle = root / "bundle.json"
    assert cli.main(["compile", str(target), "--epsilon-target", "3.0", "--out", str(bundle)]) == 0
    return json.loads(bundle.read_text())


def test_verify_rederives_an_epsilon_scan_with_several_points_per_degree(epsilon_bundle, tmp_path,
                                                                         capsys):
    degrees = [p["m"] for p in epsilon_bundle["scan"]]
    assert degrees == sorted(degrees) and len(degrees) > len(set(degrees))
    assert epsilon_bundle["targets"] == {"zeta": None, "eta": None, "delta": None, "epsilon": 3.0}
    assert epsilon_bundle["report"]["certified_error_bound"] > 3.0
    rc, out = _verify_doc(epsilon_bundle, tmp_path / "bundle.json", capsys)
    assert rc == 0 and f"ok scan: {len(degrees)} points re-derived" in out


def _raise_first_rejected_delta(doc):
    point = next(p for p in doc["scan"] if p["delta"] is not None and not p["accepted"])
    point["delta"] += 0.01


@pytest.mark.parametrize("bundle, tamper, expected", [
    pytest.param("epsilon_bundle", _raise_first_rejected_delta, "FAIL scan: point 0: stored delta",
                 id="rejected-delta"),
    pytest.param("epsilon_bundle", lambda doc: doc["targets"].update(epsilon=2.9),
                 "FAIL targets: certified bound", id="epsilon"),
    pytest.param("compile_bundle", lambda doc: doc["targets"].update(zeta=0.01),
                 "FAIL targets: zeta", id="zeta"),
    pytest.param("compile_bundle", lambda doc: doc["targets"].update(eta=1.5),
                 "FAIL scan: point 1: stored eta", id="looser-eta"),
])
def test_verify_rederives_rejected_points_against_the_targets(request, tmp_path, capsys, bundle,
                                                              tamper, expected):
    doc = json.loads(json.dumps(request.getfixturevalue(bundle)))
    tamper(doc)
    rc, out = _verify_doc(doc, tmp_path / "bundle.json", capsys)
    assert rc == 1 and expected in out


@pytest.mark.parametrize("targets", [
    {"zeta": 0.9, "eta": 1.4, "delta": None, "epsilon": None},
    {"zeta": 0.9, "eta": 1.4, "delta": 0.5, "epsilon": 3.0},
    {"zeta": 0.9, "eta": 1.4, "delta": 0.5, "epsilon": "3"},
    {"zeta": 0.9, "eta": 1.4, "delta": 0.5},
], ids=["no-delta", "both-modes", "epsilon-string", "epsilon-missing"])
def test_verify_rejects_malformed_targets(compile_bundle, tmp_path, capsys, targets):
    doc = json.loads(json.dumps(compile_bundle))
    doc["targets"] = targets
    (tmp_path / "bundle.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "bundle.json")]) == 2
    assert "error: bundle field 'targets" in capsys.readouterr().err


def _shift_first_phase(doc):
    doc["target"]["phases"][0] += 0.01


def _scale_first_input_block(doc):
    doc["target"]["input"][0] = [[[2 * re, 2 * im] for re, im in row]
                                 for row in doc["target"]["input"][0]]


@pytest.mark.parametrize("tamper, code, expected", [
    pytest.param(lambda doc: None, 0, "ok target: the blocks and phases are the normalized input",
                 id="untampered"),
    pytest.param(_shift_first_phase, 1, "FAIL target: target.matrices and target.phases",
                 id="phase"),
    pytest.param(lambda doc: doc["target"]["input"].reverse(), 1,
                 "FAIL target: target.matrices and target.phases", id="input-order"),
    pytest.param(_scale_first_input_block, 1, "FAIL target: target.input: block 0 is not unitary",
                 id="input-not-unitary"),
    pytest.param(lambda doc: doc["target"]["input"].pop(), 1, "FAIL target", id="input-short"),
    pytest.param(lambda doc: doc["target"].update(input=[b[:1] for b in doc["target"]["input"]]),
                 2, "error: bundle field 'target.input' must be a stack of square blocks",
                 id="input-not-square"),
])
def test_verify_rederives_the_target_from_its_input(epsilon_bundle, tmp_path, capsys, tamper,
                                                    code, expected):
    """The stored blocks and phases must be ``normalize_su`` of the stored input blocks."""
    doc = json.loads(json.dumps(epsilon_bundle))
    assert max(np.abs(doc["target"]["phases"])) > 1.0     # Haar U(2) blocks: phases to re-derive
    tamper(doc)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == code
    captured = capsys.readouterr()
    assert expected in (captured.err if code == 2 else captured.out)


def test_verify_rejects_blocks_that_are_not_square(compile_bundle, tmp_path, capsys):
    doc = json.loads(json.dumps(compile_bundle))
    doc["target"]["matrices"] = [block[:1] for block in doc["target"]["matrices"]]   # 1 x 2
    (tmp_path / "bundle.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "bundle.json")]) == 2
    assert "error: bundle field 'target.matrices' must be a stack of square blocks" in \
        capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_quietly_after_writing_the_file(tmp_path, unbuffered):
    out = tmp_path / "n.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)          # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "fastcu.cli", "net-build", "--m", "2",
                               "--out", str(out)], stdout=write, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
    assert json.loads(out.read_text())["m"] == 2


def test_compile_bundle_carries_no_seed(compile_bundle):
    # compilation is deterministic in its inputs; no seed is read or recorded
    assert "seed" not in compile_bundle


@pytest.mark.parametrize("field, value", [("N", 8), ("S", [0, 1, 2]), ("cost_ebits", 1.0),
                                          ("max_branch_deviation", 0.5), ("trials", 0)])
def test_verify_reruns_exact_demo(tmp_path, capsys, field, value):
    out = tmp_path / "demo.json"
    assert cli.main(["exact-demo", "pauli-subset", "--seed", "3", "--out", str(out)]) == 0
    assert cli.main(["verify", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc[field] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_negative_demo_seed_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["exact-demo", "pauli-klein4", "--seed", "-1"])
    assert err.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
    out = tmp_path / "demo.json"
    assert cli.main(["exact-demo", "pauli-klein4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["seed"] = -1
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 2
    assert "error: bundle field 'seed' must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [cli.DEMO_TRIALS + 1, 10 ** 12])
def test_verify_bounds_demo_trials_before_running(tmp_path, capsys, monkeypatch, trials):
    out = tmp_path / "demo.json"
    assert cli.main(["exact-demo", "pauli-klein4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["trials"] = trials

    def refuse(*args):
        raise AssertionError("verify ran the demo")

    monkeypatch.setattr(cli, "_exact_demo_bundle", refuse)
    rc, stdout = _verify_doc(doc, out, capsys)
    assert rc == 1 and f"FAIL record: trials={trials} is not an integer in 1..50" in stdout


def _low_default_cap(monkeypatch):
    """Make the default cap of the build_net that loads bundle families 1, below every
    family; record the caps it gets."""
    real, caps = serialize.build_net, []

    def build_net(d, m, cap=1):
        caps.append(cap)
        return real(d, m, cap=cap)

    monkeypatch.setattr(serialize, "build_net", build_net)
    return caps


def test_verify_builds_the_family_at_the_table_order(tmp_path, monkeypatch, compile_bundle):
    out = tmp_path / "qg.json"
    assert cli.main(["qg-build", "--m", "1", "--eta", "1.1", "--out", str(out)]) == 0
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(compile_bundle))
    caps = _low_default_cap(monkeypatch)
    assert cli.main(["verify", str(out)]) == 0
    assert cli.main(["verify", str(bundle)]) == 0
    assert caps == [12, len(compile_bundle["plan"]["table"])]


@pytest.mark.parametrize("where", ["column", "range", "net", "net-huge"])
def test_verify_compile_bundle_rejects_bad_table(compile_bundle, tmp_path, capsys, where):
    doc = json.loads(json.dumps(compile_bundle))
    table = doc["plan"]["table"]
    if where == "column":
        table[0][3] = table[1][3]
    elif where == "range":
        table[2][5] = len(table)
    elif where == "net":
        doc["plan"]["net"]["m"] += 1
    else:
        doc["plan"]["net"]["m"] = 10 ** 6      # 6^(10^6) has too many digits to print
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert ("FAIL net" if where.startswith("net") else "FAIL axioms") in out
    if where == "column":
        assert "column 3" in out


@pytest.fixture(scope="module")
def demo_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "demo.json"
    assert cli.main(["exact-demo", "pauli-subset", "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("bundle, path", [
    ("qg_bundle", "matched_counts"), ("qg_bundle", "eta"), ("qg_bundle", "net.d"),
    ("compile_bundle", "plan.eta"), ("compile_bundle", "plan.assignment"),
    ("compile_bundle", "target.matrices"), ("compile_bundle", "report.cost_ebits"),
    ("compile_bundle", "target.dim"), ("compile_bundle", "target.phases"),
    ("compile_bundle", "target.input"),
    ("compile_bundle", "targets"),
    ("demo_bundle", "trials"), ("demo_bundle", "example"), ("demo_bundle", "cost_ebits"),
])
@pytest.mark.parametrize("how", ["missing", "wrong-type", "null"])
def test_verify_malformed_bundle_is_a_schema_error(request, tmp_path, capsys, bundle, path, how):
    doc = json.loads(json.dumps(request.getfixturevalue(bundle)))
    *parents, key = path.split(".")
    owner = doc
    for part in parents:
        owner = owner[part]
    if how == "missing":
        del owner[key]
    else:
        owner[key] = None if how == "null" else 2 if key == "example" else "2"
    out = tmp_path / "bundle.json"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 2
    assert f"error: bundle field '{path}' must be" in capsys.readouterr().err


def test_verify_accepts_any_label_of_an_assigned_class(compile_bundle, tmp_path):
    """Bundles may name any label of a term's class: they are one element, one matrix."""
    doc = json.loads(json.dumps(compile_bundle))
    fam = net.build_net(2, doc["plan"]["m"])
    first = doc["plan"]["assignment"][0]
    same = np.flatnonzero(fam.classes == fam.classes[first])
    assert first == same[0] and len(same) > 1     # a compile names the class's first label
    doc["plan"]["assignment"][0] = int(same[-1])
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 0


def test_verify_rederives_the_assignment(compile_bundle, tmp_path, capsys):
    """Block 0 moved to its nearest label outside its class, with zetas, zeta and report
    recomputed to match and still within the targets: only the rerun's nearest labels catch it."""
    doc = json.loads(json.dumps(compile_bundle))
    plan = doc["plan"]
    fam = net.build_net(2, plan["m"])
    blocks = serialize.pairs_to_complex(doc["target"]["matrices"])
    dist = qsim.operator_norms(blocks[0] - fam.matrices)
    dist[fam.classes == fam.classes[plan["assignment"][0]]] = np.inf
    plan["assignment"][0] = int(np.argmin(dist))
    quasigroup = algebra.right_quasigroup_from_table(np.asarray(plan["table"]))
    spec = QuasigroupProtocolSpec(quasigroup, algebra.ordinary_rep(quasigroup, fam.matrices),
                                  term_map=tuple(plan["assignment"]))
    zetas = qsim.operator_norms(blocks - spec.term_matrices())
    plan.update(zetas=zetas.tolist(), zeta=float(zetas.max()))
    doc["report"] = dataclasses.asdict(
        compiler.error_budget(blocks, spec, plan["eta"], plan["delta_cert"], plan["m"]))
    assert plan["zeta"] <= doc["targets"]["zeta"]
    rc, out = _verify_doc(doc, tmp_path / "bundle.json", capsys)
    assert rc == 1
    assert "ok report" in out and "ok scan" in out and "FAIL assignment: block 0" in out


@pytest.mark.parametrize("bundle, owner", [("qg_bundle", None), ("compile_bundle", "plan")])
def test_verify_accepts_a_bare_d_and_m_net(request, tmp_path, capsys, bundle, owner):
    """Bundles written before the net carried its schema_version and kind still verify."""
    doc = json.loads(json.dumps(request.getfixturevalue(bundle)))
    holder = doc[owner] if owner else doc
    assert holder["net"] == serialize.net_to_json(net.build_net(2, holder["net"]["m"]))
    holder["net"] = {"d": 2, "m": holder["net"]["m"]}
    assert _verify_doc(doc, tmp_path / "bundle.json", capsys)[0] == 0


def test_net_build_cache_is_d_and_m(tmp_path):
    out = tmp_path / "net.json"
    assert cli.main(["net-build", "--m", "5", "--out", str(out)]) == 0
    assert len(out.read_bytes()) < 100
    assert json.loads(out.read_text()) == {"schema_version": "1", "kind": "words", "d": 2, "m": 5}


def _set_version(value):
    return lambda doc: doc.update(schema_version=value)


def _drop_net_m(doc):
    del doc["net"]["m"]


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("tamper", [
    pytest.param(_set_version("x"), id="version-x"),
    pytest.param(_set_version(None), id="version-null"),
    pytest.param(_set_version([1]), id="version-list"),
    pytest.param(lambda doc: doc.update(kind=["quasigroup"]), id="kind-list"),
    pytest.param(lambda doc: doc.update(eta=None), id="eta-null"),
    pytest.param(lambda doc: doc.update(N="12"), id="N-string"),
    pytest.param(_drop_net_m, id="net-without-m"),
    pytest.param(lambda doc: [doc], id="top-level-list"),
    pytest.param(lambda doc: doc.update(delta_cert=float("nan")), id="delta-cert-nan"),
    pytest.param(lambda doc: doc.update(eta=float("inf")), id="eta-infinity"),
    pytest.param(lambda doc: doc.update(delta_cert=-float("inf")), id="delta-cert-minus-infinity"),
])
def test_malformed_qg_bundle_is_a_schema_error(qg_bundle, tmp_path, capsys, command, tamper):
    doc = json.loads(json.dumps(qg_bundle))
    doc = tamper(doc) or doc
    path = tmp_path / "qg.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = ["--out", str(tmp_path / "q.csv")] if command == "report" else []
    assert cli.main([command, str(path), *out]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("tamper", [
    lambda doc: doc.pop("scan"),
    lambda doc: doc["scan"][0].update(accepted=1),
    lambda doc: doc["scan"][0].update(zeta=None),
    lambda doc: doc["scan"].append(3),
], ids=["no-scan", "accepted-integer", "zeta-null", "scan-entry-number"])
def test_report_malformed_compile_bundle_is_a_schema_error(compile_bundle, tmp_path, capsys,
                                                           tamper):
    doc = json.loads(json.dumps(compile_bundle))
    tamper(doc)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["report", str(path), "--out", str(tmp_path / "s.csv")]) == 2
    assert "error: bundle field 'scan" in capsys.readouterr().err


COMPONENTS = ["--zeta-target", "0.6", "--eta", "0.3", "--delta-target", "0.4"]


@pytest.mark.parametrize("argv, reason", [
    (["compile", "BLOCKS"], "need positive zeta, eta and delta targets"),
    (["compile", "BLOCKS", *COMPONENTS, "--epsilon-target", "3"],
     "give either component targets or an epsilon target"),
    (["compile", "BLOCKS", "--zeta-target", "0", "--eta", "0.3", "--delta-target", "0.4"],
     "need positive zeta, eta and delta targets"),
    (["compile", "BLOCKS", "--epsilon-target", "-1"], "epsilon target must be positive"),
    (["compile", "BLOCKS", "--epsilon-target", "nan"], "targets must be finite"),
    (["compile", "BLOCKS", "--zeta-target", "inf", "--eta", "inf", "--delta-target", "inf"],
     "targets must be finite"),
    (["qg-build", "--m", "0", "--eta", "0.6"], "argument --m: must be at least 1, got 0"),
    (["qg-build", "--m", "2", "--eta", "0"], "argument --eta: must be above 0.0, got 0"),
    (["qg-build", "--m", "2", "--eta", "-0.5"], "argument --eta: must be above 0.0, got -0.5"),
    (["qg-build", "--m", "2", "--eta", "nan"], "argument --eta: must be above 0.0, got nan"),
    (["qg-build", "--m", "2", "--eta", "inf"], "argument --eta: must be finite, got inf"),
    (["net-build", "--m", "2", "--d", "1"], "argument --d: must be at least 2, got 1"),
    (["net-build", "--m", "2", "--cap", "0"], "argument --cap: must be at least 1, got 0"),
], ids=["compile-no-targets", "compile-both-modes", "compile-zero-zeta", "compile-negative-epsilon",
        "compile-epsilon-nan", "compile-components-inf", "qg-m0", "qg-eta0", "qg-eta-negative",
        "qg-eta-nan", "qg-eta-inf", "net-d1", "net-cap0"])
def test_bad_flag_values_are_usage_errors(tmp_path, capsys, monkeypatch, argv, reason):
    """Exit 2 with the reason on stderr, before any file is read or family built."""
    def build_net(*args, **kwargs):
        raise AssertionError("a family was built")

    for module in (cli, compiler):
        monkeypatch.setattr(module, "build_net", build_net)
    monkeypatch.setattr(serialize, "load_json", build_net)
    with pytest.raises(SystemExit) as err:
        cli.main([str(tmp_path / "blocks.json") if a == "BLOCKS" else a for a in argv])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert reason in stderr and "Traceback" not in stderr


def test_compile_hitting_the_cap_still_exits_1(tmp_path, capsys):
    blocks = tmp_path / "blocks.json"
    block = qsim.haar_unitary(2, np.random.default_rng(0))
    serialize.save_json(serialize.rep_to_json(block[None]), blocks)
    argv = ["compile", str(blocks), "--zeta-target", "1e-6", "--eta", "0.3",
            "--delta-target", "0.4", "--cap", "72"]
    assert cli.main(argv) == 1
    assert "exceeds the cap 72" in capsys.readouterr().err


@pytest.mark.parametrize("command, bundle, tamper, field", [
    ("verify", "epsilon_bundle", lambda doc: doc["scan"][0].update(delta=-0.5), "scan.delta"),
    ("report", "epsilon_bundle", lambda doc: doc["scan"][0].update(delta=-0.5), "scan.delta"),
    ("report", "qg_bundle", lambda doc: doc.update(delta_cert=-1), "delta_cert"),
], ids=["verify-compile-scan", "report-compile-scan", "report-qg"])
def test_negative_delta_is_a_schema_error(request, tmp_path, capsys, command, bundle, tamper,
                                          field):
    """A negative delta is malformed; sqrt(eta^2 + 4 delta) can have no value for it."""
    doc = json.loads(json.dumps(request.getfixturevalue(bundle)))
    tamper(doc)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = ["--out", str(tmp_path / "s.csv")] if command == "report" else []
    assert cli.main([command, str(path), *out]) == 2
    assert f"error: bundle field '{field}' must be a non-negative number" in capsys.readouterr().err


def _leaves(node, path=()):
    """(path, value) of every number and string leaf, through the first and last entry of
    each list."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, (*path, key))
    elif isinstance(node, list):
        for i in sorted({0, len(node) - 1}) if node else ():
            yield from _leaves(node[i], (*path, i))
    elif isinstance(node, (int, float, str)) and not isinstance(node, bool):
        yield path, node


def _tampered_values(value):
    """Ints moved by 1, floats by 0.05 and sign-flipped (unless zero), strings extended."""
    if isinstance(value, str):
        return [value + "x"]
    if isinstance(value, int):
        return [value + 1, value - 1]
    return [value + 0.05, value - 0.05] + ([-value] if value != 0 else [])


def _with_leaf(doc, path, value):
    """``doc`` with the leaf at ``path`` set to ``value``; only the containers on the path
    are copied."""
    if not path:
        return value
    out = copy.copy(doc)
    out[path[0]] = _with_leaf(doc[path[0]], path[1:], value)
    return out


def _eta_in_residual_gap(doc, eta):
    """Whether no residual ||V_l(j,k) V_k - V_j|| of a quasigroup bundle lies between its eta
    and ``eta``: the recount and the matching cannot tell the two apart."""
    q = algebra.right_quasigroup_from_table(doc["table"])
    mats = serialize.net_from_json(doc["net"]).matrices
    residuals = qsim.operator_norms(mats[q.left_div] @ mats[None] - mats[:, None])
    low, high = sorted((doc["eta"], eta))
    return not ((residuals >= low) & (residuals <= high)).any()


# inputs a rerun takes as given, so a changed value may still verify (README, verify)
SWEEP_INPUTS = {"compile": {"targets"}, "exact-demo": {"seed", "trials"}, "quasigroup": {"eta"}}


def test_verify_catches_every_leaf_tamper(epsilon_bundle, demo_bundle, tmp_path, monkeypatch,
                                          capsys):
    """Every sampled leaf of a compile, a quasigroup and an exact-demo bundle, changed,
    makes verify exit 1 or 2 without an exception, unless it is an input of the rerun.

    The tampered document is handed to ``cli.main(["verify", path])`` in place of the
    file's contents, so no JSON is written or parsed per case."""
    qg_path = tmp_path / "qg.json"
    assert cli.main(["qg-build", "--m", "1", "--eta", "1.1", "--out", str(qg_path)]) == 0
    bundles = [epsilon_bundle, json.loads(qg_path.read_text()), demo_bundle]
    snapshots = [json.dumps(doc) for doc in bundles]
    escaped, passed = [], []
    for doc in bundles:
        kind = doc["kind"]
        for path, value in _leaves(doc):
            for new in _tampered_values(value):
                tampered = _with_leaf(doc, path, new)
                monkeypatch.setattr(serialize, "load_json", lambda _, doc=tampered: doc)
                try:
                    code = cli.main(["verify", str(tmp_path / "tampered.json")])
                except Exception as exc:    # every escape is a finding
                    escaped.append((kind, path, new, repr(exc)))
                    continue
                allowed = path[0] in SWEEP_INPUTS[kind] and (
                    path != ("eta",) or _eta_in_residual_gap(doc, new))
                if code not in (1, 2) and not allowed:
                    passed.append((kind, path, new, code))
    capsys.readouterr()
    assert escaped == [] and passed == []
    assert [json.dumps(doc) for doc in bundles] == snapshots     # no shared container changed
