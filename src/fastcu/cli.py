"""Command-line front end: demos, net and quasigroup builds, compilation, verification.

Every run is deterministic given its flags and seed.  Outputs are JSON bundles
(schema above each writer) or tidy CSV for plotting; summaries go to stdout.
Exit codes: 0 all checks pass, 1 a bound or invariant failed, 2 usage, IO or a
malformed bundle.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import serialize
from .algebra import certify_approx_rep, ordinary_rep, right_quasigroup_from_table
from .approx_protocol import QuasigroupProtocolSpec, dilation_error
from .compiler import CompileTargets, certified_bound, compile_target, error_budget, normalize_su
from .demos import EXACT_DEMOS, exact_demo_instance
from .errors import DimensionMismatch, FastcuError, NotRightQuasigroup, SchemaMismatch
from .exact_protocol import run_exact_protocol
from .net import DEFAULT_CAP, advisory_m, build_net, net_size
from .qgbuilder import FamilyGeometry, _matching_pass, assemble_quasigroup
from .qsim import RegisterLayout, operator_norms, random_pure_state

DEMO_TRIALS = 50


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fastcu", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("exact-demo", help="run a named exact-protocol demo")
    d.add_argument("name", choices=sorted(EXACT_DEMOS))
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default=None)

    n = sub.add_parser("net-build", help="build a word net and emit its cache")
    n.add_argument("--d", type=int, default=2)
    n.add_argument("--m", type=int, required=True)
    n.add_argument("--cap", type=int, default=DEFAULT_CAP)
    n.add_argument("--out", default=None)

    q = sub.add_parser("qg-build", help="assemble a right quasigroup over a net")
    q.add_argument("--d", type=int, default=2)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--cap", type=int, default=DEFAULT_CAP)
    q.add_argument("--out", default=None)

    c = sub.add_parser("compile", help="compile a controlled unitary from a representation JSON")
    c.add_argument("input", help="path to {'dim':..., 'matrices':[...]} for the controlled blocks")
    c.add_argument("--zeta-target", type=float, default=None)
    c.add_argument("--eta", type=float, default=None, help="eta target")
    c.add_argument("--delta-target", type=float, default=None)
    c.add_argument("--epsilon-target", type=float, default=None)
    c.add_argument("--cap", type=int, default=DEFAULT_CAP)
    c.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="re-run all checks against a saved bundle")
    v.add_argument("bundle")

    r = sub.add_parser("report", help="emit plot-ready CSV from a bundle")
    r.add_argument("bundle")
    r.add_argument("--out", required=True)
    return p


def _emit(doc: dict, out: str | None) -> None:
    if out:
        serialize.save_json(doc, out)
        print(f"wrote {out}")


def _exact_demo_bundle(name: str, seed: int, trials: int) -> dict:
    """Run a demo on ``trials`` seeded random inputs; the bundle holds the worst branch."""
    cgu = exact_demo_instance(name)
    rng = np.random.default_rng(seed)
    layout = RegisterLayout.of(("A", cgu.d_a), ("B", cgu.d_b))
    worst_dev = 0.0
    worst_uni = 0.0
    for _ in range(trials):
        record = run_exact_protocol(cgu, random_pure_state(layout, rng))
        worst_dev = max(worst_dev, record.max_deviation)
        worst_uni = max(worst_uni, record.uniformity_error)
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "exact-demo",
        "example": name,
        "seed": seed,
        "trials": trials,
        "N": cgu.group.order,
        "S": list(cgu.subset),
        "cost_ebits": cgu.cost_ebits(),
        "max_branch_deviation": worst_dev,
        "uniformity_error": worst_uni,
    }


def _demo_ok(doc: dict) -> bool:
    return doc["max_branch_deviation"] <= 1e-9 and doc["uniformity_error"] <= 1e-10


def cmd_exact_demo(args) -> int:
    doc = _exact_demo_bundle(args.name, args.seed, DEMO_TRIALS)
    print(f"{args.name}: N={doc['N']} cost={doc['cost_ebits']:.6f} ebits "
          f"max_dev={doc['max_branch_deviation']:.3e} "
          f"uniformity={doc['uniformity_error']:.3e} over {DEMO_TRIALS} inputs")
    _emit(doc, args.out)
    return 0 if _demo_ok(doc) else 1


def cmd_net_build(args) -> int:
    net = build_net(args.d, args.m, cap=args.cap)
    print(f"net d={args.d} m={args.m}: size={net.size} mixing_bound={net.mixing_bound:.6f} "
          f"cost={math.log2(net.size):.4f} ebits")
    if args.out:
        serialize.save_json(serialize.net_to_json(net), args.out)
        print(f"wrote {args.out}")
    return 0


def _qg_bundle(built, d: int, m: int) -> dict:
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "quasigroup",
        "N": built.quasigroup.order,
        "eta": built.eta,
        "delta_cert": built.certificate.delta_cert,
        "table": built.quasigroup.table.tolist(),
        "net": {"d": d, "m": m},
        "matched_counts": built.matched_counts.tolist(),
    }


def cmd_qg_build(args) -> int:
    net = build_net(args.d, args.m, cap=args.cap)
    built = assemble_quasigroup(net, args.eta)
    print(f"quasigroup N={net.size} eta={args.eta}: delta_cert={built.certificate.delta_cert:.6f} "
          f"(matching bound {built.delta_from_matching:.6f})")
    _emit(_qg_bundle(built, args.d, args.m), args.out)
    return 0


def cmd_compile(args) -> int:
    doc = serialize.load_json(args.input)
    blocks = serialize.rep_from_json(doc)
    target = normalize_su(blocks)
    targets = CompileTargets(zeta=args.zeta_target, eta=args.eta,
                             delta=args.delta_target, epsilon=args.epsilon_target)
    result = compile_target(target, targets, cap=args.cap)
    plan, report = result.plan, result.report
    advisory = advisory_m(target.d_b, plan.zeta) if 0 < plan.zeta < 1 else None
    print(f"compiled at m={plan.m}: zeta={plan.zeta:.4f} eta={plan.eta:.4f} "
          f"delta_cert={plan.delta_cert:.4f} cost={report.cost_ebits:.4f} ebits")
    print(f"measured diamond bound {report.diamond_bound_measured:.4f} <= "
          f"certified {report.certified_error_bound:.4f}"
          + (f" (advisory degree {advisory})" if advisory is not None else ""))
    bundle = {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "compile",
        "target": {"dim": target.d_b,
                   "matrices": serialize.complex_to_pairs(target.blocks),
                   "phases": target.phases.tolist()},
        "plan": {
            "m": plan.m,
            "eta": plan.eta,
            "delta_cert": plan.delta_cert,
            "zeta": plan.zeta,
            "zetas": list(plan.zetas),
            "assignment": list(plan.assignment),
            "table": plan.built.quasigroup.table.tolist(),
            "net": {"d": plan.net.d, "m": plan.net.m},
        },
        "report": dataclasses.asdict(report),
        "scan": [{"m": p.m, "eta": p.eta, "zeta": p.zeta, "delta": p.delta,
                  "cost_ebits": p.cost_ebits, "accepted": p.accepted}
                 for p in result.scan_trace],
    }
    _emit(bundle, args.out)
    return 0


def _fail(name: str, detail: str) -> int:
    print(f"FAIL {name}: {detail}")
    return 1


_NUMBER = (int, float)
_JSON_NAMES = {int: "integer", _NUMBER: "number", str: "string", list: "list", dict: "object"}


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _field(doc: dict, path: str, kind, items=None):
    """The bundle field at dotted ``path`` (its last part a key of ``doc``), type-checked.

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


def _verify_table_and_net(table, net_doc: dict):
    """The bundle's quasigroup and family, or None after printing the failed check.

    The family is rebuilt with the table order as its cap, so a bundle built
    with ``--cap`` above the default verifies without a flag.
    """
    try:
        quasigroup = right_quasigroup_from_table(table)
    except (NotRightQuasigroup, DimensionMismatch) as exc:
        _fail("axioms", str(exc))
        return None
    n = quasigroup.order
    print(f"ok axioms: all {n} columns are permutations")
    d, m = _field(net_doc, "net.d", int), _field(net_doc, "net.m", int)
    if net_size(d, m) != n:
        _fail("net", f"net size {net_size(d, m)} does not match table order {n}")
        return None
    return quasigroup, build_net(d, m, cap=n)


def _verify_quasigroup_bundle(doc: dict) -> int:
    for name, kind in (("N", int), ("eta", _NUMBER), ("delta_cert", _NUMBER)):
        _field(doc, name, kind)
    _field(doc, "matched_counts", list, int)
    loaded = _verify_table_and_net(_field(doc, "table", list), _field(doc, "net", dict))
    if loaded is None:
        return 1
    quasigroup, net = loaded
    n = quasigroup.order
    if doc["N"] != n:
        return _fail("order", f"stored N={doc['N']} but the table has order {n}")
    cert = certify_approx_rep(net.matrices, quasigroup, doc["eta"])
    if abs(cert.delta_cert - doc["delta_cert"]) > 1e-12:
        return _fail("recount", f"stored delta_cert={doc['delta_cert']} but recount={cert.delta_cert}")
    print(f"ok recount: delta_cert={cert.delta_cert:.6f}")
    geom = FamilyGeometry(net)
    sizes = _matching_pass(geom, doc["eta"], want_columns=False, reject_above=None)[0]
    matched = sizes[geom.classes]
    if not np.array_equal(np.asarray(doc["matched_counts"]), matched):
        return _fail("matching", "stored matched_counts differ from the recomputed matching sizes")
    delta_matching = (n - int(matched.min())) / n
    if cert.delta_cert > delta_matching + 1e-12:
        return _fail("matching", f"recounted delta_cert={cert.delta_cert} exceeds the matching "
                                 f"deficiency {delta_matching}")
    print(f"ok matching: matched counts recomputed, delta_cert <= deficiency {delta_matching:.6f}")
    spec = QuasigroupProtocolSpec(quasigroup, ordinary_rep(quasigroup, net.matrices),
                                  term_map=tuple(range(min(3, quasigroup.order))))
    rep = dilation_error(spec, doc["eta"], cert.delta_cert)
    if rep.measured > rep.certified_gap_bound + 1e-9:
        return _fail("dilation", f"measured {rep.measured} exceeds bound {rep.certified_gap_bound}")
    print(f"ok dilation: measured {rep.measured:.6f} <= bound {rep.certified_gap_bound:.6f}")
    return 0


def _verify_compile_bundle(doc: dict) -> int:
    plan = _field(doc, "plan", dict)
    for name, kind in (("m", int), ("eta", _NUMBER), ("delta_cert", _NUMBER), ("zeta", _NUMBER)):
        _field(plan, f"plan.{name}", kind)
    _field(plan, "plan.zetas", list, _NUMBER)
    _field(plan, "plan.assignment", list, int)
    stored_report = _field(doc, "report", dict)
    matrices = _field(_field(doc, "target", dict), "target.matrices", list)
    loaded = _verify_table_and_net(_field(plan, "plan.table", list), _field(plan, "plan.net", dict))
    if loaded is None:
        return 1
    quasigroup, net = loaded
    if plan["m"] != net.m:
        return _fail("degree", f"stored m={plan['m']} but the family has degree {net.m}")
    cert = certify_approx_rep(net.matrices, quasigroup, plan["eta"])
    if abs(cert.delta_cert - plan["delta_cert"]) > 1e-12:
        return _fail("recount", f"stored delta_cert={plan['delta_cert']} but recount={cert.delta_cert}")
    print(f"ok recount: delta_cert={cert.delta_cert:.6f}")

    blocks = serialize.pairs_to_complex(matrices)
    if len(plan["assignment"]) != len(blocks):
        return _fail("assignment", f"{len(plan['assignment'])} labels for {len(blocks)} blocks")
    spec = QuasigroupProtocolSpec(quasigroup, ordinary_rep(quasigroup, net.matrices),
                                  term_map=tuple(plan["assignment"]))
    zetas = operator_norms(blocks - spec.term_matrices())
    stored = np.asarray(plan["zetas"] + [plan["zeta"]], dtype=float)
    if stored.shape != (len(zetas) + 1,) or np.abs(stored - [*zetas, zetas.max()]).max() > 1e-12:
        return _fail("zeta", f"stored zetas={plan['zetas']}, zeta={plan['zeta']} but "
                             f"recomputed {zetas.tolist()}")
    print(f"ok zeta: every block within {zetas.max():.6f} of its element")

    try:
        report = error_budget(blocks, spec, plan["eta"], cert.delta_cert, net.m)
    except DimensionMismatch as exc:
        return _fail("budget", str(exc))
    recomputed = dataclasses.asdict(report)
    for name, value in recomputed.items():
        stored = _field(stored_report, f"report.{name}", _NUMBER)
        if abs(stored - value) > 1e-9:
            return _fail("report", f"stored {name}={stored} but recomputed {value}")
    if set(stored_report) != set(recomputed):
        return _fail("report", f"stored fields {sorted(stored_report)}, expected {sorted(recomputed)}")
    print(f"ok report: every stored field matches; measured {report.diamond_bound_measured:.6f} "
          f"<= certified {report.certified_error_bound:.6f}, cost {report.cost_ebits:.6f} ebits")
    return 0


def _verify_exact_demo_bundle(doc: dict) -> int:
    """Re-run the demo from its example, seed and trials; no stored number is evidence."""
    for name, kind in (("N", int), ("cost_ebits", _NUMBER), ("max_branch_deviation", _NUMBER),
                       ("uniformity_error", _NUMBER)):
        _field(doc, name, kind)
    _field(doc, "S", list, int)
    trials = _field(doc, "trials", int)
    if trials < 1:
        return _fail("record", f"trials={trials!r} is not a positive integer")
    redo = _exact_demo_bundle(_field(doc, "example", str), _field(doc, "seed", int), trials)
    for name in ("N", "S"):
        if doc[name] != redo[name]:
            return _fail("instance", f"stored {name}={doc[name]} but the demo has {redo[name]}")
    for name in ("cost_ebits", "max_branch_deviation", "uniformity_error"):
        if abs(doc[name] - redo[name]) > 1e-9:
            return _fail("record", f"stored {name}={doc[name]} but recomputed {redo[name]}")
    print(f"ok record: N={redo['N']} S={redo['S']} cost={redo['cost_ebits']:.6f} ebits "
          f"over {redo['trials']} inputs")
    if not _demo_ok(redo):
        return _fail("exactness", f"max deviation {redo['max_branch_deviation']:.3e}, "
                                  f"uniformity error {redo['uniformity_error']:.3e}")
    print(f"ok exactness: dev={redo['max_branch_deviation']:.3e} "
          f"uniformity={redo['uniformity_error']:.3e}")
    return 0


def cmd_verify(args) -> int:
    doc = serialize.load_json(args.bundle)
    if not isinstance(doc, dict):
        raise SchemaMismatch("a bundle must be a JSON object")
    kind = doc.get("kind")
    if kind == "quasigroup":
        return _verify_quasigroup_bundle(doc)
    if kind == "compile":
        return _verify_compile_bundle(doc)
    if kind == "exact-demo":
        return _verify_exact_demo_bundle(doc)
    raise SchemaMismatch(f"cannot verify bundle of kind {kind!r}")


def cmd_report(args) -> int:
    doc = serialize.load_json(args.bundle)
    nan = float("nan")
    rows = []
    if doc.get("kind") == "compile":
        for p in doc["scan"]:
            eta, delta = (nan if p[k] is None else p[k] for k in ("eta", "delta"))
            rows.append({"m": p["m"], "eta": eta, "zeta": p["zeta"], "delta": delta,
                         "cost_ebits": p["cost_ebits"],
                         "error_bound": certified_bound(p["zeta"], eta, delta),
                         "accepted": int(p["accepted"])})
    elif doc.get("kind") == "quasigroup":
        rows.append({"m": doc["net"]["m"], "eta": doc["eta"], "zeta": nan,
                     "delta": doc["delta_cert"], "cost_ebits": math.log2(doc["N"]),
                     "error_bound": certified_bound(0.0, doc["eta"], doc["delta_cert"]),
                     "accepted": 1})
    else:
        raise SchemaMismatch(f"cannot report on bundle of kind {doc.get('kind')!r}")
    fields = ["m", "eta", "zeta", "delta", "cost_ebits", "error_bound", "accepted"]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "exact-demo": cmd_exact_demo,
        "net-build": cmd_net_build,
        "qg-build": cmd_qg_build,
        "compile": cmd_compile,
        "verify": cmd_verify,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except SchemaMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FastcuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
