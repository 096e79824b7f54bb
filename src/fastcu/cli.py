"""Command-line front end: demos, net and quasigroup builds, compilation, verification.

Every run is deterministic given its flags and seed.  Outputs are JSON bundles
(schema above each writer) or tidy CSV for plotting; summaries go to stdout.
Exit codes: 0 all checks pass, 1 a bound or invariant failed, 2 usage, IO (a
missing, unreadable or unwritable path) or a malformed bundle (invalid JSON or
UTF-8 included).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from . import serialize
from .algebra import certify_approx_rep, ordinary_rep, right_quasigroup_from_table
from .approx_protocol import dilation_error
from .compiler import (CompileTargets, certified_bound, compile_target, error_budget, normalize_su,
                       scan_degrees)
from .demos import EXACT_DEMOS, exact_demo_instance
from .errors import DimensionMismatch, FastcuError, NetTooLarge, NotRightQuasigroup, SchemaMismatch
from .exact_protocol import QuasigroupProtocolSpec, run_exact_protocol
from .net import DEFAULT_CAP, advisory_m, build_net
from .qgbuilder import FamilyGeometry, _matching_pass, assemble_quasigroup
from .qsim import RegisterLayout, operator_norms, random_pure_state
from .serialize import _NUMBER, _field

DEMO_TRIALS = 50


def _bounded(kind, low, strict: bool = False):
    """An argparse type: a finite ``kind`` value of at least ``low`` (above it when ``strict``)."""
    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'above' if strict else 'at least'} {low}, got {text}")
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value
    return parse


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fastcu", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("exact-demo", help="run a named exact-protocol demo")
    d.add_argument("name", choices=sorted(EXACT_DEMOS))
    d.add_argument("--seed", type=_bounded(int, 0), default=0)    # numpy seeds are non-negative
    d.add_argument("--out", default=None)

    n = sub.add_parser("net-build", help="build a word net and emit its cache")
    n.add_argument("--d", type=_bounded(int, 2), default=2)
    n.add_argument("--m", type=_bounded(int, 1), required=True)
    n.add_argument("--cap", type=_bounded(int, 1), default=DEFAULT_CAP)
    n.add_argument("--out", default=None)

    q = sub.add_parser("qg-build", help="assemble a right quasigroup over a net")
    q.add_argument("--d", type=_bounded(int, 2), default=2)
    q.add_argument("--m", type=_bounded(int, 1), required=True)
    q.add_argument("--eta", type=_bounded(float, 0.0, strict=True), required=True)
    q.add_argument("--cap", type=_bounded(int, 1), default=DEFAULT_CAP)
    q.add_argument("--out", default=None)

    c = sub.add_parser("compile", help="compile a controlled unitary from a representation JSON")
    c.add_argument("input", help="path to {'dim':..., 'matrices':[...]} for the controlled blocks")
    c.add_argument("--zeta-target", type=float, default=None)
    c.add_argument("--eta", type=float, default=None, help="eta target")
    c.add_argument("--delta-target", type=float, default=None)
    c.add_argument("--epsilon-target", type=float, default=None)
    c.add_argument("--cap", type=_bounded(int, 1), default=DEFAULT_CAP)
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
    _emit(doc, args.out)
    print(f"{args.name}: N={doc['N']} cost={doc['cost_ebits']:.6f} ebits "
          f"max_dev={doc['max_branch_deviation']:.3e} "
          f"uniformity={doc['uniformity_error']:.3e} over {DEMO_TRIALS} inputs")
    return 0 if _demo_ok(doc) else 1


def cmd_net_build(args) -> int:
    net = build_net(args.d, args.m, cap=args.cap)
    _emit(serialize.net_to_json(net), args.out)
    print(f"net d={args.d} m={args.m}: size={net.size} mixing_bound={net.mixing_bound:.6f} "
          f"cost={math.log2(net.size):.4f} ebits")
    return 0


def _qg_bundle(built) -> dict:
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "quasigroup",
        "N": built.quasigroup.order,
        "eta": built.eta,
        "delta_cert": built.certificate.delta_cert,
        "table": built.quasigroup.table.tolist(),
        "net": serialize.net_to_json(built.net),
        "matched_counts": built.matched_counts.tolist(),
    }


def cmd_qg_build(args) -> int:
    net = build_net(args.d, args.m, cap=args.cap)
    built = assemble_quasigroup(net, args.eta)
    _emit(_qg_bundle(built), args.out)
    print(f"quasigroup N={net.size} eta={args.eta}: delta_cert={built.certificate.delta_cert:.6f} "
          f"(matching bound {built.delta_from_matching:.6f})")
    return 0


def cmd_compile(args) -> int:
    doc = serialize.load_json(args.input)
    blocks = serialize.rep_from_json(doc)
    target = normalize_su(blocks)
    result = compile_target(target, args.targets, cap=args.cap)
    plan, report = result.plan, result.report
    built = plan.built
    _emit({
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "compile",
        "target": {"dim": target.d_b,
                   "input": serialize.complex_to_pairs(blocks),
                   "matrices": serialize.complex_to_pairs(target.blocks),
                   "phases": target.phases.tolist()},
        "targets": dataclasses.asdict(args.targets),
        "plan": {
            "m": plan.m,
            "eta": built.eta,
            "delta_cert": built.certificate.delta_cert,
            "zeta": plan.zeta,
            "zetas": list(plan.zetas),
            "assignment": list(plan.assignment),
            "table": built.quasigroup.table.tolist(),
            "net": serialize.net_to_json(built.net),
        },
        "report": dataclasses.asdict(report),
        "scan": [dataclasses.asdict(p) for p in result.scan_trace],
    }, args.out)
    advisory = advisory_m(target.d_b, plan.zeta) if 0 < plan.zeta < 1 else None
    print(f"compiled at m={plan.m}: zeta={plan.zeta:.4f} eta={built.eta:.4f} "
          f"delta_cert={built.certificate.delta_cert:.4f} cost={report.cost_ebits:.4f} ebits")
    print(f"measured diamond bound {report.diamond_bound_measured:.4f} <= "
          f"certified {report.certified_error_bound:.4f}"
          + (f" (advisory degree {advisory})" if advisory is not None else ""))
    return 0


def _fail(name: str, detail: str) -> int:
    print(f"FAIL {name}: {detail}")
    return 1


def _verify_table_and_net(table, net_doc: dict, eta: float, delta_cert: float):
    """The bundle's quasigroup, family and recounted certificate at ``eta``, or None after
    printing the failed check; the recount must reproduce ``delta_cert``.

    The family is loaded with the table order as its cap: a bundle built with
    ``--cap`` above the default verifies without a flag, and a family larger
    than the table fails before it is built.
    """
    try:
        quasigroup = right_quasigroup_from_table(table)
    except (NotRightQuasigroup, DimensionMismatch) as exc:
        _fail("axioms", str(exc))
        return None
    n = quasigroup.order
    print(f"ok axioms: all {n} columns are permutations")
    try:
        net = serialize.net_from_json(net_doc, cap=n)
        if net.size != n:
            raise DimensionMismatch(f"net size {net.size} does not match table order {n}")
    except (NetTooLarge, DimensionMismatch) as exc:
        _fail("net", str(exc))
        return None
    cert = certify_approx_rep(net.matrices, quasigroup, eta)
    if abs(cert.delta_cert - delta_cert) > 1e-12:
        _fail("recount", f"stored delta_cert={delta_cert} but recount={cert.delta_cert}")
        return None
    print(f"ok recount: delta_cert={cert.delta_cert:.6f}")
    return quasigroup, net, cert


def _verify_quasigroup_bundle(doc: dict) -> int:
    for name, kind in (("N", int), ("eta", _NUMBER), ("delta_cert", _NUMBER)):
        _field(doc, name, kind)
    _field(doc, "matched_counts", list, int)
    loaded = _verify_table_and_net(_field(doc, "table", list), _field(doc, "net", dict),
                                   doc["eta"], doc["delta_cert"])
    if loaded is None:
        return 1
    quasigroup, net, cert = loaded
    n = quasigroup.order
    if doc["N"] != n:
        return _fail("order", f"stored N={doc['N']} but the table has order {n}")
    geom = FamilyGeometry.of(net)
    sizes = _matching_pass(geom, doc["eta"], want_columns=False, reject_above=None)[0]
    matched = sizes[geom.classes]
    delta_matching = (n - int(matched.min())) / n
    if not np.array_equal(np.asarray(doc["matched_counts"]), matched):
        return _fail("matching", "stored matched_counts differ from the recomputed matching sizes")
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


def _verify_scan(rows: list[dict], blocks: np.ndarray, targets: CompileTargets, plan: dict,
                 net) -> int:
    """Re-run the compiler's degree search (``scan_degrees``) on degrees 1, ..., plan m, each
    point's matching pass without columns.  Every stored point must equal its rerun, the
    search accepts the plan's degree at the plan's eta, and each assigned label lies in the
    family class of the rerun's nearest label."""
    def rerun(fam, eta, bound):     # the compile's matching pass without columns: (accepted, delta)
        _, _, worst, complete = _matching_pass(FamilyGeometry.of(fam), eta, want_columns=False,
                                               reject_above=bound)
        return complete or None, worst

    trace = []
    families = ((m, net if m == net.m else build_net(net.d, m)) for m in range(1, plan["m"] + 1))
    found = scan_degrees(blocks, targets, families, rerun, trace)
    if len(rows) != len(trace):
        return _fail("scan", f"{len(rows)} points stored but {len(trace)} re-derived")
    for i, (row, point) in enumerate(zip(rows, trace)):
        for name, value in _scan_row(dataclasses.asdict(point)).items():
            if not np.isclose(row[name], value, rtol=0.0, atol=1e-12, equal_nan=True):
                return _fail("scan", f"point {i}: stored {name}={row[name]} but re-derived {value}")
    if found is None or found[0] != plan["m"] or abs(trace[-1].eta - plan["eta"]) > 1e-12:
        return _fail("scan", f"the scan does not accept degree {plan['m']} at eta={plan['eta']}")
    print(f"ok scan: {len(rows)} points re-derived, degree {plan['m']} accepted")
    nearest = [r.label for r in found[1]]
    for i, (label, want) in enumerate(zip(plan["assignment"], nearest)):
        if net.classes[label] != net.classes[want]:
            return _fail("assignment", f"block {i} is assigned label {label}, outside the class "
                                       f"of its nearest label {want}")
    print("ok assignment: every block is assigned its nearest element")
    return 0


def _compile_targets(doc: dict) -> CompileTargets:
    """The bundle's targets: every field a number, or null for the mode not used."""
    stored = _field(doc, "targets", dict)
    values = {k: None if stored.get(k, 0) is None else _field(stored, f"targets.{k}", _NUMBER)
              for k in ("zeta", "eta", "delta", "epsilon")}
    try:
        return CompileTargets(**values)
    except DimensionMismatch as exc:
        raise SchemaMismatch(f"bundle field 'targets' is not a target set: {exc}") from None


def _square_blocks(target: dict, name: str) -> np.ndarray:
    blocks = serialize.pairs_to_complex(_field(target, f"target.{name}", list))
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise SchemaMismatch(f"bundle field 'target.{name}' must be a stack of square blocks, "
                             f"got shape {blocks.shape}")
    return blocks


def _verify_compile_bundle(doc: dict) -> int:
    plan = _field(doc, "plan", dict)
    for name, kind in (("m", int), ("eta", _NUMBER), ("delta_cert", _NUMBER), ("zeta", _NUMBER)):
        _field(plan, f"plan.{name}", kind)
    _field(plan, "plan.zetas", list, _NUMBER)
    _field(plan, "plan.assignment", list, int)
    stored_report = _field(doc, "report", dict)
    targets = _compile_targets(doc)
    target = _field(doc, "target", dict)
    blocks, given = (_square_blocks(target, name) for name in ("matrices", "input"))
    dim = _field(target, "target.dim", int)
    phases = _field(target, "target.phases", list, _NUMBER)
    scan = [_scan_row(p) for p in _field(doc, "scan", list, dict)]
    loaded = _verify_table_and_net(_field(plan, "plan.table", list), _field(plan, "plan.net", dict),
                                   plan["eta"], plan["delta_cert"])
    if loaded is None:
        return 1
    quasigroup, net, cert = loaded
    if plan["m"] != net.m:
        return _fail("degree", f"stored m={plan['m']} but the family has degree {net.m}")

    if len(plan["assignment"]) != len(blocks):
        return _fail("assignment", f"{len(plan['assignment'])} labels for {len(blocks)} blocks")
    if dim != blocks.shape[-1] or len(phases) != len(blocks) or not np.isfinite(phases).all():
        return _fail("target", f"dim={dim}, phases={phases} for blocks of shape {blocks.shape}")
    try:
        derived = normalize_su(given)
    except FastcuError as exc:          # a block that is not unitary
        return _fail("target", f"target.input: {exc}")
    if derived.blocks.shape != blocks.shape or max(np.abs(derived.blocks - blocks).max(),
                                                   np.abs(derived.phases - phases).max()) > 1e-12:
        return _fail("target", "target.matrices and target.phases are not the normalized input")
    print("ok target: the blocks and phases are the normalized input")
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

    goals = [("zeta", zetas.max(), targets.zeta), ("eta", plan["eta"], targets.eta),
             ("delta_cert", cert.delta_cert, targets.delta),
             ("certified bound", report.certified_error_bound, targets.epsilon)]
    for name, value, goal in goals:
        if goal is not None and value > goal + 1e-9:      # None: a target of the other mode
            return _fail("targets", f"{name}={value} exceeds its target {goal}")
    print("ok targets: the plan meets every target within 1e-9")
    return _verify_scan(scan, blocks, targets, plan, net)


def _verify_exact_demo_bundle(doc: dict) -> int:
    """Re-run the demo from its example, seed and trials; no stored number is evidence."""
    for name, kind in (("N", int), ("cost_ebits", _NUMBER), ("max_branch_deviation", _NUMBER),
                       ("uniformity_error", _NUMBER)):
        _non_negative(doc, name, kind)
    _field(doc, "S", list, int)
    trials, seed = _field(doc, "trials", int), _non_negative(doc, "seed", int)
    if not 1 <= trials <= DEMO_TRIALS:
        return _fail("record", f"trials={trials!r} is not an integer in 1..{DEMO_TRIALS}")
    redo = _exact_demo_bundle(_field(doc, "example", str), seed, trials)
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


def _read_bundle(path: str, readers: dict, action: str):
    """Hand the bundle at ``path`` to the reader of its kind, after checking that it
    is a JSON object, then its ``schema_version``, then its ``kind``."""
    doc = serialize.load_json(path)
    serialize._check_version(doc, "bundle")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in readers:
        raise SchemaMismatch(f"cannot {action} bundle of kind {kind!r}")
    return readers[kind](doc)


def cmd_verify(args) -> int:
    return _read_bundle(args.bundle, {"quasigroup": _verify_quasigroup_bundle,
                                      "compile": _verify_compile_bundle,
                                      "exact-demo": _verify_exact_demo_bundle}, "verify")


def _non_negative(doc: dict, path: str, kind):
    """The ``_field`` at ``path``; a negative value makes the bundle malformed."""
    value = _field(doc, path, kind)
    if value < 0:
        raise SchemaMismatch(f"bundle field {path!r} must be a non-negative "
                             f"{'integer' if kind is int else 'number'}, got {value}")
    return value


def _scan_row(p: dict) -> dict:
    """A compile scan point; a degree rejected before matching has null eta and delta."""
    eta, delta = (math.nan if p.get(k, 0) is None else read(p, f"scan.{k}", _NUMBER)
                  for k, read in (("eta", _field), ("delta", _non_negative)))
    zeta = _field(p, "scan.zeta", _NUMBER)
    return {"m": _field(p, "scan.m", int), "eta": eta, "zeta": zeta, "delta": delta,
            "cost_ebits": _field(p, "scan.cost_ebits", _NUMBER),
            "error_bound": certified_bound(zeta, eta, delta),
            "accepted": int(_field(p, "scan.accepted", bool))}


def _quasigroup_row(doc: dict) -> dict:
    n = _field(doc, "N", int)
    if n < 1:
        raise SchemaMismatch(f"bundle field 'N' must be a positive order, got {n}")
    eta, delta = _field(doc, "eta", _NUMBER), _non_negative(doc, "delta_cert", _NUMBER)
    return {"m": _field(_field(doc, "net", dict), "net.m", int), "eta": eta,
            "zeta": math.nan, "delta": delta, "cost_ebits": math.log2(n),
            "error_bound": certified_bound(0.0, eta, delta), "accepted": 1}


def cmd_report(args) -> int:
    rows = _read_bundle(args.bundle, {
        "compile": lambda doc: [_scan_row(p) for p in _field(doc, "scan", list, dict)],
        "quasigroup": lambda doc: [_quasigroup_row(doc)]}, "report on")
    fields = ["m", "eta", "zeta", "delta", "cost_ebits", "error_bound", "accepted"]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "compile":       # a bad target set is a usage error, found before any work
        try:
            args.targets = CompileTargets(zeta=args.zeta_target, eta=args.eta,
                                          delta=args.delta_target, epsilon=args.epsilon_target)
        except DimensionMismatch as exc:
            parser.error(str(exc))
    handlers = {
        "exact-demo": cmd_exact_demo,
        "net-build": cmd_net_build,
        "qg-build": cmd_qg_build,
        "compile": cmd_compile,
        "verify": cmd_verify,
        "report": cmd_report,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: leave quietly, with nothing left to flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (SchemaMismatch, OSError) as exc:   # after BrokenPipeError, itself an OSError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FastcuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
