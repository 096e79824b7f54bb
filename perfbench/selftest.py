"""Seconds-long self-test of the benchmark at small size (m <= 3).

    python3 perfbench/selftest.py

Shows three things and exits 0 when all hold:

* tampered outputs (a swapped table entry, an altered violation count, a
  measured gap above its bound) are each caught and counted as a failed
  operation, while the untampered outputs pass;
* a missing trace hook is reported, not raised, and only its metrics go;
* every metric named in BENCHMARK.json, the workload's own name for
  ``run_s`` and ``fail_rate`` are printed by ``run.py`` on every workload.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402  (also puts src/ on the path)

run.load_program()

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[selftest] {'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def counted_failures(output, check, host) -> tuple[int, list[str]]:
    """Run one operation whose call returns ``output`` through the real pass loop."""
    result = run.run_pass([Op("tampered", lambda: output, check)], host)
    return result.failed, result.notes


def swapped_entry(built):
    q = built.quasigroup
    table = q.table.copy()
    k1, k2 = 0, next(k for k in range(1, q.order) if table[0, k] != table[0, 0])
    table[0, k1], table[0, k2] = table[0, k2], table[0, k1]
    return dataclasses.replace(built, quasigroup=dataclasses.replace(q, table=table))


def altered_count(built, label: int):
    cert = built.certificate
    counts = cert.per_k_violation_count.copy()
    counts[label] += 1
    return dataclasses.replace(built, certificate=dataclasses.replace(
        cert, per_k_violation_count=counts))


def gap_above_bound(result):
    report = result.report
    return dataclasses.replace(result, report=dataclasses.replace(
        report, diamond_bound_measured=report.certified_error_bound + 0.05))


def test_tampering(host) -> None:
    build_op = workloads.make_qg_build(0, "small")[0]
    built = build_op.call()
    failed, _ = counted_failures(built, build_op.check, host)
    expect(failed == 0, "untampered quasigroup build passes its checks")
    failed, notes = counted_failures(swapped_entry(built), build_op.check, host)
    expect(failed == 1, f"swapped table entry counted as a failed operation: {notes}")
    n = built.quasigroup.order
    label = int(workloads._sample(0, n, 16)[0])
    failed, notes = counted_failures(altered_count(built, label), build_op.check, host)
    expect(failed == 1, f"altered violation count counted as a failed operation: {notes}")

    compile_op = workloads.WORKLOADS["compile-m4"].make(0, "small")[0]
    result = compile_op.call()
    expect(result.plan.m <= 3, f"small compile lands at m={result.plan.m} <= 3")
    failed, _ = counted_failures(result, compile_op.check, host)
    expect(failed == 0, "untampered compile passes its checks")
    failed, notes = counted_failures(gap_above_bound(result), compile_op.check, host)
    expect(failed == 1, f"measured gap above its bound counted as a failed operation: {notes}")

    def boom():
        raise RuntimeError("program error")

    failed = run.run_pass([Op("raises", boom, compile_op.check)], host).failed
    expect(failed == 1, "a raising program call is counted as a failed operation")


def test_missing_hook(host) -> None:
    renamed = tracing.Hook("qgbuilder.max_flow", "fastcu.qgbuilder:_solve_class_flow_renamed")
    gone = tracing.Hook("qgbuilder.gone", "fastcu.no_such_module:helper")
    hooks = tuple(h for h in tracing.HOOKS if h.span != "qgbuilder.max_flow") + (renamed, gone)
    tracer = tracing.Tracer()
    failed, raised = -1, None
    try:
        tracer.install(hooks)
        tracer.phase = "pass"
        failed = run.run_pass(workloads.make_qg_build(0, "small"), host, tracer).failed
    except Exception as exc:  # the point of the test is that nothing gets here
        raised = exc
    finally:
        tracer.uninstall()
    expect(raised is None and failed == 0, "traced pass with missing hooks runs and passes")
    expect(set(tracer.missing) == {renamed.target, gone.target},
           f"missing hooks reported: {tracer.missing}")
    metrics = tracer.layer_metrics(hooks)
    expect("qgbuilder.max_flow_s" not in metrics and "qgbuilder.max_flow_calls" not in metrics,
           "metrics of the missing hook are left out")
    expect(metrics.get("qgbuilder.expand_column_calls", 0) > 0,
           "metrics of the hooks in place are still reported")
    import fastcu.qgbuilder as qgb

    expect(not hasattr(qgb._matching_pass, "__wrapped__"), "uninstall restores the program")


def test_metrics_printed() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"] for m in bench[key]}
        for w in bench["workloads"]:
            name = w["name"]
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                   "--seconds", "0", "--trace", str(trace), "--size", "small"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
            got = set(result.get("metrics", {}))
            expect(result.get("correct") is True and got == want,
                   f"{name} --trace {trace}: correct, and prints {len(want)} metrics"
                   + (f"; missing {sorted(want - got)}, extra {sorted(got - want)}"
                      if got != want else ""))
            if trace == 0:
                text = "\n".join(lines[:-2])
                time_name = workloads.WORKLOADS[name].time_metric
                expect(all(f"  {n} " in text for n in (time_name, "fail_rate", *want)),
                       f"{name}: human-readable lines name {time_name}, fail_rate and units")


def main() -> int:
    with hostspeed.HostSpeed() as host:
        test_tampering(host)
        test_missing_hook(host)
    test_metrics_printed()
    print(f"[selftest] {'all passed' if not FAILURES else f'{len(FAILURES)} failed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
