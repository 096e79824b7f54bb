"""Run one fastcu benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload qg-build --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

Run from the repository root; the program is imported from ``src/``.  The
workload repeats its seeded operations in passes until ``--seconds`` have
gone by (at least one pass) and reports the median pass.  Every output is
checked outside the timed region; a failed check or a raised error counts the
operation as failed.  The gated times, ``setup_s`` and ``run_s``, are corrected
for the host's drifting speed by a reference kernel timed between the calls
(see ``hostspeed``); the wall times are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
passes untraced, then set-up and one pass again with spans around the calls
into each module, reports the per-layer metrics and writes every span to
``.bench_build/perfbench/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run's metadata and every sample.
"""

import time

T0 = time.perf_counter()   # set-up time counts from here: imports, inputs, set-up builds

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import hostspeed  # noqa: E402

# One BLAS thread, like the single fastcu worker: with its default of one
# thread per core, OpenBLAS spins against any other busy process and the
# protocol-sim pass ran three times slower beside one on a 2-core machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# One CPU for this process and every process it starts, so that the host-speed
# helper (hostspeed.py) times the virtual CPU the program runs on: the host can
# slow one virtual CPU and not the other.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 7          # set-up is measured in this process and in six fresh ones
REF_EVERY_S = 1.0          # longest stretch of program calls between two host-speed samples
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "cost_ebits": "ebit",
    "certified_bound": "1", "measured_bound": "1", "delta_cert_mean": "1",
}


def load_program():
    """Import fastcu from this checkout's src/, or exit 2 when it is not there."""
    if not (SRC / "fastcu" / "__init__.py").is_file():
        print(f"perfbench: no fastcu sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import fastcu

    if Path(fastcu.__file__).resolve().parent != SRC / "fastcu":
        print(f"perfbench: imported fastcu from {fastcu.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


class Pass(NamedTuple):
    seconds: float                  # wall time of the timed program calls only
    corrected: float                # the same calls at the reference host speed
    attempted: int
    failed: int
    notes: list                     # "<operation>: <first problem>" per failed operation
    quality: dict                   # instance key -> quality numbers


def run_pass(ops, host, tracer=None) -> Pass:
    """Run every operation once; only the program calls are timed.

    The ``host`` kernel runs before the first call, after the last and
    between calls at least every ``REF_EVERY_S``; the calls in between are
    corrected by the mean of the two samples around them.
    """
    seconds = corrected = pending = 0.0
    ref = host.sample()
    last_ref = time.perf_counter()
    failed = 0
    notes: list[str] = []
    quality: dict[str, dict] = {}
    for i, op in enumerate(ops, 1):
        if tracer is not None:
            tracer.start_op(op.label)
            span = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            out, problems = op.call(), []
        except Exception as exc:  # a raising call is a failed operation; keep measuring
            out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - t0
        seconds += elapsed
        pending += elapsed
        if tracer is not None:
            tracer.end(span)
            tracer.active = False
        if not problems:
            try:
                problems, key, numbers = op.check(out)
            except Exception as exc:  # a check that cannot run marks the output failed
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if i == len(ops) or time.perf_counter() - last_ref >= REF_EVERY_S:
            after = host.sample()
            corrected += hostspeed.corrected(pending, ref, after)
            ref, pending, last_ref = after, 0.0, time.perf_counter()
        if tracer is not None:
            tracer.active = True
        if problems:
            failed += 1
            notes.append(f"{op.label}: {problems[0]}")
        else:
            quality[key] = numbers
        del out
    return Pass(seconds, corrected, len(ops), failed, notes, quality)


def run_passes(ops, host, seconds: float):
    """Passes until ``seconds`` have gone by, at least one."""
    start = time.perf_counter()
    passes = [run_pass(ops, host)]
    while time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, host))
    return passes


def quality_means(passes) -> dict[str, float]:
    """Mean of each quality number over distinct instances."""
    merged: dict[str, dict] = {}
    for p in passes:
        merged.update(p.quality)
    names = {name for numbers in merged.values() for name in numbers}
    out = {}
    for metric in sorted(names):
        values = [q[metric] for q in merged.values() if metric in q]
        out[metric] = sum(values) / len(values)
    return out


def child_setup_seconds(args) -> float:
    """Set-up wall time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=20, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process has loaded, by library file."""
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def metadata(args) -> dict:
    import numpy
    import scipy

    return {"git_revision": git_revision(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "openblas_threads": blas_threads(), "workers": 1,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "size": args.size, "trace": args.trace}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "ratio" if name.endswith("_ratio") else "count"


def measure(args, ops, setup_s, host):
    """Untraced run: the end-to-end metrics."""
    ref = host.sample()
    setups = [(setup_s, ref, ref)]
    passes = run_passes(ops, host, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = host.sample()
    for _ in range(SETUP_SAMPLES - 1):
        wall = child_setup_seconds(args)
        after = host.sample()
        setups.append((wall, ref, after))
        ref = after
    quality = quality_means(passes)
    samples = {"setup_s": [hostspeed.corrected(*s) for s in setups],
               "setup_wall_s": [s[0] for s in setups],
               "run_s": [p.corrected for p in passes], "run_wall_s": [p.seconds for p in passes]}
    values = {"setup_s": statistics.median(samples["setup_s"]),
              "run_s": statistics.median(samples["run_s"]), "peak_rss_mb": peak_mb, **quality}
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()
               if k in values}
    others = {k: {"value": v, "unit": "1"} for k, v in quality.items() if k not in END_TO_END}
    for name in ("setup_wall_s", "run_wall_s"):
        others[name] = {"value": statistics.median(samples[name]), "unit": "s"}
    return passes, metrics, samples, {"other_metrics": others}


def measure_traced(args, workload, ops, host):
    """Traced run: untraced passes for the baseline, then set-up and one traced pass."""
    import tracing

    passes = run_passes(ops, host, args.seconds)
    baseline = statistics.median(p.corrected for p in passes)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_op("setup")
        span = tracer.begin("setup")
        traced_ops = workload.make(args.seed, args.size)
        tracer.end(span)
        tracer.phase = "pass"
        traced = run_pass(traced_ops, host, tracer)
    finally:
        tracer.uninstall()
    passes.append(traced)
    values = tracer.layer_metrics()
    _, own, _ = tracer.totals(phase="pass")
    values.update({"trace.overhead_s": traced.corrected - baseline,
                   "trace.overhead_est_s": len(tracer.spans) * tracing.span_cost(),
                   "trace.wall_s": traced.seconds,
                   "trace.unattributed_s": own["op"], "trace.spans": float(len(tracer.spans)),
                   "trace.missing_hooks": float(len(tracer.missing))})
    metrics = {k: {"value": float(v), "unit": layer_unit(k)} for k, v in values.items()}
    samples = {"untraced_pass_s": [p.seconds for p in passes[:-1]],
               "untraced_corrected_s": [p.corrected for p in passes[:-1]],
               "traced_pass_s": [traced.seconds], "traced_corrected_s": [traced.corrected]}
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.dump(path, metadata(args))
    extra = {"trace_file": str(path.relative_to(ROOT)), "missing_hooks": tracer.missing}
    return passes, metrics, samples, extra


def run_all(args) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    import workloads

    worst = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-2]), flush=True)
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            worst = max(worst, done.returncode or 1)
            continue
        result = json.loads(lines[-1])
        worst = max(worst, 0 if result["correct"] else 1)
        rows.append((name, result))
    for name, result in rows:
        cells = ", ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {cells}")
    return worst


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="'small' shrinks every workload to m <= 3 (self-test)")
    p.add_argument("--setup-only", action="store_true",
                   help="stop when the inputs are ready and print the set-up time")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.make(args.seed, args.size)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with hostspeed.HostSpeed() as host:
        if args.trace:
            passes, metrics, samples, extra = measure_traced(args, workload, ops, host)
        else:
            passes, metrics, samples, extra = measure(args, ops, setup_s, host)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    notes = [n for p in passes for n in p.notes]

    print(f"perfbench {args.workload}: seed {args.seed}, {len(passes)} passes of "
          f"{passes[0].attempted} operations, {failed}/{attempted} failed")
    named = dict(metrics)
    named.update(extra.pop("other_metrics", {}))
    if "run_wall_s" in named:
        named[workload.time_metric] = named["run_wall_s"]
    named["fail_rate"] = {"value": failed / attempted, "unit": "ratio"}
    for name, m in named.items():
        count = len(samples.get(name, samples.get("run_s", [])))
        tail = f"  (median of {count})" if name in ("setup_s", "run_s", "setup_wall_s",
                                                     "run_wall_s", workload.time_metric) else ""
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}{tail}")
    for note in notes[:10]:
        print(f"  FAILED {note}")
    for hook in extra.get("missing_hooks", []):
        print(f"  MISSING HOOK {hook} (its metrics are left out)")
    detail = {"meta": metadata(args), "samples": samples,
              "sample_counts": {k: len(v) for k, v in samples.items()},
              "metrics": named, "failures": notes[:50], **extra}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
