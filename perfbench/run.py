"""Desk benchmark for psf-matfunc.

    python3 perfbench/run.py --workload fourier-lcu --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --smoke      # one short pass each
    python3 perfbench/run.py --write-manifest            # regenerate BENCHMARK.json

One process runs one workload (see workloads.py) as a closed loop with one
client: the shuffled case list is run in whole passes, and a new pass starts
only while it is expected to end within --seconds (at least one pass runs).
BLAS threads are capped at the core count and PSF_MATFUNC_THREADS is left at
its default of 1.

--trace 0 reports the end-to-end metrics. Each case's latency is its median
over the passes; case_p50_ms and case_p90_ms are taken over the cases, and
cases_per_s is the case count over the sum of those latencies. setup_s is the
median wall time of several fresh processes that import the program, build
the inputs, run the warm-up cases and exit. --trace 1 alternates untraced
and traced passes and reports per-layer self time and counts (see
tracing.py), medians over the traced passes, and writes the spans under
.perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A case fails when its outcome class differs
from the expected one (result, PrecondError exit 2, NumericalError exit 3),
when it raises anything else, or when its result breaks its bound; `correct`
is false only for a broken bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. On a
# 2-core VM the time metrics spread 6-14% from run to run (quartile distance
# over median), as much as bare import time does, so the spread is the
# machine's and their bounds sit at the 0.25 the driver allows.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("case_p50_ms", "ms", "lower", 0.25),
    ("case_p90_ms", "ms", "lower", 0.25),
    ("cases_per_s", "1/s", "higher", 0.25),
    ("ok_frac", "ratio", "higher", 0.005),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
TRACE_EXTRA = (
    ("trace.overhead_frac", "ratio"),
    ("trace.pass_ms", "ms"),
    ("check.err_to_bound_max", "ratio"),
)


def _cap_threads() -> int:
    """Pin BLAS threads to the core count before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ.pop("PSF_MATFUNC_THREADS", None)
    return nproc


def _import_program():
    """Import the benchmark's workloads and the program from this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import psf_matfunc
        import workloads
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import psf_matfunc from "
                         f"{ROOT / 'src'}: {exc}")
    if Path(psf_matfunc.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"perfbench: psf_matfunc resolved to "
                         f"{psf_matfunc.__file__}, not this checkout")
    return workloads


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment(args, nproc: int) -> dict:
    import numpy
    import scipy
    from psf_matfunc.util import worker_count

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": vendor, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "psf_matfunc_threads": worker_count(), "git_commit": _git_commit()}


class Tally:
    """Outcomes of the cases run so far."""

    def __init__(self):
        self.latency_ms: list[float] = []
        self.by_case: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.violations: list[str] = []
        self.worst_ratio = 0.0

    def record(self, case, outcome, payload, seconds: float, error=None):
        self.latency_ms.append(seconds * 1e3)
        self.by_case.setdefault(case.cid, []).append(seconds * 1e3)
        if error is not None:
            self.failures.append(f"{case.cid}: raised {error!r}")
            return
        if outcome != case.expect:
            self.failures.append(
                f"{case.cid}: outcome {outcome}, expected {case.expect}")
            return
        if outcome != 0 or case.check is None:
            return
        try:
            pairs = case.check(payload)
        except (OSError, KeyError, ValueError) as exc:   # unreadable output
            self.violations.append(f"{case.cid}: output unreadable: {exc!r}")
            self.failures.append(self.violations[-1])
            return
        for measured, bound in pairs:
            ratio = measured / bound if bound > 0 else float("inf")
            if not ratio <= 1.0:   # NaN fails too
                self.violations.append(f"{case.cid}: {measured!r} > {bound!r}")
                self.failures.append(self.violations[-1])
                return
            self.worst_ratio = max(self.worst_ratio, ratio)


def _run_pass(cases, tally: Tally, tracer=None) -> float:
    """One pass over the cases; returns the summed case latency in s."""
    busy = 0.0
    sink = open(os.devnull, "w")
    try:
        for case in cases:
            error = outcome = payload = None
            with redirect_stdout(sink), redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        outcome, payload = case.call()
                    else:
                        outcome, payload = tracer.run_case(case.cid, case.call)
                except Exception as exc:   # counted as a failure, loop goes on
                    error = exc
                dt = time.perf_counter() - t0
            busy += dt
            tally.record(case, outcome, payload, dt, error)
    finally:
        sink.close()
    return busy


def _setup(args, workloads, scratch: Path):
    cases = workloads.build(args.workload, args.seed, str(scratch))
    warm = [c for c in cases if c.smoke]
    _run_pass(warm, Tally())
    return cases, warm


def _probe_setup(args) -> float:
    """Median wall time of fresh processes that only set up."""
    times = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--setup-probe", "--workload", args.workload,
                        "--seed", str(args.seed)],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _keep_going(args, elapsed: float, pass_s: float) -> bool:
    return not args.smoke and elapsed + pass_s <= args.seconds


def _measure(args, cases) -> tuple[Tally, dict]:
    tally = Tally()
    t0 = time.perf_counter()
    while True:
        tp = time.perf_counter()
        _run_pass(cases, tally)
        now = time.perf_counter()
        if not _keep_going(args, now - t0, now - tp):
            break
    # Each case's latency is its median over the passes, which drops a pass
    # that ran while the machine was busy elsewhere; the percentiles and the
    # rate are taken over the cases.
    lat = [statistics.median(v) for v in tally.by_case.values()]
    metrics = {
        "case_p50_ms": statistics.median(lat),
        "case_p90_ms": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
        "cases_per_s": len(lat) / (sum(lat) / 1e3),
        "ok_frac": 1.0 - len(tally.failures) / len(tally.latency_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, metrics


def _measure_traced(args, cases) -> tuple[Tally, dict, tracing.Tracer]:
    tracer = tracing.Tracer()
    tally = Tally()
    plain, traced, snaps = [], [], []
    t0 = time.perf_counter()
    while True:
        tp = time.perf_counter()
        plain.append(_run_pass(cases, Tally()))
        tracer.reset()
        tracer.install()
        try:
            traced.append(_run_pass(cases, tally, tracer))
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
        now = time.perf_counter()
        if not _keep_going(args, now - t0, now - tp):
            break
    metrics = {name: statistics.median(s[name] for s in snaps) for name in snaps[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.pass_ms"] = statistics.median(traced) * 1e3
    metrics["check.err_to_bound_max"] = tally.worst_ratio
    return tally, metrics, tracer



def _per_layer_specs() -> list[tuple[str, str]]:
    return tracing.metric_specs() + list(TRACE_EXTRA)


def _units() -> dict:
    return dict([(n, u) for n, u, _, _ in END_TO_END] + _per_layer_specs())


def run_workload(args) -> int:
    nproc = _cap_threads()
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)} or all")
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        cases, warm = _setup(args, workloads, scratch)
        if args.setup_probe:
            return 0
        if args.smoke:
            cases = warm
        if args.trace:
            tally, metrics, tracer = _measure_traced(args, cases)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write(str(spans))
        else:
            tally, metrics = _measure(args, cases)
            metrics["setup_s"] = _probe_setup(args)
            metrics["check.err_to_bound_max"] = tally.worst_ratio
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = _units()
    wanted = ([m for m, *_ in END_TO_END] if not args.trace
              else [m for m, _ in _per_layer_specs()])
    print(json.dumps({"env": _environment(args, nproc)}))
    print(f"{args.workload}: {len(tally.latency_ms)} cases, "
          f"{len(tally.failures)} failed")
    for line, count in Counter(tally.failures).items():
        print(f"  failed {count}x  {line}")
    for name in wanted + ["check.err_to_bound_max"] * (not args.trace):
        print(f"  {name:<44} {metrics[name]:>14.6g} {units[name]}")
    if args.trace:
        print(f"  spans -> {spans.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not tally.violations,
        "attempted": len(tally.latency_ms),
        "failed": len(tally.failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in wanted},
    }))
    return 0



def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    _cap_threads()
    results, status = {}, 0
    for name in _import_program().WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + ["--smoke"] * args.smoke
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return status


def manifest(workloads) -> dict:
    """BENCHMARK.json, derived from the workload and metric definitions."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in _per_layer_specs()],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="workload name, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one short pass over each workload's warm-up cases")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json at the repository root")
    args = ap.parse_args(argv)
    if args.write_manifest:
        _cap_threads()
        text = json.dumps(manifest(_import_program()), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
