"""Closed-loop benchmark of the closest_string package, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload bench-c-acgt --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50

One caller in one process runs the workload's ops back to back: each op
starts after the previous one returns. ``--trace 0`` times the ops and
reports the end-to-end metrics; ``--trace 1`` runs each of the first ops
untraced and traced back to back (which gives the tracing overhead), then
runs traced, and reports the per-layer metrics. Every op's output is
checked between ops, outside the timed region. The human-readable report
goes to stdout, and its last line is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
``--workload all`` runs every workload untraced and traced, each in a
child process. Full reports and spans are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 20
LAYERS = ("core", "instances", "lp", "simplex", "rounding", "exact", "bench", "cli")

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_s_p50": ("s", "lower"),
    "op_s_p90": ("s", "lower"),
    "failed_frac": ("ratio", "lower"),
    "certified_frac": ("ratio", "higher"),
    "mean_gap": ("distance", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def pin_blas_threads() -> None:
    """One BLAS thread: must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load_package() -> types.SimpleNamespace:
    """A fresh import of closest_string from this checkout's src/."""
    for name in [n for n in sys.modules if n.split(".")[0] == "closest_string"]:
        del sys.modules[name]
    pkg = importlib.import_module("closest_string")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"closest_string imported from {pkg.__file__}, not {SRC}")
    mods = {layer: importlib.import_module(f"closest_string.{layer}") for layer in LAYERS}
    return types.SimpleNamespace(pkg=pkg, **mods)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def reference_loop_ms(repeats: int = 11) -> float:
    """Median time of a fixed pure-Python loop. On a shared host the CPU
    can switch between a fast and a slow state (about 1.5x apart) for tens
    of seconds; this reading, taken before and after the ops, shows which
    state a run saw. It is a diagnostic, not a metric."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def timed_setup(wl, seed: int, workdir: Path) -> float:
    """Seconds to import the package and make the workload's inputs."""
    gc.collect()  # each set-up starts from the same heap state
    t0 = time.perf_counter()
    wl.setup(load_package(), seed, workdir)
    return time.perf_counter() - t0


def spare_setup(name: str, seed: int, workdir: Path) -> float:
    """``timed_setup`` on a throwaway copy of workload ``name``. The
    package modules the running workload uses are put back afterwards."""
    import workloads

    saved = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "closest_string"}
    workdir.mkdir(exist_ok=True)
    try:
        return timed_setup(workloads.WORKLOADS[name](), seed, workdir)
    finally:
        sys.modules.update(saved)
        shutil.rmtree(workdir)


class Loop:
    """Runs a workload's ops in a closed loop and checks each output."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_ok = None

    def one(self, i: int, tracer=None) -> tuple[float, object]:
        """Op ``i``, timed, then checked: (op time, quality or None)."""
        wl = self.wl
        inp = wl.input(i)
        if tracer is not None:
            tracer.op, tracer.active = i, True
        t0 = time.perf_counter()
        try:
            out = wl.run_op(inp)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        problems = [error] if error else wl.check(inp, out)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in problems[:3])
        elif self.first_ok is None:
            self.first_ok = (inp, out)
        return dt, None if error else wl.quality(out)

    def run(self, start: int, min_ops: int, seconds: float, tracer=None) -> list:
        """Ops start, start + 1, ... until op ``min_ops - 1`` is done and
        ``seconds`` of op time are spent."""
        results = []
        spent = 0.0
        i = start
        while i < min_ops or spent < seconds:
            results.append(self.one(i, tracer))
            spent += results[-1][0]
            i += 1
        return results

    def run_paired(self, count: int, tracer) -> tuple[list, list]:
        """Ops 0 .. count-1, each run untraced and traced back to back, in
        alternating order so that both see the same machine state."""
        plain, traced = [], []
        for i in range(count):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    traced.append(self.one(i, tracer))
                    tracer.uninstall()
                else:
                    plain.append(self.one(i))
        return plain, traced

    def self_check(self) -> str:
        """Feed the checker one deliberately wrong result."""
        if self.first_ok is None:
            return "not run: no correct op"
        inp, out = self.first_ok
        return "flagged" if self.wl.check(inp, self.wl.corrupt(out)) else "MISSED"


def quality_counts(results, prefix_ops: int) -> dict:
    quals = [q for _, q in results[:prefix_ops]]
    if any(q is None for q in quals):
        return {}
    counts = {"certified": sum(q.certified for q in quals),
              "solves": sum(q.attempts for q in quals)}
    gaps = [q.gap for q in quals]
    if None not in gaps:
        counts["gap_sum"] = sum(gaps)
    return counts


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]()
    workdir = OUT_DIR / f"work-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "loop": "closed, 1 caller, 1 process", "env": environment()}
    loop = Loop(wl)
    ref_before = reference_loop_ms()
    try:
        if not trace:
            # The first set-up is the one the ops use. The others run on a
            # spare copy of the workload, spread evenly between the ops, so
            # that their median sees the same host states as the ops do.
            setups = [timed_setup(wl, seed, workdir)]
            results = []
            for k in range(1, SETUP_REPEATS + 1):
                left = seconds * k / SETUP_REPEATS - sum(dt for dt, _ in results)
                results += loop.run(len(results), wl.prefix_ops, left)
                if k < SETUP_REPEATS:
                    setups.append(spare_setup(name, seed, workdir.with_name(f"spare-{name}")))
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            times = [dt for dt, _ in results]
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": len(times) / sum(times),
                "op_s_p50": statistics.median(times),
                "op_s_p90": statistics.quantiles(times, n=10, method="inclusive")[8],
                "peak_rss_mb": peak_mb,
            }
            report["samples"] = {"ops": len(times), "setups": SETUP_REPEATS,
                                 "beyond_p90": sum(t > metrics["op_s_p90"] for t in times)}
            exact = quality_counts(results, wl.prefix_ops)
        else:
            cs = load_package()
            tracer = spans.Tracer(vars(cs))
            tracer.install()
            tracer.active = True
            wl.setup(cs, seed, workdir)
            tracer.active = False
            tracer.uninstall()
            k = wl.prefix_ops
            t_start = time.perf_counter()
            plain, traced = loop.run_paired(k, tracer)
            tracer.install()
            remaining = seconds - (time.perf_counter() - t_start)
            traced += loop.run(k, k, remaining, tracer=tracer)
            tracer.uninstall()
            # Geometric mean of per-op ratios: each op is paired with itself,
            # and half the pairs run traced first, so order effects cancel.
            log_ratios = [math.log(t[0] / u[0]) for t, u in zip(traced[:k], plain)]
            overhead = math.exp(statistics.fmean(log_ratios)) - 1.0
            metrics, exact = spans.layer_metrics(tracer.spans, len(traced), k, overhead)
            exact.update(quality_counts(traced, k))
            report["samples"] = {"untraced_ops": len(plain), "traced_ops": len(traced),
                                 "spans": len(tracer.spans)}
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
        ref_after = reference_loop_ms()
        final_problems, final_status = wl.final_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    exact["prefix_ops"] = wl.prefix_ops
    self_check = loop.self_check()
    problems = loop.problems + final_problems
    if self_check != "flagged":
        problems.append(f"self-check: wrong result {self_check}")
    report["env"]["reference_loop_ms"] = {"before": ref_before, "after": ref_after}
    report.update(
        attempted=loop.attempted, failed=loop.failed, problems=problems[:20],
        self_check=self_check, final_check=final_status, exact=exact,
        correct=not problems,
        metrics={k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    )
    report["derived"] = derived_metrics(report)
    return report


def derived_metrics(report: dict) -> dict:
    """Printed end-to-end metrics kept out of BENCHMARK.json: zero on a
    healthy run, or defined only on some workloads. Quality counts cover
    the first ``prefix_ops`` ops, which every run of a seed makes."""
    exact = report["exact"]
    out = {"failed_frac": report["failed"] / report["attempted"]}
    if exact.get("solves"):
        out["certified_frac"] = exact["certified"] / exact["solves"]
    if "gap_sum" in exact:
        out["mean_gap"] = exact["gap_sum"] / exact["prefix_ops"]
    return out


def print_report(report: dict, units: dict) -> None:
    kind = "per-layer (traced)" if report["trace"] else "end-to-end (untraced)"
    print(f"# {report['workload']} seed {report['seed']}: {kind}, {report['loop']}")
    print(f"# env {json.dumps(report['env'], sort_keys=True)}")
    print(f"# samples {json.dumps(report['samples'])}")
    prefix = f"(first {report['exact']['prefix_ops']} ops)"
    rows = [(k, m["value"], "") for k, m in report["metrics"].items()]
    rows += [(k, v, "" if k == "failed_frac" else prefix) for k, v in report["derived"].items()]
    for name, value, note in rows:
        unit, better = units[name]
        print(f"{name:28s} {value:>14.6g} {unit:8s} {better + ' is better':16s} {note}")
    print(f"# exact counts {json.dumps(report['exact'], sort_keys=True)}")
    print(f"# checks: self-check {report['self_check']}; {report['final_check']}")
    for p in report["problems"]:
        print(f"# FAILED {p}")


def run_all(seed: int, seconds: float, out_path: str | None) -> int:
    """Every workload untraced then traced, each in its own process."""
    import workloads

    reports, summary = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            path = OUT_DIR / f"{name}-seed{seed}-trace{trace}.json"
            report = json.loads(path.read_text(encoding="utf-8"))
            reports.append(report)
            summary["correct"] &= report["correct"]
            summary["attempted"] += report["attempted"]
            summary["failed"] += report["failed"]
            for metric, m in report["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = m
    if out_path:
        Path(out_path).write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write every report here")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")

    pin_blas_threads()
    if not (SRC / "closest_string" / "__init__.py").is_file():
        print(f"error: no closest_string package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")

    import spans

    units = {**END_TO_END, **spans.PER_LAYER}
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), units)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_report(report, units)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
