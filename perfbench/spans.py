"""In-memory span tracing of calls between the layers of ``closest_string``.

The tracer replaces module attributes with thin wrappers, so only calls
that go through a module's namespace are seen: the names each module
imports from the layer below (``closest_string.rounding.solve_lp``,
``closest_string.lp.solve_bounded``, ...) and the public functions the
benchmark itself calls. Nothing inside the package is edited, and
``uninstall`` puts every original function back.

Each span records its name, start, end, the index of the enclosing span
and the op id it belongs to (-1 for set-up). A span's self time is its
duration minus the time its child spans cover; calls are nested on one
thread, so the children of a span never overlap and their durations add.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

SETUP_OP = -1

# (module, attribute, span name). The span is named after the layer that
# owns the callee, whichever module's namespace the call went through.
WRAPS = (
    ("cli", "main", "cli.main"),
    ("cli", "generate_uniform", "instances.generate_uniform"),
    ("cli", "serialize_instance", "instances.serialize_instance"),
    ("cli", "parse_instance", "instances.parse_instance"),
    ("cli", "run_bench", "bench.run_bench"),
    ("cli", "algorithm_a", "rounding.algorithm_a"),
    ("cli", "algorithm_b", "rounding.algorithm_b"),
    ("cli", "algorithm_c", "rounding.algorithm_c"),
    ("cli", "build_csp_lp", "lp.build_csp_lp"),
    ("cli", "solve_lp", "lp.solve_lp"),
    ("cli", "brute_force_center", "exact.brute_force_center"),
    ("cli", "branch_and_bound", "exact.branch_and_bound"),
    ("bench", "measure_instance", "bench.measure_instance"),
    ("bench", "generate_uniform", "instances.generate_uniform"),
    ("bench", "algorithm_a", "rounding.algorithm_a"),
    ("bench", "algorithm_b", "rounding.algorithm_b"),
    ("bench", "algorithm_c", "rounding.algorithm_c"),
    ("bench", "build_csp_lp", "lp.build_csp_lp"),
    ("bench", "solve_lp", "lp.solve_lp"),
    ("bench", "brute_force_center", "exact.brute_force_center"),
    ("bench", "branch_and_bound", "exact.branch_and_bound"),
    ("rounding", "algorithm_a", "rounding.algorithm_a"),
    ("rounding", "algorithm_b", "rounding.algorithm_b"),
    ("rounding", "algorithm_c", "rounding.algorithm_c"),
    ("rounding", "build_csp_lp", "lp.build_csp_lp"),
    ("rounding", "solve_lp", "lp.solve_lp"),
    ("exact", "build_csp_lp", "lp.build_csp_lp"),
    ("exact", "solve_lp", "lp.solve_lp"),
    ("lp", "solve_bounded", "simplex.solve_bounded"),
    ("instances", "generate_uniform", "instances.generate_uniform"),
    ("instances", "serialize_instance", "instances.serialize_instance"),
    ("instances", "parse_instance", "instances.parse_instance"),
)

MIB = float(1 << 20)

# name: (unit, better). Instance-layer times are per call and include
# set-up; other times are per op. Per-op counts cover the run's fixed
# prefix of ops. The tableau size is computed from the shape of A.
PER_LAYER = {
    "instances.generate_s": ("s/call", "lower"),
    "instances.serialize_s": ("s/call", "lower"),
    "instances.parse_s": ("s/call", "lower"),
    "instances.chars_per_s": ("chars/s", "higher"),
    "cli.self_s": ("s/op", "lower"),
    "bench.self_s": ("s/op", "lower"),
    "bench.root_lp_s": ("s/op", "lower"),
    "rounding.self_s": ("s/op", "lower"),
    "rounding.lp_solves_per_op": ("solves/op", "lower"),
    "lp.solves_per_op": ("solves/op", "lower"),
    "lp.build_s": ("s/op", "lower"),
    "lp.solve_ms_p50": ("ms/solve", "lower"),
    "lp.self_s": ("s/op", "lower"),
    "simplex.solve_s": ("s/op", "lower"),
    "simplex.pivots_per_op": ("pivots/op", "lower"),
    "simplex.us_per_pivot": ("us/pivot", "lower"),
    "simplex.tableau_mb_computed": ("MB", "lower"),
    "exact.brute_s": ("s/op", "lower"),
    "exact.brute_nodes": ("nodes/op", "lower"),
    "exact.brute_nodes_per_s": ("nodes/s", "higher"),
    "exact.bnb_s": ("s/op", "lower"),
    "exact.bnb_nodes": ("nodes/op", "lower"),
    "exact.bnb_nodes_per_s": ("nodes/s", "higher"),
    "exact.uncertified": ("count", "lower"),
    "exact.capacity_errors": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _cells_of_result(args, kwargs, result):
    return {"cells": result.m * result.n}


def _cells_of_arg(args, kwargs, result):
    return {"cells": args[0].m * args[0].n}


def _lp_info(args, kwargs, result):
    return {"pivots": int(result.iterations)}


def _simplex_info(args, kwargs, result):
    rows, cols = args[0].shape
    return {"pivots": int(result.iterations), "tableau_bytes": rows * (cols + 1) * 8}


def _exact_info(args, kwargs, result):
    return {"nodes": int(result.nodes_explored), "certified": bool(result.certified)}


# Counts taken from a call's arguments or result, by span name.
RECORDERS = {
    "instances.generate_uniform": _cells_of_result,
    "instances.parse_instance": _cells_of_result,
    "instances.serialize_instance": _cells_of_arg,
    "lp.solve_lp": _lp_info,
    "simplex.solve_bounded": _simplex_info,
    "exact.brute_force_center": _exact_info,
    "exact.branch_and_bound": _exact_info,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "error")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info: dict = {}
        self.error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps layer boundaries and keeps every span in memory."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.active = False
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span_name in WRAPS:
            module = self.modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        recorder = RECORDERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), parent, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            finally:
                tracer._stack.pop()
            span.end = time.perf_counter()
            if recorder is not None:
                span.info = recorder(args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op,
                }
                if s.info:
                    rec["info"] = s.info
                if s.error:
                    rec["error"] = s.error
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(
    spans: list[Span], ops: int, prefix_ops: int, overhead_frac: float
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics and the exact counts behind them.

    Times are per op over every traced op. Counts are taken over the first
    ``prefix_ops`` ops (and set-up), the part every run of a seed repeats,
    so they must match exactly between two runs of the same code.
    Instance-layer times are per call and include set-up, where three of
    the four workloads make their inputs.
    """
    own = self_times(spans)
    timed = [i for i, s in enumerate(spans) if s.op >= 0]
    prefix = [i for i, s in enumerate(spans) if 0 <= s.op < prefix_ops]

    def total(name_prefix: str, idx: list[int], self_only: bool = False) -> float:
        return sum(
            own[i] if self_only else spans[i].duration
            for i in idx if spans[i].name.startswith(name_prefix)
        )

    def named(name: str, idx: list[int]) -> list[int]:
        return [i for i in idx if spans[i].name == name]

    def info_sum(idx: list[int], key: str) -> int:
        return sum(spans[i].info.get(key, 0) for i in idx)

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    everything = list(range(len(spans)))
    inst_calls = {
        kind: named(f"instances.{kind}", everything)
        for kind in ("generate_uniform", "serialize_instance", "parse_instance")
    }
    inst_all = [i for idx in inst_calls.values() for i in idx]
    inst_prefix = [i for i in inst_all if spans[i].op < prefix_ops]

    def per_call(idx: list[int]) -> float:
        return ratio(sum(spans[i].duration for i in idx), len(idx))

    solve_lp_t = named("lp.solve_lp", timed)
    solve_lp_p = named("lp.solve_lp", prefix)
    simplex_t = named("simplex.solve_bounded", timed)

    def parent_name(i: int) -> str:
        return spans[spans[i].parent].name if spans[i].parent >= 0 else ""

    root_lp = [i for i in solve_lp_t if parent_name(i) == "bench.measure_instance"]
    rounding_lp_p = [i for i in solve_lp_p if parent_name(i).startswith("rounding.")]
    brute_t = named("exact.brute_force_center", timed)
    bnb_t = named("exact.branch_and_bound", timed)
    exact_p = named("exact.brute_force_center", prefix) + named("exact.branch_and_bound", prefix)
    solve_ms = [spans[i].duration * 1000.0 for i in solve_lp_t]

    counts = {
        "instances.cells": info_sum(inst_prefix, "cells"),
        "lp.solves": len(solve_lp_p),
        "rounding.lp_solves": len(rounding_lp_p),
        "simplex.pivots": info_sum(solve_lp_p, "pivots"),
        "exact.brute_nodes": info_sum(named("exact.brute_force_center", prefix), "nodes"),
        "exact.bnb_nodes": info_sum(named("exact.branch_and_bound", prefix), "nodes"),
        "exact.uncertified": sum(
            1 for i in exact_p if spans[i].error is None and not spans[i].info["certified"]
        ),
        "exact.capacity_errors": sum(1 for i in exact_p if spans[i].error == "CapacityError"),
    }

    def per_prefix_op(key: str) -> float:
        return ratio(counts[key], prefix_ops)

    brute_s = total("exact.brute_force_center", timed)
    bnb_s = total("exact.branch_and_bound", timed)
    simplex_s = total("simplex.solve_bounded", timed)
    metrics = {
        "instances.generate_s": per_call(inst_calls["generate_uniform"]),
        "instances.serialize_s": per_call(inst_calls["serialize_instance"]),
        "instances.parse_s": per_call(inst_calls["parse_instance"]),
        "instances.chars_per_s": ratio(
            info_sum(inst_all, "cells"), sum(spans[i].duration for i in inst_all)
        ),
        "cli.self_s": per_op(total("cli.", timed, self_only=True)),
        "bench.self_s": per_op(total("bench.", timed, self_only=True)),
        "bench.root_lp_s": per_op(sum(spans[i].duration for i in root_lp)),
        "rounding.self_s": per_op(total("rounding.", timed, self_only=True)),
        "rounding.lp_solves_per_op": per_prefix_op("rounding.lp_solves"),
        "lp.solves_per_op": per_prefix_op("lp.solves"),
        "lp.build_s": per_op(total("lp.build_csp_lp", timed)),
        "lp.solve_ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
        "lp.self_s": per_op(total("lp.solve_lp", timed, self_only=True)),
        "simplex.solve_s": per_op(simplex_s),
        "simplex.pivots_per_op": per_prefix_op("simplex.pivots"),
        "simplex.us_per_pivot": ratio(simplex_s * 1e6, info_sum(simplex_t, "pivots")),
        "simplex.tableau_mb_computed": max(
            (spans[i].info["tableau_bytes"] for i in simplex_t), default=0
        ) / MIB,
        "exact.brute_s": per_op(brute_s),
        "exact.brute_nodes": per_prefix_op("exact.brute_nodes"),
        "exact.brute_nodes_per_s": ratio(info_sum(brute_t, "nodes"), brute_s),
        "exact.bnb_s": per_op(bnb_s),
        "exact.bnb_nodes": per_prefix_op("exact.bnb_nodes"),
        "exact.bnb_nodes_per_s": ratio(info_sum(bnb_t, "nodes"), bnb_s),
        "exact.uncertified": counts["exact.uncertified"],
        "exact.capacity_errors": counts["exact.capacity_errors"],
        "trace.overhead_frac": overhead_frac,
    }
    return metrics, counts
