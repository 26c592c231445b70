"""The four benchmark workloads: inputs from a seed, one op, and its checks.

Instance i of a run uses seed ``seed ^ i`` through ``generate_uniform``,
as ``bench.measure_batch`` does. Each workload makes its first ``pool``
inputs during set-up (which ``setup_s`` times); a run that gets further
makes each later input between two ops, outside the timed region, so no
input is ever used twice. Why each workload was chosen is in README.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import types
from pathlib import Path

import numpy as np

ACGT = "ACGT"


@dataclasses.dataclass
class Quality:
    """Solution quality of one op: certified solves out of ``attempts``,
    and the objective's distance above the LP lower bound (None where the
    workload has no heuristic center)."""

    certified: int
    attempts: int
    gap: int | None


class Workload:
    name = ""
    # Ops every run makes whatever --seconds says; exact counts cover them.
    prefix_ops = 0
    pool = 0

    def setup(self, cs: types.SimpleNamespace, seed: int, workdir: Path) -> None:
        self.cs = cs
        self.seed = seed
        self.workdir = workdir
        self.inputs = [self.make_input(i) for i in range(self.pool)]

    def input(self, i: int):
        return self.inputs[i] if i < len(self.inputs) else self.make_input(i)

    def make_input(self, i: int):
        raise NotImplementedError

    def run_op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def quality(self, out) -> Quality | None:
        return None

    def corrupt(self, out):
        """A deliberately wrong copy of ``out`` that ``check`` must flag."""
        raise NotImplementedError

    def final_check(self) -> tuple[list[str], str]:
        """Checks run once after the timed loop: (problems, status)."""
        return [], "none"

    def _instance(self, i: int, m: int, n: int, alphabet: str):
        cs = self.cs
        cfg = cs.instances.GeneratorConfig(
            m=m, n=n, alphabet=cs.core.Alphabet.from_string(alphabet), seed=self.seed ^ i
        )
        return cs.instances.generate_uniform(cfg)


def hamming_objective(center: str, strings) -> int:
    """Objective recomputed from scratch, independent of the package."""
    return max(sum(a != b for a, b in zip(center, s)) for s in strings)


class BenchCAcgt(Workload):
    """``bench.measure_instance`` with algorithm c, as ``bench --algs c``."""

    name = "bench-c-acgt"
    m, n = 10, 80
    prefix_ops = 60
    pool = 250

    def setup(self, cs, seed, workdir):
        super().setup(cs, seed, workdir)
        self.solved: dict[int, tuple] = {}

    def make_input(self, i):
        return self.seed ^ i, self._instance(i, self.m, self.n, ACGT)

    def run_op(self, inp):
        inst_seed, inst = inp
        return self.cs.bench.measure_instance(
            inst, inst_seed, alg="c", theta=0.9, retries=8, exact=None,
            time_limit=60.0, node_limit=2_000_000,
        )

    def check(self, inp, out):
        problems = []
        if out.lp_bound > out.alg_objective:
            problems.append(f"lp_bound {out.lp_bound} > objective {out.alg_objective}")
        if out.alg_certified != (out.alg_objective == out.lp_bound):
            problems.append(
                f"certified={out.alg_certified} but objective {out.alg_objective}, "
                f"bound {out.lp_bound}"
            )
        self.solved.setdefault(inp[0], (inp[1], out.lp_value))
        return problems

    def quality(self, out):
        return Quality(int(out.alg_certified), 1, out.alg_objective - out.lp_bound)

    def corrupt(self, out):
        return dataclasses.replace(out, alg_certified=not out.alg_certified)

    def final_check(self):
        """Every root LP value against scipy's HiGHS, within EPSILON."""
        try:
            from scipy.optimize import linprog
        except ImportError:
            return [], "skipped: scipy missing"
        eps = self.cs.lp.EPSILON
        problems = []
        for inst_seed, (inst, value) in self.solved.items():
            ref = highs_lp_value(inst, linprog)
            if ref is None or abs(ref - value) > eps:
                problems.append(f"seed {inst_seed}: LP value {value} vs HiGHS {ref}")
        return problems, f"highs: {len(self.solved) - len(problems)}/{len(self.solved)} agree"


def highs_lp_value(inst, linprog) -> float | None:
    """The relaxation built from the instance strings and solved by HiGHS."""
    symbols = inst.alphabet.symbols
    k, n, m = len(symbols), inst.n, inst.m
    index = {a: t for t, a in enumerate(symbols)}
    nx = n * k
    c = np.zeros(nx + 1)
    c[nx] = 1.0
    a_eq = np.zeros((n, nx + 1))
    for j in range(n):
        a_eq[j, j * k:(j + 1) * k] = 1.0
    # n - sum_j x(s_i[j], j) <= d, written as -sum_j x(s_i[j], j) - d <= -n.
    a_ub = np.zeros((m, nx + 1))
    for i, s in enumerate(inst.strings):
        for j, ch in enumerate(s):
            a_ub[i, j * k + index[ch]] = -1.0
    a_ub[:, nx] = -1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=np.full(m, -float(n)), A_eq=a_eq, b_eq=np.ones(n),
        bounds=[(0.0, 1.0)] * nx + [(0.0, float(n))], method="highs",
    )
    return float(res.fun) if res.status == 0 else None


class RoundABinary(Workload):
    """``algorithm_a`` on binary strings: one LP solve per position."""

    name = "round-a-binary"
    m, n = 10, 60
    prefix_ops = 60
    pool = 200

    def make_input(self, i):
        return self._instance(i, self.m, self.n, "01")

    def run_op(self, inp):
        return self.cs.rounding.algorithm_a(inp)

    def check(self, inp, out):
        problems = []
        center = out.center.chars
        if len(center) != inp.n or set(center) - set("01"):
            return [f"malformed center {center!r}"]
        obj = hamming_objective(center, inp.strings)
        if obj != out.center.objective:
            problems.append(f"objective {out.center.objective}, recomputed {obj}")
        if out.lp_bound > obj:
            problems.append(f"lp_bound {out.lp_bound} > objective {obj}")
        if out.trace.lp_solves != inp.n:
            problems.append(f"{out.trace.lp_solves} LP solves, expected {inp.n}")
        return problems

    def quality(self, out):
        return Quality(int(out.exact_certified), 1, out.center.objective - out.lp_bound)

    def corrupt(self, out):
        return types.SimpleNamespace(
            center=types.SimpleNamespace(
                chars=out.center.chars, objective=out.center.objective + 1
            ),
            lp_bound=out.lp_bound,
            trace=out.trace,
        )


class ExactCli(Workload):
    """In-process ``solve --alg brute`` then ``--alg bnb`` on one file."""

    name = "exact-cli"
    m, n = 10, 9
    prefix_ops = 60
    # Creating a file costs 0.25-0.6 ms on a virtual disk and drifts over
    # tens of seconds; a small pool keeps that drift from dominating setup_s.
    pool = 10

    def make_input(self, i):
        inst = self._instance(i, self.m, self.n, ACGT)
        path = self.workdir / f"exact-{i}.csp"
        path.write_text(self.cs.instances.serialize_instance(inst), encoding="utf-8")
        return inst, path

    def run_op(self, inp):
        runs = []
        for alg in ("brute", "bnb"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cs.cli.main(
                    ["solve", "--alg", alg, "--format", "json", "--in", str(inp[1])]
                )
            runs.append((alg, code, out.getvalue(), err.getvalue()))
        return runs

    def check(self, inp, out):
        problems, optima = [], []
        for alg, code, text, err in out:
            if code != 0:
                problems.append(f"{alg}: exit code {code}: {err.strip()}")
                continue
            report = json.loads(text)
            if not report["certified"]:
                problems.append(f"{alg}: not certified")
            obj = hamming_objective(report["center"], inp[0].strings)
            if obj != report["objective"]:
                problems.append(f"{alg}: objective {report['objective']}, recomputed {obj}")
            if report["lp_bound"] > obj:
                problems.append(f"{alg}: lp_bound {report['lp_bound']} > optimum {obj}")
            optima.append(report["objective"])
        if len(set(optima)) > 1:
            problems.append(f"brute and bnb optima differ: {optima}")
        return problems

    def quality(self, out):
        certified = sum(
            1 for _, code, text, _ in out if code == 0 and json.loads(text)["certified"]
        )
        return Quality(certified, len(out), None)

    def corrupt(self, out):
        alg, code, text, err = out[-1]
        report = json.loads(text)
        report["objective"] += 1
        return out[:-1] + [(alg, code, json.dumps(report), err)]


class GenParse(Workload):
    """In-process ``gen`` of a 100 x 2000 file, then ``parse_instance``."""

    name = "gen-parse"
    m, n = 100, 2000
    prefix_ops = 40

    def make_input(self, i):
        return self.seed ^ i

    def run_op(self, inp):
        path = self.workdir / "gen.csp"
        code = self.cs.cli.main([
            "gen", "--m", str(self.m), "--n", str(self.n), "--alphabet", ACGT,
            "--seed", str(inp), "--out", str(path),
        ])
        return code, self.cs.instances.parse_instance(path.read_bytes())

    def check(self, inp, out):
        code, inst = out
        if code != 0:
            return [f"gen exit code {code}"]
        problems = []
        if tuple(inst.alphabet.symbols) != tuple(ACGT):
            problems.append(f"alphabet {inst.alphabet.symbols}")
        if tuple(inst.strings) != self.expected_strings(inp):
            problems.append(f"seed {inp}: parsed strings differ from the generator's")
        return problems

    def expected_strings(self, seed: int) -> tuple[str, ...]:
        """The PCG64 stream ``generate_uniform`` documents, drawn directly."""
        rng = np.random.Generator(np.random.PCG64(seed))
        codes = rng.integers(0, len(ACGT), size=(self.m, self.n))
        data = np.frombuffer(ACGT.encode(), dtype=np.uint8)[codes].tobytes().decode()
        return tuple(data[r * self.n:(r + 1) * self.n] for r in range(self.m))

    def corrupt(self, out):
        code, inst = out
        first = inst.strings[0]
        flipped = ("C" if first[0] == "A" else "A") + first[1:]
        return code, types.SimpleNamespace(
            alphabet=inst.alphabet, strings=(flipped,) + tuple(inst.strings[1:])
        )

    def final_check(self):
        """The direct draw used by ``check`` agrees with generate_uniform."""
        inst = self._instance(0, self.m, self.n, ACGT)
        if tuple(inst.strings) != self.expected_strings(self.seed):
            return ["expected_strings disagrees with generate_uniform"], "reference: mismatch"
        return [], "reference: agrees with generate_uniform"


WORKLOADS = {w.name: w for w in (BenchCAcgt, RoundABinary, ExactCli, GenParse)}
