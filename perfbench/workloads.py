"""The three benchmark workloads and their correctness gates.

Every workload is a closed loop in one process and one thread.  Its work is
cut into units, and each unit runs in a child forked after import, so the
library's caches start cold in every unit exactly as in a fresh `emzv`
command.  A pass is the list of units that covers the workload's inputs once.

* table        one unit: `emzv table --max-weight 8 --max-length 4` in-process
               (715 rows).  Rows share sub-atoms, so this is where cross-call
               memoisation shows.  An op is a row.
* reduce-cold  one unit per index: every non-terminal index with weight <= 7
               and length <= 4, plus those with weight <= 5 and length 5
               (285 indices), each reduced with a cold cache.  Nothing is
               shared between ops.  The seed orders the indices.
* eval         one unit per tau: a new Evaluator checks value(k) against the
               value of the reduction of k for every index with weight <= 6
               and length <= 4 (330 indices).  Reductions are computed during
               set-up, so no exact rewriting is timed.  An op is a (tau, k)
               check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from pathlib import Path

from clock import Sampler, exact_kernel, numeric_kernel
from tracer import Tracer, cache_counts, reduce_extra

# The CLI's default --tol.
TOLERANCE = 1e-6

# Smallest Im tau of the seeded eval draws.  At the commit that added this
# benchmark every eval op meets TOLERANCE for Im tau >= 0.25 at any Re tau,
# but not below: near Re tau = 0 residuals reach 1e-5 at Im tau = 0.15.
# Below ENVELOPE_MIN_IM (the anchor 0.1i) a residual above TOLERANCE is
# counted as a failed op with status "residual"; above it, it is a wrong
# output and fails the run.
ENVELOPE_MIN_IM = 0.3

# sha256 of the `emzv table` output bytes, recorded at the commit that added
# this benchmark.
TABLE_SHA256 = {
    (8, 4): "0b715709407a4c73c928e4fae628ff1644814d97604d13e045d14b80b124bab7",
    (5, 3): "8e56ef7ebf16181195978f64ad148ce9db7c88457280ca1e73899fc872d47564",
}

# sha256 over "index<TAB>sha256(expression json)" lines in canonical index
# order, recorded at the commit that added this benchmark.
REDUCE_COLD_SHA256 = {
    "full": "c389db4385ed4252b6cd4d415a209de02e79adcd99f36bed594de09275ab4e8f",
    "smoke": "fb40406daa218dad5b7cddf392a4c6372a1700aec9a21a21a106ab534d27109c",
}

ANCHOR_TAUS = (complex(0.0, 1.0), complex(0.5, 0.8), complex(0.0, 0.1))


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def indices_within(max_weight: int, max_length: int, min_length: int = 0):
    """Indices in the order `emzv table` lists them."""
    for r in range(min_length, max_length + 1):
        for w in range(max_weight + 1):
            yield from compositions(w, r)


def is_terminal(k) -> bool:
    """Admissible (no boundary 1) or built from the letters 0 and 1 only.

    The gates restate this instead of calling emzv, whose output they check."""
    admissible = len(k) == 0 or (k[0] != 1 and k[-1] != 1)
    return admissible or all(e in (0, 1) for e in k)


def expression_errors(terms: list, target_weight: int) -> int:
    """Number of terms that carry a non-terminal atom or the wrong weight."""
    bad = 0
    for term in terms:
        atoms = [tuple(a) for a in term["atoms"]]
        if sum(sum(a) for a in atoms) != target_weight or not all(map(is_terminal, atoms)):
            bad += 1
    return bad


def unit_child(work, traced: bool, kernel=exact_kernel) -> dict:
    """Run work(now, tracer) in this (child) process under a speed sampler
    running `kernel`; add the samples and, if traced, spans and cache
    counts."""
    with Sampler(kernel) as sampler:
        tracer = Tracer(sampler.now) if traced else None
        if traced:
            tracer.install()
            before = cache_counts()
        out = work(sampler.now, tracer)
        if traced:
            after = cache_counts()
            out["spans"] = tracer.aggregate()
            out["caches"] = {n: (after[n][0] - before[n][0], after[n][1] - before[n][1]) for n in after}
            out["unbound"] = sorted(tracer.unbound)
    out["window"] = (sampler.start, sampler.end, sampler.samples)
    return out


class Table:
    name = "table"

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.bounds = (5, 3) if smoke else (8, 4)
        self.scratch = scratch

    def setup(self) -> None:
        import emzv.cli  # noqa: F401

        self.rows = sum(1 for _ in indices_within(*self.bounds))

    def passes(self) -> list:
        return [self.bounds]

    def ops_per_unit(self, unit) -> int:
        return self.rows

    def run_unit(self, unit, traced: bool) -> dict:
        import emzv.cli as cli

        path = self.scratch / f"table-{os.getpid()}.jsonl"
        argv = ["table", "--max-weight", str(unit[0]), "--max-length", str(unit[1]), "--out", str(path)]

        def work(now, tracer):
            latencies = []
            reduce_index = getattr(cli, "reduce_index", None)
            if reduce_index is not None:

                def timed(k, *args, **kwargs):
                    at, start = time.perf_counter(), now()
                    try:
                        return reduce_index(k, *args, **kwargs)
                    finally:
                        # A terminal row is returned as it is in ~10 us; its
                        # time would make p50 time a function call.
                        latencies.append((None if is_terminal(k) else now() - start, at))

                cli.reduce_index = timed
            start = now()
            code = tracer.call("cli", cli.main, (argv,), {}) if tracer else cli.main(argv)
            wall = now() - start
            data = path.read_bytes() if path.exists() else b""
            path.unlink(missing_ok=True)
            digest = hashlib.sha256(data).hexdigest()
            if len(latencies) != self.rows:  # no hook: mean time per row
                latencies = [(wall / self.rows, None)] * self.rows
            status = "ok" if code == 0 and digest == TABLE_SHA256.get(unit) else "check"
            return {"wall": wall, "ops": [(t, status, None, at) for t, at in latencies], "digest": digest}

        return unit_child(work, traced)

    def check_pass(self, results: list) -> bool:
        return True


class ReduceCold:
    name = "reduce-cold"

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        import emzv.reduction  # noqa: F401

        if self.smoke:
            pool = indices_within(4, 3, 1)
        else:
            pool = [k for k in indices_within(7, 5, 1) if len(k) <= 4 or sum(k) <= 5]
        self.population = [k for k in pool if not is_terminal(k)]
        self.order = list(self.population)
        random.Random(self.seed).shuffle(self.order)

    def passes(self) -> list:
        return self.order

    def ops_per_unit(self, unit) -> int:
        return 1

    def run_unit(self, k, traced: bool) -> dict:
        from emzv.reduction import reduce_index

        def work(now, tracer):
            at, start = time.perf_counter(), now()
            try:
                if tracer:
                    expr, _ = tracer.call("reduction.reduce_index", reduce_index, (k,), {}, reduce_extra)
                else:
                    expr, _ = reduce_index(k)
            except (ArithmeticError, ValueError, RuntimeError) as exc:
                wall = now() - start
                return {"wall": wall, "ops": [(wall, type(exc).__name__, None, at)]}
            wall = now() - start
            data = expr.to_json_dict()
            ok = expression_errors(data["terms"], sum(k)) == 0
            digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
            return {"wall": wall, "ops": [(wall, "ok" if ok else "check", None, at)], "digest": (k, digest)}

        return unit_child(work, traced)

    def check_pass(self, results: list) -> bool:
        """Combined digest of one complete pass against the recorded one.
        A pass with unfinished ops cannot be checked; those ops are failed
        already."""
        digests = dict(r["digest"] for r in results if "digest" in r)
        if len(digests) != len(self.population):
            return True
        lines = "".join(f"{','.join(map(str, k))}\t{digests[k]}\n" for k in self.population)
        key = "smoke" if self.smoke else "full"
        return hashlib.sha256(lines.encode()).hexdigest() == REDUCE_COLD_SHA256[key]


class Eval:
    name = "eval"

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        from emzv.reduction import reduce_index

        rng = random.Random(self.seed)
        draws = 1 if self.smoke else 5
        # Im tau is stratified over equal bins of log(Im tau) in
        # [ENVELOPE_MIN_IM, 1.5], one draw per bin, so that every seed covers
        # the same range of theta truncation lengths.
        lo, hi = math.log(ENVELOPE_MIN_IM), math.log(1.5)
        self.taus = list(ANCHOR_TAUS)
        for j in range(draws):
            im = math.exp(lo + (hi - lo) * (j + rng.random()) / draws)
            self.taus.append(complex(rng.uniform(-0.5, 0.5), im))
        bounds = (3, 2) if self.smoke else (6, 4)
        self.indices = list(indices_within(*bounds))
        self.reductions = {k: reduce_index(k)[0] for k in self.indices}

    def passes(self) -> list:
        return self.taus

    def ops_per_unit(self, unit) -> int:
        return len(self.indices)

    def run_unit(self, tau, traced: bool) -> dict:
        from emzv.numerics import Evaluator

        def work(now, tracer):
            ops = []
            start = now()
            ev = Evaluator(tau)
            for k in self.indices:
                at, op_start = time.perf_counter(), now()
                try:
                    residual = abs(ev.value(k) - ev.eval_expression(self.reductions[k]))
                except (ArithmeticError, ValueError) as exc:
                    ops.append((now() - op_start, type(exc).__name__, None, at))
                    continue
                if residual <= TOLERANCE:
                    status = "ok"
                else:
                    status = "check" if tau.imag >= ENVELOPE_MIN_IM else "residual"
                ops.append((now() - op_start, status, residual, at))
            return {"wall": now() - start, "ops": ops}

        return unit_child(work, traced, numeric_kernel)

    def check_pass(self, results: list) -> bool:
        return True


WORKLOADS = {cls.name: cls for cls in (Table, ReduceCold, Eval)}
