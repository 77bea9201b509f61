"""Command-line interface: reduce indices, evaluate values, sweep relation
families, and emit reduction tables as JSON lines.

Exit codes: 0 success, 2 argument/parse error, 3 fuel exhausted,
4 numeric failure, 5 verification failure.

The numeric layer (emzv.numerics, and with it numpy) is imported only where
numbers are computed: `eval`, `verify`, `selftest` and `reduce --verify`.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import json
import math
import os
import re
import shutil
import sys
import tempfile
import time
from typing import TYPE_CHECKING, Callable, Iterable

from .faypoly import compositions
from .reduction import DEFAULT_FUEL, FuelExhausted, reduce_index
from .relations import (
    Expression,
    Identity,
    atom_json,
    fay_identity,
    parity_split,
    prop_mat_identity,
    reflection_identity,
    shuffle_identity,
    trailing_ones,
)
from .words import (
    ArgumentError,
    Index,
    PreconditionError,
    format_index,
    parse_index,
    weight,
)

if TYPE_CHECKING:
    from .numerics import Evaluator, NumericsConfig

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FUEL = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5

# Exit code of each expected failure; any other exception is a bug and keeps
# its traceback.
EXIT_CODES = {
    ArgumentError: EXIT_PARSE,
    FuelExhausted: EXIT_FUEL,
    ArithmeticError: EXIT_NUMERIC,
    PreconditionError: EXIT_NUMERIC,
}

FAMILIES = (
    "shuffle",
    "reflection",
    "fay",
    "prop-mat",
    "parity",
    "trailing-ones",
    "reduction",
    "kronecker",
)

# The families of one-index identities.  Each covers the indices its builder
# accepts: those where it raises no PreconditionError.
IDENTITY_BUILDERS = {
    "reflection": reflection_identity,
    "fay": fay_identity,
    "parity": parity_split,
    "trailing-ones": trailing_ones,
}


def _complex_json(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _load_config(args) -> NumericsConfig:
    from .numerics import DEFAULT_CONFIG, parse_config_file

    if getattr(args, "config", None):
        return parse_config_file(args.config)
    return DEFAULT_CONFIG


def _check_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise ArgumentError(f"tol must be finite and >= 0, got {tol}")


def _open_out(path: str):
    """`path` opened for writing text; an argument error if it cannot be."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ArgumentError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_out(path: str) -> None:
    """The argument error of `_open_out`, raised before any work when the
    directory of `path` is missing or not writable, or `path` is a
    directory or a file that cannot be written.  Creates and truncates
    nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ArgumentError(f"cannot write {path}: {os.strerror(code)}")


def _reduction(k: Index, expr: Expression) -> Identity:
    """I(k) = expr, the reduction of I(k) as an identity."""
    return Identity(Expression.atom(k), expr, "reduction")


def _sides(ev: Evaluator, ident: Identity) -> tuple[complex, complex]:
    """Both sides of `ident` evaluated on `ev`, the left one first."""
    return ev.eval_expression(ident.lhs), ev.eval_expression(ident.rhs)


def _compare(lhs: complex, rhs: complex, tol: float) -> dict:
    """The report fields of two evaluated sides: lhs, rhs, their residual,
    and whether it is within tol."""
    residual = float(abs(complex(lhs) - complex(rhs)))
    return dict(lhs=_complex_json(lhs), rhs=_complex_json(rhs), residual=residual, passed=residual <= tol)


def _indices_within(max_weight: int, max_length: int, min_length: int = 1):
    for r in range(min_length, max_length + 1):
        for w in range(max_weight + 1):
            yield from compositions(w, r)


def cmd_reduce(args) -> int:
    _check_tol(args.tol)
    index = parse_index(args.index)
    expr, trace = reduce_index(index, fuel=args.fuel)
    verify_report = None
    if args.verify:
        from .numerics import Evaluator, parse_tau

        ev = Evaluator(parse_tau(args.tau), _load_config(args))
        verify_report = {"tau": str(ev.tau.tau), **_compare(*_sides(ev, _reduction(index, expr)), args.tol)}
    if args.format == "json":
        payload = {
            "index": list(index),
            "expression": expr.to_json_dict(),
            "trace_len": len(trace.steps),
        }
        if args.trace:
            payload["trace"] = [
                {
                    "rule": step.rule,
                    "index": list(step.index),
                    "rhs": step.identity.rhs.to_json_dict(),
                }
                for step in trace.steps
            ]
        if verify_report is not None:
            payload["verify"] = verify_report
        print(json.dumps(payload, sort_keys=True))
    else:
        print(expr.to_text())
        if args.trace:
            for step in trace.steps:
                print(f"# {step.rule}: I({format_index(step.index)}) -> {step.identity.rhs.to_text()}")
        if verify_report is not None:
            print(
                f"# verify tau={verify_report['tau']}: residual {verify_report['residual']:.3e} "
                + ("PASS" if verify_report["passed"] else "FAIL")
            )
    if verify_report is not None and not verify_report["passed"]:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_eval(args) -> int:
    from .numerics import Evaluator, parse_tau

    index = parse_index(args.index)
    tau = parse_tau(args.tau)
    value, estimate = Evaluator(tau, _load_config(args)).regularized(index)
    if args.format == "json":
        print(json.dumps({"index": list(index), "re": value.real, "im": value.imag, "err": estimate}))
    else:
        print(f"{value.real!r} + {value.imag!r}i  (err <= {estimate:.3e})")
    return EXIT_OK


def _prop_mat_indices(max_weight: int) -> list[tuple[int, int]]:
    """(r, s) of every I(r, s) of weight <= max_weight that the length-2
    formula covers."""
    return [(r, w - r) for w in range(max_weight + 1) for r in range(w + 1) if w - r != 1]


def _prop_mat_matches_fay(r: int, s: int) -> bool:
    """Both sides of the length-2 formula for I(r, s) equal the Fay identity's."""
    fay, mat = fay_identity((r, s)), prop_mat_identity(r, s)
    return fay.lhs == mat.lhs and fay.rhs == mat.rhs


def kronecker_points(ev: Evaluator) -> list[tuple[complex, complex, complex, complex]]:
    """The kronecker family's 20 points (alpha, z, alpha2, z2), four draws
    each.  alpha is scaled to R/4 and alpha2 to R/8 along their drawn
    directions, R the shortest period, so that every F of the four
    identities has |alpha| <= 3R/8, within the 0.4 R that kronecker accepts."""
    import numpy as np

    from .numerics import shortest_period

    rng = np.random.default_rng(20240817)
    r = shortest_period(ev.tau)
    points = []
    for _ in range(20):
        a = complex(rng.uniform(0.05, 0.45), rng.uniform(-0.2, 0.2))
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
        a2 = complex(rng.uniform(0.05, 0.4), rng.uniform(-0.15, 0.15))
        z2 = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
        points.append((a / abs(a) * r / 4, z, a2 / abs(a2) * r / 8, z2))
    return points


def _family_instances(family: str, args, cfg: NumericsConfig):
    """Yield (descriptor, callable) pairs; callables return (lhs, rhs) values."""
    from .numerics import Evaluator, parse_tau

    mw, ml = args.max_weight, args.max_length
    tau = parse_tau(args.tau) if args.tau else None
    ev = Evaluator(tau, cfg) if tau is not None else None

    def identity_check(ident):
        return lambda: _sides(ev, ident)

    if family in ("shuffle", "reduction", *IDENTITY_BUILDERS) and ev is None:
        raise ArgumentError(f"family {family} needs --tau")

    if family == "shuffle":
        for v in _indices_within(mw, ml - 1):
            for w in _indices_within(mw - weight(v), ml - len(v)):
                yield f"{format_index(v)}|{format_index(w)}", identity_check(shuffle_identity(v, w))
    elif family in IDENTITY_BUILDERS:
        build = IDENTITY_BUILDERS[family]
        for k in _indices_within(mw, ml):
            try:
                ident = build(k)
            except PreconditionError:
                continue
            yield format_index(k), identity_check(ident)
    elif family == "prop-mat":
        for r, s in _prop_mat_indices(mw):

            def run(r=r, s=s):
                return (1.0 + 0j, (1.0 if _prop_mat_matches_fay(r, s) else 0.0) + 0j)

            yield f"{r},{s}", run
    elif family == "reduction":
        for k in _indices_within(mw, ml, min_length=0):

            def run(k=k):
                return _sides(ev, _reduction(k, reduce_index(k, fuel=args.fuel)[0]))

            yield format_index(k), run
    elif family == "kronecker":
        # Oddness, the periods 1 and tau, and Fay's identity.  Each side is
        # multiplied by alpha (by alpha alpha2 for Fay), which cancels the
        # 1/alpha pole, so every residual is O(1).
        for i, (a, z, a2, z2) in enumerate(kronecker_points(ev)):

            def run(a=a, z=z, a2=a2, z2=z2):
                f = ev.kronecker
                faz = f(a, z)
                checks = [
                    (a * faz, -a * f(-a, -z)),
                    (a * f(a, z + 1), a * faz),
                    (a * f(a, z + tau.tau), a * cmath.exp(-2j * math.pi * a) * faz),
                    (
                        a * a2 * faz * f(a2, z2),
                        a * a2 * (f(a + a2, z) * f(a2, z2 - z) + f(a + a2, z2) * f(a, z - z2)),
                    ),
                ]
                return max(checks, key=lambda pair: abs(pair[0] - pair[1]))

            yield f"point-{i}", run
    else:
        raise ArgumentError(f"unknown family {family!r}")


def cmd_verify(args) -> int:
    _check_tol(args.tol)
    if args.family == "kronecker" and args.tau is None:
        args.tau = "0+1i"  # the family's default, reported like a given --tau
    if args.out:
        _check_out(args.out)
    cfg = _load_config(args)
    instances = list(_family_instances(args.family, args, cfg))

    def evaluate(item):
        descriptor, run = item
        report = {"family": args.family, "instance": descriptor, "tau": args.tau}
        start = time.perf_counter()
        try:
            lhs, rhs = run()
        except (ArithmeticError, PreconditionError) as exc:
            # A typed numeric failure fails this instance only; the sweep goes on.
            report.update(lhs=None, rhs=None, residual=None, passed=False)
            report["error"] = f"{type(exc).__name__}: {exc}"
        else:
            report.update(_compare(lhs, rhs, args.tol))
        report["wall_time"] = time.perf_counter() - start
        return report

    reports = [evaluate(item) for item in instances]

    def text_line(rep) -> str:
        if "error" in rep:
            return f"{rep['family']} {rep['instance']}: error {rep['error']} FAIL"
        verdict = "PASS" if rep["passed"] else "FAIL"
        return f"{rep['family']} {rep['instance']}: residual {rep['residual']:.3e} {verdict}"

    if args.format == "text":
        lines = [text_line(rep) + "\n" for rep in reports]
    else:
        lines = [json.dumps(rep, sort_keys=True) + "\n" for rep in reports]
    if args.out:
        with _open_out(args.out) as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    failed = sum(not rep["passed"] for rep in reports)
    raised = sum("error" in rep for rep in reports)
    print(
        f"# family={args.family}: {len(reports) - failed}/{len(reports)} passed"
        + (f", {raised} raised" if raised else ""),
        file=sys.stderr,
    )
    if raised:
        return EXIT_NUMERIC
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_table(args) -> int:
    """Write one JSON line per index within bounds, each the bytes of
    `json.dumps({"expression", "index", "terminal", "trace_len"},
    sort_keys=True)`.  Rows stream into an anonymous temporary file, which
    is copied out only once the table completes, so a failure writes
    nothing; an `--out` that cannot be written is refused before any row."""
    if args.out:
        _check_out(args.out)
    with tempfile.TemporaryFile("w+", encoding="utf-8") as rows:
        for k in _indices_within(args.max_weight, args.max_length, min_length=0):
            expr, trace = reduce_index(k, fuel=args.fuel)
            n = len(trace.steps)
            rows.write(
                f'{{"expression": {{"terms": {expr.terms_json()}}}, "index": {atom_json(k)}, '
                f'"terminal": {"false" if n else "true"}, "trace_len": {n}}}\n'
            )
        rows.seek(0)
        if args.out:
            with _open_out(args.out) as fh:
                shutil.copyfileobj(rows, fh)
        else:
            shutil.copyfileobj(rows, sys.stdout)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .numerics import Evaluator, parse_tau

    ev = Evaluator(parse_tau("0+1i"), _load_config(args))
    checks: list[tuple[str, Callable[[], bool]]] = []

    def check_prop_mat() -> bool:
        return all(_prop_mat_matches_fay(r, s) for r, s in _prop_mat_indices(6))

    checks.append(("fay matches length-2 formula (weight <= 6)", check_prop_mat))

    def check_simplex() -> bool:
        return all(abs(ev.value((0,) * r) - 1 / math.factorial(r)) < 1e-10 for r in range(1, 5))

    checks.append(("simplex volumes", check_simplex))

    def check_length_one() -> bool:
        return abs(ev.value((2,)) + math.pi**2 / 3) < 1e-8 and abs(ev.value((3,))) < 1e-8

    checks.append(("length-1 values", check_length_one))

    def check_reduce() -> bool:
        return _compare(*_sides(ev, _reduction((2, 1), reduce_index((2, 1))[0])), 1e-6)["passed"]

    checks.append(("reduce and verify (2,1)", check_reduce))

    failures = 0
    for name, run in checks:
        try:
            ok = run()
        except (ArithmeticError, PreconditionError) as exc:
            # A typed numeric failure fails this check only, as in cmd_verify.
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(("PASS" if ok else "FAIL") + f" {name}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emzv",
        description="Reduce and evaluate elliptic multiple zeta values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="rewrite an index into terminal generators")
    p.add_argument("--index", required=True, help="comma-separated entries, '-' for empty")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--tau", default="0+1i")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--config")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("eval", help="evaluate a value numerically")
    p.add_argument("--index", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--config")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="sweep a relation family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-length", type=int, default=3)
    p.add_argument("--tau", default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--out")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--config")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="reduction table for all indices in bounds")
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("selftest", help="quick internal battery")
    p.add_argument("--config")
    p.set_defaults(func=cmd_selftest)

    return parser


def _join_negative_tau(argv: list[str]) -> list[str]:
    """`--tau -0.5+1i` as `--tau=-0.5+1i`: argparse takes a value that
    starts with '-' and is not a plain number for an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--tau" and re.match(r"-[\d.]", arg):
            out[-1] = f"--tau={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Iterable[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_tau(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
