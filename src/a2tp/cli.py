"""Command-line front end.

Subcommands: gen, validate, analyze, table, verify.
Exit codes: 0 success, 1 mathematical check failure, 2 bad input (BadInput or
a file that is not UTF-8), 3 internal error (a bug: two independent computations
disagree, or the field or plane construction broke its own invariants).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from .coinv import AnalysisReport, InternalError, InvalidPresentation, analyze, predicted_group
from .coinv import expected_epsilon_order
from .gf import MAX_Q, BadInput, NoPrimitivePolynomial, factorize, prime_power
from .plane import NotAPlane, PlaneAxiomViolation, PlaneContext, build_plane, lines_form_plane
from .presentation import (
    DEFAULT_BACKTRACK_BUDGET,
    TrianglePresentation,
    gen_t0,
    gen_t0_dual,
    is_s_invariant,
    read_presentation,
    twist_by_name,
    validate,
    write_presentation,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

VARIANTS = ("t0", "t0dual", "frob1", "frob2", "omega")


class UsageError(BadInput):
    pass


def prime_powers_in(lo: int, hi: int) -> list[int]:
    return [q for q in range(max(lo, 2), hi + 1) if len(factorize(q)) == 1]


def build_variant(q: int, variant: str) -> TrianglePresentation:
    pp = prime_power(q)
    if variant == "omega" and q % 3 != 1:
        raise UsageError(f"variant omega requires q = 1 mod 3, got q = {q}")
    plane = build_plane(pp)
    if variant == "t0dual":
        return gen_t0_dual(plane)
    T = gen_t0(plane)
    return T if variant == "t0" else twist_by_name(plane, T, variant)


def _load_presentation(args) -> TrianglePresentation:
    if args.file:
        return read_presentation(args.file)
    if args.q is None:
        raise UsageError("either --q or --file is required")
    return build_variant(args.q, args.variant)


def _budget(args) -> int:
    if args.budget < 0:
        raise UsageError(f"--budget must be at least 0, got {args.budget}")
    return args.budget


def _pass(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _print_report(report: AnalysisReport, output: str) -> None:
    if output == "json":
        print(report.to_json())
        return
    factors = "+".join(f"Z{d}" for d in report.invariant_factors) or "0"
    if report.free_rank:
        factors += f" + Z^{report.free_rank}"
    qfactors = "+".join(f"Z{d}" for d in report.quotient_invariant_factors) or "0"
    eps = report.epsilon_order if report.epsilon_order is not None else "infinite"
    print(f"q={report.q} n={report.N} origin={report.origin}")
    print(f"A_T = {factors}")
    print(f"A_T/<eps> = {qfactors}")
    print(f"ord(eps) = {eps}")
    for name, ok in sorted(report.checks.items()):
        print(f"check {name}: {_pass(ok)}")
    if report.m_subset_size is not None:
        print(f"m_subset_size = {report.m_subset_size}")
    print(f"conjecture ord(eps) = (q-1)/(q-1,3): "
          f"{'CONJECTURE-HOLDS' if report.conjecture_holds else 'CONJECTURE-FAILS'}")
    for flag in report.flags:
        print(f"warning: {flag}")


def cmd_gen(args) -> int:
    T = build_variant(args.q, args.variant)
    write_presentation(T, args.out)
    print(f"wrote {args.out} (q={T.q}, n={T.N}, {len(T.triples)} triples)")
    return EXIT_OK


def cmd_validate(args) -> int:
    T = read_presentation(args.file)
    report = validate(T)
    lines = {k: getattr(report, k) for k in ("axiom_i", "axiom_ii", "axiom_iii")}
    if args.output == "json":
        print(json.dumps({
            "ok": report.ok,
            "size": report.size,
            "expected_size": report.expected_size,
            **{k: {"ok": v.ok, "witness": v.witness} for k, v in lines.items()},
        }, sort_keys=True))
    else:
        for k, v in lines.items():
            suffix = "" if v.ok else f"  witness {v.witness}"
            print(f"{k}: {_pass(v.ok)}{suffix}")
        print(f"size: {report.size} (expected {report.expected_size})")
    if not report.ok:
        raise UsageError(f"presentation invalid, witness {report.witness}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    budget = _budget(args)
    T = _load_presentation(args)
    if args.file and not lines_form_plane(T.lam, T.q):  # a generated lambda is a Singer plane
        raise NotAPlane(f"the lambda lines fail the projective-plane axioms for q={T.q}")
    report = analyze(T, m_budget=budget)
    _print_report(report, args.output)
    return EXIT_OK if report.all_checks_pass else EXIT_CHECK_FAILED


def _table_row(plane: PlaneContext, variant: str, T: TrianglePresentation) -> dict:
    q = plane.q
    report = analyze(T)
    predicted = predicted_group(q, plane.pp.p, plane.pp.r, variant)
    eps_pred = expected_epsilon_order(q)
    match = (
        report.invariant_factors == predicted
        and report.epsilon_order == eps_pred
        and report.free_rank == 0
        and report.all_checks_pass
    )
    return {
        "q": q,
        "variant": variant,
        "computed_factors": [str(d) for d in report.invariant_factors],
        "predicted_factors": [str(d) for d in predicted],
        "epsilon_order": report.epsilon_order,
        "predicted_epsilon_order": eps_pred,
        "checks_pass": report.all_checks_pass,
        "verdict": "MATCH" if match else "MISMATCH",
    }


def _table_rows_for_q(q: int) -> list[dict]:
    plane = build_plane(q)  # one plane for both variants
    variants = (("t0", gen_t0), ("t0dual", gen_t0_dual))
    return [_table_row(plane, variant, gen(plane)) for variant, gen in variants]


def cmd_table(args) -> int:
    if args.q_max > MAX_Q:  # before any q is factorized or runs
        raise UsageError(f"q = {args.q_max} exceeds the supported maximum {MAX_Q}")
    qs = prime_powers_in(args.q_min, args.q_max)
    if not qs:
        raise UsageError(f"no prime powers in range {args.q_min}..{args.q_max}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_q = list(pool.map(_table_rows_for_q, qs))
    else:
        per_q = [_table_rows_for_q(q) for q in qs]
    rows = [row for group in per_q for row in group]
    if args.output == "json":
        print(json.dumps({"rows": rows}, sort_keys=True))
    else:
        header = f"{'q':>3} {'variant':<7} {'computed':<28} {'predicted':<28} {'eps':>4} {'verdict'}"
        print(header)
        for row in rows:
            comp = "+".join(f"Z{d}" for d in row["computed_factors"]) or "0"
            pred = "+".join(f"Z{d}" for d in row["predicted_factors"]) or "0"
            print(
                f"{row['q']:>3} {row['variant']:<7} {comp:<28} {pred:<28} "
                f"{row['epsilon_order']:>4} {row['verdict']}"
            )
    ok = all(row["verdict"] == "MATCH" for row in rows)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    budget = _budget(args)
    T = _load_presentation(args)
    if args.file:
        # A file gives only its line table; there is no difference set to check.
        lines = [("plane-axioms", _pass(lines_form_plane(T.lam, T.q)))]
    else:
        # build_plane verifies the difference set, which implies the axioms.
        lines = [("plane-axioms", "PASS"), ("difference-set", "PASS")]
    try:
        report = analyze(T, m_budget=budget)  # validates T first
    except InvalidPresentation:
        lines.append(("triangle-axioms", "FAIL"))
    else:
        checks = report.checks
        m_found = checks["m_subset_found"]
        m_subset = _pass(checks["q_minus_1_kills_epsilon"]) if m_found else "NOT-FOUND"
        lines += [
            ("triangle-axioms", "PASS"),
            ("s-invariance", "TRUE" if is_s_invariant(T) else "FALSE"),
            ("m-subset", m_subset),
            ("lemma_q2", _pass(checks["lemma_q2"])),
            ("lower_bound", _pass(checks["lower_bound"])),
            ("scheme_agreement", _pass(checks["scheme_agreement"])),
            ("gamma_ab", _pass(checks["gamma_ab_divisibility"])),
            ("conjecture", "CONJECTURE-HOLDS" if report.conjecture_holds else "CONJECTURE-FAILS"),
        ]
    for name, verdict in lines:  # TRUE, FALSE and NOT-FOUND never fail the run
        print(f"{name}: {verdict}")
    return EXIT_CHECK_FAILED if any(verdict == "FAIL" for _, verdict in lines) else EXIT_OK


@functools.cache  # built on the first call, not at import; parse_args leaves it unchanged
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a2tp",
        description="Triangle presentations over PG(2,q) and the abelian invariant A_T",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--q", type=int, help="prime power order of the plane")
        p.add_argument("--variant", choices=VARIANTS, default="t0")
        p.add_argument("--file", help="presentation file (alternative to --q)")
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BACKTRACK_BUDGET,
            help="M-subset search node budget (default %(default)s)",
        )

    p = sub.add_parser("gen", help="generate a presentation file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="t0")
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="check the triangle axioms of a file")
    p.add_argument("--file", required=True)
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="compute A_T, its quotient and ord(eps)")
    add_common(p)
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("table", help="reproduce the published table over a q range")
    p.add_argument("--q-min", type=int, default=2)
    p.add_argument("--q-max", type=int, default=16)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at most the CPU count"
    )

    p = sub.add_parser("verify", help="run every structural and theorem check")
    add_common(p)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # By name on each call: a traced or patched cmd_* takes effect under the cached parser.
        return globals()[f"cmd_{args.command}"](args)
    except (BadInput, OSError, UnicodeDecodeError) as exc:  # or a file that is not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InternalError, NoPrimitivePolynomial, PlaneAxiomViolation) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
