"""The benchmark workloads: the CLI calls each one makes, and the oracle for each output.

One operation is one presentation.  An oracle returns, per presentation, None
when it passed, BUDGET_EXHAUSTED when the M-subset search ran out of budget on
an input known to have an M-subset, or else the reason it failed (an
exception, an exit code that is not 0 or 1, or any other check that is not
PASS).  A group or an order that differs from the oracle raises WrongAnswer,
which aborts the run: a wrong answer never counts as a slow one.
"""

from __future__ import annotations

import json
import random
from math import gcd, prod
from pathlib import Path
from typing import Callable, NamedTuple, Optional

Outcome = Optional[str]  # None = passed, else BUDGET_EXHAUSTED or the reason it failed

# The backtracker gave up on an input that has an M-subset by construction, and
# the program reports that as m_subset_found: FAIL, which also fails
# q_minus_1_kills_epsilon.  That is the known defect of ROADMAP item 5 (FAIL
# where UNKNOWN is meant), not a wrong result: it is counted apart from the
# failures, in pass_ratio and fail_ratio.
BUDGET_EXHAUSTED = "m-subset search out of budget (ROADMAP item 5)"
_BUDGET_CHECKS = ["m_subset_found", "q_minus_1_kills_epsilon"]


def is_failure(outcome: Outcome) -> bool:
    return outcome is not None and outcome != BUDGET_EXHAUSTED


class WrongAnswer(Exception):
    """A computed group or order differs from the benchmark's oracle."""


class Op(NamedTuple):
    argv: list[str]
    check: Callable[[Optional[int], str], list[Outcome]]  # (exit code or None, stdout)


# -- oracles ---------------------------------------------------------------


def invariant_factors(cyclics: list[int]) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... (1s dropped) of the direct sum of Z_n, n in cyclics."""
    d = sorted(cyclics)
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
        d.sort()
    return tuple(x for x in d if x != 1)


def _prime_power(q: int) -> tuple[int, int]:
    p = next(p for p in range(2, q + 1) if q % p == 0)
    r = 0
    while q % p == 0:
        q //= p
        r += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, r


def table_group(q: int, variant: str) -> tuple[int, ...]:
    """The paper's table: A_t0 = Z_(q-1) (+ Z_3 if q = 1 mod 3); t0dual adds (Z_p)^(3r).

    Kept here rather than imported from a2tp, so that a change to the program
    cannot change the oracle it is judged by.
    """
    cyclics = [q - 1] + ([3] if q % 3 == 1 else [])
    if variant == "t0dual":
        p, r = _prime_power(q)
        cyclics += [p] * (3 * r)
    return invariant_factors(cyclics)


def table_epsilon_order(q: int) -> int:
    return (q - 1) // gcd(q - 1, 3)


# (A_T, A_T/<eps>, ord(eps)) at q = 19, pinned to the values computed before any
# change to the elimination engine.  No closed form is known for the twists.
TWIST_GROUPS = {
    "frob1": ((3, 2286), (3, 381), 6),
    "omega": ((54,), (3,), 18),
}


def check_group(what: str, got: tuple, expected: tuple) -> None:
    if got != expected:
        raise WrongAnswer(f"{what}: got {got}, expected {expected}")


def check_report(
    what: str, code: Optional[int], out: str, factors, quotient, eps, m_subset_exists=False
) -> Outcome:
    """Oracle for one `analyze --output json` call; `quotient` None = derive its order.

    `m_subset_exists` says the input is known to have an M-subset, so that a
    failed search can only mean its budget ran out.
    """
    if code is None:
        return "exception"
    if code not in (0, 1):
        return f"exit code {code}"
    report = json.loads(out)
    got_factors = tuple(int(d) for d in report["invariant_factors"])
    got_quotient = tuple(int(d) for d in report["quotient_invariant_factors"])
    check_group(f"{what} A_T", (got_factors, report["free_rank"]), (factors, 0))
    check_group(f"{what} ord(eps)", report["epsilon_order"], eps)
    if quotient is None:
        # |A_T/<eps>| = |A_T| / ord(eps) in any finite abelian group.
        check_group(f"{what} |A_T/<eps>|", prod(got_quotient), prod(factors) // eps)
    else:
        check_group(f"{what} A_T/<eps>", got_quotient, quotient)
    failing = sorted(name for name, ok in report["checks"].items() if not ok)
    if failing == _BUDGET_CHECKS and m_subset_exists and code == 1:
        return BUDGET_EXHAUSTED
    if failing:
        return "FAIL " + ",".join(failing)
    return None if code == 0 else f"exit code {code} with every check PASS"


# -- table: the paper's table over every prime power q <= 16 ----------------

TABLE_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def table_argv(q: int) -> list[str]:
    """One row pair of the table: `table` limited to one q, so each q is timed on its own."""
    return ["table", "--q-min", str(q), "--q-max", str(q), "--jobs", "1", "--output", "json"]


def check_table(code: Optional[int], out: str, qs=TABLE_QS) -> list[Outcome]:
    expected = [(q, v) for q in qs for v in ("t0", "t0dual")]
    if code not in (0, 1):
        return [f"exit code {code}"] * len(expected)
    rows = json.loads(out)["rows"]
    check_group("table rows", [(r["q"], r["variant"]) for r in rows], expected)
    outcomes = []
    for r in rows:
        q, v = r["q"], r["variant"]
        got = tuple(int(d) for d in r["computed_factors"])
        check_group(f"table q={q} {v} A_T", got, table_group(q, v))
        check_group(f"table q={q} {v} ord(eps)", r["epsilon_order"], table_epsilon_order(q))
        outcomes.append(None if r["checks_pass"] else "FAIL checks")
    return outcomes


def build_table(a2tp, seed: int, workdir: Path) -> list[Op]:
    return [Op(table_argv(q), lambda code, out, q=q: check_table(code, out, (q,))) for q in TABLE_QS]


# -- twists: the two order-3 twists of t0 at q = 19 (N = 381) ---------------


def build_twists(a2tp, seed: int, workdir: Path) -> list[Op]:
    ops = []
    for variant, (factors, quotient, eps) in TWIST_GROUPS.items():
        def check(code, out, what=f"q=19 {variant}", g=(factors, quotient, eps)):
            return [check_report(what, code, out, *g)]
        ops.append(Op(["analyze", "--q", "19", "--variant", variant, "--output", "json"], check))
    return ops


# -- files: relabelled t0/t0dual read from files, M-subset by backtracking ---

FILE_QS = (2, 3, 4, 5, 7)
FILE_RELABELLINGS = 18  # per (q, variant); the backtracker's luck averages over them
FILE_BUDGET = 200  # backtracking nodes per presentation


def relabel(a2tp, T, rng: random.Random):
    """T under a random permutation of the points, redrawn until not S-invariant.

    The image of T's M-subset is checked to be an M-subset of the result, so a
    search that finds none there has run out of budget.
    """
    N = T.N
    m = a2tp.find_m_subset(T).subset  # the Singer orbit: T is S-invariant
    while True:
        perm = list(range(N))
        rng.shuffle(perm)
        lam = [()] * N
        for x in range(N):
            lam[perm[x]] = tuple(sorted(perm[y] for y in T.lam[x]))
        triples = frozenset((perm[x], perm[y], perm[z]) for (x, y, z) in T.triples)
        U = a2tp.TrianglePresentation(
            q=T.q, N=N, lam=tuple(lam), triples=triples, origin=f"relabelled:{T.origin}"
        )
        if not a2tp.is_s_invariant(U):
            image = frozenset((perm[x], perm[y], perm[z]) for (x, y, z) in m)
            counts = a2tp.presentation.m_subset_occurrences(U, image)
            if not (image <= U.triples and all(c == 3 for c in counts)):
                raise RuntimeError(f"relabelled {T.origin} q={T.q} lost its M-subset")
            return U


def write_files(a2tp, seed: int, workdir: Path) -> list[tuple[Path, int, str]]:
    """Write the seeded relabellings; the same seed gives byte-identical files."""
    rng = random.Random(seed)
    files = []
    for q in FILE_QS:
        plane = a2tp.build_plane(q)
        for variant, gen in (("t0", a2tp.gen_t0), ("t0dual", a2tp.gen_t0_dual)):
            T = gen(plane)
            for k in range(FILE_RELABELLINGS):
                U = relabel(a2tp, T, rng)
                if not a2tp.validate(U).ok:
                    raise RuntimeError(f"relabelled {variant} q={q} fails the triangle axioms")
                path = workdir / f"{variant}_q{q}_{k}.a2tp"
                a2tp.write_presentation(U, path)
                files.append((path, q, variant))
    return files


def build_files(a2tp, seed: int, workdir: Path) -> list[Op]:
    ops = []
    for path, q, variant in write_files(a2tp, seed, workdir):
        # Relabelling renames generators only: A_T and ord(eps) stay the table's.
        def check(code, out, what=path.name, g=(table_group(q, variant), None, table_epsilon_order(q))):
            return [check_report(what, code, out, *g, m_subset_exists=True)]
        argv = ["analyze", "--file", str(path), "--output", "json", "--budget", str(FILE_BUDGET)]
        ops.append(Op(argv, check))
    return ops


# name -> build(a2tp package, seed, scratch directory) -> the operations of one pass
WORKLOADS: dict[str, Callable[[object, int, Path], list[Op]]] = {
    "table": build_table,
    "twists": build_twists,
    "files": build_files,
}
