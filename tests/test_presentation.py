import functools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import a2tp
from a2tp.automorphism import find_cyclic_automorphism, is_cyclic_automorphism
from a2tp.cli import main, prime_powers_in
from a2tp.gf import BadInput
from a2tp.plane import build_plane
from a2tp.presentation import _orbit as certified_orbit
from a2tp.presentation import (
    DEFAULT_BACKTRACK_BUDGET,
    VARIANTS,
    InconsistentHeader,
    MSubsetResult,
    ParseError,
    PhiDoesNotFixT,
    PhiNotOrder3,
    TrianglePresentation,
    _backtrack_m_subset,
    find_m_subset,
    gen_t0,
    gen_t0_dual,
    gen_variant,
    is_s_invariant,
    m_subset_occurrences,
    read_presentation,
    twist,
    validate,
    write_presentation,
)
from helpers import reference_read_presentation, reference_validate, reference_variant, twist_map


@pytest.fixture(scope="module")
def planes():
    return {q: build_plane(q) for q in (2, 3, 4, 5)}


def test_t0_sizes(planes):
    assert len(gen_t0(planes[2]).triples) == 21
    assert len(gen_t0(planes[3]).triples) == 52
    for q, pl in planes.items():
        assert len(gen_t0(pl).triples) == (q + 1) * pl.N


def test_t0_size_matches_incident_pair_count(planes):
    # axioms (i)+(iii): one triple per incident pair (x, y in lambda(x))
    for q, pl in planes.items():
        T = gen_t0(pl)
        pairs = sum(len(T.lam[x]) for x in range(T.N))
        assert len(T.triples) == pairs


def test_t0_q4_contains_fixed_triple(planes):
    assert (0, 7, 14) in gen_t0(planes[4]).triples


def test_t0_validates(planes):
    for q, pl in planes.items():
        for T in (gen_t0(pl), gen_t0_dual(pl)):
            report = validate(T)
            assert report.ok, (q, report)


def test_t0_q5_axioms_pass():
    report = validate(gen_t0(build_plane(5)))
    assert report.axiom_i.ok and report.axiom_ii.ok and report.axiom_iii.ok


def test_cyclic_closure(planes):
    for q, pl in planes.items():
        T = gen_t0(pl)
        for (x, y, z) in T.triples:
            assert (y, z, x) in T.triples


def test_dual_is_reverse_negate(planes):
    for q, pl in planes.items():
        T0 = gen_t0(pl)
        Td = gen_t0_dual(pl)
        N = pl.N
        assert Td.triples == frozenset(
            ((-k) % N, (-j) % N, (-i) % N) for (i, j, k) in T0.triples
        )


def test_dual_differs_from_t0_q2(planes):
    assert gen_t0(planes[2]).triples != gen_t0_dual(planes[2]).triples
    assert validate(gen_t0_dual(planes[2])).ok


def test_char3_degenerate_triple(planes):
    # char 3: the unit coset is trace-zero, producing (x, x, x)
    T = gen_t0(planes[3])
    assert (0, 0, 0) in T.triples


def test_s_invariance(planes):
    for q, pl in planes.items():
        assert is_s_invariant(gen_t0(pl))
        assert is_s_invariant(gen_t0_dual(pl))


def test_twist_by_identity(planes):
    T = gen_t0(planes[2])
    assert twist(T, lambda x: x, "id").triples == T.triples


def test_twist_frobenius_q2(planes):
    pl = planes[2]
    T = gen_t0(pl)
    tw = gen_variant(pl, "frob1")
    assert validate(tw).ok
    assert not is_s_invariant(tw)
    # the twisted correspondence is lambda0 composed with Frobenius
    for x in range(pl.N):
        assert set(tw.lam[x]) == {2 * y % pl.N for y in T.lam[x]}


def test_twist_omega_q4(planes):
    pl = planes[4]
    tw = gen_variant(pl, "omega")
    assert validate(tw).ok


def test_triple_twist_returns_original(planes):
    pl = planes[2]
    T = gen_t0(pl)
    phi = lambda x: 2 * x % pl.N  # Frobenius at q = 2
    tw = T
    for _ in range(3):
        tw = twist(tw, phi, "frob1")
    assert tw.triples == T.triples


def test_twist_rejects_wrong_order(planes):
    pl = planes[2]
    T = gen_t0(pl)
    with pytest.raises(PhiNotOrder3):
        twist(T, lambda x: (x + 1) % pl.N, "shift")


def test_twist_rejects_phi_not_fixing_t(planes):
    pl = planes[4]
    T = gen_t0(pl)
    # Relabel the points by a permutation that is not Frobenius-equivariant;
    # the result is still a valid presentation but no longer Frobenius-fixed.
    relabeled = _relabeled(T, 0)
    assert validate(relabeled).ok
    with pytest.raises(PhiDoesNotFixT):
        twist(relabeled, lambda x: 4 * x % pl.N, "frob1")


VARIANTS_UP_TO_19 = [
    (q, v) for q in prime_powers_in(2, 19) for v in VARIANTS if v != "omega" or q % 3 == 1
]


@pytest.mark.parametrize(
    "q, variant", VARIANTS_UP_TO_19, ids=[f"q{q}-{v}" for q, v in VARIANTS_UP_TO_19]
)
def test_gen_variant_is_the_twist_of_its_base(q, variant):
    T, reference = gen_variant(_plane(q), variant), reference_variant(_plane(q), variant)
    assert (T.triples, T.lam, T.origin) == (reference.triples, reference.lam, reference.origin)


@pytest.mark.parametrize("q", prime_powers_in(2, 19))
def test_every_twist_is_an_order_3_collineation(q):
    # Each phi is a permutation of order 3, and each twisted lambda(x) is a line.
    plane = _plane(q)
    N = plane.N
    lines = {tuple(sorted((x + d) % N for d in plane.tz)) for x in range(N)}
    for variant in ("frob1", "frob2", "omega"):
        if variant == "omega" and q % 3 != 1:
            refusal = f"^variant omega requires q = 1 mod 3, got q = {q}$"
            with pytest.raises(PhiNotOrder3, match=refusal):  # bad input, exit 2 in the CLI
                gen_variant(plane, variant)
            assert issubclass(PhiNotOrder3, BadInput)
            continue
        phi = [twist_map(plane, variant)(x) for x in range(N)]
        assert sorted(phi) == list(range(N)) != phi
        assert [phi[phi[phi[x]]] for x in range(N)] == list(range(N))
        assert set(gen_variant(plane, variant).lam) == lines


@pytest.mark.parametrize("q", prime_powers_in(2, 19))
def test_a_twist_by_a_three_cycle_fails_axiom_ii_alone(q, monkeypatch, capsys):
    # The 3-cycle (0 1 2) has order 3 but maps t0 out of itself.  Built as the generator
    # builds a twist, with no check, only axiom (ii) fails, and analyze exits 2.
    T = gen_t0(_plane(q))
    phi = [1, 2, 0] + list(range(3, T.N))
    slipped = replace(
        T,
        lam=tuple(tuple(sorted(phi[y] for y in line)) for line in T.lam),
        triples=frozenset((x, phi[y], phi[phi[z]]) for x, y, z in T.triples),
    )
    report = validate(slipped)
    assert (report.axiom_i.ok, report.axiom_ii.ok, report.axiom_iii.ok) == (True, False, True)
    assert report.size == report.expected_size
    monkeypatch.setattr("a2tp.cli.gen_variant", lambda plane, name: slipped)
    assert main(["analyze", "--q", str(q)]) == 2
    assert capsys.readouterr().err.startswith("error: presentation failed triangle axioms")


def _relabeled(T, seed):
    perm = list(range(T.N))
    random.Random(seed).shuffle(perm)
    return TrianglePresentation(
        q=T.q,
        N=T.N,
        lam=tuple(
            tuple(sorted(perm[y] for y in T.lam[x])) for x in _inverse_order(perm, T.N)
        ),
        triples=frozenset((perm[x], perm[y], perm[z]) for (x, y, z) in T.triples),
        origin="relabeled",
    )


def _inverse_order(perm, n):
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def test_validate_detects_deletion(planes):
    T = gen_t0(planes[2])
    removed = next(iter(sorted(T.triples)))
    mutated = TrianglePresentation(
        q=T.q, N=T.N, lam=T.lam, triples=T.triples - {removed}, origin="mutated"
    )
    report = validate(mutated)
    assert not report.ok
    assert not (report.axiom_i.ok and report.axiom_ii.ok)


def test_validate_detects_conflicting_triple(planes):
    T = gen_t0(planes[2])
    x, y, z = next(iter(sorted(T.triples)))
    z2 = (z + 1) % T.N
    mutated = TrianglePresentation(
        q=T.q, N=T.N, lam=T.lam, triples=T.triples | {(x, y, z2)}, origin="mutated"
    )
    report = validate(mutated)
    assert not report.axiom_iii.ok
    assert report.axiom_iii.witness == (x, y)


def test_m_subset_s_invariant(planes):
    for q, pl in planes.items():
        T = gen_t0(pl)
        result = find_m_subset(T)
        assert result.found
        assert len(result.subset) == pl.N
        assert all(c == 3 for c in m_subset_occurrences(T, result.subset))


def test_m_subset_q2_size_seven(planes):
    result = find_m_subset(gen_t0(planes[2]))
    assert len(result.subset) == 7


def test_m_subset_orbit_projections_bijective(planes):
    T = gen_t0(planes[3])
    m = find_m_subset(T).subset
    for slot in range(3):
        assert len({t[slot] for t in m}) == T.N


def test_m_subset_twisted(planes):
    pl = planes[4]
    tw = gen_variant(pl, "omega")
    result = find_m_subset(tw)
    assert result.found
    assert all(c == 3 for c in m_subset_occurrences(tw, result.subset))


def test_m_subset_backtracking(planes):
    T = gen_t0(planes[2])
    result = _backtrack_m_subset(T, 10**6)
    assert result.found
    assert all(c == 3 for c in m_subset_occurrences(T, result.subset))


def test_m_subset_budget_exhaustion(planes):
    T = gen_t0(planes[3])
    result = _backtrack_m_subset(T, 1)
    assert not result.found
    assert not result.proven_absent  # ran out of budget, not of search space


def reference_backtrack(T: TrianglePresentation, budget: int) -> MSubsetResult:
    """The recursive search `_backtrack_m_subset` replaced, kept as its oracle.

    It recounts every point's usable triples at every node.  The search tree,
    the node count and the result must be the same.
    """
    N = T.N
    triples = sorted(T.triples)
    containing: list[list[int]] = [[] for _ in range(N)]
    for idx, (x, y, z) in enumerate(triples):
        for pt in {x, y, z}:
            containing[pt].append(idx)

    need = [3] * N
    chosen: list[int] = []
    nodes = 0
    exhausted = True

    def fits(idx: int) -> bool:
        x, y, z = triples[idx]
        use = {x: 0, y: 0, z: 0}
        for pt in (x, y, z):
            use[pt] += 1
        return all(need[pt] >= c for pt, c in use.items())

    def solve() -> bool:
        nonlocal nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = False
            return False
        # Pick the unfinished point with fewest usable triples.
        best_pt, best_opts = -1, None
        chosen_set = set(chosen)
        for pt in range(N):
            if need[pt] == 0:
                continue
            opts = [i for i in containing[pt] if i not in chosen_set and fits(i)]
            if best_opts is None or len(opts) < len(best_opts):
                best_pt, best_opts = pt, opts
                if not opts:
                    return False
        if best_opts is None:
            return True  # every point satisfied
        for i in best_opts:
            x, y, z = triples[i]
            for pt in (x, y, z):
                need[pt] -= 1
            chosen.append(i)
            if solve():
                return True
            chosen.pop()
            for pt in (x, y, z):
                need[pt] += 1
            if not exhausted:
                return False
        return False

    if solve():
        return MSubsetResult(frozenset(triples[i] for i in chosen))
    return MSubsetResult(None, proven_absent=exhausted)


ORACLE_BUDGETS = range(1, 61)


def _agrees_with_reference(T, budgets=ORACLE_BUDGETS) -> list[MSubsetResult]:
    # Equal results at every budget pin the node count as well as the tree.
    results = [_backtrack_m_subset(T, b) for b in budgets]
    assert results == [reference_backtrack(T, b) for b in budgets]
    return results


@pytest.mark.parametrize("variant", ["t0", "t0dual"])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_backtrack_matches_reference_on_relabellings(planes, q, variant):
    T = {"t0": gen_t0, "t0dual": gen_t0_dual}[variant](planes[q])
    results = _agrees_with_reference(_relabeled(T, q))
    assert not results[0].found and not results[0].proven_absent
    if q <= 3:  # found within 60 nodes; at q = 4, 5 every budget runs out
        assert results[-1].found


@pytest.mark.parametrize(
    "variant, seed, budgets",
    # Seed 93 is the only seed below 400 whose t0 relabelling the search solves
    # within 200 nodes (at node 89), so budgets 88 and 89 pin its node count.
    [("t0", 93, (1, 88, 89, 100, 200, 201)), ("t0dual", 7, (1, 100, 200, 201))],
)
def test_backtrack_matches_reference_at_q7_and_the_file_budget(variant, seed, budgets):
    # Relabellings at q = 7 are the largest file inputs the search meets; a budget
    # of 200 nodes is the one the benchmark's files pass gives it.
    T = {"t0": gen_t0, "t0dual": gen_t0_dual}[variant](build_plane(7))
    results = _agrees_with_reference(_relabeled(T, seed), budgets)
    assert [r.found for r in results] == [b >= 89 and variant == "t0" for b in budgets]
    assert not any(r.proven_absent for r in results)


def _bare_presentation(N, triples):
    # The search reads only N and the triples; lam is not consulted.
    return TrianglePresentation(
        q={7: 2, 13: 3}[N], N=N, lam=((),) * N, triples=frozenset(triples), origin="random"
    )


@st.composite
def triple_sets(draw):
    N = draw(st.sampled_from([7, 13]))
    point = st.integers(0, N - 1)
    triples = set(draw(st.lists(st.tuples(point, point, point), max_size=2 * N)))
    if draw(st.booleans()):  # plant an orbit of (x+1, y+c, z+c^2): every point occurs 3 times
        x, y, z = draw(st.tuples(point, point, point))
        c = draw(st.sampled_from([1, 2, 4] if N == 7 else [1, 3, 9]))
        triples |= {((x + k) % N, (y + c * k) % N, (z + c * c * k) % N) for k in range(N)}
    return _bare_presentation(N, triples)


# Repeated points, M subset found at budget 60 (budget 1 runs out at the root).
FOUND_WITH_REPEATS = _bare_presentation(7, {(k, k, (k + 1) % 7) for k in range(7)})
# Point 0 lies in one triple only, so it cannot occur 3 times: no M subset.
NO_M_SUBSET = _bare_presentation(7, {(0, 1, 2), (3, 3, 3), (4, 5, 6)})
# Each point in a (k, k, k) of its own: the M subset is all of T, found at node 8.
ALL_TRIPLED = _bare_presentation(7, {(k, k, k) for k in range(7)})
# Point 2 is picked first; once (2, 2, 2) fails, (2, 6, 3) leaves point 2 needing 2, and
# (2, 2, 2), with multiplicity 3 there, must be blocked (proven absent at node 4).
TRIPLE_BLOCKED = _bare_presentation(
    7, {(0, 5, 3), (1, 0, 6), (1, 4, 0), (1, 5, 4), (2, 2, 2), (2, 6, 3)}
)
# At node 4, (2, 3, 2) leaves point 2 needing 1, and (2, 2, 5) must be blocked.
DOUBLE_BLOCKED = _bare_presentation(
    7, {(0, 0, 4), (0, 4, 5), (0, 6, 3), (1, 1, 5), (1, 6, 0), (2, 2, 5), (2, 3, 2), (2, 6, 1)}
)


@settings(max_examples=60, deadline=None)
@example(FOUND_WITH_REPEATS)
@example(NO_M_SUBSET)
@example(ALL_TRIPLED)
@example(TRIPLE_BLOCKED)
@example(DOUBLE_BLOCKED)
@given(triple_sets())
def test_backtrack_matches_reference_on_random_triples(T):
    _agrees_with_reference(T)


def test_random_triple_examples_reach_every_outcome():
    assert _backtrack_m_subset(FOUND_WITH_REPEATS, 1) == MSubsetResult(None)
    assert _backtrack_m_subset(FOUND_WITH_REPEATS, 60).found
    assert _backtrack_m_subset(NO_M_SUBSET, 60) == MSubsetResult(None, proven_absent=True)
    assert _backtrack_m_subset(ALL_TRIPLED, 8).subset == ALL_TRIPLED.triples
    assert _backtrack_m_subset(TRIPLE_BLOCKED, 4) == MSubsetResult(None, proven_absent=True)


@functools.cache
def _valid_presentation(q, variant):
    return gen_variant(build_plane(q), variant)


@st.composite
def mutated_presentations(draw):
    """t0, t0dual or frob1 at q <= 5 with a few triples deleted, added or rotated away."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    T = _valid_presentation(q, draw(st.sampled_from(["t0", "t0dual", "frob1"])))
    point = st.integers(0, T.N - 1)
    triples = set(T.triples)
    for _ in range(draw(st.integers(1, 3))):
        x, y, z = draw(st.sampled_from(sorted(T.triples)))
        kind = draw(st.sampled_from(["delete", "conflicting z", "y off lambda(x)", "a rotation"]))
        if kind == "delete":
            triples.discard((x, y, z))
        elif kind == "conflicting z":
            triples.add((x, y, draw(point.filter(lambda w: w != z))))
        elif kind == "y off lambda(x)":
            triples.add((x, draw(point.filter(lambda w: w not in T.lam[x])), draw(point)))
        else:  # drop a rotation of (x, y, z)
            triples.discard(draw(st.sampled_from([(y, z, x), (z, x, y)])))
    return replace(T, triples=frozenset(triples), origin="mutated")


@settings(max_examples=300, deadline=None)
@given(mutated_presentations())
def test_validate_matches_the_sorted_reference_on_mutations(T):
    assert validate(T) == reference_validate(T)


@settings(max_examples=100, deadline=None)
@example(FOUND_WITH_REPEATS)
@example(NO_M_SUBSET)
@given(triple_sets())
def test_validate_matches_the_sorted_reference_on_random_triples(T):
    # lam is empty, so every started point is off its line
    assert validate(T) == reference_validate(T)


def test_validate_fills_the_third_point_table(planes):
    for q, pl in planes.items():
        T = gen_variant(pl, "frob1")
        third = validate(T).third
        pairs = [(x, y) for x, line in enumerate(T.lam) for y in line]
        assert sorted(T.triples) == [(x, y, z) for (x, y), z in zip(pairs, chain(*third))]
        # one row per point, slot i the z of (x, lam[x][i]), None where no triple starts;
        # an invalid T too: with one triple removed, its pair alone is unstarted
        missing = min(T.triples)
        U = replace(T, triples=T.triples - {missing})
        for V in (T, U):
            third, z_of = validate(V).third, {(x, y): z for x, y, z in V.triples}
            assert [len(row) for row in third] == [len(line) for line in V.lam], q
            assert third == tuple([z_of.get((x, y)) for y in V.lam[x]] for x in range(V.N))
        assert not validate(U).ok
        assert [xy for xy, z in zip(pairs, chain(*third)) if z is None] == [missing[:2]], q


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_backtrack_depth_is_not_bounded_by_recursion_limit():
    # A relabelled q = 5 t0 whose search finds an M subset of N = 31 triples
    # within 200 nodes, so the path is 31 deep; a recursive search needs a
    # frame per level and would raise RecursionError here.
    T = read_presentation(Path(__file__).parent / "golden" / "files" / "t0_q5_s35.a2tp")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 20)
    try:
        result = _backtrack_m_subset(T, 200)
    finally:
        sys.setrecursionlimit(limit)
    assert result.found and len(result.subset) == T.N
    assert all(c == 3 for c in m_subset_occurrences(T, result.subset))


def test_m_subset_budget_option(planes, tmp_path, capsys):
    from a2tp.cli import main, make_parser
    from a2tp.coinv import analyze

    assert make_parser().parse_args(["analyze", "--q", "2"]).budget == DEFAULT_BACKTRACK_BUDGET
    # not S-invariant and no twist base, so only the budgeted searches (the finder, then
    # the backtracker) can find an M-subset, and --budget 1 leaves neither a node to spend
    T = _relabeled(gen_t0(planes[2]), 1)
    assert not is_s_invariant(T)
    assert not analyze(T, m_budget=1).checks["m_subset_found"]
    assert analyze(T).checks["m_subset_found"]
    path = tmp_path / "relabeled.a2tp"
    write_presentation(T, path)
    assert main(["analyze", "--file", str(path), "--output", "json", "--budget", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"]["m_subset_found"] is False
    assert main(["analyze", "--file", str(path), "--output", "json"]) == 0


def _orbit(g, t, n):
    orbit = []
    for _ in range(n):
        orbit.append(t)
        t = tuple(g[p] for p in t)
    return frozenset(orbit)


def _is_point_regular_cyclic(T, g) -> bool:
    # Independent of `is_cyclic_automorphism`: N distinct points lead 0 back to 0; T maps into T.
    walk = [0]
    for _ in range(T.N):
        walk.append(g[walk[-1]])
    triples = T.triples
    return walk[-1] == 0 and len(set(walk)) == T.N and all(
        (g[x], g[y], g[z]) in triples for x, y, z in triples
    )


@functools.cache
def _plane(q):
    return build_plane(q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 19])
@pytest.mark.parametrize("variant", ["t0", "t0dual"])
def test_finder_certifies_an_m_subset_of_relabellings(q, variant):
    # Relabelled, the Singer cycle is still a point-regular cyclic automorphism, but no
    # longer x -> x + 1; the finder finds one within 200 nodes, and within a budget of
    # twice that many find_m_subset, which gives the finder half, returns its orbit.
    for seed in (0, 1):
        T = _relabeled({"t0": gen_t0, "t0dual": gen_t0_dual}[variant](_plane(q)), seed)
        assert not is_s_invariant(T)
        g, nodes = find_cyclic_automorphism(T, validate(T).third, 200)
        assert g is not None and nodes <= 200
        assert _is_point_regular_cyclic(T, g)
        m = find_m_subset(T, 2 * nodes).subset
        assert m == _orbit(g, min(T.triples), T.N)
        assert len(m) == T.N and m <= T.triples
        assert all(c == 3 for c in m_subset_occurrences(T, m))


# Not S-invariant, yet the Singer orbit of its least triple (0, 0, 0) is an M subset.
SINGER_NOT_S_INVARIANT = _bare_presentation(7, {(k, k, k) for k in range(7)} | {(0, 0, 1)})
# The orbit of (0, 1, 6) under (x+1, y+2, z+4), as in a q = 2 frob1 twist, and a stray
# triple: only the c = q orbit of the least triple is an M subset.
FROB1_ORBIT_AND_STRAY = _bare_presentation(
    7, {(k, (1 + 2 * k) % 7, (6 + 4 * k) % 7) for k in range(7)} | {(0, 2, 5)}
)


def _certified_orbits(T):
    # The orbits of the least triple under (x+1, y+c, z+c^2) mod N, c = 1, q, q^2, that
    # lie in T and hold every point 3 times.
    if not T.triples:
        return []
    N, (x, y, z) = T.N, min(T.triples)
    orbits = []
    for c in (1, T.q, T.q**2):
        orbit = frozenset(((x + k) % N, (y + c * k) % N, (z + c * c * k) % N) for k in range(N))
        counts = [0] * N
        for t in orbit:
            for pt in t:
                counts[pt] += 1
        if orbit <= T.triples and counts == [3] * N:
            orbits.append(orbit)
    return orbits


@settings(max_examples=60, deadline=None)
@example(FOUND_WITH_REPEATS, 60)
@example(NO_M_SUBSET, 1)
@example(_bare_presentation(7, ()), 0)  # no least triple, so no orbit
@example(SINGER_NOT_S_INVARIANT, 0)
@example(FROB1_ORBIT_AND_STRAY, 0)
@given(triple_sets(), st.integers(0, 60))
def test_find_m_subset_is_total_on_random_triples(T, budget):
    # These T fail the triangle axioms, so only the orbits of (x+1, y+c, z+c^2) and the
    # backtracker run.
    result = find_m_subset(T, budget)
    if not (orbits := _certified_orbits(T)):
        assert result == _backtrack_m_subset(T, budget)
    else:  # found without a search, at any budget: the first of c = 1, q, q^2
        assert result == MSubsetResult(orbits[0])
    if result.found:
        assert result.subset <= T.triples
        assert all(c == 3 for c in m_subset_occurrences(T, result.subset))


@pytest.mark.parametrize("q", [2, 3])
def test_finder_nodes_count_against_the_budget(q):
    # A relabelled frob1 twist has no point-regular cyclic automorphism, and its autotopism
    # is no longer (x+1, y+q, z+q^2): the finder spends at most half the budget, and the
    # backtracker gets the nodes left.
    T = _relabeled(gen_variant(_plane(q), "frob1"), {2: 3, 3: 5}[q])
    assert not is_s_invariant(T)
    third = validate(T).third
    assert find_cyclic_automorphism(T, third, 10**6) == (None, {2: 26, 3: 61}[q])
    spent = [find_cyclic_automorphism(T, third, b // 2) for b in range(0, 121)]
    assert all(g is None for g, _ in spent)
    assert [n for _, n in spent[:6]] == [0, 0, 1, 1, 2, 2]
    assert spent[-1][1] == {2: 26, 3: 60}[q]  # q = 3: stopped at half of 120, short of its 61
    results = [find_m_subset(T, b) for b in range(0, 121)]
    assert results == [reference_backtrack(T, b - n) for b, (_, n) in enumerate(spent)]
    assert results[-1].found  # and some budgets lose it to the finder's nodes:
    assert any(r != reference_backtrack(T, b) for b, r in enumerate(results))


def test_verify_and_analyze_disagree_on_a_search_out_of_budget(tmp_path, capsys):
    # The relabelled q = 2 frob1 twist at budget 1: no orbit certifies, and the search
    # stops short.  `verify` reports NOT-FOUND and passes; `analyze` fails its check.
    path = tmp_path / "frob1_q2.a2tp"
    write_presentation(_relabeled(gen_variant(_plane(2), "frob1"), 3), path)
    assert main(["verify", "--file", str(path), "--budget", "1"]) == 0
    assert "\nm-subset: NOT-FOUND\n" in capsys.readouterr().out
    assert main(["analyze", "--file", str(path), "--budget", "1"]) == 1
    assert "\ncheck m_subset_found: FAIL\n" in capsys.readouterr().out


def test_is_cyclic_automorphism_holds_for_point_regular_ones_only(planes):
    T = gen_t0(planes[4])  # N = 21: x -> x + k is an automorphism, an N-cycle iff gcd(k, 21) = 1
    shift = [[(x + k) % T.N for x in range(T.N)] for k in range(4)]
    assert [is_cyclic_automorphism(T, g) for g in shift] == [False, True, True, False]
    R = _relabeled(T, 0)  # x -> x + 1 is still an N-cycle, but no automorphism of R
    assert not is_s_invariant(R) and not is_cyclic_automorphism(R, shift[1])


def test_the_finder_is_imported_only_for_an_input_that_needs_it():
    # A fresh process: no generated variant reaches the finder, so its compile cost stays
    # out of their analyses; a relabelled file, which has no Singer-cycle orbit, needs it.
    script = """
import sys
from a2tp import analyze, build_plane, gen_variant, read_presentation
from a2tp.cli import VARIANTS, prime_powers_in
for q in prime_powers_in(2, 7):
    for v in VARIANTS:
        if v != "omega" or q % 3 == 1:
            assert analyze(gen_variant(build_plane(q), v)).checks["m_subset_found"], (q, v)
print("a2tp.automorphism" in sys.modules)
assert analyze(read_presentation(sys.argv[1])).checks["m_subset_found"]
print("a2tp.automorphism" in sys.modules)
"""
    src = str(Path(a2tp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    golden = Path(__file__).parent / "golden" / "files" / "t0dual_q5_s31.a2tp"
    done = subprocess.run(
        [sys.executable, "-c", script, str(golden)], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout.split()) == (0, ["False", "True"]), done.stderr


def test_certified_rejects_a_subset_outside_t(planes):
    T = _relabeled(gen_t0(planes[3]), 0)
    x, y, z = min(t for t in T.triples if len(set(t)) == 3)
    identity, shift = list(range(T.N)), list(range(1, T.N)) + [0]
    shifted = _orbit(shift, (x, y, z), T.N)
    assert all(c == 3 for c in m_subset_occurrences(T, shifted)) and not shifted <= T.triples
    assert certified_orbit(T, (x, y, z), shift, shift, shift) is None
    assert certified_orbit(T, (x, y, z), *[identity] * 3) is None  # in T, each point once
    g, _ = find_cyclic_automorphism(T, validate(T).third, 200)
    assert certified_orbit(T, (x, y, z), g, g, g) == MSubsetResult(_orbit(g, (x, y, z), T.N))


def test_roundtrip(tmp_path, planes):
    for q, pl in planes.items():
        T = gen_t0(pl)
        path = tmp_path / f"t0_q{q}.a2tp"
        write_presentation(T, path)
        back = read_presentation(path)
        assert back.q == T.q and back.N == T.N
        assert back.lam == T.lam
        assert back.triples == T.triples


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_a_presentation_holds_only_what_its_file_holds(tmp_path, q):
    # Read back, every variant is the presentation that was written, origin aside.
    plane = _plane(q)
    presentations = {v: gen_variant(plane, v) for v in VARIANTS if v != "omega" or q % 3 == 1}
    for variant, T in presentations.items():
        path = tmp_path / f"{variant}.a2tp"
        write_presentation(T, path)
        assert replace(read_presentation(path), origin=T.origin) == T, variant


def test_read_rejects_short_lambda_line(tmp_path, planes):
    T = gen_t0(planes[2])
    path = tmp_path / "bad.a2tp"
    write_presentation(T, path)
    lines = path.read_text().splitlines()
    lines[1] = " ".join(lines[1].split()[:-1])  # drop one point from lambda 0
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InconsistentHeader):
        read_presentation(path)


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.a2tp"
    path.write_text("a2tp q=2 n=8\n")
    with pytest.raises(InconsistentHeader):
        read_presentation(path)


@pytest.mark.parametrize("q", [-1, 0, 1])
def test_read_rejects_q_below_2(tmp_path, q):
    path = tmp_path / "bad.a2tp"
    path.write_text(f"a2tp q={q} n={q * q + q + 1}\n")
    with pytest.raises(InconsistentHeader, match=f"^line 1: q={q} is below 2$"):
        read_presentation(path)


def test_read_reports_line_number(tmp_path, planes):
    T = gen_t0(planes[2])
    path = tmp_path / "bad.a2tp"
    write_presentation(T, path)
    with open(path, "a") as fh:
        fh.write("garbage line\n")
    with pytest.raises(ParseError) as err:
        read_presentation(path)
    assert err.value.line_no == 1 + T.N + len(T.triples) + 1


TOKEN = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["", "x", ":", "0:", "1.5", "+1", "-0", "1_0", "\u0663", "#", "lambda", "t", "q=2", "n=7"]),
    st.text(max_size=4),
)
TOKENS = st.lists(TOKEN, max_size=5).map(" ".join)
LINE = st.one_of(
    st.builds("a2tp q={} n={}".format, st.integers(-2, 4), st.integers(-2, 22)),
    st.builds("lambda {}: {}".format, st.integers(-1, 8), TOKENS),
    TOKENS.map("lambda {}".format),
    TOKENS.map("t {}".format),
    st.builds("t {} {} {}".format, *[st.integers(-1, 7)] * 3),
    TOKENS.map("# {}".format),
    TOKENS,
    st.text(max_size=20),
)


def _read_both(path) -> list:
    """What `read_presentation` and the reference reader give: each a presentation,
    or the class, message and line of the ParseError; any other exception propagates.
    """
    results = []
    for read in (read_presentation, reference_read_presentation):
        try:
            results.append(read(path))
        except ParseError as exc:
            results.append((type(exc), str(exc), exc.line_no))
    return results


def _edited(*edits):
    return {"from_valid": True, "edits": list(edits), "extra": [], "newline": "\n"}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(**_edited((1, False, "lambda 0: 1 2 7")))  # a point past N on a lambda line
@example(**_edited((1, False, "lambda 0: -1 2 4")))
@example(**_edited((8, False, "t 0 1 7")))
# short of lambda lines: the error names the last line with content
@example(from_valid=False, edits=[], extra=["a2tp q=2 n=7", "lambda 0: 1 2 4", "", "# end"], newline="\n")
@given(
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 29), st.booleans(), LINE), max_size=3),
    st.lists(LINE, max_size=3),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_read_presentation_is_total(tmp_path, planes, from_valid, edits, extra, newline):
    # any text is either a presentation or a ParseError, never another exception,
    # and the same one the reference reader gives; edits of a valid q=2 file
    # reach the later stages of the parser
    path = tmp_path / "fuzz.a2tp"
    write_presentation(gen_t0(planes[2]), path)
    lines = path.read_text().splitlines() if from_valid else []
    for i, insert, line in edits:
        lines[i : i + (not insert)] = [line]
    path.write_bytes(newline.join(lines + extra).encode("utf-8"))
    got, expected = _read_both(path)
    assert got == expected


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent / "golden" / "files").iterdir()), ids=lambda p: p.name
)
def test_read_presentation_matches_the_reference_on_golden_files(path):
    got, expected = _read_both(path)
    assert isinstance(got, TrianglePresentation) and got == expected


def test_duplicate_triples_idempotent(tmp_path, planes):
    T = gen_t0(planes[2])
    path = tmp_path / "dup.a2tp"
    write_presentation(T, path)
    first_triple = sorted(T.triples)[0]
    with open(path, "a") as fh:
        fh.write(f"t {first_triple[0]} {first_triple[1]} {first_triple[2]}\n")
    assert read_presentation(path).triples == T.triples


def test_comments_ignored(tmp_path, planes):
    # and the other tolerated layouts: each reads equal to the LF original
    T = gen_t0(planes[2])
    path = tmp_path / "c.a2tp"
    write_presentation(T, path)
    text = path.read_text()
    original = read_presentation(path)
    assert original.triples == T.triples
    for layout in (
        "# header comment\n" + text,
        text.replace("\n", "\r\n"),
        text.replace("\n", "\r"),
        text.rstrip("\n"),
        text.replace(" ", "\t"),
        re.sub(r"^(t .*)$", r"\1  # a comment", text, flags=re.M),
    ):
        path.write_bytes(layout.encode("utf-8"))
        assert read_presentation(path) == original, repr(layout[:40])


def test_singer_equivariance_of_relations(planes):
    # relabeling every point by a fixed shift permutes the relation rows
    from helpers import acb_matrix

    pl = planes[3]
    T = gen_t0(pl)
    N = pl.N
    k = 5
    shifted = TrianglePresentation(
        q=T.q,
        N=N,
        lam=tuple(
            tuple(sorted((y + k) % N for y in T.lam[(x - k) % N])) for x in range(N)
        ),
        triples=frozenset(
            ((x + k) % N, (y + k) % N, (z + k) % N) for (x, y, z) in T.triples
        ),
        origin="shifted",
    )
    assert validate(shifted).ok

    def relabel(row):
        return tuple(sorted(((c + k) % N if c < N else c, v) for c, v in row))

    base_rows = {relabel(r) for r in acb_matrix(T)[1]}
    shifted_rows = {tuple(r) for r in acb_matrix(shifted)[1]}
    assert base_rows == shifted_rows
