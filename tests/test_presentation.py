import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from a2tp.plane import build_plane, frobenius_collineation
from a2tp.presentation import (
    DEFAULT_BACKTRACK_BUDGET,
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
    is_s_invariant,
    m_subset_occurrences,
    read_presentation,
    twist,
    twist_by_name,
    validate,
    write_presentation,
)


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
    tw = twist_by_name(pl, T, "frob1")
    assert validate(tw).ok
    assert not is_s_invariant(tw)
    # the twisted correspondence is lambda0 composed with Frobenius
    for x in range(pl.N):
        assert set(tw.lam[x]) == {frobenius_collineation(pl, y) for y in T.lam[x]}


def test_twist_omega_q4(planes):
    pl = planes[4]
    tw = twist_by_name(pl, gen_t0(pl), "omega")
    assert validate(tw).ok


def test_triple_twist_returns_original(planes):
    pl = planes[2]
    T = gen_t0(pl)
    phi = lambda x: frobenius_collineation(pl, x)
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
        twist(relabeled, lambda x: frobenius_collineation(pl, x), "frob1")


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
    tw = twist_by_name(pl, gen_t0(pl), "omega")
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


def test_m_subset_budget_option(planes, tmp_path, capsys):
    from a2tp.cli import main, make_parser
    from a2tp.coinv import analyze

    assert make_parser().parse_args(["analyze", "--q", "2"]).budget == DEFAULT_BACKTRACK_BUDGET
    # not S-invariant and no twist base, so only the backtracker can find an M-subset
    T = _relabeled(gen_t0(planes[2]), 1)
    assert not is_s_invariant(T)
    assert not analyze(T, m_budget=1).checks["m_subset_found"]
    assert analyze(T).checks["m_subset_found"]
    path = tmp_path / "relabeled.a2tp"
    write_presentation(T, path)
    assert main(["analyze", "--file", str(path), "--output", "json", "--budget", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"]["m_subset_found"] is False
    assert main(["analyze", "--file", str(path), "--output", "json"]) == 0


def test_roundtrip(tmp_path, planes):
    for q, pl in planes.items():
        T = gen_t0(pl)
        path = tmp_path / f"t0_q{q}.a2tp"
        write_presentation(T, path)
        back = read_presentation(path)
        assert back.q == T.q and back.N == T.N
        assert back.lam == T.lam
        assert back.triples == T.triples


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


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 29), st.booleans(), LINE), max_size=3),
    st.lists(LINE, max_size=3),
)
def test_read_presentation_is_total(tmp_path, planes, from_valid, edits, extra):
    # any text is either a presentation or a ParseError, never another exception;
    # edits of a valid q=2 file reach the later stages of the parser
    path = tmp_path / "fuzz.a2tp"
    write_presentation(gen_t0(planes[2]), path)
    lines = path.read_text().splitlines() if from_valid else []
    for i, insert, line in edits:
        lines[i : i + (not insert)] = [line]
    path.write_text("\n".join(lines + extra), encoding="utf-8")
    try:
        T = read_presentation(path)
    except ParseError:
        return
    assert isinstance(T, TrianglePresentation)


def test_duplicate_triples_idempotent(tmp_path, planes):
    T = gen_t0(planes[2])
    path = tmp_path / "dup.a2tp"
    write_presentation(T, path)
    first_triple = sorted(T.triples)[0]
    with open(path, "a") as fh:
        fh.write(f"t {first_triple[0]} {first_triple[1]} {first_triple[2]}\n")
    assert read_presentation(path).triples == T.triples


def test_comments_ignored(tmp_path, planes):
    T = gen_t0(planes[2])
    path = tmp_path / "c.a2tp"
    write_presentation(T, path)
    text = "# header comment\n" + path.read_text().replace("a2tp q=2", "a2tp q=2", 1)
    path.write_text(text)
    assert read_presentation(path).triples == T.triples


def test_singer_equivariance_of_relations(planes):
    # relabeling every point by a fixed shift permutes the relation rows
    from a2tp.coinv import relation_matrix

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

    base_rows = {relabel(r) for r in relation_matrix(T, "acb").rows}
    shifted_rows = {tuple(r) for r in relation_matrix(shifted, "acb").rows}
    assert base_rows == shifted_rows
