import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2tp.plane import (
    NotApplicable,
    build_plane,
    frobenius_collineation,
    lines_form_plane,
    mult_by_omega,
)
from helpers import reference_lines_form_plane

SMALL_Q = [2, 3, 4, 5, 7, 8]


@pytest.fixture(scope="module")
def planes():
    return {q: build_plane(q) for q in SMALL_Q}


def test_sizes(planes):
    for q, ctx in planes.items():
        assert ctx.N == q * q + q + 1
        assert len(ctx.tz) == q + 1


def test_q2_counts():
    ctx = build_plane(2)
    assert ctx.N == 7
    assert len(ctx.tz) == 3


def test_q4_contains_order3_subgroup():
    ctx = build_plane(4)
    assert ctx.N == 21
    assert len(ctx.tz) == 5
    assert {7, 14} <= set(ctx.tz)


def test_perfect_difference_set(planes):
    for q, ctx in planes.items():
        counts = [0] * ctx.N
        for d in ctx.tz:
            for e in ctx.tz:
                if d != e:
                    counts[(d - e) % ctx.N] += 1
        assert counts[0] == 0
        assert all(c == 1 for c in counts[1:])


def test_unique_line_through_two_points(planes):
    for q, ctx in planes.items():
        lines = [frozenset(ctx.line(x)) for x in range(ctx.N)]
        for a in range(ctx.N):
            for b in range(a + 1, ctx.N):
                assert sum(1 for l in lines if a in l and b in l) == 1


def test_unique_intersection_of_two_lines(planes):
    for q, ctx in planes.items():
        lines = [frozenset(ctx.line(x)) for x in range(ctx.N)]
        for i in range(ctx.N):
            for j in range(i + 1, ctx.N):
                assert len(lines[i] & lines[j]) == 1


def test_lambda_bijective(planes):
    for q, ctx in planes.items():
        assert len({frozenset(ctx.line(x)) for x in range(ctx.N)}) == ctx.N


def test_lines_have_q_plus_1_points(planes):
    for q, ctx in planes.items():
        assert all(len(set(ctx.line(x))) == q + 1 for x in range(ctx.N))


def test_self_incidence_depends_on_characteristic():
    ctx3 = build_plane(3)
    assert all(x in ctx3.line(x) for x in range(ctx3.N))  # Tr(1) = 0 in char 3
    ctx2 = build_plane(2)
    assert not any(x in ctx2.line(x) for x in range(ctx2.N))


def test_column_sums_q2():
    ctx = build_plane(2)
    for y in range(ctx.N):
        assert sum(1 for x in range(ctx.N) if y not in ctx.line(x)) == 4


def test_column_sums_general(planes):
    for q, ctx in planes.items():
        for y in range(ctx.N):
            missed = sum(1 for x in range(ctx.N) if y not in ctx.line(x))
            assert missed == q * q


def test_singer_shift():
    # the shift by k maps lambda_0(x) onto lambda_0(x + k); k = 0 and k = N fix every line
    ctx = build_plane(2)
    assert ctx.line(2) == sorted((y + 4) % ctx.N for y in ctx.line(5))  # 5 + 4 = 9 = 2 mod 7
    for x in range(ctx.N):
        assert sorted((y + 0) % ctx.N for y in ctx.line(x)) == ctx.line(x)
        assert sorted((y + ctx.N) % ctx.N for y in ctx.line(x)) == ctx.line(x)


def test_shift_preserves_incidence(planes):
    for q, ctx in planes.items():
        rng = random.Random(q)
        for _ in range(50):
            x, y, k = (rng.randrange(ctx.N) for _ in range(3))
            assert (y in ctx.line(x)) == ((y + k) % ctx.N in ctx.line((x + k) % ctx.N))


def test_frobenius_collineation(planes):
    ctx = build_plane(2)
    assert frobenius_collineation(ctx, 3) == 6
    for q, c in planes.items():
        for x in range(c.N):
            y = frobenius_collineation(
                c, frobenius_collineation(c, frobenius_collineation(c, x))
            )
            assert y == x


def test_frobenius_fixed_points_q4():
    ctx = build_plane(4)
    fixed = [x for x in range(ctx.N) if frobenius_collineation(ctx, x) == x]
    assert fixed == [0, 7, 14]


def test_collineations_map_lines_to_lines(planes):
    for q, ctx in planes.items():
        lines = {frozenset(ctx.line(x)) for x in range(ctx.N)}
        for x in range(ctx.N):
            image = frozenset(frobenius_collineation(ctx, y) for y in ctx.line(x))
            assert image in lines
            shifted = frozenset((y + 5) % ctx.N for y in ctx.line(x))
            assert shifted in lines


def test_mult_by_omega():
    ctx4 = build_plane(4)
    assert mult_by_omega(ctx4, 0) == 7
    x = 3
    for _ in range(3):
        x = mult_by_omega(ctx4, x)
    assert x == 3
    ctx7 = build_plane(7)
    assert mult_by_omega(ctx7, 10) == 29
    with pytest.raises(NotApplicable):
        mult_by_omega(build_plane(5), 0)


# lambda(x) = {x-1, x, x+1} mod 7: the triangle axioms hold for the rotations of
# (x, x, x+1), but lambda(0) and lambda(1) meet in two points.
NEIGHBOUR_LINES_Q2 = [sorted({(x - 1) % 7, x, (x + 1) % 7}) for x in range(7)]


@functools.cache
def _singer_lines(q):
    ctx = build_plane(q)
    return [ctx.line(x) for x in range(ctx.N)]


@st.composite
def line_tables(draw):
    """Line tables over the points 0..N-1: Singer planes, relabelled or mutated, and random.

    A mutation moves one point of a line (a repeat included), copies one line
    onto another, adds or drops a line, or adds a point to a line.
    """
    rng = draw(st.randoms(use_true_random=False))
    q = rng.choice([2, 3, 4])
    N = q * q + q + 1
    lines = [list(line) for line in _singer_lines(q)]
    kind = rng.randrange(7)
    if kind == 1:
        perm = rng.sample(range(N), N)
        lines = [[perm[p] for p in line] for line in lines]
    elif kind == 2:
        lines[rng.randrange(N)][rng.randrange(q + 1)] = rng.randrange(N)
    elif kind == 3:
        lines[rng.randrange(N)] = list(lines[rng.randrange(N)])
    elif kind == 4 and rng.random() < 0.5:
        del lines[rng.randrange(N)]
    elif kind == 4:
        lines.append(lines[0])
    elif kind == 5:
        lines[rng.randrange(N)].append(rng.randrange(N))
    elif kind == 6:
        lines = [[rng.randrange(N) for _ in range(q + 1)] for _ in range(N)]
    return lines, q


@settings(max_examples=200, deadline=None)
@given(line_tables())
@example((NEIGHBOUR_LINES_Q2, 2))
@example(([_singer_lines(2)[0]] * 2 + _singer_lines(2)[2:], 2))  # lambda(1) = lambda(0)
def test_lines_form_plane_matches_the_pair_count(table):
    lines, q = table
    assert lines_form_plane(lines, q) == reference_lines_form_plane(lines, q)


def test_lines_form_plane_rejects_the_neighbour_lines_and_takes_every_singer_plane(planes):
    assert not lines_form_plane(NEIGHBOUR_LINES_Q2, 2)
    for q, ctx in planes.items():
        assert lines_form_plane([ctx.line(x) for x in range(ctx.N)], q)
    lines = _singer_lines(2)
    assert not lines_form_plane([[p - 7 for p in lines[0]]] + lines[1:], 2)  # out of range
    assert not lines_form_plane([[p + 7 for p in lines[0]]] + lines[1:], 2)
