"""Point-regular cyclic automorphisms of a triangle presentation.

The orbit of any triple of T under such an automorphism is an M-subset of
T.  `presentation.find_m_subset` imports this module on first use, because
no generated input needs it: each has an M-subset orbit under
(x+1, y+c, z+c^2) for c = 1, q or q^2.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Iterator, Optional

from .plane import Point
from .presentation import TrianglePresentation, is_automorphism


def is_cyclic_automorphism(T: TrianglePresentation, g: list[Point]) -> bool:
    """g is one N-cycle on the points and maps every triple of T into T."""
    p = 0
    for _ in range(T.N - 1):
        p = g[p]
        if p == 0:
            return False
    return g[p] == 0 and is_automorphism(T, g)


def find_cyclic_automorphism(
    T: TrianglePresentation, third: list[Point], budget: int
) -> tuple[Optional[list[Point]], int]:
    """A point-regular cyclic automorphism g of a valid T, and the nodes spent on it.

    Individualization-refinement (McKay, Piperno, *Practical graph
    isomorphism II*, 2014).  Three rules force images: two known points of a
    triple give the third's, read from `third`; two lines lambda(x),
    lambda(x') with known images give the image of the point where they
    meet; two points of lambda(x) with known images give g(x), the point
    whose line joins their images.  Which points a set forces does not
    depend on the images, so the fixpoint is found once, from 0 and then
    from each point of a base: a point of a line lambda(u), u forced, whose
    closure is all the points or else the largest there.  Each node fixes
    the image of one base point, g(0) = a at the top and below it a free
    point of lambda(g(u)), then reads the images it forces in the order
    found; it dies when a read fails or hits a point already taken.  Every
    automorphism passes all the reads, so the leaves include them all.  The
    ones with g(0) = a are h.m, for any one of them h and m over those
    fixing 0, so the search lists the stabilizer's leaves once and then
    needs one h per a: the first leaf that `is_automorphism` accepts,
    O(|T|).  A stabilizer leaf that is no automorphism only gives maps h.m
    that the final check rejects.  Every node entered, the root (nothing
    fixed) included, counts against `budget`, so a budget of 1 never finds
    g.  A propagation takes O(log q) steps per point read from a triple and
    O(q) per meet or join; finding the fixpoints takes O(Nq) per base point
    tried.  Only a g that `is_cyclic_automorphism` checks in full is
    returned.
    """
    N, lam = T.N, T.lam
    if budget < 1:
        return None, 0
    start = list(accumulate(map(len, lam), initial=0))  # row x of third: start[x]..start[x+1]
    through: list[list[Point]] = [[] for _ in range(N)]  # through[p]: the x with p on lambda(x)
    for x, line in enumerate(lam):
        for p in line:
            through[p].append(x)

    def third_of(x: Point, y: Point) -> Point:  # the z of (x, y, z) in T, or -1
        line = lam[x]
        i = bisect_left(line, y)
        return third[start[x] + i] if i < len(line) and line[i] == y else -1

    def single(common: set[Point]) -> Point:
        return common.pop() if len(common) == 1 else -1

    def join(p: Point, w: Point) -> Point:
        return single(set(through[p]).intersection(through[w]))

    def meet(x: Point, w: Point) -> Point:
        return single(set(lam[x]).intersection(lam[w]))

    def close(state: list, p: Point, reads: list) -> None:
        """Mark p and all it forces known, appending (point, rule, a, b) per forced point."""
        known, line_of, point_of = state
        known[p] = 1
        todo = [p]

        def force(t: Point, *read) -> None:
            if not known[t]:
                known[t] = 1
                todo.append(t)
                reads.append((t, *read))

        while todo:
            p = todo.pop()
            for y, z in zip(lam[p], third[start[p] : start[p + 1]]):  # (p, y, z) and (z, p, y)
                if known[y]:
                    force(z, third_of, p, y)
                elif known[z]:
                    force(y, third_of, z, p)
            for x in through[p]:  # lambda(x) holds p
                if not known[x]:
                    if point_of[x] < 0:
                        point_of[x] = p
                    else:
                        force(x, join, p, point_of[x])
            for y in lam[p]:
                if not known[y]:
                    if line_of[y] < 0:
                        line_of[y] = p
                    else:
                        force(y, meet, p, line_of[y])

    state = [bytearray(N), [-1] * N, [-1] * N]  # known, and the first line / point seen
    base: list[tuple[Point, Optional[Point]]] = [(0, None)]  # (y, u): y on lambda(u)
    segments: list[list] = [[]]  # the reads each base point forces
    close(state, 0, segments[0])
    while 0 in state[0]:
        known = state[0]
        frontier = (u for u in range(N) if known[u] and not all(map(known.__getitem__, lam[u])))
        u = next(frontier, None)
        if u is None:
            return None, 1
        best: list = []
        for y in (y for y in lam[u] if not known[y]):
            trial, reads = [bytearray(known), state[1][:], state[2][:]], []
            close(trial, y, reads)
            if not best or len(reads) > len(best[2]):
                best = [y, trial, reads]
                if 0 not in trial[0]:
                    break
        y, state, reads = best
        base.append((y, u))
        segments.append(reads)

    nodes, unset = 1, [-1] * N

    def automorphisms(a: Point) -> Iterator[list[Point]]:  # complete maps with g(0) = a
        nonlocal nodes
        stack = [(unset, unset, 0, a)]  # (parent g, its inverse, depth, image)
        while stack and nodes < budget:
            g, ginv, depth, v = stack.pop()
            nodes += 1
            g, ginv = g[:], ginv[:]
            g[base[depth][0]], ginv[v] = v, base[depth][0]
            for t, rule, x, y in segments[depth]:
                v = rule(g[x], g[y])
                if v < 0 or ginv[v] >= 0:
                    break
                g[t], ginv[v] = v, t
            else:
                if depth + 1 == len(base):
                    yield g
                else:
                    y, u = base[depth + 1]
                    stack += ((g, ginv, depth + 1, c) for c in reversed(lam[g[u]]) if ginv[c] < 0)

    stabilizer = list(automorphisms(0))
    for a in range(1, N):
        h = next((h for h in automorphisms(a) if is_automorphism(T, h)), None)
        if h is not None:
            for m in stabilizer:
                g = [h[x] for x in m]
                if is_cyclic_automorphism(T, g):
                    return g, nodes
    return None, nodes
