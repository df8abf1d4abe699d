"""The one breadth-first walk behind the orbits and closures of ggt.

walk is the Schreier-vector walk (Seress, *Permutation Group
Algorithms*, 2003, ch. 4): it numbers each point where it is first
reached, keeps each map's table on the numbered points and records the
edge that first reached each point, a spanning tree.  closure and
orbits walk maps already given as index tables, where a point is its
own index.
"""

from __future__ import annotations

from .errors import ResourceBoundExceeded


def walk(starts, step, limit: int | None = None) -> tuple[list, list, list]:
    """(points, tables, edges) of the breadth-first walk from starts.

    step(p) yields p's image under each map in turn; the first start is
    stepped once more to count the maps.  points lists the distinct
    starts, then each point in the order the walk first reaches it;
    tables[k][a] is the index of the k-th image of points[a]; edges
    holds, for each point past the starts, the (k, a) that first reached
    it.  Reaching more than limit points raises ResourceBoundExceeded.
    """
    points = list(dict.fromkeys(starts))
    index = {p: a for a, p in enumerate(points)}
    tables = [[] for _ in step(points[0])]
    edges = []
    # found holds the tables' own ints, so the edges add no int objects
    found = list(index.values())
    for a, p in zip(found, points):  # both grow while the loop runs
        for k, (q, table) in enumerate(zip(step(p), tables)):
            j = index.setdefault(q, len(points))
            if j == len(points):
                if j == limit:
                    raise ResourceBoundExceeded(f"walk passed {limit} points")
                points.append(q)
                found.append(j)
                edges.append((k, a))
            table.append(j)
    return points, tables, edges


def closure(seed, tables) -> list[int]:
    """Every index reached from seed under the index tables, the seed
    first, in breadth-first order."""
    out = list(dict.fromkeys(seed))
    seen = set(out)
    for a in out:  # out grows while the loop runs
        for table in tables:
            if table[a] not in seen:
                seen.add(table[a])
                out.append(table[a])
    return out


def orbits(tables, size: int) -> list[list[int]]:
    """The orbits of the index tables, permutations of range(size), in
    order of their least points, each a closure from its least point."""
    seen, out = set(), []
    for start in range(size):
        if start not in seen:
            out.append(closure([start], tables))
            seen.update(out[-1])
    return out
