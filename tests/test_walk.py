from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggt.errors import ResourceBoundExceeded
from ggt.walk import closure, orbits, walk


@st.composite
def _maps(draw, permutations=False):
    """(size, maps): up to 4 maps on range(size), as index tables."""
    size = draw(st.integers(1, 12))
    table = (st.permutations(range(size)) if permutations else
             st.lists(st.integers(0, size - 1), min_size=size,
                      max_size=size))
    return size, draw(st.lists(table, max_size=4))


def _bfs(starts, maps):
    """The points reached from starts, in breadth-first order, by a
    queue: the definition walk must meet."""
    out = list(dict.fromkeys(starts))
    queue = deque(out)
    while queue:
        p = queue.popleft()
        for t in maps:
            if t[p] not in out:
                out.append(t[p])
                queue.append(t[p])
    return out


def _step(maps):
    return lambda p: [t[p] for t in maps]


@settings(max_examples=200, deadline=None)
@given(_maps(), st.data())
def test_walk_is_the_breadth_first_walk(case, data):
    size, maps = case
    starts = data.draw(st.lists(st.integers(0, size - 1), min_size=1))
    points, tables, edges = walk(starts, _step(maps))
    assert points == _bfs(starts, maps)
    assert len(tables) == len(maps)
    # tables[k][a] is the index of the k-th image of point a
    for k, t in enumerate(maps):
        assert [points[j] for j in tables[k]] == [t[p] for p in points]
    # each point past the starts by the edge that first reached it
    heads = len(dict.fromkeys(starts))
    assert len(edges) == len(points) - heads
    for j, (k, a) in enumerate(edges, heads):
        assert tables[k][a] == j
        assert (a, k) == min((b, i) for i, table in enumerate(tables)
                             for b, c in enumerate(table) if c == j)


@settings(max_examples=200, deadline=None)
@given(_maps(), st.data())
def test_walk_stops_one_point_past_its_limit(case, data):
    size, maps = case
    start = data.draw(st.integers(0, size - 1))
    points = walk([start], _step(maps))[0]
    assert walk([start], _step(maps), len(points))[0] == points
    if len(points) > 1:
        with pytest.raises(ResourceBoundExceeded):
            walk([start], _step(maps), len(points) - 1)


@settings(max_examples=200, deadline=None)
@given(_maps(permutations=True), st.data())
def test_orbits_partition_the_points(case, data):
    size, tables = case
    out = orbits(tables, size)
    assert sorted(a for orbit in out for a in orbit) == list(range(size))
    assert [orbit[0] for orbit in out] == sorted(min(o) for o in out)
    for orbit in out:
        assert orbit == _bfs([orbit[0]], tables)
    seed = data.draw(st.lists(st.integers(0, size - 1)))
    assert closure(seed, tables) == _bfs(seed, tables)
