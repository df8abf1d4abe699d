"""Root systems of rank at most 8 and their Weyl element orders.

Irreducible systems are given by integer simple roots in standard
coordinates (the types with half-integer standard coordinates are scaled
by 2, which changes no reflection).  Their Gram matrix gives the Cartan
matrix C and the root lengths.  The roots are found in simple-root
coordinates, by closing the unit vectors under the integer reflections
s_j(b) = b - (b . C[:, j]) e_j; each must come out positive or negative,
and the standard-coordinate roots are the integer products b @ simple.

Every Weyl group element is built by weylenum, which this module
imports only inside the functions that need one (root_data, the
exceptional tallies and the weight-cycle witnesses, each cached); the
classical order sets and the system table are integer and set
arithmetic.  weylenum works on int tuples and bytes permutations, and
imports numpy only for the tallies past its crossover (E7 and E8), so
no other command loads it.

Weights live in the coordinates of weylenum: row vectors over the
fundamental weights, on which s_i(lambda) = lambda - lambda[i] C[i, :].
The nonzero weights of a minuscule or quasi-minuscule representation are
the W-orbit of one fundamental weight, and every Weyl-group element used
here comes from the coset tower of weylenum.

Order sets for the classical families come from cycle-type formulas:
partitions of n+1 for type A; partitions of n with per-part doubling
(negative cycles) for B and C; the same with an even number of doubled
parts for D.  The exceptional types, E8 included, are tallied exactly by
the parabolic coset tower in weylenum.  Sums of systems combine by
pairwise lcm.  All per-type sets are cached for the session, so the
expensive E7 and E8 tallies run once, and so is the walk over every
multiset of types up to each rank bound with its order sets: a
uniqueness scan is a subset filter over that cached table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, lcm

from .errors import ResourceBoundExceeded

__all__ = [
    "IRREDUCIBLE_LABELS",
    "RootData",
    "root_data",
    "RootSystem",
    "OrderSet",
    "weyl_order",
    "weyl_element_orders",
    "order_table",
    "check_order_table",
    "EXPECTED_TABLE",
    "audit_omission_policy",
    "uniqueness_scan",
    "almost_minuscule_data",
    "cyclic_weight_permutation_check",
    "even_dimension_controls",
]


def _a_simple(n):
    return [[1 if k == i else -1 if k == i + 1 else 0
             for k in range(n + 1)] for i in range(n)]


def _bcd_simple(n, last):
    rows = [[1 if k == i else -1 if k == i + 1 else 0
             for k in range(n)] for i in range(n - 1)]
    return rows + [last(n)]


def _e_simple(rank):
    # scaled by 2; numbered so that E6 and E7 are initial segments of E8
    alpha1 = [1, -1, -1, -1, -1, -1, -1, 1]
    rows = [alpha1, [2, 2, 0, 0, 0, 0, 0, 0]]
    for i in range(rank - 2):
        rows.append([0] * 8)
        rows[-1][i] = -2
        rows[-1][i + 1] = 2
    return rows


_SIMPLE_BUILDERS = {
    "A": lambda n: _a_simple(n),
    "B": lambda n: _bcd_simple(
        n, lambda m: [0] * (m - 1) + [1]),
    "C": lambda n: _bcd_simple(
        n, lambda m: [0] * (m - 1) + [2]),
    "D": lambda n: _bcd_simple(
        n, lambda m: [0] * (m - 2) + [1, 1]),
    "G": lambda n: [[1, -1, 0], [-2, 1, 1]],
    "F": lambda n: [[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2],
                    [1, -1, -1, -1]],
    "E": lambda n: _e_simple(n),
}

_RANK_RANGE = {"A": (1, 8), "B": (2, 8), "C": (3, 8), "D": (4, 8),
               "G": (2, 2), "F": (4, 4), "E": (6, 8)}

IRREDUCIBLE_LABELS = tuple(
    f"{fam}{n}" for fam in "ABCDEFG"
    for n in range(_RANK_RANGE[fam][0], _RANK_RANGE[fam][1] + 1))

_ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "G": lambda n: 12,
    "F": lambda n: 48,
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
}

_WEYL_ORDER = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2 ** n * factorial(n),
    "C": lambda n: 2 ** n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "G": lambda n: 12,
    "F": lambda n: 1152,
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
}


# every RootSystem parses its labels twice, and a system table builds
# hundreds; only the 31 valid labels are ever cached
@lru_cache(maxsize=None)
def _parse_label(label: str) -> tuple[str, int]:
    fam, rank = label[:1], label[1:]
    # the canonical <family><rank> only: int() alone would also take a
    # sign, zero padding, spaces, underscores and non-ASCII digits
    if rank.isascii() and rank.isdigit() and rank[0] != "0":
        n = int(rank)
        lo, hi = _RANK_RANGE.get(fam, (1, 0))
        if lo <= n <= hi:
            return fam, n
    raise ValueError(f"unknown irreducible type {label!r}")


@dataclass(frozen=True)
class RootData:
    """One irreducible system: exact integer root and lattice data."""

    label: str
    rank: int
    simple: tuple[tuple[int, ...], ...]
    roots: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]
    roots_in_base: tuple[tuple[int, ...], ...]
    short_root_count: int
    short_simple_count: int

    @property
    def weyl_order(self) -> int:
        fam, n = _parse_label(self.label)
        return _WEYL_ORDER[fam](n)


def _norm(v) -> int:
    return sum(x * x for x in v)


@lru_cache(maxsize=None)
def root_data(label: str) -> RootData:
    """Full root data for one irreducible type, exactly."""
    from .weylenum import root_closure
    fam, n = _parse_label(label)
    simple = tuple(map(tuple, _SIMPLE_BUILDERS[fam](n)))
    cartan, base, roots = root_closure(simple)
    if len(base) != _ROOT_COUNT[fam](n):
        raise AssertionError(
            f"{label}: found {len(base)} roots, "
            f"expected {_ROOT_COUNT[fam](n)}")
    if not all(min(b) >= 0 or max(b) <= 0 for b in base):
        raise AssertionError(f"{label}: a root is neither positive "
                             "nor negative")
    norms = [_norm(r) for r in roots]
    min_norm = min(norms)
    return RootData(
        label=label, rank=n, simple=simple, roots=roots, cartan=cartan,
        roots_in_base=base, short_root_count=norms.count(min_norm),
        short_simple_count=[_norm(s) for s in simple].count(min_norm),
    )


@dataclass(frozen=True)
class RootSystem:
    """A multiset of irreducible types, rank at most 8."""

    components: tuple[str, ...]

    def __post_init__(self):
        for c in self.components:
            _parse_label(c)
        if list(self.components) != sorted(self.components):
            raise ValueError("components must be sorted")
        if self.rank > 8:
            raise ValueError(f"total rank {self.rank} exceeds 8")

    @classmethod
    def parse(cls, text: str) -> "RootSystem":
        parts = [p.strip() for p in text.split("+")]
        if "" in parts:
            raise ValueError(f"empty component in root system {text!r}")
        return cls(tuple(sorted(parts)))

    @property
    def rank(self) -> int:
        return sum(_parse_label(c)[1] for c in self.components)

    @property
    def label(self) -> str:
        return "+".join(self.components)

    def __str__(self) -> str:
        return self.label


def weyl_order(rs: RootSystem | str) -> int:
    if isinstance(rs, str):
        rs = RootSystem.parse(rs)
    total = 1
    for c in rs.components:
        fam, n = _parse_label(c)
        total *= _WEYL_ORDER[fam](n)
    return total


@dataclass(frozen=True)
class OrderSet:
    """Element orders of a finite group with the divisibility maxima."""

    orders: frozenset[int]
    mode: str

    @property
    def maximal(self) -> frozenset[int]:
        return frozenset(o for o in self.orders
                         if not any(o != p and p % o == 0
                                    for p in self.orders))

    def to_json(self) -> dict:
        return {"orders": sorted(self.orders),
                "maximal": sorted(self.maximal), "mode": self.mode}


def _partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _type_a_orders(n: int) -> frozenset[int]:
    return frozenset(lcm(*p) for p in _partitions(n + 1))


def _signed_orders(n: int, even_negatives: bool) -> frozenset[int]:
    out = set()
    for p in _partitions(n):
        for flips in itertools.product((1, 2), repeat=len(p)):
            if even_negatives and flips.count(2) % 2:
                continue
            out.add(lcm(*(f * part for f, part in zip(flips, p))))
    return frozenset(out)


@lru_cache(maxsize=None)
def _exceptional_tally(label: str) -> tuple[tuple[int, int], ...]:
    """Sorted (order, element count) pairs of an exceptional Weyl group."""
    from .weylenum import enumerate_orders
    data = root_data(label)
    return tuple(sorted(enumerate_orders(data.cartan,
                                         data.weyl_order).items()))


@lru_cache(maxsize=None)
def _component_orders(label: str) -> frozenset[int]:
    """Order set of one irreducible factor."""
    fam, n = _parse_label(label)
    if fam == "A":
        return _type_a_orders(n)
    if fam in ("B", "C"):
        return _signed_orders(n, even_negatives=False)
    if fam == "D":
        return _signed_orders(n, even_negatives=True)
    return frozenset(order for order, _ in _exceptional_tally(label))


def weyl_element_orders(rs: RootSystem | str) -> OrderSet:
    """Element orders of the Weyl group, combining factors by lcm."""
    if isinstance(rs, str):
        rs = RootSystem.parse(rs)
    combined = frozenset([1])
    for c in rs.components:
        part = _component_orders(c)
        combined = frozenset(lcm(a, b) for a in combined for b in part)
    return OrderSet(orders=combined, mode="exact")


# Frozen reference rows: root system -> the reference maximal-order
# column.  One row (B4) lists 4 alongside 8; since 4 divides 8 the true
# divisibility antichain is {6, 8}, but both sets determine the same
# divisor-closed order set, which is what the column is for.
EXPECTED_TABLE: tuple[tuple[str, frozenset[int]], ...] = tuple(
    (label, frozenset(vals)) for label, vals in [
        ("A1", {2}),
        ("A2", {2, 3}), ("B2", {4}), ("G2", {6}),
        ("B3", {4, 6}),
        ("A2+B2", {12}), ("A4", {4, 5, 6}), ("B4", {4, 6, 8}),
        ("F4", {8, 12}),
        ("B5", {8, 10, 12}),
        ("A2+B4", {24}), ("A4+B2", {12, 20}), ("A4+G2", {12, 30}),
        ("A6", {7, 10, 12}), ("E6", {8, 9, 10, 12}),
        ("A1+E6", {8, 10, 12, 18}), ("A2+B5", {24, 30}),
        ("A4+B3", {12, 20, 30}), ("A7", {7, 8, 10, 12, 15}),
        ("B7", {14, 20, 24}), ("E7", {8, 12, 14, 18, 30}),
        ("A2+E6", {18, 24, 30}), ("A4+F4", {24, 40, 60}),
        ("A6+B2", {12, 20, 28}), ("A6+G2", {12, 30, 42}),
        ("A8", {8, 9, 12, 14, 15, 20}), ("B2+E6", {8, 20, 36}),
        ("B8", {14, 16, 20, 24, 30}), ("E8", {14, 18, 20, 24, 30}),
    ])


def order_table() -> list[dict]:
    """Every reference row next to the computed order data.

    A row agrees when each reference value is a genuine element order
    and the reference values determine the whole order set under
    divisibility; that forces the computed antichain to be a subset of
    the reference row, with equality everywhere except the B4 row (its
    reference column carries the redundant 4).
    """
    out = []
    for label, reference in EXPECTED_TABLE:
        oset = weyl_element_orders(label)
        agrees = reference <= oset.orders and all(
            any(s % o == 0 for s in reference) for o in oset.orders)
        out.append({"root_system": label,
                    "reference": sorted(reference),
                    "maximal": sorted(oset.maximal),
                    "mode": oset.mode,
                    "agrees": agrees})
    return out


def check_order_table() -> list[dict]:
    """order_table, with any disagreeing row a hard failure."""
    rows = order_table()
    for row in rows:
        if not row["agrees"]:
            raise AssertionError(
                f"table row {row['root_system']}: computed maximal "
                f"{row['maximal']} does not carry the reference row "
                f"{row['reference']}")
    return rows


@lru_cache(maxsize=None)
def _system_table(rank_bound: int
                  ) -> tuple[tuple[RootSystem, frozenset[int]], ...]:
    """Every multiset of irreducible types with total rank <= rank_bound,
    each with the order set of its Weyl group, in walk order.

    The walk is incremental: a system's order set is its prefix's set
    combined by pairwise lcm with one more factor's.  Only factors of
    rank <= rank_bound are asked for, so E8 is tallied at bound 8 only."""
    labels = [(lab, r) for lab in IRREDUCIBLE_LABELS
              if (r := _parse_label(lab)[1]) <= rank_bound]
    parts = [weyl_element_orders(lab).orders for lab, _ in labels]
    table = []

    def rec(start: int, remaining: int, combo: tuple, orders: frozenset):
        for k in range(start, len(labels)):
            lab, r = labels[k]
            if r <= remaining:
                grown = frozenset(lcm(a, b) for a in orders for b in parts[k])
                table.append((RootSystem(combo + (lab,)), grown))
                rec(k, remaining - r, combo + (lab,), grown)

    rec(0, rank_bound, (), frozenset([1]))
    return tuple(table)


def uniqueness_scan(rank_bound: int, required_orders) -> list[RootSystem]:
    """All systems of rank <= rank_bound whose Weyl group realizes every
    required element order, in walk order.

    The walk over the systems and their order sets runs once per rank
    bound (_system_table); a scan is a subset filter over that table."""
    if not 1 <= rank_bound <= 8:
        raise ValueError("rank bound must be in 1..8")
    required = set(required_orders)
    if any(o < 1 for o in required):
        raise ValueError("element orders must be positive")
    return [rs for rs, orders in _system_table(rank_bound)
            if required <= orders]


def _is_exceptional(rs: RootSystem) -> bool:
    return len(rs.components) == 1 and rs.components[0] in (
        "G2", "F4", "E6", "E7", "E8")


def audit_omission_policy(rank_bound: int = 7) -> dict:
    """Recompute which systems the reference table should print.

    A system is omitted when its order set is a proper subset of that of
    a non-exceptional system of equal or smaller rank, or when an earlier
    system (rank, then label) has exactly the same order set.  Returns
    the derived row list and its disagreements with the reference rows of
    rank <= rank_bound; disagreements are reported, never patched.
    """
    osets = dict(_system_table(rank_bound))
    systems = sorted(osets, key=lambda rs: (rs.rank, rs.label))
    printed = []
    for rs in systems:
        mine = osets[rs]
        omit = False
        for other in systems:
            if other.label == rs.label or other.rank > rs.rank:
                continue
            theirs = osets[other]
            if mine < theirs and not _is_exceptional(other):
                omit = True
                break
            if mine == theirs and (other.rank, other.label) < (rs.rank,
                                                               rs.label):
                omit = True
                break
        if not omit:
            printed.append(rs.label)
    reference = [label for label, _ in EXPECTED_TABLE
                 if RootSystem.parse(label).rank <= rank_bound]
    return {
        "rank_bound": rank_bound,
        "derived_rows": printed,
        "reference_rows": reference,
        "missing_from_reference": [x for x in printed if x not in reference],
        "unexpected_in_reference": [x for x in reference if x not in printed],
        "agrees": printed == reference,
    }


def almost_minuscule_data(rs: RootSystem | str) -> tuple[int, int]:
    """(dimension, zero-weight multiplicity) of the almost-minuscule
    representation: nonzero weights are the short roots, zero multiplicity
    is the number of short simple roots."""
    if isinstance(rs, str):
        rs = RootSystem.parse(rs)
    if len(rs.components) != 1:
        raise ValueError("almost-minuscule data wants an irreducible system")
    data = root_data(rs.components[0])
    zero_mult = data.short_simple_count
    return data.short_root_count + zero_mult, zero_mult


# the exhaustive scans walk the whole group, one element at a time:
# W(B6) is the largest group they take
_SCAN_BOUND = 46_080


def cyclic_weight_permutation_check(rs: RootSystem | str, dim: int) -> bool:
    """Whether a Weyl element cycles all nonzero weights of the named
    orthogonal weight system in a single full cycle.

    The nonzero weights are the W-orbit of one fundamental weight, in
    the row-vector fundamental-weight coordinates of weylenum: omega_1
    for B_n standard (dim 2n+1), G2 (dim 7) and D_n standard (dim 2n);
    omega_n for B_n spin (dim 2^n); omega_2 for A3 six-dimensional.
    The B_n standard case is witnessed by the Coxeter element, which
    cycles the 2n short roots; every other case scans the whole group
    (G2 finds a cycling element, the even-dimensional controls of
    even_dimension_controls find none).  A scan of a group larger than
    W(B6) raises ResourceBoundExceeded.
    """
    if isinstance(rs, str):
        rs = RootSystem.parse(rs)
    if len(rs.components) != 1:
        raise ValueError("weight-cycle check wants an irreducible system")
    label = rs.components[0]
    fam, n = _parse_label(label)
    standard_b = fam == "B" and dim == 2 * n + 1
    if standard_b or label == "G2" and dim == 7 or fam == "D" and dim == 2 * n:
        k = 1
    elif fam == "B" and dim == 2 ** n:
        k = n
    elif label == "A3" and dim == 6:
        k = 2
    else:
        raise ValueError(
            f"unsupported weight system ({rs.label}, dim={dim})")

    order = weyl_order(rs)
    if not standard_b and order > _SCAN_BOUND:
        raise ResourceBoundExceeded(
            f"scanning {order} elements of W({label}) exceeds the bound "
            f"{_SCAN_BOUND}")
    # odd dimensions add one zero weight
    return _weight_cycle(label, k, dim - dim % 2, standard_b)


@lru_cache(maxsize=None)
def _weight_cycle(label: str, k: int, size: int, coxeter: bool) -> bool:
    """The group half of cyclic_weight_permutation_check, run once per
    weight system."""
    from .weylenum import weight_orbit_cycles
    data = root_data(label)
    return weight_orbit_cycles(data.cartan, k, size, data.weyl_order,
                               coxeter)


def even_dimension_controls() -> dict[str, bool]:
    """The even-dimensional orthogonal weight systems of rank <= 4: none
    admits a Weyl element cycling all nonzero weights in one full cycle."""
    return {
        "D4 standard (dim 8)": cyclic_weight_permutation_check("D4", 8),
        "B3 spin (dim 8)": cyclic_weight_permutation_check("B3", 8),
        "B4 spin (dim 16)": cyclic_weight_permutation_check("B4", 16),
        "A3 orthogonal (dim 6)": cyclic_weight_permutation_check("A3", 6),
    }
