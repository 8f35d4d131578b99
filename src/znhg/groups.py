"""Element-level finite groups as explicit multiplication tables.

This engine knows nothing about divisors: subgroups are enumerated by
closing joins of cyclic subgroups, HK is a literal element-set product,
and the two hypergraphs are built straight from their definitions.  It
exists to validate the divisor-model shortcuts on Z_n and to reproduce
the dihedral examples where the two hypergraphs differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import CapabilityError
from .hypergraph import Hypergraph, canonical_hypergraph, enumerate_maximal_edges

SUBGROUP_ENUMERATION_LIMIT = 200
ASSOCIATIVITY_CHECK_LIMIT = 64


def check_enumerable(order: int) -> None:
    """Refuse a group whose subgroups this engine will not enumerate."""
    if order > SUBGROUP_ENUMERATION_LIMIT:
        raise CapabilityError(
            f"subgroup enumeration is limited to order "
            f"{SUBGROUP_ENUMERATION_LIMIT}, got {order}")


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[i][j] is the index of the product of elements i and j.  Rows
    and columns must be permutations, the identity must act trivially,
    and associativity is checked exhaustively up to order 64 (larger
    tables come from the constructors below, correct by construction).
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    element_names: tuple[str, ...]

    def __post_init__(self):
        n = self.order
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table is not order x order")
        if len(self.element_names) != n:
            raise ValueError("need one name per element")
        full = set(range(n))
        for i, row in enumerate(self.table):
            if set(row) != full:
                raise ValueError(f"row {i} is not a permutation")
        for j in range(n):
            if {self.table[i][j] for i in range(n)} != full:
                raise ValueError(f"column {j} is not a permutation")
        e = self.identity
        if any(self.table[e][x] != x or self.table[x][e] != x for x in range(n)):
            raise ValueError("identity does not act trivially")
        if n <= ASSOCIATIVITY_CHECK_LIMIT:
            t = self.table
            for a in range(n):
                ta = t[a]
                for b in range(n):
                    tab = ta[b]
                    tb = t[b]
                    for c in range(n):
                        if t[tab][c] != ta[tb[c]]:
                            raise ValueError(
                                f"associativity fails at ({a},{b},{c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.table[a].index(self.identity)


def cyclic(n: int) -> FiniteGroup:
    """Z_n under addition mod n."""
    if n < 1:
        raise ValueError("order must be positive")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(n, table, 0, tuple(str(i) for i in range(n)))


def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n: rotations a^i (indices 0..n-1) and reflections
    a^i b (indices n..2n-1), with a^n = e = b^2 and b a b^-1 = a^-1."""
    if n < 3:
        raise ValueError("dihedral group needs n >= 3")
    order = 2 * n

    def idx(i: int, flip: int) -> int:
        return i % n + n * flip

    table = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(n):
            table[idx(i, 0)][idx(j, 0)] = idx(i + j, 0)
            table[idx(i, 0)][idx(j, 1)] = idx(i + j, 1)
            table[idx(i, 1)][idx(j, 0)] = idx(i - j, 1)
            table[idx(i, 1)][idx(j, 1)] = idx(i - j, 0)

    def name(i: int, flip: int) -> str:
        rot = "e" if i == 0 else ("a" if i == 1 else f"a{i}")
        if not flip:
            return rot
        return "b" if i == 0 else rot + "b"

    names = tuple(name(i, f) for f in (0, 1) for i in range(n))
    return FiniteGroup(order, tuple(tuple(r) for r in table), 0, names)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as its sorted tuple of element indices."""

    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def generated_subgroup(g: FiniteGroup, generators) -> Subgroup:
    """Closure of the generators under the product (inverses are free in
    a finite group)."""
    members = {g.identity}
    gens = [x for x in generators]
    queue = list(dict.fromkeys(gens))
    members.update(queue)
    while queue:
        x = queue.pop()
        row = g.table[x]
        for y in gens:
            z = row[y]
            if z not in members:
                members.add(z)
                queue.append(z)
            z = g.table[y][x]
            if z not in members:
                members.add(z)
                queue.append(z)
    return Subgroup(tuple(sorted(members)))


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, by closing joins of cyclic subgroups to a fixpoint.

    Canonically sorted by (order, elements).  Refuses orders above
    SUBGROUP_ENUMERATION_LIMIT.
    """
    check_enumerable(g.order)
    cyclics = {}
    for x in range(g.order):
        s = generated_subgroup(g, (x,))
        cyclics.setdefault(s.elements, x)
    # known subgroups carry a generating set so joins close cheaply
    known: dict[tuple[int, ...], tuple[int, ...]] = {
        elems: (gen,) for elems, gen in cyclics.items()}
    frontier = list(known.items())
    while frontier:
        nxt = []
        for elems, gens in frontier:
            have = set(elems)
            for celems, cgen in cyclics.items():
                if cgen in have or set(celems) <= have:
                    continue
                joined = generated_subgroup(g, gens + (cgen,))
                if joined.elements not in known:
                    known[joined.elements] = gens + (cgen,)
                    nxt.append((joined.elements, gens + (cgen,)))
        frontier = nxt
    return sorted((Subgroup(elems) for elems in known),
                  key=lambda s: (s.order, s.elements))


def proper_nontrivial_subgroups(g: FiniteGroup) -> list[Subgroup]:
    return [s for s in all_subgroups(g) if 1 < s.order < g.order]


def set_product(g: FiniteGroup, a: Subgroup, b: Subgroup) -> frozenset[int]:
    """The literal element-set product AB (no normality assumed)."""
    out = set()
    for x in a.elements:
        row = g.table[x]
        out.update(row[y] for y in b.elements)
        if len(out) == g.order:
            break
    return frozenset(out)


def trivially_intersect(a: Subgroup, b: Subgroup) -> bool:
    """H cap K = {e}: both contain the identity, so trivial means size 1."""
    return len(set(a.elements) & set(b.elements)) == 1


def build_hypergraphs_for_group(g: FiniteGroup) -> tuple[Hypergraph, Hypergraph]:
    """Intersection and co-maximal hypergraphs straight from the
    definitions; vertex labels are the subgroups' element tuples."""
    subs = proper_nontrivial_subgroups(g)
    full = frozenset(range(g.order))

    inter_verts = [s for s in subs
                   if any(trivially_intersect(s, t) for t in subs if t != s)]

    def inter_compat(i: int, j: int) -> bool:
        return trivially_intersect(inter_verts[i], inter_verts[j])

    inter = canonical_hypergraph(
        [s.elements for s in inter_verts],
        enumerate_maximal_edges(len(inter_verts), inter_compat))

    comax_verts = [s for s in subs
                   if any(set_product(g, s, t) == full for t in subs if t != s)]

    def comax_compat(i: int, j: int) -> bool:
        return set_product(g, comax_verts[i], comax_verts[j]) == full

    comax = canonical_hypergraph(
        [s.elements for s in comax_verts],
        enumerate_maximal_edges(len(comax_verts), comax_compat))

    return inter, comax


def zn_subgroup_of_divisor(n: int, d: int) -> tuple[int, ...]:
    """Element tuple of <d> inside cyclic(n): the multiples of d."""
    if n % d != 0:
        raise ValueError(f"{d} does not divide {n}")
    return tuple(range(0, n, d))
