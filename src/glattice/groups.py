"""
Finite subgroups of GL_r(Z) as concrete objects.

Groups are generated by unimodular integer matrices and closed by breadth
first search; elements act on row vectors (x -> x*g), matching the row
convention used for all lattices in this package.  On top of the element
table live Cayley tables, subgroup-lattice enumeration up to conjugacy,
Sylow subgroups, double cosets and a GL_r(Z)-conjugacy search between two
matrix groups.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from .intlinalg import (
    BudgetExhausted,
    IntMat,
    _is_invertible_modp,
    intertwiner_basis,
    unimodular_in_lattice,
)


class OrderCapExceeded(Exception):
    pass


class NotUnimodular(Exception):
    pass


class ProvablyDistinct(Exception):
    """Two matrix groups are certifiably not GL_r(Z)-conjugate."""


def _sort_key(m: IntMat):
    """The order of group elements: by entries, row by row.  For matrices
    of one shape the rows compare as the flattened entries do."""
    return m.data


class FiniteMatrixGroup:
    """A finite subgroup of GL_r(Z) with full element list and Cayley table.

    Element 0 is the identity; the rest follow breadth-first discovery
    order with a lexicographic tie-break on matrix entries, so the element
    numbering is deterministic for a fixed generator list.  The elements
    at generator_indices generate the group.

    `right` is a function of no arguments that returns, for each of
    generator_indices in order, the right multiplication x -> x s by that
    generator s as a list over element indices.  Each constructor already
    holds these index permutations: `closure` computed the products x s,
    `Subgroup.as_group` reads them from the parent table and
    `lattices.quotient_group` from the coset action.  The Cayley table is
    built from them on first use, with no matrix product; `right` is
    called at most once and then dropped.
    """

    def __init__(self, rank, elements, generator_indices, right, name=None):
        self.rank = rank
        self.elements = tuple(elements)
        self.generator_indices = tuple(generator_indices)
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.name = name
        self._right = right
        self._table = None
        self._inv = None
        self._orders = None
        self._charpolys = None
        self._conj_class_of = None
        self._generating_sequence = None
        self._subgroups = None
        self._cyclic_subgroups = None
        self._double_coset_table = None
        self._conjugations = {}  # g -> conjugation(g)
        self._h0_coefficients = None  # kept by homology._h0_coefficients

    # -- basic data --------------------------------------------------------

    @property
    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "FiniteMatrixGroup(rank=%d, order=%d%s)" % (
            self.rank, self.order, ", name=%r" % self.name if self.name else "")

    @property
    def table(self):
        """Cayley table: table[i][j] = index of elements[i] * elements[j]."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self):
        """The table from the Cayley graph (Holt, Eick and O'Brien,
        Handbook of Computational Group Theory, 2005, ch. 4).  Right
        multiplication x -> x s by a generator s is a permutation of the
        element indices, given by the constructor; column x s of the
        table is that permutation applied to column x, since
        y (x s) = (y x) s.  The columns are filled along a breadth-first
        spanning tree from the identity, whose column is the identity map,
        and transposed: n^2 list lookups for n elements, no product."""
        n = self.order
        right = [perm for s, perm in zip(self.generator_indices, self._right())
                 if s]  # the identity adds no edge
        self._right = None
        cols = [None] * n
        cols[0] = list(range(n))
        tree = [0]
        for x in tree:
            col = cols[x]
            for perm in right:
                z = perm[x]
                if cols[z] is None:
                    cols[z] = list(map(perm.__getitem__, col))
                    tree.append(z)
        assert len(tree) == n, "the generators do not generate the group"
        return list(map(list, zip(*cols)))

    @property
    def inv(self):
        if self._inv is None:
            t = self.table
            inv = [0] * self.order
            for i, row in enumerate(t):
                inv[i] = row.index(0)
            self._inv = inv
        return self._inv

    @property
    def element_orders(self):
        if self._orders is None:
            t = self.table
            orders = [1] * self.order
            for i in range(1, self.order):
                k, x = 1, i
                while x != 0:
                    x = t[x][i]
                    k += 1
                orders[i] = k
            self._orders = orders
        return self._orders

    @property
    def charpolys(self):
        """charpolys[i] = characteristic polynomial of elements[i].

        Conjugate matrices share it, so it is computed once per conjugacy
        class of `conj_class_of` and copied to the other elements.
        """
        if self._charpolys is None:
            cls = self.conj_class_of
            per_class = {c: self.elements[c].charpoly() for c in set(cls)}
            self._charpolys = [per_class[c] for c in cls]
        return self._charpolys

    @property
    def conj_class_of(self):
        """conj_class_of[i] = smallest element index conjugate to i."""
        if self._conj_class_of is None:
            moves = [self.conjugation(g) for g in self.generator_indices]
            cls = [-1] * self.order
            for i in range(self.order):
                if cls[i] >= 0:
                    continue
                orbit = {i}
                frontier = [i]
                while frontier:
                    x = frontier.pop()
                    for move in moves:
                        y = move[x]
                        if y not in orbit:
                            orbit.add(y)
                            frontier.append(y)
                for y in orbit:
                    cls[y] = i
            self._conj_class_of = cls
        return self._conj_class_of

    def conjugation(self, g):
        """x -> g x g^-1 as a list over element indices, the row of g read
        through the column of g^-1; computed once per g."""
        perm = self._conjugations.get(g)
        if perm is None:
            t, gi = self.table, self.inv[g]
            perm = self._conjugations[g] = [t[y][gi] for y in t[g]]
        return perm

    def conjugate_set(self, members, g):
        return frozenset(map(self.conjugation(g).__getitem__, members))

    def closure_indices(self, gens):
        """Subgroup of element indices generated by the given indices."""
        t = self.table
        members = {0}
        frontier = [0]
        gens = [g for g in gens if g]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = t[x][g]
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return frozenset(members)

    def powers(self, i):
        """Element indices 0, i, i^2, ... of the cyclic subgroup <i>."""
        t = self.table
        out = [0]
        x = i
        while x != 0:
            out.append(x)
            x = t[x][i]
        return out

    def generating_set(self, members):
        """Small generating sequence for a subgroup given by member indices."""
        chosen = []
        have = frozenset([0])
        for x in sorted(members):
            if x not in have:
                chosen.append(x)
                have = self.closure_indices(chosen)
                if len(have) == len(members):
                    break
        return chosen

    @property
    def generating_sequence(self):
        """`generating_set` of the whole group, computed once."""
        if self._generating_sequence is None:
            self._generating_sequence = tuple(self.generating_set(
                frozenset(range(self.order))))
        return self._generating_sequence

    def subgroup(self, members):
        return Subgroup(self, frozenset(members))

    def full_subgroup(self):
        return Subgroup(self, frozenset(range(self.order)))

    def trivial_subgroup(self):
        return Subgroup(self, frozenset([0]))


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteMatrixGroup
    members: frozenset

    def __post_init__(self):
        assert 0 in self.members

    @property
    def order(self):
        return len(self.members)

    @property
    def sorted_members(self):
        return tuple(sorted(self.members))

    def generators(self):
        """`generating_set` of the members, computed once per subgroup."""
        return self._generators

    @functools.cached_property
    def _generators(self):
        return tuple(self.parent.generating_set(self.members))

    @functools.cached_property
    def right_cosets(self):
        """(reps, coset_of): the right cosets Hx of the parent, numbered in
        order of least element, each represented by that least element;
        coset_of[x] is the number of Hx.  Computed once per subgroup."""
        t = self.parent.table
        coset_of = [-1] * self.parent.order
        reps = []
        for x in range(self.parent.order):
            if coset_of[x] < 0:
                for a in self.members:
                    coset_of[t[a][x]] = len(reps)
                reps.append(x)
        return tuple(reps), tuple(coset_of)

    def matrices(self):
        return [self.parent.elements[i] for i in self.sorted_members]

    def as_group(self):
        """The subgroup as a standalone FiniteMatrixGroup (same matrices).

        Its right multiplications by generators are read from the parent
        table when its own table is first needed.  The parent's element
        orders and characteristic polynomials, when already computed,
        carry over to the new element numbering.
        """
        p = self.parent
        ident = IntMat.identity(p.rank)
        order = sorted(self.members, key=lambda i: (p.elements[i] != ident,
                                                    _sort_key(p.elements[i])))
        pos = {i: k for k, i in enumerate(order)}
        gens = self.generators()
        t = p.table
        sub = FiniteMatrixGroup(
            p.rank, [p.elements[i] for i in order], [pos[i] for i in gens],
            lambda: [[pos[t[x][s]] for x in order] for s in gens])
        if p._orders is not None:
            sub._orders = [p._orders[i] for i in order]
        if p._charpolys is not None:
            sub._charpolys = [p._charpolys[i] for i in order]
        return sub

    def is_normal(self):
        g = self.parent
        for s in g.generator_indices:
            if g.conjugate_set(self.members, s) != self.members:
                return False
        return True

    def conjugate_by(self, g_idx):
        return Subgroup(self.parent, self.parent.conjugate_set(self.members, g_idx))

    def __contains__(self, other):
        return other.members <= self.members

    def __eq__(self, other):
        return self.parent is other.parent and self.members == other.members

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def __repr__(self):
        return "Subgroup(order=%d of %r)" % (self.order, self.parent)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def closure(generators, order_cap=4000, name=None) -> FiniteMatrixGroup:
    """Close a list of unimodular matrices to a finite matrix group.

    Breadth-first: identity first, then round by round, each round's new
    elements sorted lexicographically by entries.  Raises OrderCapExceeded
    if the cap is passed (the input may generate an infinite group).
    """
    gens = [g if isinstance(g, IntMat) else IntMat(g) for g in generators]
    assert gens, "need at least one generator"
    r = gens[0].rows
    for g in gens:
        if not (g.is_square() and g.rows == r):
            raise ValueError("generators must be square of equal rank")
        if not g.is_unimodular():
            raise NotUnimodular(repr(g))
    ident = IntMat.identity(r)
    elements = [ident]
    index = {ident: 0}
    products = {}  # x -> (x g for g in gens), the right multiplications
    frontier = [ident]
    while frontier:
        new = set()
        for x in frontier:
            products[x] = row = tuple(x * g for g in gens)
            new.update(row)
        new = sorted(new.difference(index), key=_sort_key)
        for y in new:
            index[y] = len(elements)
            elements.append(y)
        if len(elements) > order_cap:
            raise OrderCapExceeded("order cap %d exceeded" % order_cap)
        frontier = new
    gen_idx, gen_pos = [], []
    for k, g in enumerate(gens):
        i = index[g]
        if i not in gen_idx:
            gen_idx.append(i)
            gen_pos.append(k)
    right = [[index[products[x][k]] for x in elements] for k in gen_pos]
    return FiniteMatrixGroup(r, elements, gen_idx, lambda: right, name=name)


# ---------------------------------------------------------------------------
# subgroup lattice
# ---------------------------------------------------------------------------

@dataclass
class SubgroupClass:
    representative: Subgroup
    orbit: tuple  # of frozensets, includes representative.members

    @property
    def size(self):
        return len(self.orbit)


@dataclass
class SubgroupClassification:
    group: FiniteMatrixGroup
    classes: list  # of SubgroupClass, sorted by (order, sorted members)

    def total_subgroups(self):
        return sum(c.size for c in self.classes)

    def representatives(self):
        return [c.representative for c in self.classes]


def _subgroup_orbit(g, members, gens=None):
    """Orbit of a subgroup (member indices) under conjugation by the
    subgroup generated by `gens` (default: all of g)."""
    orbit = {members}
    frontier = [members]
    if gens is None:
        gens = g.generator_indices
    while frontier:
        s = frontier.pop()
        for x in gens:
            c = g.conjugate_set(s, x)
            if c not in orbit:
                orbit.add(c)
                frontier.append(c)
    return orbit


def _normalizer(g, members, gens):
    """Elements x of g with x H x^-1 = H, for H = members generated by
    gens: |gens| table lookups per element of g, not |H|."""
    t, inv = g.table, g.inv
    norm = list(range(g.order))
    for s in gens:
        norm = [x for x in norm if t[t[x][s]][inv[x]] in members]
    return norm


def all_subgroups(g: FiniteMatrixGroup) -> SubgroupClassification:
    """All subgroups of g, grouped into conjugacy classes.

    Cyclic extension over class representatives (Neubueser; Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005): every
    subgroup arises by repeatedly adjoining one prime-power-order element,
    so extending each known class representative H by such elements finds
    every class.  No solvability assumption.  <H, y> equals <H, x> for y
    in a coset H x^k with k prime to the order of x, and is conjugate to
    it for y an N(H)-conjugate of such an element, so one x per such
    class is tried.  <H, x> is closed by right cosets of H.
    """
    if g._subgroups is not None:
        return g._subgroups
    n = g.order
    t = g.table
    orders = g.element_orders
    pp_elements = [i for i in range(1, n) if _is_prime_power(orders[i])]

    trivial = frozenset([0])
    known = {trivial: 0}            # member set -> class id
    class_reps = [Subgroup(g, trivial)]  # class id -> canonical rep
    class_orbits = [{trivial}]
    queue = [0]
    while queue:
        cid = queue.pop(0)
        h = class_reps[cid].members
        if len(h) == n:
            continue
        hgens = class_reps[cid].generators()
        norm = _normalizer(g, h, hgens)
        norm_gens = g.generating_set(frozenset(norm)) if len(norm) > 1 else []
        norm_moves = [g.conjugation(a) for a in norm_gens]
        # elements whose extension is tried or conjugate to one tried: a
        # union of right cosets of H, closed under N(H)-conjugation, so
        # unseen elements have unseen conjugates and cosets
        seen = bytearray(n)
        for y in h:
            seen[y] = 1
        for x in pp_elements:
            if seen[x]:
                continue
            cyc = g.powers(x)
            like_x = {y for k, y in enumerate(cyc)
                      if math.gcd(k, len(cyc)) == 1 and not seen[y]}
            frontier = list(like_x)
            while frontier:
                y = frontier.pop()
                for move in norm_moves:
                    z = move[y]
                    if z not in like_x:
                        like_x.add(z)
                        frontier.append(z)
            for y in like_x:
                if not seen[y]:
                    for b in h:
                        seen[t[b][y]] = 1
            # <H, x> as a union of right cosets H y, y running over a
            # breadth-first search by right multiplication with generators
            members = set(h)
            cosets = [0]
            gens = hgens + (x,)
            for y in cosets:
                row = t[y]
                for a in gens:
                    z = row[a]
                    if z not in members:
                        members.update(t[b][z] for b in h)
                        cosets.append(z)
            s = frozenset(members)
            if s in known:
                continue
            orbit = _subgroup_orbit(g, s)
            rep = min(orbit, key=lambda m: tuple(sorted(m)))
            new_id = len(class_reps)
            class_reps.append(Subgroup(g, rep))
            class_orbits.append(orbit)
            for m in orbit:
                known[m] = new_id
            queue.append(new_id)

    classes = [
        SubgroupClass(rep, tuple(sorted(orb, key=lambda m: tuple(sorted(m)))))
        for rep, orb in zip(class_reps, class_orbits)
    ]
    classes.sort(key=lambda c: (c.representative.order,
                                c.representative.sorted_members))
    result = SubgroupClassification(g, classes)
    g._subgroups = result
    return result


def _is_prime_power(k):
    return len(_prime_factors(k)) == 1


def cyclic_subgroup_classes(g: FiniteMatrixGroup):
    """The nontrivial cyclic subgroups of g up to conjugacy, without the
    subgroup lattice; cached on g.

    Conjugate elements generate conjugate subgroups, so <x> for one x per
    class of `conj_class_of` meets every class.  Each class is given by
    the least member set of its conjugation orbit and the classes are
    sorted by (order, sorted members): the same subgroups, in the same
    order, as the nontrivial cyclic entries of
    all_subgroups(g).representatives().
    """
    if g._cyclic_subgroups is None:
        cls = g.conj_class_of
        seen = set()
        reps = []
        for x in range(1, g.order):
            if cls[x] != x:
                continue
            cyc = frozenset(g.powers(x))
            if cyc in seen:
                continue
            orbit = _subgroup_orbit(g, cyc)
            seen |= orbit
            reps.append(Subgroup(g, min(orbit, key=sorted)))
        reps.sort(key=lambda h: (h.order, h.sorted_members))
        g._cyclic_subgroups = tuple(reps)
    return g._cyclic_subgroups


def sylow(g: FiniteMatrixGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of g (canonical: the lexicographically least
    member set in its conjugacy class)."""
    n = g.order
    target = 1
    m = n
    while m % p == 0:
        m //= p
        target *= p
    members = frozenset([0])
    gens = []
    orders = g.element_orders
    while len(members) < target:
        x = next(i for i in _normalizer(g, members, gens)
                 if i not in members and _is_power_of(orders[i], p))
        gens.append(x)
        members = g.closure_indices(gens)
    rep = min(_subgroup_orbit(g, members), key=lambda s: tuple(sorted(s)))
    return Subgroup(g, rep)


def _is_power_of(k, p):
    while k % p == 0:
        k //= p
    return k == 1


# ---------------------------------------------------------------------------
# double cosets
# ---------------------------------------------------------------------------

def double_cosets(g: FiniteMatrixGroup, a: Subgroup, b: Subgroup):
    """Representatives of A\\G/B with the intersections A n xBx^-1.

    Returns a list of (representative index, Subgroup a n b^x) in order of
    least representative.
    """
    t, inv = g.table, g.inv
    n = g.order
    seen = [False] * n
    out = []
    for x in range(n):
        if seen[x]:
            continue
        coset = set()
        for ai in a.members:
            ax = t[ai][x]
            for bi in b.members:
                coset.add(t[ax][bi])
        for y in coset:
            seen[y] = True
        xinv = inv[x]
        bx = frozenset(t[t[x][bi]][xinv] for bi in b.members)
        inter = a.members & bx
        out.append((x, Subgroup(g, inter)))
    return out


def coset_orbits(d: Subgroup, h: Subgroup):
    """The H-orbits on the right cosets of D, as lists of coset numbers of
    d.right_cosets, in order of least coset: the double cosets D x H.

    H acts on the cosets by right multiplication, D x -> D x s, so each
    orbit is one search along the generators of H."""
    t = d.parent.table
    reps, coset_of = d.right_cosets
    moves = [[coset_of[t[x][s]] for x in reps] for s in h.generators()]
    seen = bytearray(len(reps))
    orbits = []
    for c in range(len(reps)):
        if seen[c]:
            continue
        seen[c] = 1
        orbit = [c]
        for y in orbit:
            for move in moves:
                z = move[y]
                if not seen[z]:
                    seen[z] = 1
                    orbit.append(z)
        orbits.append(orbit)
    return orbits


def double_coset_table(g: FiniteMatrixGroup):
    """table[d][h] = the orders |D n xHx^-1| over the double cosets D\\G/H,
    in order of least element, for D, H running over the subgroup class
    representatives; cached on g.

    By Mackey and Shapiro (Brown, Cohomology of Groups, GTM 87, III.5-6)
    H^0(H, Z[G/D]) is the sum of Z/|D n xHx^-1|, and len(table[d][h]) is
    the number of H-orbits on the cosets of D.  The double coset D x H is
    the H-orbit of the right coset D x (`coset_orbits`), with
    |H| / |D n xHx^-1| cosets in it.
    """
    if g._double_coset_table is None:
        reps = all_subgroups(g).representatives()
        g._double_coset_table = tuple(
            tuple(tuple(h.order // len(o) for o in coset_orbits(d, h))
                  for h in reps)
            for d in reps)
    return g._double_coset_table


# ---------------------------------------------------------------------------
# structure probe
# ---------------------------------------------------------------------------

@dataclass
class StructureProbe:
    order: int
    is_cyclic: bool
    is_abelian: bool
    sylows_all_cyclic: bool
    center: Subgroup
    normal_subgroups: list = field(default_factory=list)


def structure_probe(g: FiniteMatrixGroup) -> StructureProbe:
    n = g.order
    t = g.table
    orders = g.element_orders
    is_cyclic = any(o == n for o in orders)
    is_abelian = all(t[i][j] == t[j][i]
                     for i in g.generator_indices for j in g.generator_indices)
    center = frozenset(i for i in range(n)
                       if all(t[i][s] == t[s][i] for s in g.generator_indices))
    normals = [c.representative for c in all_subgroups(g).classes
               if c.size == 1]
    return StructureProbe(n, is_cyclic, is_abelian, _sylows_all_cyclic(g),
                          Subgroup(g, center), normals)


def _is_cyclic(g, members):
    """Whether the subgroup given by its member indices is cyclic."""
    k = len(members)
    return any(g.element_orders[i] == k for i in members)


def _sylows_all_cyclic(g):
    """Whether every Sylow subgroup of g is cyclic."""
    return all(_is_cyclic(g, sylow(g, p).members)
               for p in _prime_factors(g.order))


def _prime_factors(n):
    """Distinct prime factors of n, ascending (trial division)."""
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# abstract isomorphisms and GL_r(Z) conjugacy
# ---------------------------------------------------------------------------

def iter_isomorphisms(g1: FiniteMatrixGroup, g2: FiniteMatrixGroup,
                      limit=None):
    """Yield isomorphisms g1 -> g2 as full image maps that send each
    element to one with the same characteristic polynomial: the right
    notion for GL_r(Z)-conjugacy, where conjugation preserves
    characteristic polynomials elementwise.
    """
    if g1.order != g2.order:
        return
    n = g1.order
    gens = g1.generating_sequence
    if not gens:
        yield [0] * 1
        return
    o1, o2 = g1.element_orders, g2.element_orders
    cs1, cs2 = _class_size_map(g1), _class_size_map(g2)
    cp1, cp2 = g1.charpolys, g2.charpolys

    def candidates(a):
        for b in range(n):
            if o2[b] != o1[a]:
                continue
            if cs2[b] != cs1[a]:
                continue
            if cp2[b] != cp1[a]:
                continue
            yield b

    count = 0
    subdomains = [g1.closure_indices(gens[:d + 1]) for d in range(len(gens))]

    def extend(depth, partial_f):
        nonlocal count
        if limit is not None and count >= limit:
            return
        if depth == len(gens):
            count += 1
            yield list(partial_f)
            return
        a = gens[depth]
        domain = subdomains[depth]
        prev_imgs = [partial_f[g] for g in gens[:depth]]
        for b in candidates(a):
            f = _hom_extends_on(g1, g2, gens[:depth + 1], prev_imgs + [b], domain)
            if f is None:
                continue
            if any(cp1[x] != cp2[f[x]] for x in domain):
                continue
            if len(frozenset(f[x] for x in domain)) != len(domain):
                continue
            yield from extend(depth + 1, f)
            if limit is not None and count >= limit:
                return

    f0 = [-1] * n
    f0[0] = 0
    yield from extend(0, f0)


def _hom_extends_on(g1, g2, gens, images, domain):
    """Extend gens -> images to a homomorphism on the subgroup `domain`
    of g1; returns the image map (with -1 outside domain) or None."""
    t1, t2 = g1.table, g2.table
    f = [-1] * g1.order
    f[0] = 0
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for a, b in zip(gens, images):
            y = t1[x][a]
            fy = t2[f[x]][b]
            if f[y] == -1:
                f[y] = fy
                frontier.append(y)
            elif f[y] != fy:
                return None
    for x in domain:
        if f[x] == -1:
            return None
    return f


def _class_size_map(g):
    cls = g.conj_class_of
    sizes = {}
    for c in cls:
        sizes[c] = sizes.get(c, 0) + 1
    return {i: sizes[cls[i]] for i in range(g.order)}


ISO_LIMIT = 2000  # glz_conjugate: fewer isomorphisms means all were seen


def glz_conjugate(g1: FiniteMatrixGroup, g2: FiniteMatrixGroup,
                  budget=20000):
    """Search for X in GL_r(Z) with X g1 X^-1 = g2 (as matrix sets).

    Three-valued: returns X on success, raises ProvablyDistinct when an
    invariant rules conjugacy out (order or Q-character multiset mismatch,
    or no characteristic-polynomial-preserving abstract isomorphism
    exists), raises BudgetExhausted otherwise.
    """
    if g1.rank != g2.rank:
        raise ProvablyDistinct("rank mismatch")
    if g1.order != g2.order:
        raise ProvablyDistinct("order mismatch")
    if sorted(g1.charpolys) != sorted(g2.charpolys):
        raise ProvablyDistinct("characteristic polynomial multiset mismatch")
    gens = g1.generating_sequence
    if not gens:  # trivial groups
        return IntMat.identity(g1.rank)
    found_iso = False
    per_iso = max(budget // 20, 500)
    spent = 0
    iso_count = 0
    any_open = False
    for f in iter_isomorphisms(g1, g2, limit=ISO_LIMIT):
        found_iso = True
        iso_count += 1
        # X rho1(s) X^-1 = rho2(f(s)), i.e. rho2(f(s)) X = X rho1(s)
        basis = intertwiner_basis([(g2.elements[f[s]], g1.elements[s])
                                   for s in gens], g1.rank, g1.rank)
        basis = [b for b in basis if not b.is_zero()]
        # cheap mod-p obstruction first: if the determinant form vanishes
        # identically mod some small prime, this isomorphism can never
        # yield a unimodular intertwiner -- skip the search entirely
        if not basis or _det_obstructed_mod_p(basis):
            continue
        any_open = True
        allow = min(per_iso, budget - spent)
        if allow <= 0:
            raise BudgetExhausted("conjugacy search budget exhausted")
        x = unimodular_in_lattice(basis, bound=allow)
        spent += allow
        if x is not None:
            # X g1 X^-1 = g2 as matrix sets: conjugation by X is an
            # injective homomorphism, so X g1 X^-1 is a group of order
            # |g1| = |g2| generated by the X s X^-1, and these lie in g2
            xinv = x.inverse_unimodular()
            assert g1.order == g2.order and all(
                x * g1.elements[s] * xinv in g2.index for s in gens)
            return x
    if not found_iso:
        raise ProvablyDistinct(
            "no characteristic-polynomial-preserving isomorphism exists")
    # when the enumeration was exhaustive and every isomorphism was
    # obstructed, conjugacy is impossible
    if iso_count < ISO_LIMIT and not any_open:
        raise ProvablyDistinct(
            "no isomorphism admits a unimodular intertwiner "
            "(determinant obstruction mod a small prime)")
    raise BudgetExhausted("no unimodular intertwiner found within budget")


def _det_obstructed_mod_p(basis):
    """True when det(sum c_i B_i) = 0 mod p for all coefficients over
    F_p, for some prime p in 2, 3, 5 with p^d <= 2^21 -- then the Z-span
    of `basis` contains no unimodular matrix.

    A prime p is cleared as soon as one of four exact determinants, of
    integer combinations with coefficients 1..29 drawn from Random(0), is
    not 0 mod p: that combination is invertible over F_p.  Each prime left
    goes through F_p^d in descending lexicographic order from
    (p-1, ..., p-1) and stops at the first combination invertible over
    F_p; an obstructed prime takes all p^d."""
    if not basis:
        return True
    size = basis[0].rows
    d = len(basis)
    primes = [p for p in (2, 3, 5) if p ** d <= 2 ** 21]
    rng = random.Random(0)
    for _ in range(4):
        if not primes:
            return False
        coeffs = [rng.randint(1, 29) for _ in basis]
        det = IntMat([[sum(c * x for c, x in zip(coeffs, entries))
                       for entries in zip(*rows)]
                      for rows in zip(*(b.data for b in basis))]).det()
        primes = [p for p in primes if det % p == 0]
    for p in primes:
        flats = [[x % p for row in b.data for x in row] for b in basis]
        for coeffs in itertools.product(range(p - 1, -1, -1), repeat=d):
            flat = [sum(c * f[k] for c, f in zip(coeffs, flats)) % p
                    for k in range(size * size)]
            m = [flat[i * size:(i + 1) * size] for i in range(size)]
            if _is_invertible_modp(m, p):
                break
        else:
            return True
    return False
