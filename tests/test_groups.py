import hashlib
import itertools
import random

import pytest

from glattice import catalog, groups
from glattice.intlinalg import BudgetExhausted, IntMat
from glattice.groups import (
    FiniteMatrixGroup,
    NotUnimodular,
    OrderCapExceeded,
    ProvablyDistinct,
    Subgroup,
    _is_cyclic,
    _prime_factors,
    all_subgroups,
    closure,
    coset_orbits,
    cyclic_subgroup_classes,
    double_coset_table,
    double_cosets,
    glz_conjugate,
    iter_isomorphisms,
    structure_probe,
    sylow,
)
from glattice.lattices import quotient_group


def perm_mat(p):
    n = len(p)
    return IntMat([[1 if p[i] == j else 0 for j in range(n)] for i in range(n)])


def neg_ident(n):
    return IntMat.identity(n).scale(-1)


def wb(n):
    """W(B_n): signed permutation matrices."""
    gens = [perm_mat(list(range(1, n)) + [0])] if n > 1 else []
    if n > 1:
        gens.append(perm_mat([1, 0] + list(range(2, n))))
    gens.append(IntMat.diag([-1] + [1] * (n - 1)))
    return closure(gens)


def brute_force_subgroups(g, max_gens):
    found = {frozenset([0])}
    for k in range(1, max_gens + 1):
        for c in itertools.combinations(range(1, g.order), k):
            found.add(g.closure_indices(list(c)))
    return found


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def test_closure_order_two():
    g = closure([IntMat([[-1]])])
    assert g.order == 2
    assert g.elements[0] == IntMat.identity(1)


def test_closure_idempotent_and_contains_generators():
    g = wb(3)
    assert g.order == 48
    regen = closure(list(g.elements))
    assert set(regen.elements) == set(g.elements)
    for i in g.generator_indices:
        assert g.elements[i] in set(g.elements)


def test_closure_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        closure([IntMat([[2]])])


def test_closure_order_cap():
    with pytest.raises(OrderCapExceeded):
        closure([IntMat([[1, 1], [0, 1]])], order_cap=50)


def test_closure_deterministic():
    gens = [perm_mat([1, 2, 0]), IntMat.diag([-1, -1, 1])]
    g1 = closure(gens)
    g2 = closure(gens)
    assert g1.elements == g2.elements


def test_cayley_table_consistent():
    g = wb(2)
    for i in range(g.order):
        for j in range(g.order):
            assert g.elements[g.table[i][j]] == g.elements[i] * g.elements[j]
    for i in range(g.order):
        assert g.table[i][g.inv[i]] == 0


def _product_table(g):
    """index[elements[i] * elements[j]], row i as one numpy int64 product
    of elements[i] with every element (exact for entries below 2^20)."""
    import numpy as np
    assert max(m.max_abs() for m in g.elements) < 2 ** 20
    arr = np.array([m.data for m in g.elements], dtype=np.int64)
    index = {a.tobytes(): i for i, a in enumerate(arr)}
    return [[index[p.tobytes()] for p in a @ arr] for a in arr]


def _right_products(elements, generator_indices):
    """The `right` argument of FiniteMatrixGroup from matrix products."""
    index = {m: i for i, m in enumerate(elements)}
    return lambda: [[index[x * elements[s]] for x in elements]
                    for s in generator_indices]


def test_cayley_table_matches_products():
    # fresh closures, so each table is built here from the generators
    checked = 0
    for e in catalog.builtin_catalog():
        g = closure(list(e.generators))
        if g.order <= 400:
            assert g.table == _product_table(g), e.name
            checked += 1
        if g.order <= 24:
            for c in all_subgroups(g).classes:
                # subgroups as groups: tables from the parent table
                sub = c.representative.as_group()
                assert sub.table == _product_table(sub), e.name
                # quotients: permutation matrices on the cosets of N
                if c.size == 1:
                    q, _proj = quotient_group(g, c.representative)
                    assert q.table == _product_table(q), e.name
    assert checked == 31
    # a bare group whose right multiplications come from products here
    g = closure(list(catalog.entry("dade-3-1").generators))
    bare = FiniteMatrixGroup(g.rank, g.elements, g.generator_indices,
                             _right_products(g.elements, g.generator_indices))
    assert bare.table == _product_table(g)
    # the trivial subgroup as a group has no generators
    trivial = closure(list(catalog.entry("dade-2-2").generators)) \
        .trivial_subgroup().as_group()
    assert trivial.generator_indices == () and trivial.table == [[0]]


def test_cayley_table_of_a_conjugate_past_int64():
    # X g X^-1 with X = [[1, 2^40], [0, 1]] has entries near 2^80, so the
    # products by the generators take the Python-integer path
    x = IntMat([[1, 2 ** 40], [0, 1]])
    xinv = x.inverse_unimodular()
    g = closure([x * s * xinv for s in catalog.entry("dade-2-2").generators])
    assert g.order == 12 and max(m.max_abs() for m in g.elements) > 2 ** 63
    assert g.table == [[g.index[a * b] for b in g.elements]
                       for a in g.elements]


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def test_all_subgroups_cyclic4():
    c4 = closure([IntMat([[0, -1], [1, 0]])])
    cls = all_subgroups(c4)
    assert [c.representative.order for c in cls.classes] == [1, 2, 4]


def test_all_subgroups_vs_brute_force_small():
    for g, max_gens in [(wb(2), 4), (wb(3), 3),
                        (closure([perm_mat([1, 2, 0]), perm_mat([1, 0, 2])]), 3)]:
        cls = all_subgroups(g)
        enumerated = set()
        for c in cls.classes:
            enumerated.update(c.orbit)
        brute = brute_force_subgroups(g, max_gens)
        assert enumerated == brute


def test_subgroup_classes_partition_and_conjugation_closed():
    g = wb(3)
    cls = all_subgroups(g)
    seen = set()
    for c in cls.classes:
        assert c.representative.members == min(c.orbit, key=lambda m: tuple(sorted(m)))
        for m in c.orbit:
            assert m not in seen
            seen.add(m)
            for s in g.generator_indices:
                assert g.conjugate_set(m, s) in c.orbit
    assert cls.total_subgroups() == len(seen)


def test_sylow():
    s3c2 = closure([perm_mat([1, 2, 0]), perm_mat([1, 0, 2]),
                    neg_ident(3)])  # S3 x C2 of order 12
    assert s3c2.order == 12
    assert sylow(s3c2, 3).order == 3
    assert sylow(s3c2, 2).order == 4
    assert sylow(s3c2, 5).order == 1
    g = wb(4)
    assert sylow(g, 2).order == 128
    assert sylow(g, 3).order == 3


def test_double_cosets_partition():
    g = wb(3)
    cls = all_subgroups(g)
    rng = random.Random(1)
    reps = cls.representatives()
    for _ in range(10):
        a = rng.choice(reps)
        b = rng.choice(reps)
        dcs = double_cosets(g, a, b)
        total = 0
        for x, inter in dcs:
            # |AxB| = |A||B|/|A n xBx^-1|
            assert (a.order * b.order) % inter.order == 0
            total += a.order * b.order // inter.order
        assert total == g.order


def test_double_cosets_trivial():
    g = wb(2)
    dcs = double_cosets(g, g.full_subgroup(), g.full_subgroup())
    assert len(dcs) == 1 and dcs[0][1].order == g.order


def test_structure_probe():
    c6 = closure([IntMat([[0, -1], [1, 1]])])  # order 6
    assert c6.order == 6
    p = structure_probe(c6)
    assert p.is_cyclic and p.is_abelian and p.sylows_all_cyclic

    a4 = closure([perm_mat([1, 2, 0, 3]), perm_mat([1, 0, 3, 2])])
    assert a4.order == 12
    p = structure_probe(a4)
    assert not p.sylows_all_cyclic  # Sylow 2 is the Klein group
    assert p.center.order == 1
    # normal subgroups of A4: 1, V4, A4
    assert sorted(h.order for h in p.normal_subgroups) == [1, 4, 12]


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------

def test_glz_conjugate_self():
    g = wb(2)
    x = glz_conjugate(g, g)
    xinv = x.inverse_unimodular()
    assert {x * m * xinv for m in g.elements} == set(g.elements)


def test_glz_conjugate_relabel():
    g1 = closure([IntMat.diag([1, -1])])
    g2 = closure([IntMat.diag([-1, 1])])
    x = glz_conjugate(g1, g2)
    xinv = x.inverse_unimodular()
    assert {x * m * xinv for m in g1.elements} == set(g2.elements)
    # symmetry: the inverse conjugates back
    assert {xinv * m * x for m in g2.elements} == set(g1.elements)


def test_glz_provably_distinct():
    g1 = closure([IntMat.diag([1, -1])])   # fixes a line
    g2 = closure([neg_ident(2)])           # -identity
    with pytest.raises(ProvablyDistinct):
        glz_conjugate(g1, g2)


def test_glz_distinct_lattices_same_group():
    # C4 acting by rotation vs C4 as companion of x^4-1? ranks differ;
    # instead: two non-conjugate order-2 groups, diag(-1,-1) vs diag(1,-1)
    g1 = closure([IntMat.diag([-1, -1])])
    g2 = closure([IntMat.diag([1, -1])])
    with pytest.raises(ProvablyDistinct):
        glz_conjugate(g1, g2)


def test_glz_reflection_classes_distinct_mod_2():
    # same characteristic polynomials and isomorphic groups, but every
    # intertwiner of diag(1,-1) with the swap is singular mod 2
    g1 = closure([IntMat.diag([1, -1])])
    g2 = closure([IntMat([[0, 1], [1, 0]])])
    with pytest.raises(ProvablyDistinct, match="determinant obstruction"):
        glz_conjugate(g1, g2)


def _dense_det_obstructed(basis):
    """det(sum c_i B_i) = 0 mod p for every c in F_p^d, for some p in
    2, 3, 5 with p^d <= 2^21, by running through F_p^d for each prime."""
    size, d = basis[0].rows, len(basis)
    for p in (2, 3, 5):
        if p ** d > 2 ** 21:
            continue
        if not any(IntMat([[sum(c * b.data[i][j] for c, b in zip(cs, basis))
                            % p for j in range(size)] for i in range(size)])
                   .det() % p
                   for cs in itertools.product(range(p), repeat=d)):
            return True
    return False


def test_det_screen_matches_dense_enumeration(monkeypatch):
    seen = []
    screen = groups._det_obstructed_mod_p

    def record(basis):
        out = screen(basis)
        seen.append((basis, out))
        return out

    monkeypatch.setattr(groups, "_det_obstructed_mod_p", record)
    catalog.census(catalog.DIM3_ROOTS)
    catalog.census(("dade-4-6",))
    assert len(seen) == 36
    assert {out for _basis, out in seen} == {True, False}
    # by hand: obstructed mod p alone, and singular over Q
    for basis in ([IntMat.diag([2, 1])], [IntMat.diag([3, 1])],
                  [IntMat.diag([5, 1]), IntMat.diag([0, 5])],
                  [IntMat.diag([1, 0]), IntMat([[0, 1], [0, 0]])]):
        record(basis)
    for basis, out in seen:
        assert out == _dense_det_obstructed(basis)


def test_iter_isomorphisms_counts():
    # S3 has 6 automorphisms, all inner, so each one keeps the
    # characteristic polynomial of every element
    s3 = closure([perm_mat([1, 2, 0]), perm_mat([1, 0, 2])])
    isos = list(iter_isomorphisms(s3, s3))
    assert len(isos) == 6
    for f in isos:
        assert sorted(f) == list(range(6))
        for i in range(6):
            for j in range(6):
                assert f[s3.table[i][j]] == s3.table[f[i]][f[j]]


def test_element_orders():
    g = wb(2)
    orders = g.element_orders
    assert orders[0] == 1
    assert sorted(orders) == [1, 2, 2, 2, 2, 2, 4, 4]


# ---------------------------------------------------------------------------
# larger groups: subgroup lattice, Sylow, conjugacy classes, as_group
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, n_classes, n_subgroups", [
    ("dade-4-6", 57, 535),     # order 240, not solvable
    ("dade-4-8", 193, 1659),   # order 384
    ("dade-4-9", 246, 5191),   # order 1152
])
def test_all_subgroups_larger_groups(name, n_classes, n_subgroups):
    g = catalog.entry(name).group()
    cls = all_subgroups(g)
    assert len(cls.classes) == n_classes
    assert cls.total_subgroups() == n_subgroups
    seen = set()
    for c in cls.classes:
        assert c.representative.members == min(c.orbit, key=lambda m: tuple(sorted(m)))
        for m in c.orbit:
            assert m not in seen
            seen.add(m)
            for s in g.generator_indices:
                assert g.conjugate_set(m, s) in c.orbit
    assert len(seen) == n_subgroups


# sha256 over the (representative, orbit) lists of every catalog group of
# order <= 400: pins the exact output, element numbering included
SUBGROUP_LATTICE_DIGEST = "cf4173d183b72934d8f6c056cb63aef4d2412f99ab35c1321ebf3c1e5636d6ae"


def test_all_subgroups_catalog_digest():
    digest = hashlib.sha256()
    for e in catalog.builtin_catalog():
        g = e.group()
        if g.order > 400:
            continue
        cls = all_subgroups(g)
        digest.update(e.name.encode())
        digest.update(repr([(c.representative.sorted_members,
                             tuple(tuple(sorted(m)) for m in c.orbit))
                            for c in cls.classes]).encode())
    assert digest.hexdigest() == SUBGROUP_LATTICE_DIGEST


def test_cyclic_subgroup_classes_match_subgroup_lattice():
    names = []
    for e in catalog.builtin_catalog():
        g = e.group()
        want = [(h.order, h.sorted_members)
                for h in all_subgroups(g).representatives()
                if h.order > 1 and _is_cyclic(g, h.members)]
        got = cyclic_subgroup_classes(g)
        assert [(h.order, h.sorted_members) for h in got] == want, e.name
        assert cyclic_subgroup_classes(g) is got
        names.append(e.name)
    assert "dade-4-9" in names


def test_double_coset_table_matches_double_cosets():
    """The coset orbits are the dense double cosets D x H in order, and
    the orbit-size table is |D n xHx^-1| read off them, on every catalog
    group of order <= 240.  D x H is read as the set of its right cosets
    D x b, b in H, numbered by d.right_cosets, which
    test_right_cosets_partition_the_group checks against the elements."""
    for e in catalog.builtin_catalog():
        g = e.group()
        if g.order > 240:
            continue
        t = g.table
        reps = all_subgroups(g).representatives()
        table = []
        for d in reps:
            coset_of = d.right_cosets[1]
            row = []
            for h in reps:
                dense = double_cosets(g, d, h)
                assert [set(o) for o in coset_orbits(d, h)] == [
                    {coset_of[t[x][b]] for b in h.members}
                    for x, _s in dense], e.name
                row.append(tuple(s.order for _x, s in dense))
            table.append(tuple(row))
        assert double_coset_table(g) == tuple(table), e.name


def test_right_cosets_partition_the_group():
    """Coset i of h.right_cosets is the right coset H reps[i], reps[i] is
    its least element, the cosets are numbered in that order, and they
    partition the group."""
    for e in catalog.builtin_catalog():
        g = e.group()
        if g.order > 240:
            continue
        t = g.table
        for h in all_subgroups(g).representatives():
            reps, coset_of = h.right_cosets
            assert h.right_cosets is h.right_cosets
            assert len(coset_of) == g.order
            assert len(reps) * h.order == g.order
            assert list(reps) == sorted(reps)
            cosets = [set() for _ in reps]
            for x, c in enumerate(coset_of):
                cosets[c].add(x)
            for x, coset in zip(reps, cosets):
                assert coset == {t[a][x] for a in h.members}, e.name
                assert min(coset) == x, e.name


@pytest.mark.parametrize("name", ["dade-2-1", "dade-3-3", "dade-4-6", "dade-4-8"])
def test_sylow_is_the_class_representative(name):
    g = catalog.entry(name).group()
    reps = all_subgroups(g).representatives()
    for p in _prime_factors(g.order):
        q = p
        while g.order % (q * p) == 0:
            q *= p
        [rep] = [h for h in reps if h.order == q]
        assert sylow(g, p) == rep


def test_conj_class_of_matches_conjugation_by_all_elements():
    g = catalog.entry("dade-4-8").group()
    t, inv = g.table, g.inv
    assert g.conj_class_of == [min(t[t[x][i]][inv[x]] for x in range(g.order))
                               for i in range(g.order)]
    for x in range(g.order):
        assert g.conjugation(x) == [t[t[x][i]][inv[x]] for i in range(g.order)]


def test_charpolys_per_class_match_every_element():
    for e in catalog.builtin_catalog():
        g = closure(list(e.generators))
        assert g.charpolys == [m.charpoly() for m in g.elements]


def test_as_group_carries_orders_and_charpolys():
    g = catalog.entry("dade-4-6").group()
    g.element_orders, g.charpolys  # computed on the parent, so carried over
    for h in all_subgroups(g).representatives():
        sub = h.as_group()
        assert sub._orders is not None and sub._charpolys is not None
        fresh = FiniteMatrixGroup(
            sub.rank, sub.elements, sub.generator_indices,
            _right_products(sub.elements, sub.generator_indices))
        assert sub.element_orders == fresh.element_orders
        assert sub.charpolys == fresh.charpolys
