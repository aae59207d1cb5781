import random
from fractions import Fraction

import pytest

from glattice import catalog
from glattice.homology import coflasque_resolution
from glattice.intlinalg import (
    BudgetExhausted,
    IntMat,
    kernel_basis,
    quotient_invariants,
    solve_left,
    unimodular_in_lattice,
)
from glattice.groups import (
    ProvablyDistinct,
    all_subgroups,
    closure,
    cyclic_subgroup_classes,
    double_cosets,
)
from glattice.lattices import (
    EquivariantMap,
    GLattice,
    GSet,
    NotIndexTwoNormal,
    PermutationWitness,
    SignPermutationWitness,
    _cyclic_tate_groups,
    _jordan_types_pass,
    _marks_pass,
    _orbit_basis_search,
    aug_ideal,
    coset_gset,
    coset_gset_sum,
    coset_lattice,
    direct_sum,
    dual,
    find_isomorphism,
    fixed_sublattice,
    gset_from_permutation_matrices,
    hom_basis,
    induce,
    inflate,
    is_coflasque,
    is_flasque,
    j_lattice,
    norm_matrix,
    perm_lattice,
    quotient_group,
    recognize_permutation,
    recognize_sign_permutation,
    restrict,
    rho_matrix,
    sign_lattice,
    std_lattice,
    sub_lattice_from_rows,
    subgroup_tate_profiles,
    tate,
    tate_profile,
    tensor,
    trivial_lattice,
)


def perm_mat(p):
    n = len(p)
    return IntMat([[1 if p[i] == j else 0 for j in range(n)] for i in range(n)])


def wb(n):
    gens = []
    if n > 1:
        gens.append(perm_mat(list(range(1, n)) + [0]))
        gens.append(perm_mat([1, 0] + list(range(2, n))))
    gens.append(IntMat.diag([-1] + [1] * (n - 1)))
    return closure(gens)


C2 = closure([IntMat([[-1]])])
S3 = closure([perm_mat([1, 2, 0]), perm_mat([1, 0, 2])])
C4 = closure([IntMat([[0, -1], [1, 0]])])
WB2 = wb(2)

GROUP_POOL = [C2, S3, C4, WB2]


def random_unimodular(rng, n, steps=10):
    w = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-1, 1)
        w[i] = [x + q * y for x, y in zip(w[i], w[j])]
    return IntMat(w)


def twist(m, u):
    ui = u.inverse_unimodular()
    return GLattice(m.group, [u * a * ui for a in m.action])


def random_lattice(group, rng, max_summands=2, allow_dual=True):
    reps = all_subgroups(group).representatives()
    parts = []
    for _ in range(rng.randint(1, max_summands)):
        h = rng.choice(reps)
        l = coset_lattice(group, h)
        if allow_dual and rng.random() < 0.3:
            l = dual(l)
        parts.append(l)
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum(out, p)
    if out.rank <= 8:
        out = twist(out, random_unimodular(rng, out.rank))
    return out


def character_oracle(m):
    """Trace via Fraction arithmetic, independent of IntMat internals."""
    out = []
    for a in m.action:
        out.append(sum(Fraction(a.data[i][i]) for i in range(m.rank)))
    return tuple(out)


# ---------------------------------------------------------------------------
# construction and action checks
# ---------------------------------------------------------------------------

def test_std_lattice_and_full_table():
    m = std_lattice(WB2)
    assert m.rank == 2
    assert m.check_full_table()


def test_perm_aug_j_on_s3():
    x = gset_from_permutation_matrices(S3)
    zx = perm_lattice(x)
    ix = aug_ideal(x)
    jx = j_lattice(x)
    assert (zx.rank, ix.rank, jx.rank) == (3, 2, 2)
    for lat in (zx, ix, jx):
        assert lat.check_full_table()
    # characters add along 0 -> I_X -> Z[X] -> Z -> 0
    for g in range(S3.order):
        cz = sum(zx.act(g).data[i][i] for i in range(3))
        ci = sum(ix.act(g).data[i][i] for i in range(2))
        assert cz == ci + 1


S4 = closure([perm_mat([1, 2, 3, 0]), perm_mat([1, 0, 2, 3])])


def test_j_lattice_is_rho_matrix_of_each_permutation():
    assert catalog.rho_matrix is rho_matrix
    x = gset_from_permutation_matrices(S4)
    jx = j_lattice(x)
    assert all(jx.act(g) == rho_matrix(x.perms[g]) for g in range(S4.order))
    assert jx.check_full_table()


def _assert_restricts_by_per_element_solve(p, rows):
    sub, inc = sub_lattice_from_rows(p, rows)
    assert inc.matrix == rows and inc.check()
    for g in range(p.group.order):
        assert sub.act(g) == solve_left(rows, rows * p.act(g))
    assert sub.check_full_table()


def test_sub_lattice_from_rows_on_a_coflasque_kernel():
    cert = coflasque_resolution(
        catalog.entry("z-4-33-2-1").lattice())
    _assert_restricts_by_per_element_solve(
        cert.mid, kernel_basis(cert.surj.matrix))


def test_aug_ideal_is_the_sub_lattice_of_the_difference_rows():
    x = gset_from_permutation_matrices(S4)
    emb = IntMat([[1 if j == i else (-1 if j == i + 1 else 0)
                   for j in range(4)] for i in range(3)])
    _assert_restricts_by_per_element_solve(perm_lattice(x), emb)
    assert aug_ideal(x).action == \
        sub_lattice_from_rows(perm_lattice(x), emb)[0].action


def test_j_lattice_is_dual_of_augmentation_ideal():
    for g in (S3, S4):
        x = gset_from_permutation_matrices(g)
        f = find_isomorphism(j_lattice(x), dual(aug_ideal(x)))
        assert f.check() and f.matrix.det() in (1, -1)


def test_coset_gset_partitions():
    cls = all_subgroups(WB2)
    for h in cls.representatives():
        x = coset_gset(WB2, h)
        assert x.points == WB2.order // h.order
        assert x.stabilizer(0).members == h.members


def test_gset_rejects_a_non_action():
    x = gset_from_permutation_matrices(S3)
    # constant maps compose with each other, but element 0 must be the
    # identity
    with pytest.raises(AssertionError):
        GSet(S3, 3, ((0, 0, 0),) * S3.order)
    # permutations that do not compose as the group multiplies
    a, b = [i for i in range(1, S3.order) if x.perms[i] != x.perms[0]][:2]
    swapped = list(x.perms)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    with pytest.raises(AssertionError):
        GSet(S3, 3, tuple(swapped))


@pytest.mark.parametrize("big", [1, 2 ** 40])
def test_glattice_rejects_a_non_homomorphism(big):
    # big = 2^40 puts entries past 2^63, so the check multiplies in
    # Python integers; big = 1 keeps it in int64
    m = twist(std_lattice(S3), IntMat([[1, big, 0], [0, 1, 0], [0, 0, 1]]))
    assert max(a.max_abs() for a in m.action) >= big * big
    a, b = [i for i in range(1, S3.order) if m.act(i) != m.act(0)][:2]
    swapped = list(m.action)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    with pytest.raises(AssertionError, match="not a homomorphism"):
        GLattice(S3, swapped)


def test_sign_lattice():
    a3 = S3.subgroup(frozenset(i for i in range(6) if S3.element_orders[i] in (1, 3)))
    s = sign_lattice(S3, a3)
    vals = sorted(s.act(i).data[0][0] for i in range(6))
    assert vals == [-1, -1, -1, 1, 1, 1]
    with pytest.raises(NotIndexTwoNormal):
        sign_lattice(S3, S3.trivial_subgroup())


def test_tensor_character_multiplicative():
    rng = random.Random(3)
    m = random_lattice(S3, rng)
    n = random_lattice(S3, rng)
    t = tensor(m, n)
    cm, cn, ct = character_oracle(m), character_oracle(n), character_oracle(t)
    for g in range(S3.order):
        assert ct[g] == cm[g] * cn[g]
    assert t.check_full_table()


def test_dual_involution_and_tensor_unit():
    rng = random.Random(4)
    m = random_lattice(WB2, rng)
    assert dual(dual(m)) == m
    u = tensor(m, trivial_lattice(WB2))
    assert u.action == m.action


# ---------------------------------------------------------------------------
# fixed sublattices
# ---------------------------------------------------------------------------

def test_fixed_sublattice_rank_matches_character_average():
    rng = random.Random(11)
    for group in GROUP_POOL:
        for _ in range(5):
            m = random_lattice(group, rng)
            chars = character_oracle(m)
            for h in all_subgroups(group).representatives():
                fix = fixed_sublattice(m, h)
                avg = sum(chars[i] for i in h.sorted_members) / h.order
                assert fix.rows == avg
                for s in h.generators():
                    assert fix * m.act(s) == fix


def test_fixed_sublattice_saturated():
    # C2 swapping coordinates: fixed = (1,1) primitive, not (2,2)
    c2 = closure([perm_mat([1, 0])])
    fix = fixed_sublattice(std_lattice(c2), c2.full_subgroup())
    assert fix == IntMat([[1, 1]])


# ---------------------------------------------------------------------------
# Tate cohomology: frozen values
# ---------------------------------------------------------------------------

def test_tate_trivial_module():
    h = C2.full_subgroup()
    z = trivial_lattice(C2)
    assert str(tate(z, h, 0)) == "Z/2"
    assert tate(z, h, -1).is_trivial()
    assert tate(z, h, 1).is_trivial()


def test_tate_sign_module():
    h = C2.full_subgroup()
    s = std_lattice(C2)  # the sign lattice of C2
    assert tate(s, h, 0).is_trivial()
    assert str(tate(s, h, -1)) == "Z/2"
    assert str(tate(s, h, 1)) == "Z/2"


def test_tate_cyclotomic():
    # Z[zeta_p] as a C_p-lattice: H^0 = 0, H^-1 = Z/p
    for p in (3, 5):
        n = p - 1
        comp = IntMat([[1 if j == i + 1 else 0 for j in range(n)]
                       for i in range(n - 1)] + [[-1] * n])
        cp = closure([comp])
        assert cp.order == p
        m = std_lattice(cp)
        h = cp.full_subgroup()
        assert tate(m, h, 0).is_trivial()
        assert str(tate(m, h, -1)) == "Z/%d" % p


def test_tate_trivial_subgroup_and_rank_zero():
    m = std_lattice(WB2)
    assert tate(m, WB2.trivial_subgroup(), 0).is_trivial()
    empty = aug_ideal(coset_gset(C2, C2.full_subgroup()))
    assert empty.rank == 0
    assert tate(empty, C2.full_subgroup(), -1).is_trivial()


@pytest.mark.parametrize("name", ["dade-2-1", "dade-3-2", "z-3-7-4-3"])
def test_tate_profile_matches_tate(name):
    m = std_lattice(catalog.entry(name).group())
    want = sorted((h.order,) + tuple(tate(m, h, k).factors
                                     for k in (-1, 0, 1))
                  for h in all_subgroups(m.group).representatives())
    assert tate_profile(m) == tuple(want)


@pytest.mark.parametrize("name", ["dade-2-1", "dade-3-2", "dade-3-3",
                                  "z-3-7-4-3", "dade-4-6"])
def test_subgroup_tate_profiles_match_dense(name):
    # reference: each class rep S as a group of its own, its own subgroup
    # classes and a fresh tate call on each
    g = catalog.entry(name).group()
    profiles = subgroup_tate_profiles(std_lattice(g))
    reps = all_subgroups(g).representatives()
    assert len(profiles) == len(reps)
    for s, profile in zip(reps, profiles):
        sg = s.as_group()
        m = std_lattice(sg)
        want = sorted((h.order,) + tuple(tate(m, h, k).factors
                                         for k in (-1, 0, 1))
                      for h in all_subgroups(sg).representatives())
        assert profile == tuple(want)


def test_regular_representation_cohomologically_trivial():
    for g in (S3, C4):
        zg = coset_lattice(g, g.trivial_subgroup())
        for h in all_subgroups(g).representatives():
            for k in (-1, 0, 1):
                assert tate(zg, h, k).is_trivial()


def test_permutation_lattices_flasque_and_coflasque():
    rng = random.Random(21)
    for group in GROUP_POOL:
        reps = all_subgroups(group).representatives()
        for _ in range(3):
            parts = [coset_lattice(group, rng.choice(reps))
                     for _ in range(rng.randint(1, 2))]
            m = parts[0]
            for p in parts[1:]:
                m = direct_sum(m, p)
            assert is_flasque(m)
            assert is_coflasque(m)


def test_tate_conjugation_invariant():
    rng = random.Random(31)
    m = random_lattice(WB2, rng)
    for h in all_subgroups(WB2).representatives():
        for g in WB2.generator_indices:
            hc = h.conjugate_by(g)
            for k in (-1, 0, 1):
                assert tate(m, hc, k) == tate(m, h, k)


def test_tate_additive_over_direct_sum():
    rng = random.Random(41)
    m = random_lattice(S3, rng)
    n = random_lattice(S3, rng)
    s = direct_sum(m, n)
    for h in all_subgroups(S3).representatives():
        for k in (-1, 0, 1):
            a, b, c = tate(m, h, k), tate(n, h, k), tate(s, h, k)
            assert a.order * b.order == c.order


def test_tate_matches_definitions():
    """tate against the quotients of its definition, computed with
    fixed_sublattice, kernel_basis and quotient_invariants: H^0 =
    M^H / N_H(M), H^-1 = ker N_H / I_H(M) with I_H(M) spanned by
    act(g) - 1 over every element g of H, and H^1 = H^-1 of the dual."""
    rng = random.Random(61)
    for group in GROUP_POOL:
        for _ in range(10):
            m = random_lattice(group, rng)
            md = dual(m)
            ident = IntMat.identity(m.rank)
            for h in all_subgroups(group).representatives():
                norm = norm_matrix(m, h)
                assert tate(m, h, 0) == quotient_invariants(
                    fixed_sublattice(m, h), norm)
                aug = IntMat([row for g in h.sorted_members
                              for row in (m.act(g) - ident).data])
                assert tate(m, h, -1) == quotient_invariants(
                    kernel_basis(norm), aug)
                assert tate(m, h, 1) == tate(md, h, -1)


# ---------------------------------------------------------------------------
# Tate cohomology: randomized suites (acceptance: 200 Shapiro, 200 duality)
# ---------------------------------------------------------------------------

def test_shapiro_200():
    """H^k(G, Ind_H^G M) = H^k(H, M) for k in {-1, 0, 1}, 200 cases."""
    rng = random.Random(20240818)
    cases = 0
    while cases < 200:
        group = rng.choice(GROUP_POOL)
        reps = all_subgroups(group).representatives()
        h = rng.choice(reps)
        if group.order // h.order > 8:
            continue
        hgrp = h.as_group()
        m = random_lattice(hgrp, rng, max_summands=1)
        ind = induce(h, m)
        assert ind.rank == (group.order // h.order) * m.rank
        hfull = hgrp.full_subgroup()
        gfull = group.full_subgroup()
        for k in (-1, 0, 1):
            assert tate(ind, gfull, k) == tate(m, hfull, k)
        cases += 1


def test_duality_200():
    """For cyclic subgroups cohomology is 2-periodic, so degree 1 (from
    I_H of the dual) must agree with degree -1 (from I_H of the lattice):
    200 cases."""
    rng = random.Random(20240819)
    cases = 0
    while cases < 200:
        group = rng.choice(GROUP_POOL)
        m = random_lattice(group, rng)
        cyclics = [h for h in all_subgroups(group).representatives()
                   if group.subgroup(h.members).as_group().order == h.order
                   and len(h.generators()) <= 1]
        for h in cyclics:
            assert tate(m, h, 1) == tate(m, h, -1)
            cases += 1


def test_induced_character_oracle():
    rng = random.Random(51)
    group = WB2
    h = random.Random(52).choice(all_subgroups(group).representatives())
    hgrp = h.as_group()
    m = random_lattice(hgrp, rng, max_summands=1)
    ind = induce(h, m)
    # chi_Ind(g) = (1/|H|) sum over x in G with x g x^-1 in H of chi_M(x g x^-1)
    sub_index = {mat: i for i, mat in enumerate(hgrp.elements)}
    chi_m = character_oracle(m)
    chi_ind = character_oracle(ind)
    t, inv = group.table, group.inv
    for g in range(group.order):
        total = Fraction(0)
        for x in range(group.order):
            c = t[t[x][g]][inv[x]]
            if c in h.members:
                total += chi_m[sub_index[group.elements[c]]]
        assert chi_ind[g] == total / h.order


def test_mackey_fixed_rank_consistency():
    """rank (Ind_H M)^K = sum over K\\G/H double cosets of rank M^{H n K^x}."""
    rng = random.Random(61)
    group = S3
    reps = all_subgroups(group).representatives()
    for h in reps:
        hgrp = h.as_group()
        m = random_lattice(hgrp, rng, max_summands=1)
        ind = induce(h, m)
        sub_index = {mat: i for i, mat in enumerate(hgrp.elements)}
        for k_sub in reps:
            lhs = fixed_sublattice(ind, k_sub).rows
            rhs = 0
            for x, _inter in double_cosets(group, k_sub, h):
                # H n x^-1 K x, viewed inside H
                xi = group.inv[x]
                conj = group.conjugate_set(k_sub.members, xi)
                inter = conj & h.members
                hh = hgrp.subgroup(frozenset(
                    sub_index[group.elements[i]] for i in inter))
                rhs += fixed_sublattice(m, hh).rows
            assert lhs == rhs


# ---------------------------------------------------------------------------
# restriction / inflation
# ---------------------------------------------------------------------------

def test_restrict_character():
    m = std_lattice(WB2)
    for h in all_subgroups(WB2).representatives():
        r = restrict(m, h)
        assert r.group.order == h.order
        assert r.rank == m.rank


def test_quotient_and_inflate():
    a3 = S3.subgroup(frozenset(i for i in range(6) if S3.element_orders[i] in (1, 3)))
    q, proj = quotient_group(S3, a3)
    assert q.order == 2
    sgn = GLattice(q, [IntMat([[1]]) if i == 0 else IntMat([[-1]])
                       for i in range(2)])
    infl = inflate(S3, proj, sgn)
    assert infl == sign_lattice(S3, a3)
    assert infl.check_full_table()


# ---------------------------------------------------------------------------
# Hom lattices and isomorphism search
# ---------------------------------------------------------------------------

def test_hom_rank_counts_double_cosets():
    """rank Hom_G(Z[G/H], Z[G/K]) = number of H\\G/K double cosets."""
    for group in (S3, WB2):
        reps = all_subgroups(group).representatives()
        for h in reps:
            for k in reps:
                expected = len(double_cosets(group, h, k))
                got = len(hom_basis(coset_lattice(group, h),
                                    coset_lattice(group, k)))
                assert got == expected


def test_hom_basis_elements_are_equivariant():
    rng = random.Random(71)
    m = random_lattice(S3, rng)
    n = random_lattice(S3, rng)
    for f in hom_basis(m, n):
        assert EquivariantMap(m, n, f).check()


def test_find_isomorphism_twisted():
    rng = random.Random(81)
    for group in (S3, C4, WB2):
        m = random_lattice(group, rng)
        u = random_unimodular(rng, m.rank)
        n = twist(m, u)
        f = find_isomorphism(m, n)
        assert f.check() and f.matrix.det() in (1, -1)


def test_unimodular_search_finds_a_rank_eight_isomorphism():
    # M = Z[S3/C2]^2 + Z[S3/C3] has rank 8 and N = M twisted by u is
    # isomorphic to it, so Hom_G(M, N) holds a unimodular map.
    c2, c3 = (next(h for h in all_subgroups(S3).representatives()
                   if h.order == k) for k in (2, 3))
    m = direct_sum(direct_sum(coset_lattice(S3, c2), coset_lattice(S3, c2)),
                   coset_lattice(S3, c3))
    assert m.rank == 8
    n = twist(m, random_unimodular(random.Random(0), 8, steps=40))
    x = unimodular_in_lattice(hom_basis(m, n))
    assert x is not None and x.is_unimodular()
    assert EquivariantMap(m, n, x).check()


def test_find_isomorphism_provably_distinct():
    z = trivial_lattice(C2)
    s = std_lattice(C2)
    with pytest.raises(ProvablyDistinct):
        find_isomorphism(z, s)
    with pytest.raises(ProvablyDistinct):
        find_isomorphism(z, direct_sum(z, z))
    # same character, different Tate profile: Z[C2] vs Z + Z^-
    zc2 = coset_lattice(C2, C2.trivial_subgroup())
    zs = direct_sum(z, s)
    with pytest.raises(ProvablyDistinct):
        find_isomorphism(zc2, zs)


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

def test_recognize_permutation_twisted():
    rng = random.Random(91)
    for group in (S3, WB2):
        reps = all_subgroups(group).representatives()
        m = direct_sum(coset_lattice(group, rng.choice(reps)),
                       coset_lattice(group, rng.choice(reps)))
        if m.rank > 8:
            m = coset_lattice(group, reps[-1])
        w = recognize_permutation(twist(m, random_unimodular(rng, m.rank)))
        assert w is not None
        assert w.map.check() and w.map.matrix.det() in (1, -1)


def test_recognize_permutation_refuses_sign():
    s = std_lattice(C2)
    assert recognize_permutation(s) is None
    w = recognize_sign_permutation(s)
    assert w is not None and w.basis.det() in (1, -1)


def test_cyclic_tate_table_is_computed_once_per_lattice(monkeypatch):
    from glattice import lattices

    m = twist(std_lattice(WB2), IntMat([[1, 1], [0, 1]]))
    cyclic = cyclic_subgroup_classes(WB2)
    # one entry per cyclic class: H^-1, which is also H^1 by periodicity
    want = [tate(m, h, -1) for h in cyclic]
    assert want == [tate(m, h, 1) for h in cyclic]
    calls = []
    real = lattices.tate
    monkeypatch.setattr(lattices, "tate",
                        lambda *a: calls.append(a) or real(*a))
    assert next(_cyclic_tate_groups(m)) == want[0] and len(calls) == 1
    assert list(_cyclic_tate_groups(m)) == want
    assert list(_cyclic_tate_groups(m)) == want
    assert len(calls) == len(want)


SCREENS = (
    # (a recognizer's pre-screen on M, up to sign, points beyond the rank)
    (lambda m: all(t.is_trivial() for t in _cyclic_tate_groups(m)), False, 0),
    (lambda m: _marks_pass(m, 0), False, 0),
    (lambda m: all(set(t.factors) <= {2} for t in _cyclic_tate_groups(m)),
     True, 0),
    (_jordan_types_pass, True, 0),
    (lambda m: all(len(t.factors) <= 1 for t in _cyclic_tate_groups(m)),
     False, 1),
    (lambda m: _marks_pass(m, 1), False, 1),
)


def _assert_screens_sound(m, budget):
    for ok, up_to_sign, extra in SCREENS:
        if ok(m):
            continue
        target = dual(m) if extra else m
        assert _orbit_basis_search(target, budget, up_to_sign,
                                   m.rank + extra) is None


@pytest.mark.parametrize("name", [e.name for e in catalog.builtin_catalog()
                                  if e.group().order <= 24])
def test_prescreens_never_reject_a_lattice_the_search_recognizes(name):
    g = catalog.entry(name).group()
    for h in all_subgroups(g).representatives():
        if not 2 <= g.order // h.order <= 8:
            continue
        x = coset_gset(g, h)
        for m in (coset_lattice(g, h), aug_ideal(x), j_lattice(x)):
            _assert_screens_sound(m, 2000)


def test_prescreens_never_reject_a_dim3_lattice_the_search_recognizes():
    """Every Z-class of finite subgroups of GL_3(Z), its standard lattice
    and the dual, against every screen at the classify budget."""
    report = catalog.census(catalog.DIM3_ROOTS)
    assert report.count == catalog.DIM3_CLASS_COUNT
    skipped = [0, 0, 0]
    for rec in report.classes:
        m = std_lattice(rec.representative)
        for lat in (m, dual(m)):
            _assert_screens_sound(lat, 20000)
            # SCREENS pairs each recognizer's Tate screen with its new one
            for i in range(3):
                tate_ok, new_ok = SCREENS[2 * i][0], SCREENS[2 * i + 1][0]
                skipped[i] += tate_ok(lat) and not new_ok(lat)
    # searches the Jordan and mark screens save for permutation,
    # sign-permutation and I_X recognition, out of 146 lattices
    assert skipped == [0, 10, 16]


def _sign_lattices(g):
    """The sign lattices of the subgroups H of index <= 4, induced up to
    g (for H = G, the rank-one sign lattices of g)."""
    for h in all_subgroups(g).representatives():
        if g.order // h.order > 4:
            continue
        hg = h.as_group()
        for n in all_subgroups(hg).representatives():
            if 2 * n.order == hg.order:
                yield induce(h, sign_lattice(hg, n))


@pytest.mark.parametrize("name", [e.name for e in catalog.builtin_catalog()
                                  if e.group().order <= 48])
def test_sign_and_permutation_lattices_pass_the_jordan_and_mark_screens(
        name):
    g = catalog.entry(name).group()
    signs = list(_sign_lattices(g))
    for s in signs:
        assert _jordan_types_pass(s)
    if len(signs) >= 2:
        assert _jordan_types_pass(direct_sum(signs[0], signs[-1]))
    reps = [h for h in all_subgroups(g).representatives()
            if g.order // h.order <= 12]
    for h in reps:
        x = coset_gset(g, h)
        assert _jordan_types_pass(coset_lattice(g, h))
        assert _marks_pass(perm_lattice(x), 0)
        assert _marks_pass(aug_ideal(x), 1)
    x = coset_gset_sum(g, [reps[0], reps[-1]])
    assert _marks_pass(aug_ideal(x), 1) and _marks_pass(perm_lattice(x), 0)


def test_jordan_and_mark_screens_reject_what_they_should():
    # C3 rotating the A2 lattice: over F_3, act(c) - 1 is one Jordan
    # block of size 2, so the lattice has no sign-permutation basis
    j = std_lattice(closure([IntMat([[0, -1], [1, -1]])]))
    assert not _jordan_types_pass(j)
    assert recognize_sign_permutation(j) is None
    # chi = (2, -1, -1): chi + 1 is the regular character of C3, so I_X
    # passes the marks, but chi has a negative mark and 2 chi + 1 too
    assert _marks_pass(j, 1) and not _marks_pass(j, 0)
    assert not _marks_pass(direct_sum(j, j), 1)


def test_absolutely_irreducible_lattices_fix_nothing_at_small_index():
    """The guard of _orbit_basis_search: when sum chi(g)^2 = |G| and the
    rank is >= 2, no subgroup of index <= rank fixes a nonzero vector, so
    skipping the subgroup lattice drops only empty seeds."""
    checked = 0
    for e in catalog.builtin_catalog():
        for m in (e.lattice(), dual(e.lattice())):
            g = m.group
            if m.rank < 2 or sum(c * c for c in m.character()) != g.order:
                continue
            checked += 1
            for h in all_subgroups(g).representatives():
                if g.order // h.order <= m.rank:
                    assert fixed_sublattice(m, h).rows == 0, e.name
    assert checked == 40


def test_tampered_permutation_witnesses_fail():
    m = twist(coset_lattice(S3, S3.trivial_subgroup()),
              random_unimodular(random.Random(3), 6))
    w = recognize_permutation(m)
    assert w is not None and w.verify(m)
    b = w.map.matrix
    flipped = IntMat([[-x for x in b.data[0]]] + list(b.data[1:]))
    doubled = IntMat([[2 * x for x in b.data[0]]] + list(b.data[1:]))
    for basis in (flipped, doubled):
        bad = PermutationWitness(w.gset,
                                 EquivariantMap(w.map.source, m, basis))
        assert not bad.verify(m)
    # the same G-set with its points relabelled: a G-set, but not the
    # one the basis rows follow
    x = w.gset
    sigma = [1, 0] + list(range(2, x.points))
    relabelled = GSet(S3, x.points, tuple(
        tuple(sigma[p[sigma[i]]] for i in range(x.points)) for p in x.perms))
    assert relabelled.perms != x.perms
    assert not PermutationWitness(relabelled, w.map).verify(m)


def test_tampered_sign_permutation_witnesses_fail():
    m = twist(std_lattice(WB2), IntMat([[1, 1], [0, 1]]))
    w = recognize_sign_permutation(m)
    assert w is not None and w.verify(m)
    for s in WB2.generator_indices:
        perm = list(w.signed_perms[s])
        j, sign = perm[0]
        perm[0] = (j, -sign)
        signed = list(w.signed_perms)
        signed[s] = tuple(perm)
        assert not SignPermutationWitness(w.basis, tuple(signed)).verify(m)
    doubled = IntMat([[2 * x for x in w.basis.data[0]]]
                     + list(w.basis.data[1:]))
    assert not SignPermutationWitness(doubled, w.signed_perms).verify(m)


def test_recognize_sign_permutation_wb2():
    m = twist(std_lattice(WB2), IntMat([[1, 1], [0, 1]]))
    w = recognize_sign_permutation(m)
    assert w is not None
    for g in range(WB2.order):
        perm = w.signed_perms[g]
        for i, (j, sgn) in enumerate(perm):
            v = IntMat([list(w.basis.data[i])]) * m.act(g)
            assert tuple(v.data[0]) == tuple(sgn * x for x in w.basis.data[j])
