from dataclasses import replace

import pytest

from glattice.catalog import entry
from glattice.homology import flasque_resolution
from glattice.intlinalg import BudgetExhausted, IntMat
from glattice.groups import all_subgroups, closure, double_coset_table, sylow
from glattice.lattices import (
    GLattice,
    aug_ideal,
    coset_gset,
    coset_lattice,
    direct_sum,
    dual,
    gset_from_permutation_matrices,
    is_coflasque,
    is_flasque,
    j_lattice,
    perm_lattice,
    restrict,
    std_lattice,
    trivial_lattice,
)
from glattice.modular import (
    ModpModule,
    ProvablyNot,
    SylowPermutationWitness,
    _candidate_multisets,
    _direct_sum_perm_modp,
    _hom_basis_modp,
    is_cohomologically_trivial,
    is_invertible,
    is_permutation_modp,
    is_projective_modp,
    left_nullspace_modp,
    rank_modp,
    reduce_mod_p,
)


def perm_mat(p):
    n = len(p)
    return IntMat([[1 if p[i] == j else 0 for j in range(n)] for i in range(n)])


C2 = closure([IntMat([[-1]])])
C3 = closure([perm_mat([1, 2, 0])])
C4 = closure([IntMat([[0, -1], [1, 0]])])
S3 = closure([perm_mat([1, 2, 0]), perm_mat([1, 0, 2])])
WB2 = closure([perm_mat([1, 0]), IntMat.diag([-1, 1])])
C3_ZETA = closure([IntMat([[0, 1], [-1, -1]])])


def twisted_regular_c4():
    m = coset_lattice(C4, C4.trivial_subgroup())
    u = IntMat([[1, 1, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
    ui = u.inverse_unimodular()
    return GLattice(C4, [u * a * ui for a in m.action])


# ---------------------------------------------------------------------------
# F_p linear algebra
# ---------------------------------------------------------------------------

def test_rank_and_nullspace_modp():
    assert rank_modp([[1, 0], [0, 1]], 2) == 2
    assert rank_modp([[2, 4], [6, 8]], 2) == 0
    assert rank_modp([[1, 2], [2, 4]], 5) == 1
    ns = left_nullspace_modp([[1, 2], [2, 4]], 5)
    assert len(ns) == 1
    x = ns[0]
    assert (x[0] * 1 + x[1] * 2) % 5 == 0 and (x[0] * 2 + x[1] * 4) % 5 == 0


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_sign_mod2_is_trivial():
    m = reduce_mod_p(std_lattice(C2), 2)
    assert m.action[1] == ((1,),)
    subs, f = is_permutation_modp(m)
    assert [q.order for q in subs] == [2]


def test_reduce_perm_mod3():
    x = gset_from_permutation_matrices(S3)
    m = reduce_mod_p(perm_lattice(x), 3)
    assert m.dim == 3
    assert m.fixed_dim(range(6)) == 1


def test_modp_homomorphism_validated():
    # the non-identity element mapped to 2 mod 5 (order 4, not 2)
    with pytest.raises(AssertionError):
        ModpModule(5, C2, 1, (((1,),), ((2,),)))


# ---------------------------------------------------------------------------
# cohomological triviality
# ---------------------------------------------------------------------------

def test_cohomologically_trivial_free():
    for g in (C2, C4, S3):
        zg = coset_lattice(g, g.trivial_subgroup())
        assert is_cohomologically_trivial(zg)
        for p in (2, 3):
            assert is_cohomologically_trivial(reduce_mod_p(zg, p))


def test_cohomologically_trivial_negatives():
    assert not is_cohomologically_trivial(trivial_lattice(C2))
    assert not is_cohomologically_trivial(reduce_mod_p(trivial_lattice(C3), 3))
    assert not is_cohomologically_trivial(std_lattice(C2))


def test_lattice_vs_modp_triviality_consistent():
    # a cohomologically trivial lattice reduces to trivial modules at each p
    for g in (C4, S3):
        zg = coset_lattice(g, g.trivial_subgroup())
        m = direct_sum(zg, zg)
        assert is_cohomologically_trivial(m)
        assert is_cohomologically_trivial(reduce_mod_p(m, 2))


# ---------------------------------------------------------------------------
# projectivity
# ---------------------------------------------------------------------------

def test_projective_group_algebra():
    for g, p in [(C2, 2), (C3, 3), (S3, 2), (S3, 3)]:
        zg = coset_lattice(g, g.trivial_subgroup())
        assert is_projective_modp(reduce_mod_p(zg, p))


def test_projective_trivial_module_over_p_group():
    assert not is_projective_modp(reduce_mod_p(trivial_lattice(C3), 3))
    assert not is_projective_modp(reduce_mod_p(trivial_lattice(C2), 2))


def test_projective_iff_stabilizer_order_coprime_to_p():
    # F_p[X] projective iff point stabilizers have order coprime to p
    for g in (S3, C4):
        for h in all_subgroups(g).representatives():
            zx = coset_lattice(g, h)
            for p in (2, 3):
                expected = h.order % p != 0
                assert is_projective_modp(reduce_mod_p(zx, p)) == expected


# ---------------------------------------------------------------------------
# permutation recognition over p-groups
# ---------------------------------------------------------------------------

def test_recognize_coset_modules():
    assert WB2.order == 8
    for q in all_subgroups(WB2).representatives():
        m = reduce_mod_p(coset_lattice(WB2, q), 2)
        subs, f = is_permutation_modp(m)
        assert sum(WB2.order // s.order for s in subs) == m.dim
        # the recognized multiset reproduces all fixed-point dimensions
        for h in all_subgroups(WB2).representatives():
            cand = _direct_sum_perm_modp(WB2, subs, 2)
            assert cand.fixed_dim(h.members) == m.fixed_dim(h.members)


def test_recognize_twisted_permutation_module():
    subs, f = is_permutation_modp(reduce_mod_p(twisted_regular_c4(), 2))
    assert [s.order for s in subs] == [1]


def test_recognize_provably_not():
    # the 2-dim F3[C3]-module from Z[zeta_3] is indecomposable non-permutation
    with pytest.raises(ProvablyNot):
        is_permutation_modp(reduce_mod_p(std_lattice(C3_ZETA), 3))


def test_recognize_regular_module_at_zero_budget():
    # the budget bounds the isomorphism search, not the candidate list
    m = reduce_mod_p(coset_lattice(C4, C4.trivial_subgroup()), 2)
    subs, f = is_permutation_modp(m, budget=0)
    assert [s.order for s in subs] == [1]


def full_then_filter(columns, profile):
    """Reference: every multiset of positions whose coset sizes (row 0,
    the trivial subgroup) sum to the dimension, in depth-first order,
    then only those whose orbit counts meet every fixed-point dimension."""
    sizes = [col[0] for col in columns]
    out = []

    def rec(pos, remaining, chosen):
        if remaining == 0:
            out.append(tuple(chosen))
            return
        if pos == len(sizes):
            return
        if sizes[pos] <= remaining:
            chosen.append(pos)
            rec(pos, remaining - sizes[pos], chosen)
            chosen.pop()
        rec(pos + 1, remaining, chosen)

    rec(0, profile[0], [])
    return out, [ms for ms in out
                 if all(sum(columns[q][h] for q in ms) == profile[h]
                        for h in range(len(profile)))]


def candidate_data(m):
    reps = all_subgroups(m.group).representatives()
    assert reps[0].order == 1
    profile = [m.fixed_dim(h.members) for h in reps]
    columns = [[len(dcs) for dcs in row] for row in double_coset_table(m.group)]
    return columns, profile


def test_candidate_multisets_match_full_enumeration():
    modules = [reduce_mod_p(std_lattice(C2), 2),
               reduce_mod_p(twisted_regular_c4(), 2),
               reduce_mod_p(std_lattice(C3_ZETA), 3),
               reduce_mod_p(direct_sum(twisted_regular_c4(),
                                       std_lattice(C4)), 2)]
    modules += [reduce_mod_p(coset_lattice(WB2, q), 2)
                for q in all_subgroups(WB2).representatives()]
    for m in modules:
        columns, profile = candidate_data(m)
        _full, survivors = full_then_filter(columns, profile)
        assert list(_candidate_multisets(columns, profile)) == survivors


def test_dade_3_3_flasque_rules_out_every_candidate():
    # the p = 2 step of classify(dade-3-3): F_2 of the flasque term over
    # a Sylow 2-subgroup of order 16 has more candidate multisets of its
    # dimension than the default budget, and none survives
    f = flasque_resolution(entry("dade-3-3").lattice()).cert.right
    syl = sylow(f.group, 2)
    m = reduce_mod_p(restrict(f, syl), 2)
    columns, profile = candidate_data(m)
    full, survivors = full_then_filter(columns, profile)
    assert (syl.order, m.dim) == (16, 15)
    assert len(full) > 20000 and survivors == []
    assert list(_candidate_multisets(columns, profile)) == []
    with pytest.raises(ProvablyNot):
        is_permutation_modp(m)
    inv = is_invertible(f)
    assert not inv and inv.obstruction["prime"] == 2


def dense_hom_basis(m, c):
    """Reference: Hom_{F_p[G]}(m, c) = {F : act_m(g) F = F act_c(g)},
    solved as one linear system in all m.dim * c.dim entries of F."""
    p = m.p
    rm, rn = m.dim, c.dim
    cols = []
    for s in m.group.generator_indices:
        a = m.act(s)
        b = c.act(s)
        for i in range(rm):
            for k in range(rn):
                col = [0] * (rm * rn)
                for j in range(rm):
                    col[j * rn + k] = (col[j * rn + k] + a[i][j]) % p
                for j in range(rn):
                    col[i * rn + j] = (col[i * rn + j] - b[j][k]) % p
                cols.append(col)
    if not cols:
        return [[1 if e == t else 0 for e in range(rm * rn)]
                for t in range(rm * rn)]
    rows = [[c_[e] for c_ in cols] for e in range(rm * rn)]
    return left_nullspace_modp(rows, p)


def test_hom_basis_adjunction_matches_dense_solve():
    modules = [reduce_mod_p(std_lattice(C2), 2),
               reduce_mod_p(twisted_regular_c4(), 2),
               reduce_mod_p(std_lattice(C3_ZETA), 3)]
    modules += [reduce_mod_p(coset_lattice(WB2, q), 2)
                for q in all_subgroups(WB2).representatives()]
    for m in modules:
        reps = all_subgroups(m.group).representatives()
        for subs in [[q] for q in reps] + [reps]:
            adj = _hom_basis_modp(m, subs)
            dense = dense_hom_basis(
                m, _direct_sum_perm_modp(m.group, subs, m.p))
            assert rank_modp(adj, m.p) == len(adj) == len(dense)
            assert rank_modp(adj + dense, m.p) == len(dense)


# ---------------------------------------------------------------------------
# invertibility
# ---------------------------------------------------------------------------

def test_permutation_lattices_invertible():
    for g in (S3, C4):
        for h in all_subgroups(g).representatives():
            assert is_invertible(coset_lattice(g, h))


def test_aug_ideal_s3_not_invertible():
    x = gset_from_permutation_matrices(S3)
    for m in (aug_ideal(x), j_lattice(x)):
        inv = is_invertible(m)
        assert not inv and not inv.verify()
        # the record names the prime and its Sylow subgroup
        assert inv.obstruction["sylow"].order == inv.obstruction["prime"]


def test_invertible_implies_flasque_coflasque():
    # checked wherever invertibility holds in this suite
    for g in (S3, C4):
        for h in all_subgroups(g).representatives():
            m = coset_lattice(g, h)
            if is_invertible(m):
                assert is_flasque(m) and is_coflasque(m)


def test_sign_lattice_not_invertible_over_c2():
    assert not is_invertible(std_lattice(C2))
    assert not is_coflasque(std_lattice(C2))


def test_invertibility_witness_verifies():
    for g in (S3, C4):
        for h in all_subgroups(g).representatives():
            inv = is_invertible(coset_lattice(g, h))
            assert [w.prime for w in inv.witnesses] == \
                [p for p in (2, 3) if g.order % p == 0]
            assert inv.verify()


def test_corrupted_invertibility_witness_fails():
    inv = is_invertible(coset_lattice(S3, S3.trivial_subgroup()))
    w = inv.witnesses[0]
    # equivariant but not invertible
    zero = replace(w, iso=tuple((0,) * len(row) for row in w.iso))
    # invertible but not equivariant
    swapped = replace(w, iso=(w.iso[1], w.iso[0]) + w.iso[2:])
    bigger = [q for q in all_subgroups(w.subgroups[0].parent).representatives()
              if q.order > w.subgroups[0].order][0]
    wrong_subs = replace(w, subgroups=(bigger,) * len(w.subgroups))
    for bad in (zero, swapped, wrong_subs):
        assert isinstance(bad, SylowPermutationWitness)
        assert not replace(inv, witnesses=(bad,) + inv.witnesses[1:]).verify()
    assert not replace(inv, witnesses=inv.witnesses[1:]).verify()
