import itertools
import random
from dataclasses import replace

import pytest

from glattice.catalog import entry
from glattice.homology import flasque_resolution
from glattice.intlinalg import IntMat
from glattice.groups import all_subgroups, closure, double_coset_table, sylow
from glattice.lattices import (
    GLattice,
    aug_ideal,
    coset_gset,
    coset_gset_sum,
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
    ProvablyNot,
    SylowPermutationWitness,
    _candidate_multisets,
    _fixed_basis,
    _fixed_dim,
    _socle_transversal,
    _spread,
    is_cohomologically_trivial,
    is_invertible,
    is_permutation_modp,
    is_projective_modp,
    left_nullspace_modp,
    rank_modp,
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
    # -1 is 1 mod 2: the sign lattice of C2 is the trivial module over F_2
    m = std_lattice(C2)
    assert _fixed_dim(m, C2.generator_indices, 2) == 1
    assert _fixed_dim(m, C2.generator_indices, 3) == 0
    subs, f = is_permutation_modp(m, 2)
    assert [q.order for q in subs] == [2]


def test_reduce_perm_mod3():
    m = perm_lattice(gset_from_permutation_matrices(S3))
    assert m.rank == 3
    assert _fixed_dim(m, S3.generator_indices, 3) == 1


# ---------------------------------------------------------------------------
# cohomological triviality
# ---------------------------------------------------------------------------

def test_cohomologically_trivial_free():
    for g in (C2, C4, S3):
        zg = coset_lattice(g, g.trivial_subgroup())
        assert is_cohomologically_trivial(zg)
        for p in (2, 3):
            assert is_projective_modp(zg, p)


def test_cohomologically_trivial_negatives():
    assert not is_cohomologically_trivial(trivial_lattice(C2))
    assert not is_projective_modp(trivial_lattice(C3), 3)
    assert not is_cohomologically_trivial(std_lattice(C2))


def test_lattice_vs_modp_triviality_consistent():
    # a cohomologically trivial lattice reduces to trivial modules at each p
    for g in (C4, S3):
        zg = coset_lattice(g, g.trivial_subgroup())
        m = direct_sum(zg, zg)
        assert is_cohomologically_trivial(m)
        assert is_projective_modp(m, 2)


# ---------------------------------------------------------------------------
# projectivity
# ---------------------------------------------------------------------------

def test_projective_group_algebra():
    for g, p in [(C2, 2), (C3, 3), (S3, 2), (S3, 3)]:
        zg = coset_lattice(g, g.trivial_subgroup())
        assert is_projective_modp(zg, p)


def test_projective_trivial_module_over_p_group():
    assert not is_projective_modp(trivial_lattice(C3), 3)
    assert not is_projective_modp(trivial_lattice(C2), 2)


def test_projective_iff_stabilizer_order_coprime_to_p():
    # F_p[X] projective iff point stabilizers have order coprime to p
    for g in (S3, C4):
        for h in all_subgroups(g).representatives():
            zx = coset_lattice(g, h)
            for p in (2, 3):
                expected = h.order % p != 0
                assert is_projective_modp(zx, p) == expected


# ---------------------------------------------------------------------------
# permutation recognition over p-groups
# ---------------------------------------------------------------------------

def test_recognize_coset_modules():
    assert WB2.order == 8
    for q in all_subgroups(WB2).representatives():
        m = coset_lattice(WB2, q)
        subs, f = is_permutation_modp(m, 2)
        assert sum(WB2.order // s.order for s in subs) == m.rank
        # the recognized multiset reproduces all fixed-point dimensions
        cand = perm_lattice(coset_gset_sum(WB2, subs))
        for h in all_subgroups(WB2).representatives():
            assert (_fixed_dim(cand, h.generators(), 2)
                    == _fixed_dim(m, h.generators(), 2))


def test_recognize_twisted_permutation_module():
    subs, f = is_permutation_modp(twisted_regular_c4(), 2)
    assert [s.order for s in subs] == [1]


def test_recognize_provably_not():
    # the 2-dim F3[C3]-module from Z[zeta_3] is indecomposable non-permutation
    with pytest.raises(ProvablyNot):
        is_permutation_modp(std_lattice(C3_ZETA), 3)


def test_recognize_regular_module_at_zero_budget():
    m = coset_lattice(C4, C4.trivial_subgroup())
    subs, f = is_permutation_modp(m, 2)
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


def candidate_data(m, p):
    reps = all_subgroups(m.group).representatives()
    assert reps[0].order == 1
    profile = [_fixed_dim(m, h.generators(), p) for h in reps]
    columns = [[len(dcs) for dcs in row] for row in double_coset_table(m.group)]
    return columns, profile


def test_candidate_multisets_match_full_enumeration():
    modules = [(std_lattice(C2), 2), (twisted_regular_c4(), 2),
               (std_lattice(C3_ZETA), 3),
               (direct_sum(twisted_regular_c4(), std_lattice(C4)), 2)]
    modules += [(coset_lattice(WB2, q), 2)
                for q in all_subgroups(WB2).representatives()]
    for m, p in modules:
        columns, profile = candidate_data(m, p)
        _full, survivors = full_then_filter(columns, profile)
        assert list(_candidate_multisets(columns, profile)) == survivors


def test_dade_3_3_flasque_rules_out_every_candidate():
    # the p = 2 step of classify(dade-3-3): F_2 of the flasque term over
    # a Sylow 2-subgroup of order 16 has more candidate multisets of its
    # dimension than the default budget, and none survives
    f = flasque_resolution(entry("dade-3-3").lattice()).cert.right
    syl = sylow(f.group, 2)
    m = restrict(f, syl)
    columns, profile = candidate_data(m, 2)
    full, survivors = full_then_filter(columns, profile)
    assert (syl.order, m.rank) == (16, 15)
    assert len(full) > 20000 and survivors == []
    assert list(_candidate_multisets(columns, profile)) == []
    with pytest.raises(ProvablyNot):
        is_permutation_modp(m, 2)
    inv = is_invertible(f)
    assert not inv and inv.obstruction["prime"] == 2


def dense_hom_basis(m, c, p):
    """Reference: Hom_{F_p[G]}(F_p m, F_p c) = {F : act_m(g) F = F
    act_c(g) mod p}, solved as one linear system in all m.rank * c.rank
    entries of F."""
    rm, rn = m.rank, c.rank
    cols = []
    for s in m.group.generator_indices:
        a = m.act(s).data
        b = c.act(s).data
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


def adjunction_hom_basis(m, subs, p):
    """Hom_{F_p[G]}(F_p m, sum of F_p[G/Q]) by Frobenius reciprocity: one
    map per base column f in (M*)^Q, spread over the cosets of its
    summand, each flattened row-major."""
    n = sum(m.group.order // q.order for q in subs)
    basis = []
    off = 0
    for q in subs:
        k = m.group.order // q.order
        gens = m.group.generating_set(q.members)
        for f in _fixed_basis([tuple(zip(*m.act(s).data)) for s in gens],
                              m.rank, p):
            block = _spread(m, q, f, p)
            basis.append([x for row in block
                          for x in [0] * off + row + [0] * (n - off - k)])
        off += k
    return basis


def hom_modules():
    """(lattice, prime) pairs over p-groups."""
    modules = [(std_lattice(C2), 2), (twisted_regular_c4(), 2),
               (std_lattice(C3_ZETA), 3)]
    return modules + [(coset_lattice(WB2, q), 2)
                      for q in all_subgroups(WB2).representatives()]


def test_hom_basis_adjunction_matches_dense_solve():
    for m, p in hom_modules():
        reps = all_subgroups(m.group).representatives()
        for subs in [[q] for q in reps] + [reps]:
            adj = adjunction_hom_basis(m, subs, p)
            dense = dense_hom_basis(
                m, perm_lattice(coset_gset_sum(m.group, subs)), p)
            assert rank_modp(adj, p) == len(adj) == len(dense)
            assert rank_modp(adj + dense, p) == len(dense)


def socle_matrix(m, subs, f, p):
    """[v_a . f_i]: the image of each socle basis vector v_a under f, one
    multiple of the orbit sum per summand i."""
    socle = _fixed_basis([m.act(s).data for s in m.group.generator_indices],
                         m.rank, p)
    out = []
    for v in socle:
        image = [sum(x * row[k] for x, row in zip(v, f)) % p
                 for k in range(len(f[0]))]
        row, off = [], 0
        for q in subs:
            block = image[off:off + m.group.order // q.order]
            assert len(set(block)) == 1
            row.append(block[0])
            off += len(block)
        out.append(row)
    return out


def test_socle_matrix_decides_invertibility():
    # random maps from the dense Hom reference, for every candidate
    rng = random.Random(5)
    seen = set()
    for m, p in hom_modules():
        reps = all_subgroups(m.group).representatives()
        for ms in _candidate_multisets(*candidate_data(m, p)):
            subs = [reps[pos] for pos in ms]
            dense = dense_hom_basis(
                m, perm_lattice(coset_gset_sum(m.group, subs)), p)
            n = len(dense[0]) // m.rank
            for _ in range(20):
                coeffs = [rng.randrange(p) for _ in dense]
                flat = [sum(c * b[e] for c, b in zip(coeffs, dense)) % p
                        for e in range(m.rank * n)]
                f = [flat[i * n:(i + 1) * n] for i in range(m.rank)]
                s = socle_matrix(m, subs, f, p)
                assert len(s) == len(subs)
                iso = rank_modp(f, p) == m.rank
                assert iso == (rank_modp(s, p) == len(subs))
                seen.add(iso)
    assert seen == {True, False}


def brute_force_transversal(spaces, p):
    """Reference: depth-first over every vector of every span, keeping
    only independent partial choices."""
    n = len(spaces)

    def span(vs):
        return {tuple(sum(c * v[t] for c, v in zip(cs, vs)) % p
                      for t in range(n))
                for cs in itertools.product(range(p), repeat=len(vs))}

    spans = [span(vs) for vs in spaces]

    def rec(i, chosen):
        if i == n:
            return True
        return any(rank_modp(chosen + [list(w)], p) == i + 1
                   and rec(i + 1, chosen + [list(w)]) for w in spans[i])

    return rec(0, [])


def check_transversal(spaces, p):
    picks = _socle_transversal(spaces, p)
    assert (picks is not None) == brute_force_transversal(spaces, p)
    if picks is not None:
        rows = [spaces[i][j] for i, j in enumerate(picks)]
        assert rank_modp(rows, p) == len(spaces)
    return picks


def test_socle_transversal_matches_brute_force():
    rng = random.Random(3)
    found = set()
    for p in (2, 3):
        for _ in range(150):
            n = rng.randint(1, 4)
            spaces = [[[rng.randrange(p) for _ in range(n)]
                       for _ in range(rng.randint(0, 2))] for _ in range(n)]
            found.add(check_transversal(spaces, p) is not None)
    assert found == {True, False}


def test_socle_transversal_escapes_the_greedy_trap():
    # picking e1 from W1 first leaves nothing for W2 = <e1>
    assert check_transversal([[[1, 0], [0, 1]], [[1, 0]]], 2) == [1, 0]


def test_socle_transversal_rado_violation():
    # W1 + W2 has dimension 1 < 2, though every W_i is nonzero and the
    # dimensions add up to 3
    spaces = [[[1, 0, 0]], [[2, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    assert check_transversal(spaces, 3) is None


def test_j_plus_j_mod_3_is_provably_not():
    # a candidate (regular + trivial) meets the fixed-point dimensions,
    # but two Jordan blocks of size 2 are not one of size 3 plus one of 1
    j = std_lattice(C3_ZETA)
    m = direct_sum(j, j)
    assert list(_candidate_multisets(*candidate_data(m, 3)))
    with pytest.raises(ProvablyNot):
        is_permutation_modp(m, 3)
    inv = is_invertible(direct_sum(j, j))
    assert not inv and inv.obstruction["prime"] == 3


def test_recognize_twisted_sum_of_every_coset_module():
    # the sum of the 8 coset lattices of the order-8 Sylow subgroup of
    # dade-2-1, with a unimodular change of basis linking the summands
    syl = sylow(entry("dade-2-1").group(), 2).as_group()
    reps = all_subgroups(syl).representatives()
    m = perm_lattice(coset_gset_sum(syl, reps))
    assert (syl.order, len(reps), m.rank) == (8, 8, 27)
    u = [[1 if i == j else 0 for j in range(m.rank)] for i in range(m.rank)]
    off = 0
    for q in reps[:-2]:
        off += syl.order // q.order
        u[off - 1][off] = 1
    u = IntMat(u)
    ui = u.inverse_unimodular()
    twisted = GLattice(syl, [u * a * ui for a in m.action])
    subs, f = is_permutation_modp(twisted, 2)
    assert sorted(reps.index(q) for q in subs) == list(range(8))
    inv = is_invertible(twisted)
    assert inv and inv.verify()


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
