import hashlib
import random
from fractions import Fraction

import pytest

from glattice.catalog import builtin_catalog, entry
from glattice.intlinalg import IntMat, hnf, solve_left
from glattice.groups import Subgroup, all_subgroups, closure, double_coset_table
from glattice.homology import (
    coflasque_resolution,
    find_isomorphism_parts,
    flasque_resolution,
    hom_basis_parts,
    parts_lattice,
    quasi_permutation_check,
    sequence_from_surjection,
    stably_permutation_obstruction,
    stably_permutation_paddings,
    verify_exact,
)
from glattice import homology
from glattice.homology import (
    _extended_system,
    _h0_system,
    _infeasibility_certificate,
    _multiplicity,
    _prime_powers,
)
from glattice.lattices import (
    EquivariantMap,
    GLattice,
    aug_ideal,
    coset_gset,
    coset_lattice,
    direct_sum,
    dual,
    gset_from_permutation_matrices,
    hom_basis,
    is_coflasque,
    is_flasque,
    j_lattice,
    perm_lattice,
    quotient_group,
    std_lattice,
    tate,
    tensor,
    trivial_lattice,
)
from glattice.rationality import (
    _a5_flasque_resolution,
    _block_lattice,
    _coordinate_blocks,
)


def perm_mat(p):
    n = len(p)
    return IntMat([[1 if p[i] == j else 0 for j in range(n)] for i in range(n)])


S3 = closure([perm_mat([1, 2, 0]), perm_mat([1, 0, 2])])
C4 = closure([IntMat([[0, -1], [1, 0]])])
V4 = closure([perm_mat([1, 0, 3, 2]), perm_mat([2, 3, 0, 1])])
X3 = gset_from_permutation_matrices(S3)
ZX = perm_lattice(X3)
I3 = aug_ideal(X3)
J3 = j_lattice(X3)
SUM3 = IntMat([[1], [1], [1]])


def twisted(lat, u):
    ui = u.inverse_unimodular()
    return GLattice(lat.group, [u * a * ui for a in lat.action])


# ---------------------------------------------------------------------------
# exact sequence certificates
# ---------------------------------------------------------------------------

def test_augmentation_sequence_verifies():
    cert = sequence_from_surjection(ZX, trivial_lattice(S3), SUM3)
    assert verify_exact(cert)
    assert cert.left.rank == 2
    # the kernel carries the augmentation ideal action
    assert cert.left.character() == I3.character()


def test_doubled_surjection_rejected():
    cert = sequence_from_surjection(ZX, trivial_lattice(S3), SUM3)
    cert.surj.matrix = SUM3.scale(2)
    ok, why = verify_exact(cert, explain=True)
    assert not ok and why == "surjection not onto"


def test_wrong_kernel_rejected():
    cert = sequence_from_surjection(ZX, trivial_lattice(S3), SUM3)
    # replace the injection by twice itself: image has index 4 in the kernel
    cert.inj.matrix = cert.inj.matrix.scale(2)
    ok, why = verify_exact(cert, explain=True)
    assert not ok


def test_rank_mismatch_rejected():
    cert = sequence_from_surjection(ZX, trivial_lattice(S3), SUM3)
    cert.right = trivial_lattice(S3, rank=2)
    ok, why = verify_exact(cert, explain=True)
    assert not ok and why == "rank mismatch"


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------

def test_coflasque_resolution_of_j3():
    cert = coflasque_resolution(J3)
    assert verify_exact(cert)
    assert is_coflasque(cert.left)
    assert sum(S3.order // h.order for h in cert.mid_parts) == cert.mid.rank


def test_coflasque_resolution_of_permutation_is_split_size():
    # a permutation lattice is its own best approximation: C is coflasque
    for g in (S3, C4):
        for h in all_subgroups(g).representatives():
            cert = coflasque_resolution(coset_lattice(g, h))
            assert verify_exact(cert)
            assert is_coflasque(cert.left)


def test_coflasque_resolution_random_twists():
    rng = random.Random(20240821)
    for _ in range(5):
        u = IntMat.identity(3)
        for _ in range(3):
            i, j = rng.sample(range(3), 2)
            bump = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
            bump[i][j] = rng.choice([-1, 1])
            u = u * IntMat(bump)
        lat = twisted(ZX, u)
        cert = coflasque_resolution(lat)
        assert verify_exact(cert)
        assert is_coflasque(cert.left)


def test_flasque_resolution_of_j3():
    fl = flasque_resolution(J3)
    assert verify_exact(fl.cert)
    assert fl.cert.left == J3
    assert is_flasque(fl.cert.right)
    for order, inv in fl.flasque_check:
        assert inv.is_trivial()


def test_flasque_resolution_reverify_property():
    # re-verification suite over a small pool of lattices
    pool = [I3, J3, dual(J3), tensor(J3, J3)]
    for m in pool:
        fl = flasque_resolution(m)
        assert verify_exact(fl.cert)
        assert is_flasque(fl.cert.right)
        cof = coflasque_resolution(m)
        assert verify_exact(cof)
        assert is_coflasque(cof.left)


# ---------------------------------------------------------------------------
# structured hom bases
# ---------------------------------------------------------------------------

def test_hom_basis_parts_matches_generic():
    subs = all_subgroups(S3).representatives()
    c2 = [h for h in subs if h.order == 2][0]
    a3 = [h for h in subs if h.order == 3][0]
    for p1 in (c2, a3, J3):
        for p2 in (c2, a3, J3):
            structured = hom_basis_parts(S3, (p1,), (p2,))
            l1 = parts_lattice(S3, (p1,))
            l2 = parts_lattice(S3, (p2,))
            generic = hom_basis(l1, l2)
            assert len(structured) == len(generic)
            for f in structured:
                map_ = EquivariantMap(l1, l2, f)
                assert map_.check()


def test_parts_lattice_matches_direct_sum_of_coset_lattices():
    rng = random.Random(7)
    groups = (S3, C4, V4, entry("dade-2-1").group())
    for _ in range(50):
        g = rng.choice(groups)
        reps = all_subgroups(g).representatives()
        parts = [rng.choice(reps) for _ in range(rng.randint(1, 4))]
        want = coset_lattice(g, parts[0])
        for h in parts[1:]:
            want = direct_sum(want, coset_lattice(g, h))
        assert parts_lattice(g, parts).action == want.action
    # a lattice part between two runs of cosets keeps its place
    c2 = [h for h in all_subgroups(S3).representatives() if h.order == 2][0]
    got = parts_lattice(S3, (c2, c2, J3, S3.trivial_subgroup()))
    want = direct_sum(direct_sum(direct_sum(coset_lattice(S3, c2),
                                            coset_lattice(S3, c2)), J3),
                      coset_lattice(S3, S3.trivial_subgroup()))
    assert got.action == want.action
    assert parts_lattice(S3, ()).rank == 0


def test_find_isomorphism_parts_swapped_sum():
    subs = all_subgroups(S3).representatives()
    c2 = [h for h in subs if h.order == 2][0]
    a3 = [h for h in subs if h.order == 3][0]
    hit = find_isomorphism_parts(S3, (c2, a3), (a3, c2))
    assert hit is not None
    _m1, _m2, f = hit
    assert f.matrix.is_unimodular() and f.check()


# ---------------------------------------------------------------------------
# stably-permutation obstruction and the quasi-permutation decision
# ---------------------------------------------------------------------------

def test_obstruction_none_for_feasible():
    fl = flasque_resolution(J3)
    assert stably_permutation_obstruction(fl.cert.right) is None


def test_quasi_permutation_yes_for_s3_lattices():
    for m in (I3, J3):
        res = quasi_permutation_check(m)
        assert res.verdict == "yes"
        if res.targets:
            assert verify_exact(res.closing)
            assert res.iso.matrix.is_unimodular()


def test_quasi_permutation_no_for_biquadratic_norm_one():
    # J of the regular C2xC2-set: the norm-one torus of a biquadratic
    # extension, the classical non-rational example
    x = coset_gset(V4, V4.trivial_subgroup())
    res = quasi_permutation_check(j_lattice(x))
    assert res.verdict == "no"
    w = res.witness
    assert w is not None and w.verify()


def _a5_flasque():
    a5 = closure([perm_mat([1, 2, 3, 4, 0]), perm_mat([1, 2, 0, 3, 4])])
    stab = Subgroup(a5, frozenset(i for i in range(a5.order)
                                  if a5.elements[i].data[0][0] == 1))
    return _a5_flasque_resolution(a5, coset_gset(a5, stab)).cert.right


def _z4_13_6_4_block_flasque():
    m = entry("z-4-13-6-4").lattice()
    block, = [b for b in _coordinate_blocks(m) if len(b) == 3]
    return flasque_resolution(_block_lattice(m, block)).cert.right


# padding candidates (pads, targets) of flasque terms, in order, each
# subgroup as its position in all_subgroups(group).representatives()
PADDING_CANDIDATES = {
    "I3": (lambda: flasque_resolution(I3).cert.right,
           [((), (3,))]),
    "J3": (lambda: flasque_resolution(J3).cert.right,
           [((3,), (1, 1, 2))]),
    "dade-2-2": (lambda: flasque_resolution(entry("dade-2-2").lattice())
                 .cert.right,
                 [((9,), (5, 7)), ((0, 5, 6, 8), (1, 2, 3, 4, 9))]),
    "z-4-13-6-4 rank-3 block": (_z4_13_6_4_block_flasque, [((), (9, 23))]),
    "A5 natural": (_a5_flasque,
                   [((6,), (4, 5)), ((0, 6, 6, 7), (1, 1, 2, 4, 8)),
                    ((1, 1, 2, 8), (0, 4, 5, 5, 7))]),
}


@pytest.mark.parametrize("name", sorted(PADDING_CANDIDATES))
def test_padding_candidates_pinned(name):
    build, want = PADDING_CANDIDATES[name]
    f = build()
    pos = {h.sorted_members: i
           for i, h in enumerate(all_subgroups(f.group).representatives())}
    got = [(tuple(pos[h.sorted_members] for h in pads),
            tuple(pos[h.sorted_members] for h in tgts))
           for pads, tgts in stably_permutation_paddings(f)]
    assert got == want


def test_obstruction_witness_rejects_tampering():
    x = coset_gset(V4, V4.trivial_subgroup())
    fl = flasque_resolution(j_lattice(x))
    w = stably_permutation_obstruction(fl.cert.right)
    assert w.verify()
    bad = tuple(c * 0 for c in w.infeasibility_proof)
    from glattice.homology import ObstructionWitness
    w2 = ObstructionWitness(w.test_subgroups, w.unknowns, w.equations,
                            w.rhs, w.eq_labels, bad)
    assert not w2.verify()


def fraction_verify(w):
    """Reference check in rationals: equations * c integral, rhs . c not."""
    c = w.infeasibility_proof
    return (all(sum(Fraction(x) * y for x, y in zip(row, c)).denominator == 1
                for row in w.equations.data)
            and sum(Fraction(x) * y
                    for x, y in zip(w.rhs, c)).denominator != 1)


def test_obstruction_witness_integer_check_matches_rationals():
    from glattice.homology import ObstructionWitness

    x = coset_gset(V4, V4.trivial_subgroup())
    fl = flasque_resolution(j_lattice(x))
    w = stably_permutation_obstruction(fl.cert.right)
    assert w.verify() and fraction_verify(w)
    rng = random.Random(4)
    verdicts = set()
    for _ in range(200):
        proof = [c + Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 4]))
                 if rng.random() < 0.5 else c for c in w.infeasibility_proof]
        bad = ObstructionWitness(w.test_subgroups, w.unknowns, w.equations,
                                 w.rhs, w.eq_labels, tuple(proof))
        assert bad.verify() == fraction_verify(bad)
        verdicts.add(bad.verify())
    assert verdicts == {True, False}


def test_infeasibility_certificate_exactly_when_unsolvable_2400():
    # x * mat = rhs on random small systems: a certificate exists exactly
    # when solve_left finds no integral solution, and each one passes both
    # the integer and the rational check.  Both reasons for no solution
    # occur: rhs outside the rational row span, and inside it but not in
    # the integral one.
    from glattice.homology import ObstructionWitness

    rng = random.Random(1511)
    reasons = set()
    for _ in range(2400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = IntMat([[rng.randint(-4, 4) for _ in range(n)]
                      for _ in range(m)])
        rhs = tuple(rng.randint(-6, 6) for _ in range(n))
        proof = _infeasibility_certificate(mat, rhs)
        solvable = solve_left(mat, IntMat([list(rhs)])) is not None
        assert (proof is None) == solvable
        if proof is None:
            continue
        assert len(proof) == n
        w = ObstructionWitness((), (), mat, rhs, (), proof)
        assert w.verify() and fraction_verify(w)
        in_span = hnf(mat.stack(IntMat([list(rhs)]))).rank == hnf(mat).rank
        reasons.add("integral" if in_span else "rational")
    assert reasons == {"integral", "rational"}


def test_quasi_permutation_rank_zero():
    zero = GLattice(S3, [IntMat.zeros(0, 0)] * S3.order, check=False)
    assert quasi_permutation_check(zero).verdict == "yes"


# ---------------------------------------------------------------------------
# the H^0 table from double cosets, against the dense computation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [S3, entry("dade-2-1").group(),
                               entry("z-4-33-2-1").group()],
                         ids=["S3", "dade-2-1", "z-4-33-2-1"])
def test_double_coset_table_matches_dense_tate(g):
    reps = all_subgroups(g).representatives()
    table = double_coset_table(g)
    pps = _prime_powers(g.order)
    class_reps = sorted(set(g.conj_class_of))
    dense_rows = []
    for d, row in zip(reps, table):
        lat = coset_lattice(g, d)
        h0 = []
        for h, orders in zip(reps, row):
            inv = tate(lat, h, 0)
            for q in pps:
                assert _multiplicity(orders, q) == _multiplicity(inv.factors, q)
                h0.append(_multiplicity(inv.factors, q))
        chars = lat.character()
        dense_rows.append([chars[c] for c in class_reps] + h0)
    # the character and H^0 system of _extended_system, rebuilt densely
    _reps, mat, _rhs = _extended_system(std_lattice(g))
    assert [list(r) for r in mat.data] == dense_rows


# sha256 over the coflasque resolutions (middle parts and both maps) and
# the extended H^0 systems of every catalog lattice of order <= 400 and its
# dual, then the double-coset tables and the quotients by the normal class
# representatives of the catalog groups of order <= 240: pins every output
# read off right cosets and their orbits, element numbering included
COSET_OUTPUTS_DIGEST = \
    "726bd702825640c97308b3e334e74ac8a08fd48ad32830ca55155f193aab4f1e"


def test_coset_outputs_catalog_digest():
    digest = hashlib.sha256()
    for e in builtin_catalog():
        m = e.lattice()
        g = m.group
        if g.order > 400:
            continue
        for lat in (m, dual(m)):
            cert = coflasque_resolution(lat)
            reps, mat, rhs = _extended_system(lat)
            digest.update(repr((e.name,
                                [h.sorted_members for h in cert.mid_parts],
                                cert.inj.matrix.data, cert.surj.matrix.data,
                                [h.sorted_members for h in reps],
                                mat.data, rhs)).encode())
        if g.order > 240:
            continue
        digest.update(repr(double_coset_table(g)).encode())
        for c in all_subgroups(g).classes:
            if c.size == 1:
                q, proj = quotient_group(g, c.representative)
                digest.update(repr(([x.data for x in q.elements],
                                    q.generator_indices, proj)).encode())
    assert digest.hexdigest() == COSET_OUTPUTS_DIGEST


def test_h0_coefficients_built_once_per_group():
    g = closure(list(entry("dade-2-2").generators))
    a, b = std_lattice(g), dual(coset_lattice(g, g.trivial_subgroup()))
    assert _h0_system(a)[1] is _h0_system(b)[1]
    assert _extended_system(a)[1] is _extended_system(b)[1]
    fresh = closure(list(entry("dade-2-2").generators))
    assert _h0_system(std_lattice(fresh))[1] is not _h0_system(a)[1]
    assert _h0_system(std_lattice(fresh))[1] == _h0_system(a)[1]


def test_quasi_permutation_check_reads_h0_of_f_once(monkeypatch):
    m = entry("z-4-13-6-4").lattice()
    fl = flasque_resolution(m)
    f = fl.cert.right
    real = homology.tate
    degrees = []

    def counted(lat, h, k):
        if lat is f:
            degrees.append(k)
        return real(lat, h, k)

    monkeypatch.setattr(homology, "tate", counted)
    # no obstruction, so the padding search reads the system as well
    assert quasi_permutation_check(m, resolution=fl).verdict == "yes"
    assert degrees == [0] * len(all_subgroups(m.group).representatives())
