import dataclasses
import gc
import random
import weakref

import pytest

from glattice import lattices, rationality
from glattice.catalog import entry
from glattice.homology import (
    quasi_permutation_check,
    stably_permutation_obstruction,
    verify_exact,
)
from glattice.intlinalg import IntMat
from glattice.groups import Subgroup, all_subgroups, closure
from glattice.lattices import (
    GLattice,
    GSet,
    _cyclic_tate_groups,
    aug_ideal,
    coset_gset,
    coset_gset_sum,
    direct_sum,
    dual,
    gset_from_permutation_matrices,
    inflate,
    j_lattice,
    perm_lattice,
    quotient_group,
    recognize_sign_permutation,
    std_lattice,
    trivial_lattice,
)
from glattice.rationality import (
    HEREDITARILY_RATIONAL,
    NOT_RETRACT_RATIONAL,
    RETRACT_RATIONAL,
    STABLY_RATIONAL,
    NormOneSpec,
    UnrecognizedShape,
    _block_lattice,
    _coordinate_blocks,
    aug_tensor,
    classify,
    hereditary_closure,
    norm_one_classify,
    recognize_aug_ideal,
)

from glbench import workloads


def perm_mat(p):
    n = len(p)
    return IntMat([[1 if p[i] == j else 0 for j in range(n)] for i in range(n)])


def cyclic(n):
    return closure([perm_mat([(i + 1) % n for i in range(n)])])


def symmetric(n):
    return perm_closure_group([[1, 0] + list(range(2, n)),
                               [(i + 1) % n for i in range(n)]])


def perm_closure_group(perms):
    return closure([perm_mat(p) for p in perms])


def point_stabilizer(g, point=0):
    n = g.rank
    return Subgroup(g, frozenset(
        i for i in range(g.order) if g.elements[i].data[point][point] == 1))


S3 = closure([perm_mat([1, 2, 0]), perm_mat([1, 0, 2])])
X3 = gset_from_permutation_matrices(S3)
ZX = perm_lattice(X3)
I3 = aug_ideal(X3)
J3 = j_lattice(X3)
V4 = closure([perm_mat([1, 0, 3, 2]), perm_mat([2, 3, 0, 1])])


# ---------------------------------------------------------------------------
# classify: hereditary detectors
# ---------------------------------------------------------------------------

def test_classify_permutation():
    v = classify(ZX)
    assert v.level == HEREDITARILY_RATIONAL
    assert v.certificate[0].kind == "permutation_basis"


def test_classify_sign_permutation():
    b2 = closure([IntMat([[0, 1], [1, 0]]), IntMat([[-1, 0], [0, 1]])])
    v = classify(std_lattice(b2))
    assert v.level == HEREDITARILY_RATIONAL
    assert v.certificate[0].kind == "sign_permutation_basis"


def test_classify_aug_ideal():
    v = classify(I3)
    assert v.level == HEREDITARILY_RATIONAL
    assert v.certificate[0].kind == "augmentation_ideal"


def test_recognize_aug_ideal_witness_is_sound():
    hit = recognize_aug_ideal(I3)
    assert hit is not None
    gset, pts = hit
    assert len(pts) == I3.rank + 1
    assert all(sum(col) == 0 for col in zip(*pts))
    assert IntMat([list(v) for v in pts[:-1]]).det() in (1, -1)


def _aug_ideal_cases():
    """(label, build) for every coset G-set of index >= 2 of four groups,
    and two two-orbit G-sets; build() makes I_X when the test runs, not
    when the tests are collected.  A regular G-set of a group of order > 8 is
    left out: its points have trivial stabilizer, so only the coordinate
    box of the whole lattice holds them, and that box is past the budget."""
    groups = [("S3", S3)] + [(name, entry(name).group()) for name in
                             ("dade-2-1", "dade-2-2", "z-3-7-4-3")]
    for name, g in groups:
        for k, h in enumerate(all_subgroups(g).representatives()):
            if h.order < g.order and (h.order > 1 or g.order <= 8):
                yield ("%s:[G:H%d]=%d" % (name, k, g.order // h.order),
                       lambda g=g, h=h: aug_ideal(coset_gset(g, h)))
    a3 = [h for h in all_subgroups(S3).representatives() if h.order == 3][0]
    yield "S3: X3 + S3/A3", lambda: aug_ideal(coset_gset_sum(
        S3, [point_stabilizer(S3), a3]))
    d = entry("dade-2-2").group()
    small = sorted((h for h in all_subgroups(d).representatives()
                    if 2 <= d.order // h.order <= 4), key=lambda h: -h.order)
    yield "dade-2-2: two orbits", lambda: aug_ideal(
        coset_gset_sum(d, small[:2]))


@pytest.mark.parametrize("build", [pytest.param(build, id=label)
                                   for label, build in _aug_ideal_cases()])
def test_recognize_aug_ideal_on_coset_gsets(build):
    m = build()
    hit = recognize_aug_ideal(m, budget=20000)
    assert hit is not None
    gset, pts = hit
    GSet(gset.group, gset.points, gset.perms)  # validates the action
    assert gset.group is m.group
    assert gset.points == len(pts) == m.rank + 1
    assert all(sum(col) == 0 for col in zip(*pts))
    assert IntMat([list(v) for v in pts[:m.rank]]).det() in (1, -1)
    md = dual(m)
    for g in range(m.group.order):
        for i, v in enumerate(pts):
            assert tuple((IntMat([list(v)]) * md.act(g)).data[0]) == \
                tuple(pts[gset.perms[g][i]])


def test_recognize_aug_ideal_seeds_an_absolutely_irreducible_dual():
    """J_3 = I_3* is absolutely irreducible (sum chi(g)^2 = |S3|), but at
    rank + 1 points the orbit search still seeds with the stabilizers'
    fixed lines: after this change of basis every point lies outside the
    coordinate box of radius 3."""
    u = IntMat([[13, 8], [8, 5]])
    ui = u.inverse_unimodular()
    m = GLattice(S3, [u * a * ui for a in I3.action])
    assert sum(c * c for c in dual(m).character()) == S3.order
    _gset, pts = recognize_aug_ideal(m, budget=20000)
    assert pts == ((-13, -8), (5, 3), (8, 5))


def test_recognize_aug_ideal_refuses_a_not_retract_rational_lattice():
    # std(dade-3-3) is NotRetractRational, so it is no I_X
    assert recognize_aug_ideal(entry("dade-3-3").lattice(),
                               budget=20000) is None


@pytest.mark.parametrize("name, search", [
    ("z-4-25-7-5", "sign"), ("z-4-24-3-4", "sign"), ("z-4-13-6-4", "sign"),
    ("z-3-4-5-2", "aug")])
def test_jordan_and_mark_screens_stop_the_failing_orbit_searches(
        monkeypatch, name, search):
    """The Tate screen passes these lattices, and the orbit search finds
    no basis of the shape; the Jordan-type or the mark screen now settles
    it before the search runs, here and in every lattice classify meets."""
    m = entry(name).lattice()
    tate_ok = {"sign": lambda t: set(t.factors) <= {2},
               "aug": lambda t: len(t.factors) <= 1}[search]
    assert all(map(tate_ok, _cyclic_tate_groups(m)))
    up_to_sign, extra = {"sign": (True, 0), "aug": (False, 1)}[search]
    recognize = {"sign": recognize_sign_permutation,
                 "aug": recognize_aug_ideal}[search]
    real = lattices._orbit_basis_search

    def use(search_fn):
        monkeypatch.setattr(lattices, "_orbit_basis_search", search_fn)
        monkeypatch.setattr(rationality, "_orbit_basis_search", search_fn)

    def refuse(*args):
        raise AssertionError("orbit search reached")

    use(refuse)
    assert recognize(m, budget=20000) is None
    searches = []

    def spy(lat, budget, sign, points):
        found = real(lat, budget, sign, points)
        searches.append((sign, points - lat.rank, found is not None))
        return found

    use(spy)
    assert classify(m).level == HEREDITARILY_RATIONAL
    assert (up_to_sign, extra, False) not in searches


def test_classify_coprime_aug_tensor():
    a3 = [h for h in all_subgroups(S3).representatives() if h.order == 3][0]
    y2 = coset_gset(S3, a3)
    m = aug_tensor(X3, y2)
    v = classify(m)
    assert v.level == HEREDITARILY_RATIONAL


def test_classify_and_obstruction_release_the_group():
    # no module-level cache may keep a group alive once its caller is done
    def obstruction_run():
        g = symmetric(3)
        stably_permutation_obstruction(j_lattice(
            gset_from_permutation_matrices(g)))
        return weakref.ref(g)

    def aug_tensor_run():
        g = symmetric(3)
        a3 = [h for h in all_subgroups(g).representatives()
              if h.order == 3][0]
        m = aug_tensor(gset_from_permutation_matrices(g), coset_gset(g, a3))
        assert classify(m).level == HEREDITARILY_RATIONAL
        return weakref.ref(g)

    for run in (obstruction_run, aug_tensor_run):
        ref = run()
        gc.collect()
        assert ref() is None, run.__name__


def test_classify_direct_sum_blocks():
    v = classify(direct_sum(ZX, I3))
    assert v.level == HEREDITARILY_RATIONAL


def test_classify_permutation_quotient_extension():
    # a basis-twisted copy of I3 + Z: not permutation (the class of
    # 0 -> I3 -> Z[X] -> Z -> 0 is nonzero) but an extension of Z by I3
    l0 = direct_sum(I3, trivial_lattice(S3))
    u = IntMat([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    ui = u.inverse_unimodular()
    lat = GLattice(S3, [u * a * ui for a in l0.action])
    v = classify(lat)
    assert v.level == HEREDITARILY_RATIONAL
    assert v.certificate[0].kind == "permutation_quotient_extension"


def test_classify_wreath_double():
    # two copies of I3 swapped by an extra involution: S3 wr C2 doubling
    def emb(a, where):
        m = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        o = 2 * where
        for i in range(2):
            for j in range(2):
                m[o + i][o + j] = a.data[i][j]
        return IntMat(m)

    swap = IntMat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    gens = [emb(I3.act(s), w) for s in S3.generator_indices for w in (0, 1)]
    w = closure(gens + [swap])
    assert w.order == 72
    v = classify(std_lattice(w))
    assert v.level == HEREDITARILY_RATIONAL
    assert v.certificate[0].kind == "wreath_double"


# ---------------------------------------------------------------------------
# classify: faithful image and the rank <= 2 step
# ---------------------------------------------------------------------------

def _z_4_13_6_4_block():
    """The rank-3 coordinate block of z-4-13-6-4, over the whole order-16
    group; its image has order 8."""
    m = entry("z-4-13-6-4").lattice()
    coords = [c for c in _coordinate_blocks(m) if len(c) == 3][0]
    return _block_lattice(m, coords)


def _inflated_dade_2_1():
    """The dade-2-1 lattice inflated along G -> G/N = Q, G the dade-2-1
    group times a sign on a third coordinate and N that sign."""
    g0 = entry("dade-2-1").group()
    g = closure([a.block_diag(IntMat.identity(1)) for a in
                 (g0.elements[i] for i in g0.generator_indices)]
                + [IntMat.diag([1, 1, -1])])
    n = g.subgroup([0, g.index[IntMat.diag([1, 1, -1])]])
    q, proj = quotient_group(g, n)
    pre = {proj[i]: i for i in range(g.order)}
    top = range(2)
    lat = GLattice(q, [g.elements[pre[k]].submatrix(top, top)
                       for k in range(q.order)])
    return inflate(g, proj, lat)


def _inflated_biquadratic():
    """J of the regular V4-set inflated along V4 x C3 -> V4: the verdict
    carries an obstruction witness and a flasque resolution."""
    c3 = perm_mat([1, 2, 0])
    g = closure([a.block_diag(IntMat.identity(3)) for a in
                 (V4.elements[i] for i in V4.generator_indices)]
                + [IntMat.identity(4).block_diag(c3)])
    n = g.subgroup(i for i in range(g.order)
                   if g.elements[i].submatrix(range(4), range(4))
                   == IntMat.identity(4))
    q, proj = quotient_group(g, n)
    return inflate(g, proj, j_lattice(coset_gset(q, q.trivial_subgroup())))


@pytest.mark.parametrize("build, level", [
    (_z_4_13_6_4_block, HEREDITARILY_RATIONAL),
    (_inflated_dade_2_1, HEREDITARILY_RATIONAL),
    (_inflated_biquadratic, NOT_RETRACT_RATIONAL)])
def test_classify_reduces_to_the_faithful_image(build, level):
    m = build()
    ident = IntMat.identity(m.rank)
    kernel = {i for i in range(m.group.order) if m.act(i) == ident}
    assert len(kernel) > 1
    image = closure(sorted(set(m.action), key=lambda a: a.data))
    assert image.order * len(kernel) == m.group.order
    v = classify(m)
    assert v.level == classify(std_lattice(image)).level == level
    [step] = v.certificate
    assert step.kind == "faithful_image"
    assert step.data["kernel"].parent is m.group
    assert step.data["kernel"].members == kernel
    assert step.data["verdict"].level == level
    assert step.data["verdict"].certificate[0].kind != "faithful_image"
    # every certificate part re-verifies, as the benchmark checks them
    op = workloads.Op("image", "classify", m, {}, level, "catalog")
    ok, exact, detail = workloads.check(op, workloads.Outcome(0.0, v))
    assert ok and exact, detail


def test_classify_cites_voskresenskii_for_rank_2():
    v = classify(entry("dade-2-2").lattice())
    assert v.level == HEREDITARILY_RATIONAL
    [step] = v.certificate
    assert step.kind == "voskresenskii_rank_2"
    assert step.data == {"rank": 2}
    assert "Voskresenskii" in v.notes and "not a witness" in v.notes


# ---------------------------------------------------------------------------
# classify: stable / retract / negative levels
# ---------------------------------------------------------------------------

def test_classify_j3_stably_rational():
    # J3 has rank 2, so classify cites Voskresenskii's theorem; the
    # quasi-permutation check still proves it stably rational on its own
    v = classify(J3)
    assert v.level == HEREDITARILY_RATIONAL
    assert [s.kind for s in v.certificate] == ["voskresenskii_rank_2"]
    res = quasi_permutation_check(J3)
    assert res.verdict == "yes"
    assert verify_exact(res.closing)


def test_classify_biquadratic_not_retract():
    x = coset_gset(V4, V4.trivial_subgroup())
    v = classify(j_lattice(x))
    assert v.level == NOT_RETRACT_RATIONAL
    kinds = [s.kind for s in v.certificate]
    assert "flasque_not_invertible" in kinds
    step = v.certificate[kinds.index("flasque_not_invertible")]
    # the negative verdict names a prime and the Sylow used
    assert step.data["prime"] in (2,)
    assert step.data["sylow"].order == 4
    # and carries the stable obstruction witness as well
    assert "stably_permutation_obstruction" in kinds


@pytest.mark.parametrize("name", ["z-4-33-2-1", "z-4-31-1-4", "z-4-31-1-3",
                                  "z-4-31-4-2", "z-4-31-5-2"])
def test_classify_retract_rational_dim4(name):
    e = entry(name)
    v = classify(e.lattice())
    assert v.level == e.expected_verdict == RETRACT_RATIONAL
    assert [s.kind for s in v.certificate] == [
        "stably_permutation_obstruction", "flasque_invertible"]
    assert v.certificate[0].data["witness"].verify()
    inv = v.certificate[1].data["witness"]
    assert inv.lattice is v.certificate[1].data["flasque"]
    assert inv.verify()


# the certificate kinds of the first 16 entries are those classify gave
# before it reduced to the faithful image: every catalog lattice is
# faithful, so the reduction must leave them as they were
CATALOG_CERTIFICATES = {
    "dade-2-1": ["sign_permutation_basis"],
    "dade-3-2": ["sign_permutation_basis"],
    "z-3-7-4-3": ["augmentation_ideal"],
    "z-3-4-5-2": ["permutation_quotient_extension"],
    "z-3-4-5-2-c": ["permutation_quotient_extension"],
    "dade-4-7": ["stably_permutation_obstruction", "flasque_invertible"],
    "dade-4-8": ["sign_permutation_basis"],
    "z-4-25-9-2": ["direct_sum"],
    "z-4-25-7-5": ["permutation_quotient_extension"],
    "z-4-24-3-4": ["permutation_quotient_extension"],
    "z-4-33-2-1": ["stably_permutation_obstruction", "flasque_invertible"],
    "z-4-31-1-3": ["stably_permutation_obstruction", "flasque_invertible"],
    "z-4-31-1-4": ["stably_permutation_obstruction", "flasque_invertible"],
    "z-4-31-2-2": ["stably_permutation_obstruction", "flasque_invertible"],
    "z-4-31-4-2": ["stably_permutation_obstruction", "flasque_invertible"],
    "z-4-31-5-2": ["stably_permutation_obstruction", "flasque_invertible"],
    # exact through the blocks' faithful images and the rank <= 2 step
    "dade-2-2": ["voskresenskii_rank_2"],
    "dade-3-1": ["direct_sum"],
    "dade-4-1": ["direct_sum"],
    "dade-4-5": ["wreath_double"],
    "z-4-13-6-4": ["direct_sum"],
}


@pytest.mark.parametrize("name", sorted(CATALOG_CERTIFICATES))
def test_classify_reaches_the_catalog_verdict(name):
    e = entry(name)
    v = classify(e.lattice())
    assert v.level == e.expected_verdict
    assert [s.kind for s in v.certificate] == CATALOG_CERTIFICATES[name]


def test_verdict_implication_order():
    v = classify(ZX)
    assert v.implies(STABLY_RATIONAL) and v.implies(RETRACT_RATIONAL)
    v = classify(J3)
    assert v.implies(HEREDITARILY_RATIONAL)
    v = classify(entry("z-4-33-2-1").lattice())
    assert v.implies(RETRACT_RATIONAL) and not v.implies(STABLY_RATIONAL)


# ---------------------------------------------------------------------------
# hereditary closure
# ---------------------------------------------------------------------------

def test_hereditary_closure_of_aug_ideal():
    rep = hereditary_closure(I3)
    assert rep.top.level == HEREDITARILY_RATIONAL
    assert len(rep.entries) == len(all_subgroups(S3).representatives())
    for _h, v in rep.entries:
        assert v.implies("Rational")


def test_hereditary_closure_permutation():
    rep = hereditary_closure(ZX)
    assert rep.top.level == HEREDITARILY_RATIONAL


# ---------------------------------------------------------------------------
# norm-one decision table
# ---------------------------------------------------------------------------

def test_norm_one_cyclic_galois_all_small_orders():
    for n in range(2, 16):
        g = cyclic(n)
        v = norm_one_classify(NormOneSpec(g, g.trivial_subgroup()))
        assert v.level == STABLY_RATIONAL, n


def test_norm_one_galois_biquadratic():
    v = norm_one_classify(NormOneSpec(V4, V4.trivial_subgroup()))
    assert v.level == NOT_RETRACT_RATIONAL


def test_norm_one_galois_quaternion():
    q8 = closure([
        IntMat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
        IntMat([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])])
    assert q8.order == 8
    v = norm_one_classify(NormOneSpec(q8, q8.trivial_subgroup()))
    assert v.level == NOT_RETRACT_RATIONAL


def test_norm_one_galois_s3_is_stable():
    v = norm_one_classify(NormOneSpec(S3, S3.trivial_subgroup()))
    assert v.level == STABLY_RATIONAL


def test_norm_one_galois_twisted_semidirect():
    # C3 x| C4 with the order-4 generator inverting the 3-cycle:
    # all Sylow subgroups cyclic and the stable shape applies
    s = perm_mat([1, 2, 0])
    tperm = perm_mat([0, 2, 1])
    t4 = IntMat([[0, -1], [1, 0]])
    tau = IntMat([[tperm.data[i][j] if i < 3 and j < 3 else
                   (t4.data[i - 3][j - 3] if i >= 3 and j >= 3 else 0)
                   for j in range(5)] for i in range(5)])
    big = IntMat([[s.data[i][j] if i < 3 and j < 3 else
                   (1 if i == j else 0) for j in range(5)] for i in range(5)])
    g = closure([big, tau])
    assert g.order == 12
    v = norm_one_classify(NormOneSpec(g, g.trivial_subgroup()))
    assert v.level == STABLY_RATIONAL


def test_norm_one_symmetric_cases():
    expect = {3: STABLY_RATIONAL, 4: NOT_RETRACT_RATIONAL,
              5: RETRACT_RATIONAL}
    for n, lvl in expect.items():
        g = symmetric(n)
        v = norm_one_classify(NormOneSpec(g, point_stabilizer(g)))
        assert v.level == lvl, n


def test_norm_one_alternating_four():
    g = perm_closure_group([[1, 2, 0, 3], [0, 2, 3, 1]])
    assert g.order == 12
    v = norm_one_classify(NormOneSpec(g, point_stabilizer(g)))
    assert v.level == NOT_RETRACT_RATIONAL


def test_norm_one_alternating_five_pads_the_flasque_term():
    # the only norm_one_classify branch that runs the padding check: the
    # rank-16 flasque term J (x) J plus one Z[G/H] with |H| = 10 is the
    # permutation lattice on the cosets of subgroups of orders 5 and 6
    g = perm_closure_group([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])
    assert g.order == 60
    v = norm_one_classify(NormOneSpec(g, point_stabilizer(g)))
    assert v.level == STABLY_RATIONAL
    assert [s.kind for s in v.certificate] == [
        "norm_one_shape", "alternating_natural", "quasi_permutation"]
    res = v.certificate[-1].data["result"]
    assert res.verdict == "yes"
    assert [h.order for h in res.pads] == [10]
    assert [h.order for h in res.targets] == [5, 6]
    assert res.resolution.cert.right.rank == 16
    assert res.iso.source.rank == res.iso.target.rank == 22
    assert res.iso.check() and res.iso.matrix.is_unimodular()
    assert verify_exact(res.closing)


def test_norm_one_dihedral_cases():
    d10 = perm_closure_group([[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]])
    h2 = [x for x in all_subgroups(d10).representatives() if x.order == 2][0]
    v = norm_one_classify(NormOneSpec(d10, h2))
    assert v.level == STABLY_RATIONAL


def test_norm_one_cyclic_times_dihedral():
    def blockdiag(a, b):
        n = a.rows + b.rows
        return IntMat([[(a.data[i][j] if i < a.rows and j < a.rows else
                         (b.data[i - a.rows][j - a.rows]
                          if i >= a.rows and j >= a.rows else 0))
                        for j in range(n)] for i in range(n)])
    c3 = perm_mat([1, 2, 0])
    id5 = perm_mat([0, 1, 2, 3, 4])
    rot = perm_mat([1, 2, 3, 4, 0])
    flip = perm_mat([0, 4, 3, 2, 1])
    g = closure([blockdiag(c3, id5), blockdiag(perm_mat([0, 1, 2]), rot),
                 blockdiag(perm_mat([0, 1, 2]), flip)])
    assert g.order == 30
    h2 = [x for x in all_subgroups(g).representatives() if x.order == 2][0]
    v = norm_one_classify(NormOneSpec(g, h2))
    assert v.level == STABLY_RATIONAL


def test_norm_one_nilpotent_non_galois():
    d8 = perm_closure_group([[1, 2, 3, 0], [0, 3, 2, 1]])
    hits = 0
    for h in all_subgroups(d8).representatives():
        if h.order != 2:
            continue
        spec = NormOneSpec(d8, h)
        if len(spec.action_kernel()) > 1:
            with pytest.raises(UnrecognizedShape):
                norm_one_classify(spec)
            continue
        v = norm_one_classify(spec)
        assert v.level == NOT_RETRACT_RATIONAL
        hits += 1
    assert hits >= 1


def test_norm_one_unrecognized_shape():
    s4 = symmetric(4)
    h = [x for x in all_subgroups(s4).representatives() if x.order == 2][0]
    with pytest.raises(UnrecognizedShape):
        norm_one_classify(NormOneSpec(s4, h))


def test_norm_one_agrees_with_classify_small_cyclic():
    for n in (2, 3, 4, 6):
        g = cyclic(n)
        spec = NormOneSpec(g, g.trivial_subgroup())
        structural = norm_one_classify(spec)
        lattice_level = classify(spec.lattice())
        assert lattice_level.implies(structural.level) or \
            structural.implies(lattice_level.level)
        assert lattice_level.level in (STABLY_RATIONAL,
                                       HEREDITARILY_RATIONAL)


def test_classify_absolutely_irreducible_without_subgroup_lattice():
    """dade-4-8 (order 384) is decided by its sign-permutation basis; the
    cyclic pre-screens read element classes and the orbit search seeds
    with the coordinate box alone, so the subgroup lattice is never
    built."""
    e = dataclasses.replace(entry("dade-4-8"), _group=None)
    m = e.lattice()
    v = classify(m)
    assert m.group._subgroups is None
    [step] = v.certificate
    assert v.level == HEREDITARILY_RATIONAL
    assert step.kind == "sign_permutation_basis"
    assert step.data["witness"].basis.data == (
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
