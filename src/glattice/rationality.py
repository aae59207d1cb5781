"""
Rationality classification of algebraic tori by their character lattices.

classify() runs a decision cascade.  A torus depends only on the image
of G in GL(M), so a lattice with a nontrivial kernel N is first replaced
by the standard lattice of that image (G/N), and the verdict records N.
Then come the hereditary-rational detectors (permutation and
sign-permutation bases, augmentation ideals, direct-sum blocks,
registered coprime tensor products of augmentation ideals,
permutation-quotient extensions, visible rank-2 wreath doubling); blocks
and wreath halves are classified again, each over its own image.  A
lattice of rank <= 2 that no detector decides is HereditarilyRational
by Voskresenskii's theorem that every torus of dimension <= 2 is
rational (1967): a cited step, not a witness.  Then a quasi-permutation
check for stable rationality, then invertibility of the flasque term for
retract rationality.  Verdict levels form a chain
HereditarilyRational > Rational > StablyRational > RetractRational;
NotRetractRational is the proven negative and Unknown the honest
fallback.  All verdicts are claims about the lattice (stable and retract
rationality depend only on the lattice; plain rationality may in
principle depend on the field, so "Rational" here means rational for
every split form).

norm_one_classify() is the group-structure decision table for norm-one
tori of a degree-[G:H] separable field extension with Galois closure
group G and subgroup H, covering the Galois case (Sylow conditions and
the cyclic-times-twisted-dihedral classification), groups with all
Sylow subgroups cyclic, nilpotent non-Galois extensions, and the
symmetric/alternating natural cases (retract iff the degree is prime,
with the alternating degree-5 stable upgrade certified by an explicit
quasi-permutation certificate).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial, gcd

from .intlinalg import (
    IntMat,
    cokernel_invariants,
    kernel_basis,
)
from .groups import (
    FiniteMatrixGroup,
    Subgroup,
    _is_cyclic,
    _prime_factors,
    _sylows_all_cyclic,
    all_subgroups,
    closure,
    cyclic_subgroup_classes,
    sylow,
)
from .lattices import (
    EquivariantMap,
    GLattice,
    GSet,
    _cyclic_tate_groups,
    _gset_of_rows,
    _marks_pass,
    _orbit_basis_search,
    aug_ideal,
    coset_gset,
    coset_lattice,
    dual,
    hom_basis,
    j_lattice,
    perm_lattice,
    recognize_permutation,
    recognize_sign_permutation,
    restrict,
    std_lattice,
    sub_lattice_from_rows,
    tensor,
)
from .homology import (
    ExactSequenceCert,
    _flasque_tested,
    quasi_permutation_check,
    verify_exact,
)
from .modular import is_invertible


HEREDITARILY_RATIONAL = "HereditarilyRational"
RATIONAL = "Rational"
STABLY_RATIONAL = "StablyRational"
RETRACT_RATIONAL = "RetractRational"
NOT_RETRACT_RATIONAL = "NotRetractRational"
UNKNOWN = "Unknown"

_STRENGTH = {
    HEREDITARILY_RATIONAL: 4,
    RATIONAL: 3,
    STABLY_RATIONAL: 2,
    RETRACT_RATIONAL: 1,
    UNKNOWN: 0,
    NOT_RETRACT_RATIONAL: -1,
}


class UnrecognizedShape(Exception):
    pass


@dataclass
class CertStep:
    kind: str
    data: dict = field(default_factory=dict)

    def __repr__(self):
        return "CertStep(%s)" % self.kind


@dataclass
class RationalityVerdict:
    level: str
    certificate: tuple = ()
    notes: str = ""

    def implies(self, other_level):
        return _STRENGTH[self.level] >= _STRENGTH[other_level]


# ---------------------------------------------------------------------------
# constructions with provenance
# ---------------------------------------------------------------------------

def aug_tensor(x: GSet, y: GSet) -> GLattice:
    """I_X (x) I_Y with its construction recorded on the lattice (the
    coprime-tensor detector only fires on recorded products)."""
    m = tensor(aug_ideal(x), aug_ideal(y))
    m.construction = ("aug_tensor", x, y)
    return m


# ---------------------------------------------------------------------------
# augmentation-ideal recognition
# ---------------------------------------------------------------------------

def recognize_aug_ideal(m: GLattice, budget=200000):
    """Search for an identification M = I_X.

    Pre-screens, each a necessary condition, so a lattice that fails one
    gets None without a search:

    - Tate: I_X has cyclic H^-1(C, M) and H^1(C, M) for every cyclic
      subgroup C.  From 0 -> I_X -> Z[X] -> Z -> 0 and the vanishing of
      H^-1 and H^1 of the permutation lattice Z[X] (Brown, Cohomology of
      Groups, GTM 87, III.5-III.6), they are quotients of H^-2(C, Z) = C
      and of H^0(C, Z) = Z/|C|.  For cyclic C, H^1(C, M) = H^-1(C, M)
      by 2-periodicity, so the screen reads H^-1 only.
    - Marks: chi_M + 1 is the permutation character of X
      (`lattices._marks_pass`, shift 1).

    Works through the dual: M = I_X iff M* = J_X, and J_X visibly
    contains the images of the |X| points: a G-stable set of rank+1
    vectors with zero sum such that dropping any one leaves a Z-basis.
    Returns (gset, point_vectors_in_dual) or None (unknown).
    """
    if m.rank == 0 or not all(len(inv.factors) <= 1
                              for inv in _cyclic_tate_groups(m)):
        return None
    if not _marks_pass(m, 1):
        return None
    md = dual(m)
    pts = _orbit_basis_search(md, budget, False, md.rank + 1)
    if pts is None:
        return None
    return _gset_of_rows(md, pts), tuple(map(tuple, pts))


# ---------------------------------------------------------------------------
# structural detectors
# ---------------------------------------------------------------------------

def _coordinate_blocks(m: GLattice):
    """Partition of coordinates closed under all action matrices
    (union-find over nonzero entries)."""
    r = m.rank
    parent = list(range(r))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for s in m.group.generator_indices:
        a = m.act(s)
        for i in range(r):
            for j in range(r):
                if a.data[i][j]:
                    union(i, j)
    blocks = {}
    for i in range(r):
        blocks.setdefault(find(i), []).append(i)
    return sorted(blocks.values())


def _block_lattice(m: GLattice, coords):
    action = [a.submatrix(coords, coords) for a in m.action]
    return GLattice(m.group, action, check=False)


def _visible_wreath_double(m: GLattice):
    """Detect a basis-visible G^2 x| S2 block structure: every generator
    is diag(A, B) or antidiag(A, B) for half-rank blocks, with at least
    one swap.  Returns the half-rank lattice over the group generated by
    all blocks, or None."""
    r = m.rank
    if r % 2 or r == 0:
        return None
    h = r // 2
    top = list(range(h))
    bot = list(range(h, r))
    blocks = []
    saw_swap = False
    for s in m.group.generator_indices:
        a = m.act(s)
        tt, tb = a.submatrix(top, top), a.submatrix(top, bot)
        bt, bb = a.submatrix(bot, top), a.submatrix(bot, bot)
        if tb.is_zero() and bt.is_zero():
            blocks.extend([tt, bb])
        elif tt.is_zero() and bb.is_zero():
            blocks.extend([tb, bt])
            saw_swap = True
        else:
            return None
    if not saw_swap:
        return None
    gens = [b for b in blocks if b != IntMat.identity(h)]
    if not gens:
        gens = [IntMat.identity(h)]
    try:
        grp = closure(gens)
    except Exception:
        return None
    return GLattice(grp, grp.elements, check=False)


def _action_kernel(m: GLattice) -> Subgroup:
    """The normal subgroup of the elements that act as the identity."""
    ident = IntMat.identity(m.rank)
    return m.group.subgroup(i for i in range(m.group.order)
                            if m.act(i) == ident)


def is_faithful(m: GLattice) -> bool:
    return _action_kernel(m).order == 1


def _permutation_quotients(m: GLattice):
    """Yield (subgroup, surjection matrix) for surjections M -> Z[G/H],
    searching hom basis elements and, for at most 6 of them, their
    {-1,0,1} combinations."""
    g = m.group
    for h in all_subgroups(g).representatives():
        pts = g.order // h.order
        if pts >= m.rank:
            # a full-rank quotient has zero kernel: nothing to learn
            continue
        zx = coset_lattice(g, h)
        basis = hom_basis(m, zx)
        if not basis:
            continue
        cands = list(basis)
        if len(basis) <= 6:
            for coeffs in itertools.product((-1, 0, 1), repeat=len(basis)):
                if sum(1 for c in coeffs if c) < 2:
                    continue
                f = basis[0].scale(coeffs[0])
                for b, c in zip(basis[1:], coeffs[1:]):
                    if c:
                        f = f + b.scale(c)
                cands.append(f)
        for f in cands:
            if cokernel_invariants(f, pts).is_trivial():
                yield h, f


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------

def classify(m: GLattice, budget=20000, depth=2) -> RationalityVerdict:
    """Decision cascade for the rationality of a torus with character
    lattice m; see the module docstring.  `budget` bounds the search
    effort of each witness-finding step, `depth` the recursion of the
    structural detectors.  The last step, invertibility of the flasque
    term, is exact, so retract rationality is always decided."""
    if m.rank == 0:
        return RationalityVerdict(HEREDITARILY_RATIONAL,
                                  (CertStep("zero_rank"),))
    kernel = _action_kernel(m)
    if kernel.order > 1:
        # the torus depends only on the image G/N of G in GL(M): the
        # closure of the generator images, on the same Z^r
        image = closure([m.act(s) for s in m.group.generator_indices],
                        order_cap=m.group.order)
        v = classify(std_lattice(image), budget, depth)
        return RationalityVerdict(
            v.level, (CertStep("faithful_image",
                               {"kernel": kernel, "verdict": v}),), v.notes)
    v = _classify_hereditary(m, budget, depth)
    if v is not None:
        return v
    if m.rank <= 2:
        # every restriction is again a torus of dimension <= 2
        return RationalityVerdict(
            HEREDITARILY_RATIONAL,
            (CertStep("voskresenskii_rank_2", {"rank": m.rank}),),
            "citation, not a witness: every torus of dimension <= 2 is "
            "rational (Voskresenskii 1967)")
    steps = []
    res = quasi_permutation_check(m, iso_budget=budget)
    if res.verdict == "yes":
        steps.append(CertStep("quasi_permutation", {"result": res}))
        return RationalityVerdict(STABLY_RATIONAL, tuple(steps))
    fl = res.resolution
    f = fl.cert.right
    notes = ""
    if res.verdict == "no":
        steps.append(CertStep("stably_permutation_obstruction",
                              {"witness": res.witness}))
        notes = "not stably rational (integral obstruction)"
    else:
        notes = "stable rationality undecided"
    inv = is_invertible(f)
    if not inv:
        steps.append(CertStep("flasque_not_invertible",
                              dict(inv.obstruction, flasque=f)))
        return RationalityVerdict(
            NOT_RETRACT_RATIONAL, tuple(steps),
            "flasque term is not invertible (p = %d Sylow)"
            % inv.obstruction["prime"])
    steps.append(CertStep("flasque_invertible", {"flasque": f,
                                                 "resolution": fl,
                                                 "witness": inv}))
    return RationalityVerdict(RETRACT_RATIONAL, tuple(steps), notes)


def _classify_hereditary(m, budget, depth):
    # permutation basis
    w = recognize_permutation(m, budget=budget)
    if w is not None:
        return RationalityVerdict(
            HEREDITARILY_RATIONAL,
            (CertStep("permutation_basis", {"witness": w}),))
    # sign-permutation basis
    w = recognize_sign_permutation(m, budget=budget)
    if w is not None:
        return RationalityVerdict(
            HEREDITARILY_RATIONAL,
            (CertStep("sign_permutation_basis", {"witness": w}),))
    # augmentation ideal
    hit = recognize_aug_ideal(m, budget=budget)
    if hit is not None:
        gset, pts = hit
        return RationalityVerdict(
            HEREDITARILY_RATIONAL,
            (CertStep("augmentation_ideal", {"gset": gset, "points": pts}),))
    # recorded coprime tensor of augmentation ideals
    info = m.construction
    if info and info[0] == "aug_tensor":
        _tag, x, y = info
        if gcd(x.points, y.points) == 1:
            return RationalityVerdict(
                HEREDITARILY_RATIONAL,
                (CertStep("coprime_aug_tensor",
                          {"sizes": (x.points, y.points)}),))
    if depth <= 0:
        return None
    # coordinate direct-sum blocks
    blocks = _coordinate_blocks(m)
    if len(blocks) > 1:
        subs = []
        level = HEREDITARILY_RATIONAL
        for coords in blocks:
            sub = classify(_block_lattice(m, coords), budget, depth - 1)
            subs.append((tuple(coords), sub))
            if _STRENGTH[sub.level] < _STRENGTH[level]:
                level = sub.level
        if _STRENGTH[level] > 0:
            return RationalityVerdict(
                level, (CertStep("direct_sum", {"parts": tuple(subs)}),))
        # negative/unknown block: fall through to the lattice-level checks
    # visible rank-2 wreath doubling
    half = _visible_wreath_double(m)
    if half is not None:
        sub = classify(half, budget, depth - 1)
        if sub.level == HEREDITARILY_RATIONAL:
            return RationalityVerdict(
                HEREDITARILY_RATIONAL,
                (CertStep("wreath_double", {"half": sub}),))
    # permutation-quotient extension 0 -> M' -> M -> Z[G/H] -> 0
    for h, f in _permutation_quotients(m):
        ker = kernel_basis(f)
        if ker.rows == 0:
            continue
        sub, _inc = sub_lattice_from_rows(m, ker)
        if not is_faithful(sub):
            continue
        v = _classify_hereditary(sub, budget, depth - 1)
        if v is not None and v.level == HEREDITARILY_RATIONAL:
            return RationalityVerdict(
                HEREDITARILY_RATIONAL,
                (CertStep("permutation_quotient_extension",
                          {"quotient_subgroup": h, "surjection": f,
                           "kernel_verdict": v}),))
    return None


# ---------------------------------------------------------------------------
# hereditary closure
# ---------------------------------------------------------------------------

@dataclass
class HereditaryReport:
    entries: tuple          # ((subgroup, verdict), ...)
    top: RationalityVerdict


def hereditary_closure(m: GLattice) -> HereditaryReport:
    """classify(restrict(m, H)) for every subgroup class representative;
    the top verdict is HereditarilyRational only when every restriction
    reaches Rational or better."""
    entries = []
    ok = True
    for h in all_subgroups(m.group).representatives():
        v = classify(restrict(m, h))
        entries.append((h, v))
        if not v.implies(RATIONAL):
            ok = False
    top = RationalityVerdict(
        HEREDITARILY_RATIONAL if ok else UNKNOWN,
        (CertStep("hereditary_closure", {"entries": tuple(entries)}),),
        "" if ok else "some restriction not certified rational")
    return HereditaryReport(tuple(entries), top)


# ---------------------------------------------------------------------------
# norm-one tori
# ---------------------------------------------------------------------------

@dataclass
class NormOneSpec:
    g: FiniteMatrixGroup
    h: Subgroup

    def lattice(self):
        return j_lattice(coset_gset(self.g, self.h))

    def action_kernel(self) -> frozenset:
        """Kernel of the action on the cosets (the normal core of h);
        the decision table assumes this is trivial."""
        x = coset_gset(self.g, self.h)
        ident = tuple(range(x.points))
        return frozenset(i for i in range(self.g.order)
                         if x.perms[i] == ident)


def _is_nilpotent(g: FiniteMatrixGroup):
    """Nilpotent iff every Sylow subgroup is normal."""
    for p in _prime_factors(g.order):
        if not sylow(g, p).is_normal():
            return False
    return True


def _odd_part(n):
    while n % 2 == 0:
        n //= 2
    return n


def _two_part(n):
    return n // _odd_part(n)


def _is_dihedral_odd(g, members=None):
    """Is the (sub)group dihedral of order 2n with n odd (n >= 1 means C2
    counts only with n=1 excluded: D_2n needs n odd >= 1; the theorem
    uses n odd which includes n=1, i.e. C2)."""
    mem = sorted(members) if members is not None else list(range(g.order))
    k = len(mem)
    if k % 2:
        return False
    n = k // 2
    if n % 2 == 0:
        return False
    rot = [i for i in mem if g.element_orders[i] == n]
    if n == 1:
        return all(g.element_orders[i] in (1, 2) for i in mem)
    if not rot:
        return False
    r = rot[0]
    cyc = set(g.powers(r))
    if len(cyc) != n or not cyc <= set(mem):
        return False
    flips = [i for i in mem if i not in cyc]
    return all(g.element_orders[i] == 2 for i in flips)


def _galois_stable_shape(g: FiniteMatrixGroup):
    """G = C_m, or G = C_n x <s, t | s^k = t^(2^d) = 1, t s t^-1 = s^-1>
    with d >= 1, k >= 3 odd, n odd, gcd(n, k) = 1."""
    if _is_cyclic(g, range(g.order)):
        return True
    t = g.table
    inv = g.inv
    two = _two_part(g.order)
    if two < 2:
        return False
    orders = g.element_orders
    for ti in range(g.order):
        if orders[ti] != two:
            continue
        for si in range(g.order):
            k = orders[si]
            if k < 3 or k % 2 == 0:
                continue
            # t s t^-1 == s^-1
            if t[t[ti][si]][inv[ti]] != inv[si]:
                continue
            d_members = g.closure_indices([si, ti])
            if len(d_members) != k * two:
                continue
            # a cyclic odd complement centralizing <s, t>
            rest = g.order // (k * two)
            if rest == 1:
                return True
            if rest % 2 == 0 or gcd(rest, k) != 1:
                continue
            # a Z centralizing D with <D, Z> = G is central, so it is its
            # own conjugacy class and therefore a class representative
            for z in cyclic_subgroup_classes(g):
                if z.order != rest:
                    continue
                if z.members & d_members != {0}:
                    continue
                zi = max(z.members, key=orders.__getitem__)
                if any(t[zi][x] != t[x][zi] for x in d_members):
                    continue
                if len(g.closure_indices([si, ti, zi])) == g.order:
                    return True
    return False


def _theorem2_stable_shape(g: FiniteMatrixGroup, h: Subgroup):
    """G = D_2n (n odd) with H of order 2, or G = C_m x D_2n (n odd,
    gcd(m, n) = 1) with H cyclic of order 2 inside the D_2n factor."""
    if h.order != 2:
        return False
    if _is_dihedral_odd(g):
        return True
    # direct factorization G = Z x D with Z cyclic, D dihedral-odd,
    # H inside D.  Z must be central, so it is its own conjugacy class and
    # a class representative; the trivial Z would only re-test
    # _is_dihedral_odd(g), which failed above
    t = g.table
    hgen = [i for i in h.members if i != 0][0]
    for z in cyclic_subgroup_classes(g):
        z_members = z.members
        zi = max(z_members, key=g.element_orders.__getitem__)
        m = len(z_members)
        if g.order % m:
            continue
        dn = g.order // m
        if dn % 2 or gcd(m, _odd_part(dn)) != 1:
            continue
        # Z must be central for a direct product with the right shape
        if any(t[zi][x] != t[x][zi] for x in range(g.order)):
            continue
        # find a complement containing H
        for cls in all_subgroups(g).classes:
            if cls.representative.order != dn:
                continue
            for cand in cls.orbit:
                if hgen not in cand:
                    continue
                if cand & z_members != {0}:
                    continue
                if not _is_dihedral_odd(g, cand):
                    continue
                if len(g.closure_indices(list(cand) + [zi])) == g.order:
                    return True
    return False


def _coset_image(g, h):
    """(coset G-set, faithful?, all even?)."""
    x = coset_gset(g, h)
    faithful = len(set(x.perms)) == g.order
    even = all(_perm_sign(p) == 1 for p in x.perms)
    return x, faithful, even


def _perm_sign(p):
    n = len(p)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        l = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            l += 1
        if l % 2 == 0:
            sign = -sign
    return sign


def norm_one_classify(spec: NormOneSpec) -> RationalityVerdict:
    """Decision table for the norm-one torus of a degree-[G:H] extension
    with Galois closure group G and H the closure's subgroup over the
    intermediate field; raises UnrecognizedShape when no structural
    branch applies (callers may fall back to classify on J_{G/H})."""
    g, h = spec.g, spec.h
    n = g.order // h.order
    core = spec.action_kernel()
    if len(core) > 1:
        raise UnrecognizedShape(
            "the coset action has a kernel of order %d; pass the faithful "
            "quotient instead" % len(core))
    steps = [CertStep("norm_one_shape", {"order": g.order, "degree": n,
                                         "action_kernel": core})]
    if h.order == 1:
        # Galois case
        if not _sylows_all_cyclic(g):
            steps.append(CertStep("sylow_not_cyclic"))
            return RationalityVerdict(NOT_RETRACT_RATIONAL, tuple(steps),
                                      "a Sylow subgroup is not cyclic")
        if _galois_stable_shape(g):
            steps.append(CertStep("galois_stable_shape"))
            return RationalityVerdict(STABLY_RATIONAL, tuple(steps))
        steps.append(CertStep("sylow_all_cyclic"))
        return RationalityVerdict(RETRACT_RATIONAL, tuple(steps),
                                  "not stably rational (shape excluded)")
    # natural symmetric / alternating cases
    x, faithful, even = _coset_image(g, h)
    if faithful and g.order == factorial(n) and n >= 3:
        steps.append(CertStep("symmetric_natural", {"degree": n}))
        if n == 3:
            return RationalityVerdict(STABLY_RATIONAL, tuple(steps))
        if _prime_factors(n) == [n]:
            return RationalityVerdict(RETRACT_RATIONAL, tuple(steps),
                                      "not stably rational (degree > 3)")
        return RationalityVerdict(NOT_RETRACT_RATIONAL, tuple(steps),
                                  "degree not prime")
    if faithful and even and 2 * g.order == factorial(n) and n >= 4:
        steps.append(CertStep("alternating_natural", {"degree": n}))
        if n == 5:
            res = quasi_permutation_check(
                spec.lattice(), resolution=_a5_flasque_resolution(g, x),
                iso_budget=200000)
            assert res.verdict == "yes"
            steps.append(CertStep("quasi_permutation", {"result": res}))
            return RationalityVerdict(STABLY_RATIONAL, tuple(steps))
        if _prime_factors(n) == [n]:
            return RationalityVerdict(RETRACT_RATIONAL, tuple(steps),
                                      "stable rationality excluded")
        return RationalityVerdict(NOT_RETRACT_RATIONAL, tuple(steps),
                                  "degree not prime")
    # non-Galois with all Sylow subgroups of G cyclic
    if _sylows_all_cyclic(g):
        steps.append(CertStep("sylow_all_cyclic"))
        if _theorem2_stable_shape(g, h):
            steps.append(CertStep("metacyclic_stable_shape"))
            return RationalityVerdict(STABLY_RATIONAL, tuple(steps))
        return RationalityVerdict(RETRACT_RATIONAL, tuple(steps),
                                  "not stably rational (shape excluded)")
    if _is_nilpotent(g):
        steps.append(CertStep("nilpotent_non_galois"))
        return RationalityVerdict(NOT_RETRACT_RATIONAL, tuple(steps),
                                  "nilpotent Galois closure group")
    raise UnrecognizedShape(
        "no structural branch applies (order %d, degree %d)" % (g.order, n))


def _a5_flasque_resolution(g, x):
    """Explicit flasque resolution 0 -> J -> Z[pairs] -> J(x)J -> 0 for
    the natural degree-5 alternating action; the middle is identified
    with the coset lattice on ordered pairs via the basis vectors
    (image of e_i) (x) e_j for ordered pairs (i, j)."""
    j = j_lattice(x)
    zx = perm_lattice(x)
    jzx = tensor(j, zx)
    n = x.points
    # stabilizer of the ordered pair (0, 1)
    stab = Subgroup(g, frozenset(
        i for i in range(g.order)
        if x.perms[i][0] == 0 and x.perms[i][1] == 1))
    pair_lat = coset_lattice(g, stab)
    rows = []
    for t in stab.right_cosets[0]:
        i, jj = x.perms[t][0], x.perms[t][1]
        vec = [0] * ((n - 1) * n)
        # image of e_i (x) e_j in J (x) Z[X] coordinates (J index major)
        if i < n - 1:
            vec[i * n + jj] = 1
        else:
            for k in range(n - 1):
                vec[k * n + jj] = -1
        rows.append(vec)
    phi = EquivariantMap(pair_lat, jzx, IntMat(rows))
    assert phi.check() and phi.matrix.is_unimodular()
    # surjection J (x) Z[X] -> J (x) J via 1 (x) (projection to J)
    pj_rows = [[1 if a == b else 0 for b in range(n - 1)] for a in range(n)]
    pj_rows[n - 1] = [-1] * (n - 1)
    surj_t = IntMat.identity(n - 1).kron(IntMat(pj_rows))
    jj_lat = tensor(j, j)
    surj = EquivariantMap(pair_lat, jj_lat, phi.matrix * surj_t)
    ker = kernel_basis(surj.matrix)
    left, inj = sub_lattice_from_rows(pair_lat, ker)
    cert = ExactSequenceCert(left, pair_lat, jj_lat, inj, surj,
                             mid_parts=(stab,))
    assert verify_exact(cert)
    return _flasque_tested(cert)
