"""
Exact-sequence certificates, flasque/coflasque resolutions, Hom lattices
between sums of coset lattices, the abelian-invariant Diophantine
obstruction to being stably permutation, and the three-valued
quasi-permutation decision procedure.

Conventions match the lattices module: row actions, maps act on the right
(composition f then g has matrix f.matrix * g.matrix), permutation
lattices are direct sums of right-coset lattices with the least-element
coset ordering.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .intlinalg import (
    IntMat,
    cokernel_invariants,
    hnf,
    kernel_basis,
    solve_left,
    unimodular_in_lattice,
)
from .groups import (
    FiniteMatrixGroup,
    ProvablyDistinct,
    Subgroup,
    _prime_factors,
    all_subgroups,
    coset_orbits,
    double_coset_table,
)
from .lattices import (
    EquivariantMap,
    GLattice,
    coset_gset_sum,
    coset_lattice,
    direct_sum,
    dual,
    fixed_sublattice,
    hom_basis,
    perm_lattice,
    sub_lattice_from_rows,
    tate,
)


# ---------------------------------------------------------------------------
# exact-sequence certificates
# ---------------------------------------------------------------------------

@dataclass
class ExactSequenceCert:
    """0 -> left -> mid -> right -> 0 with explicit maps."""
    left: GLattice
    mid: GLattice
    right: GLattice
    inj: EquivariantMap
    surj: EquivariantMap
    mid_parts: tuple = None  # optional: (Subgroup, ...) when mid = + Z[G/H]


def verify_exact(cert: ExactSequenceCert, explain=False):
    def fail(reason):
        return (False, reason) if explain else False

    a, b, c = cert.left, cert.mid, cert.right
    if a.rank + c.rank != b.rank:
        return fail("rank mismatch")
    if not cert.inj.check():
        return fail("injection not equivariant")
    if not cert.surj.check():
        return fail("surjection not equivariant")
    ji = cert.inj.matrix
    pi = cert.surj.matrix
    if a.rank and not (ji * pi).is_zero():
        return fail("composition nonzero")
    im = IntMat.zeros(0, b.rank)
    if a.rank:
        fj = hnf(ji)
        if fj.rank != a.rank:
            return fail("injection not injective")
        im = fj.h
    if c.rank:
        cok = cokernel_invariants(pi, c.rank)
        if not (cok.free_rank == 0 and cok.is_trivial()):
            return fail("surjection not onto")
    ker = kernel_basis(pi)
    kerh = hnf(ker).h if ker.rows else IntMat.zeros(0, b.rank)
    im_rows = [r for r in im.data if any(r)]
    ker_rows = [r for r in kerh.data if any(r)]
    if im_rows != ker_rows:
        return fail("image of injection is not the (saturated) kernel")
    return (True, "ok") if explain else True


def sequence_from_surjection(p: GLattice, m: GLattice, matrix: IntMat,
                             mid_parts=None) -> ExactSequenceCert:
    """Certificate 0 -> ker -> p -> m -> 0 from a surjective map p -> m."""
    surj = EquivariantMap(p, m, matrix)
    assert surj.check()
    ker = kernel_basis(matrix)
    left, inj = sub_lattice_from_rows(p, ker)
    cert = ExactSequenceCert(left, p, m, inj, surj, mid_parts=mid_parts)
    assert verify_exact(cert)
    return cert


# ---------------------------------------------------------------------------
# permutation parts and structured Hom bases
# ---------------------------------------------------------------------------

def parts_lattice(group: FiniteMatrixGroup, parts) -> GLattice:
    """Direct sum of parts; a part is a Subgroup (meaning Z[G/H]) or a
    GLattice.  A run of Subgroup parts is one permutation lattice on the
    disjoint union of their coset spaces."""
    lats = []
    for cosets, run in itertools.groupby(
            parts, key=lambda p: isinstance(p, Subgroup)):
        lats.extend([perm_lattice(coset_gset_sum(group, run))] if cosets
                    else run)
    return functools.reduce(direct_sum, lats) if lats else \
        perm_lattice(coset_gset_sum(group, ()))


def _coset_images(m: GLattice, k: Subgroup, u):
    """Rows of the map Z[G/K] -> M sending the coset Kt to u * act(t), for
    a K-fixed row u; cosets in k.right_cosets order."""
    urow = IntMat([list(u)])
    return [list((urow * m.act(t)).data[0]) for t in k.right_cosets[0]]


def _hom_coset_to_lat(h: Subgroup, n: GLattice):
    """Basis of Hom_G(Z[G/H], N): one map per basis vector of N^H."""
    return [IntMat(_coset_images(n, h, u))
            for u in fixed_sublattice(n, h).data]


def hom_basis_parts(group, parts1, parts2):
    """Z-basis of Hom_G(+parts1, +parts2) assembled blockwise (coset parts
    use the adjunction formulas; lattice-lattice blocks use the generic
    kernel computation)."""
    lats1 = [coset_lattice(group, p) if isinstance(p, Subgroup) else p
             for p in parts1]
    lats2 = [coset_lattice(group, p) if isinstance(p, Subgroup) else p
             for p in parts2]
    r1 = sum(l.rank for l in lats1)
    r2 = sum(l.rank for l in lats2)
    off1 = [0]
    for l in lats1:
        off1.append(off1[-1] + l.rank)
    off2 = [0]
    for l in lats2:
        off2.append(off2[-1] + l.rank)
    zero_row = (0,) * r2
    out = []
    for i, (p1, l1) in enumerate(zip(parts1, lats1)):
        above = (zero_row,) * off1[i]
        below = (zero_row,) * (r1 - off1[i + 1])
        for j, (p2, l2) in enumerate(zip(parts2, lats2)):
            if isinstance(p1, Subgroup):
                block_basis = _hom_coset_to_lat(p1, l2)
            elif isinstance(p2, Subgroup):
                # Z[G/K] is self-dual: Hom_G(M, Z[G/K]) = Hom_G(Z[G/K], M*)^T
                block_basis = [b.transpose()
                               for b in _hom_coset_to_lat(p2, dual(l1))]
            else:
                block_basis = hom_basis(l1, l2)
            left = (0,) * off2[j]
            right = (0,) * (r2 - off2[j + 1])
            for blk in block_basis:
                out.append(IntMat._wrap(
                    above + tuple(left + row + right for row in blk.data)
                    + below, r2))
    return out


def find_isomorphism_parts(group, parts1, parts2, budget=20000):
    """Unimodular equivariant map between two direct sums given by parts.
    Returns (m1, m2, EquivariantMap) or None; raises ProvablyDistinct on a
    character mismatch.  One search, in the Hom lattice of
    `hom_basis_parts`: every isomorphism of the two sums lies in it."""
    m1 = parts_lattice(group, parts1)
    m2 = parts_lattice(group, parts2)
    if m1.rank != m2.rank:
        raise ProvablyDistinct("rank mismatch")
    if m1.character() != m2.character():
        raise ProvablyDistinct("character mismatch")
    basis = hom_basis_parts(group, parts1, parts2)
    basis = [b for b in basis if not b.is_zero()]
    if not basis:
        raise ProvablyDistinct("Hom = 0")
    x = unimodular_in_lattice(basis, bound=budget)
    if x is None:
        return None
    f = EquivariantMap(m1, m2, x)
    assert f.check()
    return m1, m2, f


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------

def _fixed_image_rows(images, k: Subgroup, h: Subgroup):
    """Images in M of an H-fixed basis of the summand Z[G/K], given the
    images of its cosets (`_coset_images`): one row per H-orbit of
    cosets, the orbit sum."""
    return [[sum(col) for col in zip(*(images[j] for j in orbit))]
            for orbit in coset_orbits(k, h)]


def coflasque_resolution(m: GLattice) -> ExactSequenceCert:
    """0 -> C -> P -> M -> 0 with P permutation and C coflasque.

    P is assembled from the fixed sublattices of M: for each subgroup
    class representative H in decreasing order, a transitive summand
    Z[G/H] is added for each Hermite-basis vector of M^H not already in
    the image of P^H.  This makes P^H -> M^H surjective for every H
    (hence C coflasque by the long exact sequence) and P -> M surjective
    at the trivial subgroup.
    """
    group = m.group
    if m.rank == 0:
        z = m
        return ExactSequenceCert(z, z, z,
                                 EquivariantMap(z, z, IntMat.zeros(0, 0)),
                                 EquivariantMap(z, z, IntMat.zeros(0, 0)),
                                 mid_parts=())
    reps = sorted(all_subgroups(group).representatives(),
                  key=lambda h: (-h.order, h.sorted_members))
    chosen = []    # (Subgroup K, images of the cosets of K for u in M^K)
    for h in reps:
        fix = fixed_sublattice(m, h)
        if fix.rows == 0:
            continue
        image_rows = []
        for k, images in chosen:
            image_rows.extend(_fixed_image_rows(images, k, h))
        for u in fix.data:
            urow = IntMat([list(u)])
            if image_rows and \
                    solve_left(IntMat(image_rows), urow) is not None:
                continue
            images = _coset_images(m, h, u)
            chosen.append((h, images))
            image_rows.extend(_fixed_image_rows(images, h, h))
    parts = tuple(h for h, _ in chosen)
    p = parts_lattice(group, parts)
    pi_rows = [row for _, images in chosen for row in images]
    return sequence_from_surjection(p, m, IntMat(pi_rows), mid_parts=parts)


@dataclass
class FlasqueResolution:
    cert: ExactSequenceCert          # 0 -> M -> P -> F -> 0
    flasque_check: tuple             # ((subgroup order, invariants), ...)


def flasque_resolution(m: GLattice) -> FlasqueResolution:
    """Dualize the coflasque resolution of the dual lattice."""
    cof = coflasque_resolution(dual(m))      # 0 -> C -> P -> M* -> 0
    p = cof.mid
    pdual = GLattice(p.group, p.action, check=False)  # perm lattices self-dual
    f_lat = dual(cof.left)
    inj = EquivariantMap(m, pdual, cof.surj.matrix.transpose())
    surj = EquivariantMap(pdual, f_lat, cof.inj.matrix.transpose())
    cert = ExactSequenceCert(m, pdual, f_lat, inj, surj,
                             mid_parts=cof.mid_parts)
    assert verify_exact(cert)
    return _flasque_tested(cert)


def _flasque_tested(cert: ExactSequenceCert) -> FlasqueResolution:
    """The resolution with the flasque test of its right term: H^-1 is
    asserted trivial at every subgroup class representative."""
    checks = []
    for h in all_subgroups(cert.right.group).representatives():
        inv = tate(cert.right, h, -1)
        assert inv.is_trivial(), "flasque term fails the flasque test"
        checks.append((h.order, inv))
    return FlasqueResolution(cert, tuple(checks))


# ---------------------------------------------------------------------------
# stably-permutation obstruction
# ---------------------------------------------------------------------------

def _prime_powers(n):
    out = []
    for d in _prime_factors(n):
        e = d
        while e <= n:
            out.append(e)
            e *= d
    return sorted(out)


def _multiplicity(orders, q):
    """Cyclic factors of order divisible by the prime power q."""
    return sum(1 for f in orders if f % q == 0)


@dataclass
class ObstructionWitness:
    test_subgroups: tuple            # Subgroup class reps
    unknowns: tuple                  # Subgroup class reps (one x_d each)
    equations: IntMat                # unknowns x equations
    rhs: tuple
    eq_labels: tuple                 # (subgroup position, prime power)
    infeasibility_proof: tuple       # Fractions, one per equation

    def verify(self) -> bool:
        """equations * c is integral and rhs . c is not, for the proof c;
        in integers, as c' = D c over the common denominator D: every
        equation row . c' is 0 mod D and rhs . c' is not."""
        c = [Fraction(x) for x in self.infeasibility_proof]
        d = lcm(*(x.denominator for x in c))
        scaled = [x.numerator * (d // x.denominator) for x in c]

        def dot(row):
            return sum(x * y for x, y in zip(row, scaled))

        return (all(dot(row) % d == 0 for row in self.equations.data)
                and dot(self.rhs) % d != 0)


class _H0Coefficients:
    """The side of the H^0 systems that depends on the group only, kept on
    the group: the subgroup class reps D, one unknown x_D (the multiplicity
    of Z[G/D]) each; the matrix of the multiplicities of cyclic factors of
    order divisible by q in H^0(H, Z[G/D]), one row per D and one column
    per label (position of the class rep H, prime power q); and, on first
    use, the same matrix with the character columns of `_extended_system`
    in front."""

    def __init__(self, group):
        self.group = group
        self.reps = all_subgroups(group).representatives()
        table = double_coset_table(group)
        pps = _prime_powers(group.order)
        self.labels = tuple((hi, q) for hi in range(len(self.reps))
                            for q in pps)
        self.mat = IntMat([[_multiplicity(row[hi], q) for hi, q in self.labels]
                           for row in table])

    @functools.cached_property
    def extended(self):
        # the character of Z[G/D] counts the cosets D x an element c
        # fixes, and D x c = D x exactly when x c x^-1 is in D
        group = self.group
        t, inv = group.table, group.inv
        class_reps = sorted(set(group.conj_class_of))
        rows = []
        for d, h0_row in zip(self.reps, self.mat.data):
            xs = d.right_cosets[0]
            rows.append([sum(t[t[x][c]][inv[x]] in d.members for x in xs)
                         for c in class_reps] + list(h0_row))
        return class_reps, IntMat(rows)


def _h0_coefficients(group):
    if group._h0_coefficients is None:
        group._h0_coefficients = _H0Coefficients(group)
    return group._h0_coefficients


def _h0_system(f: GLattice):
    """(reps, mat, rhs, labels): the H^0 multiplicity system of F.  Only
    rhs, the H^0 column of F, reads the lattice; the rest is the group's
    `_H0Coefficients`."""
    coeffs = _h0_coefficients(f.group)
    factors = [tate(f, h, 0).factors for h in coeffs.reps]
    rhs = tuple(_multiplicity(factors[hi], q) for hi, q in coeffs.labels)
    return coeffs.reps, coeffs.mat, rhs, coeffs.labels


def stably_permutation_obstruction(f: GLattice, system=None):
    """Integer-infeasibility witness for F + P = Q over transitive
    permutation summands, from multiplicities of cyclic factors in H^0;
    None when the system is integrally feasible (inconclusive).  `system`
    is `_h0_system(f)` when the caller has it already."""
    if f.rank == 0:
        return None
    reps, mat, rhs, labels = system or _h0_system(f)
    proof = _infeasibility_certificate(mat, rhs)
    if proof is None:
        return None
    w = ObstructionWitness(tuple(reps), tuple(reps), mat, rhs, labels, proof)
    assert w.verify()
    return w


def _infeasibility_certificate(mat: IntMat, rhs):
    """Rational column combination c with mat * c integral and rhs . c
    not; None when x * mat = rhs has an integral solution.

    Read off the Hermite form h = u * mat, as any c with h * c integral
    has mat * c = u^-1 * h * c integral.  Back-substitution as in
    `solve_left` takes pivot rows off rhs.  If pivot row k leaves a
    remainder, h * c = e_k gives rhs . c = resid[j_k] / h[k][j_k].  If
    every pivot clears but resid[j0] != 0 remains, c[j0] = 1/(2 resid[j0])
    and h * c = 0 give rhs . c = 1/2.  Either way the entries of c on the
    pivot columns solve a triangular system, and the others are zero."""
    f = hnf(mat)
    h, pivots = f.h.data, f.pivots
    c = [Fraction(0)] * mat.cols
    resid = list(rhs)
    for k, j in enumerate(pivots):
        q, rem = divmod(resid[j], h[k][j])
        if rem:
            break
        resid = [x - q * y for x, y in zip(resid, h[k])]
    else:
        k = None
        j0 = next((j for j, x in enumerate(resid) if x), None)
        if j0 is None:
            return None
        c[j0] = Fraction(1, 2 * resid[j0])
    # h[i] . c = 1 for i = k and 0 for the other pivot rows, bottom up
    for i in reversed(range(len(pivots))):
        j = pivots[i]
        done = sum(x * y for x, y in zip(h[i][j + 1:], c[j + 1:]) if y)
        c[j] = Fraction(int(i == k) - done, h[i][j])
    return tuple(c)


# ---------------------------------------------------------------------------
# quasi-permutation decision
# ---------------------------------------------------------------------------

@dataclass
class QuasiPermutationResult:
    verdict: str                     # "yes" | "no" | "unknown"
    resolution: FlasqueResolution = None
    witness: ObstructionWitness = None
    pads: tuple = None               # Subgroups padded onto F
    targets: tuple = None            # Subgroups of the permutation target
    iso: EquivariantMap = None       # F + pads -> target
    closing: ExactSequenceCert = None  # 0 -> M -> P+pads -> target -> 0


def _extended_system(f: GLattice, system=None):
    """Character equations (one per element conjugacy class) stacked with
    the H^0 multiplicity system `system`, by default `_h0_system(f)`."""
    reps, _mat, rhs, _labels = system or _h0_system(f)
    class_reps, mat = _h0_coefficients(f.group).extended
    fchar = f.character()
    return reps, mat, tuple(fchar[c] for c in class_reps) + rhs


def stably_permutation_paddings(f: GLattice, system=None):
    """Candidate (pads, targets) multisets satisfying the character and
    H^0 equations, ordered by total padded rank: at most 200, with target
    rank at most 3 rank(f) plus the largest coset size.  `system` is
    `_h0_system(f)` when the caller has it already.  Candidates are
    x = x0 + t K: the kernel rows K are linearly independent, so each t
    gives a new x, and the identity-class row sum_D x_D [G:D] = rank F
    makes every target rank equal rank F plus the pad rank."""
    group = f.group
    reps, mat, rhs = _extended_system(f, system)
    sizes = [group.order // h.order for h in reps]
    x0 = solve_left(mat, IntMat([list(rhs)]))
    if x0 is None:
        return []
    x0 = list(x0.data[0])
    kern = kernel_basis(mat)
    max_rank = 3 * f.rank + max(sizes)
    cands = []
    kdim = kern.rows
    for radius in range(0, 4):
        boxes = itertools.product(range(-radius, radius + 1), repeat=kdim) \
            if kdim else ([()] if radius == 0 else [])
        for t in boxes:
            if kdim and max(map(abs, t), default=0) != radius:
                continue
            x = list(x0)
            for ti, krow in zip(t, kern.data):
                if ti:
                    x = [xi + ti * ki for xi, ki in zip(x, krow)]
            tgt_rank = sum(xi * s for xi, s in zip(x, sizes) if xi > 0)
            if tgt_rank > max_rank:
                continue
            pads = tuple(h for xi, h in zip(x, reps) for _ in range(-xi)
                         if xi < 0)
            tgts = tuple(h for xi, h in zip(x, reps) for _ in range(xi)
                         if xi > 0)
            cands.append((tgt_rank, pads, tgts))
            if len(cands) >= 200:
                break
        if len(cands) >= 200:
            break
    cands.sort(key=lambda c: (c[0],
                              tuple(h.order for h in c[1]),
                              tuple(h.order for h in c[2])))
    return [(p, t) for _, p, t in cands]


def quasi_permutation_check(m: GLattice, iso_budget=20000,
                            resolution: FlasqueResolution = None):
    """Three-valued quasi-permutation decision for a G-lattice.

    YES: the flasque term F admits an explicit F + pads = target
    isomorphism over permutation multisets (search guided by the
    character / H^0 equations), with the closing exact sequence verified.
    NO: the Diophantine obstruction yields a witness.
    Otherwise unknown.  `iso_budget` bounds each isomorphism search.
    """
    fl = resolution if resolution is not None else flasque_resolution(m)
    f = fl.cert.right
    if f.rank == 0:
        return QuasiPermutationResult("yes", resolution=fl, pads=(),
                                      targets=(), closing=fl.cert)
    system = _h0_system(f)
    w = stably_permutation_obstruction(f, system)
    if w is not None:
        return QuasiPermutationResult("no", resolution=fl, witness=w)
    group = f.group
    for pads, tgts in stably_permutation_paddings(f, system):
        try:
            hit = find_isomorphism_parts(group, (f,) + pads, tgts,
                                         budget=iso_budget)
        except ProvablyDistinct:
            continue
        if hit is None:
            continue
        _m1, m2, iso = hit
        closing = _closing_sequence(fl, pads, tgts, m2, iso)
        return QuasiPermutationResult("yes", resolution=fl, pads=pads,
                                      targets=tgts, iso=iso, closing=closing)
    return QuasiPermutationResult("unknown", resolution=fl)


def _closing_sequence(fl: FlasqueResolution, pads, tgts, target_lat, iso):
    """0 -> M -> P + pads -> target from 0 -> M -> P -> F -> 0 and
    F + pads = target."""
    cert = fl.cert
    group = cert.mid.group
    pad_lat = parts_lattice(group, pads)
    mid2 = direct_sum(cert.mid, pad_lat)
    inj2 = cert.inj.matrix.hstack(IntMat.zeros(cert.left.rank, pad_lat.rank))
    # P + pads -> F + pads, block diagonal, then the isomorphism
    surj2 = cert.surj.matrix.block_diag(
        IntMat.identity(pad_lat.rank)) * iso.matrix
    out = ExactSequenceCert(cert.left, mid2, target_lat,
                            EquivariantMap(cert.left, mid2, inj2),
                            EquivariantMap(mid2, target_lat, surj2),
                            mid_parts=(cert.mid_parts or ()) + tuple(pads))
    assert verify_exact(out)
    return out
