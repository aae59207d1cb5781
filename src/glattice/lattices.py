"""
G-lattices: finite-rank Z-lattices with an action of a finite matrix group.

The action convention is on rows throughout: an element g acts on a row
vector v as v * act(g), and act(ab) = act(a) * act(b).  Constructors cover
the standard lattice of a matrix group, permutation lattices Z[X],
augmentation ideals I_X, the quotients J_X = Z[X]/Z(sum), rank-one sign
lattices, duals, direct sums, tensor products, restriction, induction and
inflation, and the sublattice on a stable row space.  On top of these:
fixed sublattices, norm maps, Tate cohomology in degrees -1, 0, 1,
flasque/coflasque predicates, Hom-lattices, isomorphism search and the
short-vector orbit search behind (sign-)permutation-basis and
augmentation-ideal recognition.

Tate orientation.  Here H^0(H, M) = M^H / N_H(M) and
H^-1(H, M) = ker(N_H) / I_H(M), with degree +1 given by duality
H^1(H, M) = H^-1(H, M*).  (Some sources display the two quotients the
other way round; the orientation fixed here is the one under which
H^0(C2, Z) = Z/2 and permutation lattices are flasque and coflasque.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .intlinalg import (
    AbelianInvariants,
    BudgetExhausted,
    IntMat,
    TRIVIAL_GROUP,
    _int_array,
    _int_matmul,
    _numpy,
    cokernel_invariants,
    hnf,
    intertwiner_basis,
    kernel_basis,
    rank_modp,
    solve_left,
    unimodular_in_lattice,
)
from .groups import (
    FiniteMatrixGroup,
    ProvablyDistinct,
    Subgroup,
    _is_power_of,
    _prime_factors,
    _sort_key,
    _subgroup_orbit,
    all_subgroups,
    cyclic_subgroup_classes,
)


class NotIndexTwoNormal(Exception):
    pass


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

class GLattice:
    """A lattice Z^rank with a right row-action of a finite matrix group.

    `construction` records how a constructor built the lattice, for
    detectors that need that provenance, e.g. ("aug_tensor", X, Y) for
    I_X (x) I_Y; None otherwise.
    """

    __slots__ = ("group", "rank", "_action", "construction", "_cyclic_tate")

    def __init__(self, group: FiniteMatrixGroup, action, check=True):
        self.group = group
        self._action = tuple(action)
        assert len(self._action) == group.order
        self.rank = self._action[0].rows if self._action else 0
        self.construction = None
        self._cyclic_tate = []  # filled by _cyclic_tate_groups
        if check and group.order > 1:
            self._check_on_generators()

    def _check_on_generators(self):
        assert self._action[0] == IntMat.identity(self.rank)
        assert self.rank == 0 or _respects_table(
            self.group, _action_array(self)), "action is not a homomorphism"

    def check_full_table(self):
        """Homomorphism property over the full Cayley table (slow; tests)."""
        t = self.group.table
        n = self.group.order
        for i in range(n):
            for j in range(n):
                if self._action[t[i][j]] != self._action[i] * self._action[j]:
                    return False
        return True

    def act(self, i) -> IntMat:
        return self._action[i]

    @property
    def action(self):
        return self._action

    def character(self):
        """Trace of the action per element index (the Q-character)."""
        return tuple(sum(a.data[i][i] for i in range(self.rank))
                     for a in self._action)

    def __eq__(self, other):
        return (isinstance(other, GLattice) and self.group is other.group
                and self._action == other._action)

    def __hash__(self):
        return hash((id(self.group), self._action))

    def __repr__(self):
        return "GLattice(rank=%d over order-%d group)" % (
            self.rank, self.group.order)


def _respects_table(group: FiniteMatrixGroup, acts) -> bool:
    """act(x) act(s) = act(xs) for every element x and generator s; acts
    holds the matrices of all elements as one (order, r, r) array with
    r > 0.  One product per generator: the stacked matrices of all
    elements times act(s), against the matrices of the Cayley-table
    column of s."""
    n, r = acts.shape[0], acts.shape[1]
    stacked = acts.reshape(n * r, r)
    t = group.table
    for s in group.generator_indices:
        got = _int_matmul(stacked, acts[s]).reshape(n, r, r)
        if not (got == acts[[t[x][s] for x in range(n)]]).all():
            return False
    return True


def _action_from_generators(group: FiniteMatrixGroup, gen_images):
    """Every element's matrix, multiplied out along the Cayley table from
    the matrices of group.generator_indices."""
    t = group.table
    action = [None] * group.order
    action[0] = IntMat.identity(gen_images[0].rows if gen_images else 0)
    gen_map = dict(zip(group.generator_indices, gen_images))
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s, a_s in gen_map.items():
            y = t[x][s]
            if action[y] is None:
                action[y] = action[x] * a_s
                frontier.append(y)
    assert all(a is not None for a in action)
    return action


@dataclass(frozen=True)
class GSet:
    """A finite right G-set: perms[g][i] = image of point i under g."""
    group: FiniteMatrixGroup
    points: int
    perms: tuple  # tuple (per element) of tuples of point images

    def __post_init__(self):
        # the identity at element 0 and the homomorphism property on
        # generators make every perms[g] a permutation, perms a homomorphism
        assert len(self.perms) == self.group.order
        assert self.perms[0] == tuple(range(self.points))
        t = self.group.table
        for s in self.group.generator_indices:
            for x in range(self.group.order):
                pa = self.perms[x]
                ps = self.perms[s]
                assert self.perms[t[x][s]] == tuple(ps[pa[i]] for i in range(self.points))

    def orbits(self):
        seen = [False] * self.points
        out = []
        for i in range(self.points):
            if seen[i]:
                continue
            orb = sorted({p[i] for p in self.perms})
            for j in orb:
                seen[j] = True
            out.append(orb)
        return out

    def stabilizer(self, i) -> Subgroup:
        return Subgroup(self.group,
                        frozenset(g for g in range(self.group.order)
                                  if self.perms[g][i] == i))


@dataclass
class EquivariantMap:
    """f: source -> target on row vectors, f(v) = v * matrix."""
    source: GLattice
    target: GLattice
    matrix: IntMat

    def check(self):
        assert self.source.group is self.target.group
        for s in self.source.group.generator_indices:
            if self.source.act(s) * self.matrix != self.matrix * self.target.act(s):
                return False
        return True


def sub_lattice_from_rows(p: GLattice, rows: IntMat):
    """(sub lattice, inclusion map) for an action-stable saturated row space.

    Only the generator images are solved for (one solve, stacked); the
    other elements are multiplied out along the Cayley table.  The
    restriction of an action to a stable sublattice is an action, so the
    result is not checked again."""
    if rows.rows == 0:
        z = GLattice(p.group, [IntMat.zeros(0, 0)] * p.group.order,
                     check=False)
        return z, EquivariantMap(z, p, IntMat.zeros(0, p.rank))
    gens = p.group.generator_indices
    k = rows.rows
    x = solve_left(rows, IntMat([r for s in gens
                                 for r in (rows * p.act(s)).data]))
    assert x is not None, "row space is not action-stable/saturated"
    gen_images = [IntMat(x.data[i * k:(i + 1) * k]) for i in range(len(gens))]
    sub = GLattice(p.group, _action_from_generators(p.group, gen_images),
                   check=False)
    return sub, EquivariantMap(sub, p, rows)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def std_lattice(g: FiniteMatrixGroup) -> GLattice:
    """The lattice the matrix group acts on tautologically.  Not checked:
    the action is the group's own elements, and table[x][y] is the index of
    x y, by induction along the tree that builds the Cayley table (column
    x s is column x times s), so it is a homomorphism by construction."""
    return GLattice(g, g.elements, check=False)


def trivial_lattice(g: FiniteMatrixGroup, rank=1) -> GLattice:
    ident = IntMat.identity(rank)
    return GLattice(g, [ident] * g.order)


def coset_gset(g: FiniteMatrixGroup, h: Subgroup) -> GSet:
    """Right-coset space of h in g, cosets numbered as in h.right_cosets."""
    assert h.parent is g
    t = g.table
    reps, coset_of = h.right_cosets
    perms = tuple(tuple(coset_of[t[x][gg]] for x in reps)
                  for gg in range(g.order))
    return GSet(g, len(reps), perms)


def coset_gset_sum(g: FiniteMatrixGroup, subgroups) -> GSet:
    """Disjoint union of the coset G-sets of the subgroups, points offset
    in order (the coordinate layout of a direct sum of coset lattices)."""
    gsets = [coset_gset(g, h) for h in subgroups]
    perms = []
    for x in range(g.order):
        p = []
        for gs in gsets:
            off = len(p)
            p.extend(off + i for i in gs.perms[x])
        perms.append(tuple(p))
    return GSet(g, sum(gs.points for gs in gsets), tuple(perms))


def perm_lattice(x: GSet) -> GLattice:
    """Z[X] with the permutation matrices of the G-set x.  GSet has
    checked the action, so the matrices are not checked again."""
    n = x.points
    units = IntMat.identity(n).data
    action = [IntMat._wrap(tuple(units[p[i]] for i in range(n)), n)
              for p in x.perms]
    return GLattice(x.group, action, check=False)


def coset_lattice(g: FiniteMatrixGroup, h: Subgroup) -> GLattice:
    """Z[G/H], the transitive permutation lattice on cosets of h."""
    return perm_lattice(coset_gset(g, h))


def gset_from_permutation_matrices(g: FiniteMatrixGroup) -> GSet:
    """The defining G-set of a group of permutation matrices."""
    n = g.rank
    perms = []
    for m in g.elements:
        p = []
        for i in range(n):
            row = m.data[i]
            assert sorted(row) == [0] * (n - 1) + [1], "not a permutation matrix"
            p.append(row.index(1))
        perms.append(tuple(p))
    return GSet(g, n, tuple(perms))


def aug_ideal(x: GSet) -> GLattice:
    """I_X: kernel of the sum map Z[X] -> Z, basis {x_i - x_{i+1}}."""
    n = x.points
    if n <= 1:
        return GLattice(x.group, [IntMat.zeros(0, 0)] * x.group.order,
                        check=False)
    emb = IntMat([[1 if j == i else (-1 if j == i + 1 else 0) for j in range(n)]
                  for i in range(n - 1)])
    return sub_lattice_from_rows(perm_lattice(x), emb)[0]


def rho_matrix(perm):
    """Action of a permutation of n+1 points on J = Z[X]/(sum), basis the
    images x1..xn of the first n points.

    Rows carry images: x_i maps to x_{perm(i)}, or to -(x_1+..+x_n) when
    perm sends i to the dropped last point.
    """
    n = len(perm) - 1
    rows = []
    for i in range(n):
        j = perm[i]
        if j == n:
            rows.append([-1] * n)
        else:
            rows.append([1 if k == j else 0 for k in range(n)])
    return IntMat(rows)


def j_lattice(x: GSet) -> GLattice:
    """J_X = Z[X]/Z(sum of X), basis = images of the first n-1 points.

    GSet has checked the permutations and J_X is a quotient of Z[X], so
    the matrices are not checked again.
    """
    if x.points <= 1:
        return GLattice(x.group, [IntMat.zeros(0, 0)] * x.group.order,
                        check=False)
    return GLattice(x.group, [rho_matrix(p) for p in x.perms], check=False)


def sign_lattice(g: FiniteMatrixGroup, n: Subgroup) -> GLattice:
    """Rank-1 lattice with kernel exactly the index-2 normal subgroup n."""
    if 2 * n.order != g.order:
        raise NotIndexTwoNormal("subgroup has index %d" % (g.order // n.order))
    if not n.is_normal():
        raise NotIndexTwoNormal("subgroup is not normal")
    action = [IntMat([[1]]) if i in n.members else IntMat([[-1]])
              for i in range(g.order)]
    return GLattice(g, action)


def dual(m: GLattice) -> GLattice:
    """Dual lattice; action matrices are inverse-transposes (an action
    because m's is, so not checked again)."""
    inv = m.group.inv
    action = [m.act(inv[i]).transpose() for i in range(m.group.order)]
    return GLattice(m.group, action, check=False)


def direct_sum(m: GLattice, n: GLattice) -> GLattice:
    """Block-diagonal action (an action because m's and n's are)."""
    assert m.group is n.group
    action = [a.block_diag(b) for a, b in zip(m.action, n.action)]
    return GLattice(m.group, action, check=False)


def tensor(m: GLattice, n: GLattice) -> GLattice:
    """Kronecker-product action, left factor major in the basis order."""
    assert m.group is n.group
    action = [a.kron(b) for a, b in zip(m.action, n.action)]
    return GLattice(m.group, action, check=False)


def restrict(m: GLattice, h: Subgroup,
             hgroup: FiniteMatrixGroup = None) -> GLattice:
    """Restriction of m to the subgroup h (returned over h.as_group())."""
    assert h.parent is m.group
    sub = hgroup if hgroup is not None else h.as_group()
    action = [m.act(m.group.index[mat]) for mat in sub.elements]
    return GLattice(sub, action)


def induce(h: Subgroup, m: GLattice) -> GLattice:
    """Induced lattice over the parent of h; m lives over h.as_group()
    (or any group whose elements are exactly h's matrices).

    Basis blocks follow h.right_cosets; block (j, j') of act(g) is
    act_m(t_j g t_j'^-1).
    """
    g = h.parent
    t, inv = g.table, g.inv
    reps, coset_of = h.right_cosets
    k = len(reps)
    r = m.rank
    sub_index = {mat: i for i, mat in enumerate(m.group.elements)}
    action = []
    for gg in range(g.order):
        rows = [[0] * (k * r) for _ in range(k * r)]
        for j in range(k):
            x = t[reps[j]][gg]
            j2 = coset_of[x]
            h_idx = t[x][inv[reps[j2]]]
            a = m.act(sub_index[g.elements[h_idx]])
            for u in range(r):
                for v in range(r):
                    rows[j * r + u][j2 * r + v] = a.data[u][v]
        action.append(IntMat(rows) if rows else IntMat.zeros(0, 0))
    return GLattice(g, action, check=False)


def quotient_group(g: FiniteMatrixGroup, n: Subgroup):
    """(Q, proj): Q is g/n realized by permutation matrices on the cosets
    of n (the regular action of the quotient); proj maps element index of
    g to element index of Q.  Raises ValueError when n is not normal."""
    if not n.is_normal():
        raise ValueError("subgroup is not normal")
    t = g.table
    reps, coset_of = n.right_cosets
    k = len(reps)
    # the coset N r moves N x to N x r; the identity first, then by entries
    units = IntMat.identity(k).data
    mats = [IntMat._wrap(tuple(units[coset_of[t[x][r]]] for x in reps), k)
            for r in reps]
    order = [0] + sorted(range(1, k), key=lambda j: _sort_key(mats[j]))
    pos = {j: i for i, j in enumerate(order)}
    elems = [mats[j] for j in order]
    proj = [pos[c] for c in coset_of]
    # the generators of Q, each with one preimage in g; x -> x s in Q is
    # the coset of reps[j] s for the element of coset j
    gen_idx, pre = [], []
    for s in g.generator_indices:
        if proj[s] not in gen_idx and proj[s] != 0:
            gen_idx.append(proj[s])
            pre.append(s)
    if not gen_idx:
        gen_idx, pre = [0], [0]
    q = FiniteMatrixGroup(
        k, elems, gen_idx,
        lambda: [[pos[coset_of[t[reps[j]][s]]] for j in order] for s in pre])
    return q, proj


def inflate(g: FiniteMatrixGroup, proj, m: GLattice) -> GLattice:
    """Inflation along a projection g -> m.group given as an index map."""
    action = [m.act(proj[i]) for i in range(g.order)]
    return GLattice(g, action)


# ---------------------------------------------------------------------------
# fixed points, norms, Tate cohomology
# ---------------------------------------------------------------------------

def fixed_sublattice(m: GLattice, h: Subgroup) -> IntMat:
    """Saturated Z-basis of M^H, in Hermite normal form (deterministic)."""
    assert h.parent is m.group
    gens = h.generators()
    if not gens or m.rank == 0:
        return IntMat.identity(m.rank)
    blocks = None
    for s in gens:
        d = m.act(s) - IntMat.identity(m.rank)
        blocks = d if blocks is None else blocks.hstack(d)
    k = kernel_basis(blocks)
    if k.rows == 0:
        return IntMat.zeros(0, m.rank)
    f = hnf(k)
    return IntMat(f.h.data[:f.rank])


def norm_matrix(m: GLattice, h: Subgroup) -> IntMat:
    """Sum of act(g) over g in h, entry by entry."""
    r = m.rank
    if r == 0:
        return IntMat.zeros(0, 0)
    mats = [m.act(i).data for i in h.members]
    return IntMat._wrap(tuple(tuple(map(sum, zip(*rows)))
                              for rows in zip(*mats)), r)


def tate(m: GLattice, h: Subgroup, k: int) -> AbelianInvariants:
    """Tate cohomology of h with coefficients in m, degree k in {-1,0,1}.

    Each degree is the torsion subgroup of Z^r / rowspan(A) for one
    integer matrix A built from m's own action, so one Smith form:

    - k = 0: A = N_H, the norm matrix.  Its row span N_H(M) lies in the
      saturated M^H and has the same rank (N_H / |H| projects M (x) Q onto
      M^H (x) Q), so M^H / N_H(M) is exactly the torsion of Z^r / N_H(M).
    - k = -1: A = the rows act(s) - 1 stacked over the generators s of H,
      whose span is I_H(M).  ker N_H / I_H(M) is finite (|H| kills it)
      and the quotient of M_H = M / I_H(M) by it is N_H(M), torsion-free,
      so it is exactly the torsion of M_H.
    - k = 1: A = the rows (act(s) - 1)^T stacked the same way, whose span
      is I_H(M*): M* has act*(s) = act(s^-1)^T, and act(s^-1)^T - 1 =
      act(s)^-T (1 - act(s)^T) has the same row span as act(s)^T - 1.
      So this is H^-1(H, M*) = H^1(H, M), by the argument for k = -1.

    (Brown, Cohomology of Groups, GTM 87, VI.4.)
    """
    assert k in (-1, 0, 1)
    if m.rank == 0 or h.order == 1:
        return TRIVIAL_GROUP
    if k == 0:
        rel = norm_matrix(m, h)
    else:
        ident = IntMat.identity(m.rank)
        rel = IntMat.zeros(0, m.rank)
        for s in h.generators():
            d = m.act(s) - ident
            rel = rel.stack(d.transpose() if k == 1 else d)
    return AbelianInvariants(cokernel_invariants(rel, m.rank).factors)


def _cyclic_tate_groups(m: GLattice):
    """Yield H^-1(C, M) for each nontrivial cyclic subgroup class rep C in
    turn.  Tate cohomology of a cyclic group is 2-periodic, so each entry
    is also H^1(C, M) (Brown, Cohomology of Groups, GTM 87, VI.9).

    Each group is computed the first time some caller reaches it and kept
    on m, so callers that stop early (the recognizers' pre-screens) share
    one table per lattice and pay only for the prefix they read.
    """
    table = m._cyclic_tate
    for i, h in enumerate(cyclic_subgroup_classes(m.group)):
        if i == len(table):
            table.append(tate(m, h, -1))
        yield table[i]


def is_flasque(m: GLattice) -> bool:
    """H^-1(H, M) = 0 for one representative per subgroup conjugacy class."""
    return all(tate(m, h, -1).is_trivial()
               for h in all_subgroups(m.group).representatives())


def is_coflasque(m: GLattice) -> bool:
    """H^1(H, M) = 0 for one representative per subgroup conjugacy class."""
    return all(tate(m, h, 1).is_trivial()
               for h in all_subgroups(m.group).representatives())


def tate_profile(m: GLattice):
    """Sorted multiset of the Tate invariants in degrees -1, 0, 1 over all
    subgroup class reps (a conjugation-invariant fingerprint)."""
    return subgroup_tate_profiles(m)[-1]


def subgroup_tate_profiles(m: GLattice):
    """tate_profile of m restricted to S, for every subgroup class rep S of
    m.group; a list parallel to all_subgroups(m.group).classes.

    Tate groups of the G-lattice m do not change under conjugation in G
    (Brown, Cohomology of Groups, GTM 87, III.8), so each is computed once
    per G-class.  On a cyclic class rep C, H^1(C, M) is H^-1(C, M) by
    2-periodicity (Brown, GTM 87, VI.9), read from `_cyclic_tate_groups`.
    The profile of S takes one entry per S-class of subgroups of S: per
    S-orbit of the subgroups of G contained in S.
    """
    g = m.group
    classes = all_subgroups(g).classes
    cyclic = dict(zip(cyclic_subgroup_classes(g), _cyclic_tate_groups(m)))
    entries = []
    class_of = {}
    for cid, c in enumerate(classes):
        h = c.representative
        if h in cyclic:
            hm1 = h1 = cyclic[h].factors
        else:
            hm1, h1 = tate(m, h, -1).factors, tate(m, h, 1).factors
        entries.append((h.order, hm1, tate(m, h, 0).factors, h1))
        for x in c.orbit:
            class_of[x] = cid
    profiles = []
    for c in classes:
        s = c.representative.members
        gens = c.representative.generators()
        seen = set()
        profile = []
        for x, cid in class_of.items():
            if x <= s and x not in seen:
                seen |= _subgroup_orbit(g, x, gens)
                profile.append(entries[cid])
        profiles.append(tuple(sorted(profile)))
    return profiles


# ---------------------------------------------------------------------------
# Hom lattices and isomorphism search
# ---------------------------------------------------------------------------

def hom_basis(m: GLattice, n: GLattice):
    """Z-basis of Hom_G(M, N) = {F : act_m(g) F = F act_n(g)}."""
    assert m.group is n.group
    if m.rank == 0 or n.rank == 0:
        return []
    return intertwiner_basis([(m.act(s), n.act(s))
                              for s in m.group.generator_indices],
                             m.rank, n.rank)


def find_isomorphism(m: GLattice, n: GLattice) -> EquivariantMap:
    """Unimodular equivariant map m -> n, or a three-valued refusal.

    Raises ProvablyDistinct on an invariant mismatch (elementwise
    character, or Tate profile over cyclic subgroups), BudgetExhausted if
    the unimodular search in Hom_G(M, N) comes up empty.
    """
    assert m.group is n.group
    if m.rank != n.rank:
        raise ProvablyDistinct("rank mismatch")
    if m.rank == 0:
        return EquivariantMap(m, n, IntMat.zeros(0, 0))
    if m.character() != n.character():
        raise ProvablyDistinct("character mismatch")
    for h in cyclic_subgroup_classes(m.group):
        for k in (-1, 0):
            if tate(m, h, k) != tate(n, h, k):
                raise ProvablyDistinct(
                    "Tate profile mismatch on a cyclic subgroup")
    basis = hom_basis(m, n)
    if not basis:
        raise ProvablyDistinct("Hom_G(M, N) = 0")
    x = unimodular_in_lattice(basis)
    if x is None:
        raise BudgetExhausted("no unimodular equivariant map found in budget")
    f = EquivariantMap(m, n, x)
    assert f.check()
    return f


# ---------------------------------------------------------------------------
# permutation / sign-permutation recognition
# ---------------------------------------------------------------------------

@dataclass
class PermutationWitness:
    gset: GSet
    map: EquivariantMap          # from perm_lattice(gset) onto m

    def verify(self, m: GLattice) -> bool:
        """The basis map.matrix is unimodular and each generator of G
        sends its row i to row gset.perms[s][i] of it (exact integers)."""
        x = self.gset
        return (x.group is m.group and x.points == m.rank
                and _permutes_basis(m, self.map.matrix,
                                    [[(j, 1) for j in p] for p in x.perms]))


@dataclass
class SignPermutationWitness:
    basis: IntMat                # rows permuted up to sign by the action
    signed_perms: tuple          # per element: tuple of (image index, sign)

    def verify(self, m: GLattice) -> bool:
        """The basis is unimodular and each generator of G sends its row i
        to sign * row j, (j, sign) = signed_perms[s][i] (exact integers)."""
        return (len(self.signed_perms) == m.group.order
                and _permutes_basis(m, self.basis, self.signed_perms))


def _permutes_basis(m: GLattice, basis: IntMat, images) -> bool:
    """basis is a unimodular rank x rank matrix and, for every generator s,
    row i of basis * act(s) is sign * row j of basis, (j, sign) =
    images[s][i]; in Python integers, independent of the search."""
    r = m.rank
    if basis.shape != (r, r) or not basis.is_unimodular():
        return False
    rows = basis.data
    for s in m.group.generator_indices:
        if len(images[s]) != r:
            return False
        cols = list(zip(*m.act(s).data))
        for row, (j, sign) in zip(rows, images[s]):
            if not (0 <= j < r and sign in (1, -1)):
                return False
            if any(sum(x * y for x, y in zip(row, col)) != sign * t
                   for col, t in zip(cols, rows[j])):
                return False
    return True


def _short_vectors(rank, radius):
    for v in itertools.product(range(-radius, radius + 1), repeat=rank):
        if any(v):
            yield v


def _action_array(m: GLattice):
    return _int_array([a.data for a in m.action])


def _row_images(m: GLattice, rows):
    """[g][i] = rows[i] * act(g) as a tuple, from one product."""
    imgs = _int_matmul(rows, _action_array(m))
    return [list(map(tuple, img)) for img in imgs.tolist()]


def _gset_of_rows(m: GLattice, rows) -> GSet:
    """The G-set of a G-stable list of distinct row vectors."""
    pos = {tuple(r): i for i, r in enumerate(rows)}
    perms = tuple(tuple(pos[w] for w in img) for img in _row_images(m, rows))
    return GSet(m.group, len(rows), perms)


def _cyclic_generators(g: FiniteMatrixGroup):
    """(c, order of c) for one generator c of each nontrivial cyclic
    subgroup class rep of g, in the order of cyclic_subgroup_classes."""
    orders = g.element_orders
    for h in cyclic_subgroup_classes(g):
        n = h.order
        yield min(x for x in h.members if orders[x] == n), n


def _mobius(k):
    ps = _prime_factors(k)
    return (-1) ** len(ps) if math.prod(ps) == k else 0


def _marks_pass(m: GLattice, shift) -> bool:
    """Whether chi_M + shift passes the mark test of a permutation
    character on every cyclic subgroup class: a necessary condition for
    M = Z[X] (shift 0) and for M = I_X (shift 1).

    Proof.  If M = Z[X], chi_M(g) is the number of points of X that g
    fixes; if M = I_X, the sequence 0 -> I_X -> Z[X] -> Z -> 0 gives
    chi_M + 1 = chi_{Z[X]}.  Restrict X to a cyclic C = <c> of order n.
    Its subgroups are the C_e = <c^(n/e)>, one for each e | n; let a_d
    be the number of points whose stabilizer in C is exactly C_d.  A
    point is fixed by C_e iff its stabilizer C_d has e | d, so
    chi(c^(n/e)) + shift = sum_{e|d|n} a_d, and Moebius inversion on the
    divisor lattice of n gives a_d = sum_{d|e|n} mu(e/d)
    (chi(c^(n/e)) + shift).  (These are the marks of the C-set X, as in
    tom Dieck, Transformation Groups, I.5.)  So a character with some
    a_d < 0 is not a permutation character, and M is not of that shape.

    The points with stabilizer C_d form orbits of n/d points, so a_d is
    also a multiple of n/d; that needs no test.  The rational irreducible
    characters of C are rho_d = Q(zeta_d), d | n, and the permutation
    character of C/C_(n/d) is sum_{e|d} rho_e, so by Moebius inversion
    every character of a lattice is an integer combination of the
    permutation characters of the C/C_e, and its a_d is n/d times the
    coefficient of C/C_d.
    """
    chi = m.character()
    g = m.group
    for c, n in _cyclic_generators(g):
        powers = g.powers(c)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        fixed = {e: chi[powers[(n // e) % n]] + shift for e in divisors}
        for d in divisors:
            if sum(_mobius(e // d) * fixed[e]
                   for e in divisors if e % d == 0) < 0:
                return False
    return True


def _jordan_types_pass(m: GLattice) -> bool:
    """Whether, for every cyclic subgroup class <c> of prime-power order
    p^k, every Jordan block of act(c) - 1 over F_p has p-power size: a
    necessary condition for a sign-permutation basis.

    Proof.  Let c permute a basis up to sign.  Its cycles on the basis
    lines have lengths L dividing p^k.  On the span of one cycle,
    act(c)^L is the scalar e = the product of the signs around it, and
    e^(p^k / L) = 1 since c^(p^k) = 1.  For odd p that exponent is odd,
    so e = 1, and rescaling the basis vectors of the cycle by signs makes
    the block the plain L-cycle permutation matrix.  For p = 2 the signs
    vanish mod 2 and the block already is that matrix mod 2.  The L-cycle
    matrix has minimal polynomial x^L - 1, which equals (x - 1)^L over
    F_p as L is a power of p; so act(c) - 1 is one nilpotent Jordan block
    of size L on the cycle, and act(c) - 1 mod p is the direct sum of
    blocks of p-power sizes.

    The sizes are read from the ranks r_j of (act(c) - 1)^j over F_p:
    r_(j-1) - r_j blocks have size >= j, so r_(j-1) - 2 r_j + r_(j+1)
    have size exactly j.  act(c)^(p^k) = 1 makes act(c) - 1 nilpotent
    mod p, and the powers stop at the first r_j = 0.
    """
    r = m.rank
    for c, n in _cyclic_generators(m.group):
        ps = _prime_factors(n)
        if len(ps) != 1:
            continue
        p = ps[0]
        nil = [[(x - (i == j)) % p for j, x in enumerate(row)]
               for i, row in enumerate(m.act(c).data)]
        cols = list(zip(*nil))
        ranks = [r, rank_modp(nil, p)]
        power = nil
        while ranks[-1]:
            power = [[sum(x * y for x, y in zip(row, col)) % p
                      for col in cols] for row in power]
            ranks.append(rank_modp(power, p))
        ranks.append(0)
        for j in range(1, len(ranks) - 1):
            if (ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]
                    and not _is_power_of(j, p)):
                return False
    return True


def recognize_permutation(m: GLattice, budget=200000):
    """Search for a Z-basis permuted by the action.

    Pre-screens, each a necessary condition, so a lattice that fails one
    gets None without a search:

    - Tate: a permutation lattice has H^-1(C, M) = H^1(C, M) = 0 for
      every cyclic subgroup C, since by Shapiro's lemma and Mackey's
      formula both are sums of H^-1 and H^1 of subgroups of C with
      coefficients in Z, which vanish (Brown, Cohomology of Groups,
      GTM 87, III.5-III.6).  For cyclic C the two are isomorphic
      (2-periodicity), so the screen reads H^-1 only.
    - Marks: chi_M is a permutation character (`_marks_pass`, shift 0).

    Otherwise enumerates candidate vectors of sup-norm <= 3 in increasing
    radius, collects full G-orbits of size <= rank, and looks for a union
    of orbits forming a unimodular basis.  Returns a PermutationWitness or
    None ("unknown": the search is sound but not complete).
    """
    if not all(inv.is_trivial() for inv in _cyclic_tate_groups(m)):
        return None
    if not _marks_pass(m, 0):
        return None
    basis_rows = _orbit_basis_search(m, budget, False, m.rank)
    if basis_rows is None:
        return None
    gset = _gset_of_rows(m, basis_rows)
    w = PermutationWitness(
        gset, EquivariantMap(perm_lattice(gset), m, IntMat(basis_rows)))
    assert w.verify(m)
    return w


def recognize_sign_permutation(m: GLattice, budget=200000):
    """Like recognize_permutation but the basis may be permuted up to sign.

    Pre-screens, each a necessary condition:

    - Tate: a sign-permutation lattice is a sum of lattices induced from
      rank-one sign lattices, so H^-1(C, M) and H^1(C, M) are sums of
      H^-1(D, Z) = 0 and H^-1(D, Z^-) = Z/2 over subgroups D of C (Brown,
      GTM 87, III.5-III.6): of exponent <= 2 for every cyclic C.  By
      2-periodicity H^1(C, M) = H^-1(C, M), so the screen reads H^-1
      only.
    - Jordan type: act(c) - 1 mod p has Jordan blocks of p-power sizes
      for every c of prime-power order p^k (`_jordan_types_pass`).
    """
    if not all(set(inv.factors) <= {2} for inv in _cyclic_tate_groups(m)):
        return None
    if not _jordan_types_pass(m):
        return None
    basis_rows = _orbit_basis_search(m, budget, True, m.rank)
    if basis_rows is None:
        return None
    pos = {}
    for i, r in enumerate(basis_rows):
        pos[tuple(r)] = (i, 1)
        pos[tuple(-x for x in r)] = (i, -1)
    signed = tuple(tuple(pos[w] for w in img)
                   for img in _row_images(m, basis_rows))
    w = SignPermutationWitness(IntMat(basis_rows), signed)
    assert w.verify(m)
    return w


def _orbit_basis_search(m: GLattice, budget, up_to_sign, points):
    """A union of G-orbits of short vectors, `points` vectors in all: a
    unimodular basis when points == rank, the images of the points of X
    in M = J_X (zero column sum, first rank rows unimodular) when
    points == rank + 1.  None when nothing is found within the budget.

    The search seeds with the fixed sublattices of the subgroups of index
    <= points, except when points <= rank, rank >= 2 and
    sum chi(g)^2 = |G| for the character chi of M: then <chi, chi> = 1,
    as integer characters are real, so M (x) C is irreducible (Serre,
    Linear Representations of Finite Groups, 2.3), and every such fixed
    sublattice is zero.  Proof: take v != 0 with |Gv| = j <= rank.  Its
    orbit spans a nonzero submodule of M (x) Q, which is all of it by
    irreducibility, so j = rank and the surjection Q[G/Stab v] -> M (x) Q
    sending g Stab v to gv is an isomorphism.  But Q[G/Stab v] contains
    the trivial representation, which irreducibility rules out for
    rank >= 2.  So the subgroup lattice is not needed there.  For
    points = rank + 1 (the points of J_X) the argument does not apply.
    """
    rank = m.rank
    if rank == 0:
        return []

    orbits = []
    per_size = {}
    pool_cap = 300
    seen_vecs = set()
    spent = 0
    n = m.group.order
    # spread[i, g * rank + j] = act(g)[i, j], so v @ spread holds the
    # images v * act(g) one after another
    acts = _action_array(m)
    spread = acts.transpose(1, 0, 2).reshape(rank, n * rank)
    # vectors per product, so that one chunk's images stay near 2^15
    # entries
    chunk = max(1, 2 ** 15 // (n * rank))

    def collect(vecs):
        nonlocal spent
        for start in range(0, len(vecs), chunk):
            # images of the vectors not yet seen, in one product; a vector
            # may still turn up in the orbit of one before it
            part = [v for v in map(tuple, vecs[start:start + chunk].tolist())
                    if any(v) and v not in seen_vecs]
            if not part:
                continue
            imgs = _int_matmul(part, spread).reshape(len(part), n, rank)
            for v, img in zip(part, imgs):
                if v in seen_vecs:
                    continue
                spent += 1
                if spent > budget:
                    return True
                keys = set(map(tuple, img.tolist()))
                if up_to_sign:
                    keys = {max(w, tuple(-x for x in w)) for w in keys}
                orb = sorted(keys)
                for w in orb:
                    seen_vecs.add(w)
                    if up_to_sign:
                        seen_vecs.add(tuple(-x for x in w))
                if len(orb) > points or per_size.get(len(orb), 0) >= pool_cap:
                    continue
                per_size[len(orb)] = per_size.get(len(orb), 0) + 1
                # each vector mod 2 as a bit mask, for _assemble_basis
                orbits.append((orb, [sum((x & 1) << i for i, x in enumerate(w))
                                     for w in orb]))
        return False

    def box_rows(basis_rows, radius):
        # all nonzero integer combinations of the basis rows with
        # coefficients of sup-norm <= radius, shortest first
        coeffs = _int_array(list(_short_vectors(len(basis_rows), radius)))
        vecs = _int_matmul(coeffs, basis_rows)
        norms = _int_matmul(vecs[:, None, :], vecs[:, :, None]).reshape(-1)
        return vecs[_numpy().argsort(norms, kind="stable")]

    # A vector whose orbit fits among `points` vectors has a stabilizer of
    # index <= points, so it lies in the fixed sublattice of some subgroup
    # in that index range.  Those sublattices usually have small rank, so
    # enumerating short coefficient vectors on each of them reaches far
    # beyond what a box search on the ambient lattice can afford.  When
    # M (x) C is irreducible there are none to seed (see above).
    fixed = []
    if not (points <= rank and rank >= 2
            and sum(c * c for c in m.character()) == m.group.order):
        for cls in all_subgroups(m.group).classes:
            h = cls.representative
            if m.group.order > h.order * points:
                continue
            fx = fixed_sublattice(m, h)
            if fx.rows:
                fixed.append(fx.data)
    fixed.sort(key=len)
    if rank <= 12:
        fixed.append([row[:] for row in IntMat.identity(rank).data])
    for radius in (1, 2, 3):
        out_of_budget = False
        for rows in fixed:
            if (2 * radius + 1) ** len(rows) - 1 > budget - spent:
                continue
            if collect(box_rows(rows, radius)):
                out_of_budget = True
                break
        # try to assemble from the orbits collected so far
        hit = _assemble_basis(orbits, rank, points)
        if hit is not None:
            return hit
        if out_of_budget:
            break
    return None


def _assemble_basis(orbits, rank, points):
    """Backtracking subset search: orbits with `points` vectors in all
    whose first rank rows are unimodular and, when points > rank, whose
    columns sum to zero.  `orbits` holds (orbit, masks) pairs, masks[i]
    the bits of orbit[i] mod 2.

    Partial selections are pruned unless their first rank rows stay
    linearly independent mod 2 (a unimodular matrix is invertible over
    F_2; any rank of the points of J_X form a basis), which collapses the
    combinatorics when many orbits share a size.  Complete selections get
    one exact determinant of their first rank rows.  The search gives up
    once it has tried 100000 extensions of a partial selection by one
    orbit."""
    orbits = sorted(orbits, key=lambda om: (-len(om[0]), om[0]))
    tries = [0]

    def eliminate(pivots, rows):
        # GF(2) row reduction state: {pivot bit: row mask}.  None if some
        # new row is dependent on what came before.
        b = dict(pivots)
        for r in rows:
            while r:
                p = r.bit_length() - 1
                if p in b:
                    r ^= b[p]
                else:
                    b[p] = r
                    break
            else:
                return None
        return b

    def rec(i, chosen, total, pivots):
        if total == points:
            rows = [v for o in chosen for v in o]
            if points > rank and any(map(sum, zip(*rows))):
                return None
            if IntMat._wrap(tuple(rows[:rank]), rank).is_unimodular():
                return [list(v) for v in rows]
            return None
        for j in range(i, len(orbits)):
            o, masks = orbits[j]
            if total + len(o) > points:
                continue
            tries[0] += 1
            if tries[0] > 100000:
                return None
            np2 = eliminate(pivots, masks[:rank - total])
            if np2 is None:
                continue
            hit = rec(j + 1, chosen + [o], total + len(o), np2)
            if hit is not None:
                return hit
        return None

    return rec(0, [], 0, {})
