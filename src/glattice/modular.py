"""
Modules over F_p[G], each given as a G-lattice M and a prime p: the
module is F_p M = M / pM, and every function here reduces M's matrices
mod p as it computes.  Projectivity, permutation-module recognition over
p-groups, cohomological triviality of lattices, and the invertibility
(permutation-summand) criterion:

    a lattice C is invertible when F_pC is an F_p Syl_p-permutation
    module for every prime p dividing |G|, and additionally
    dim_Q (QC)^{Syl_2} = dim_{F_2} (F_2 C)^{Syl_2}.

is_invertible() decides this in one pass over the primes and returns the
isomorphisms it found as a re-verifiable witness.

Where the criterion comes from.  C is invertible when C + C' is a
permutation lattice for some C'.  Invertibility is Sylow-local: C is
invertible iff its restriction to every Sylow subgroup is (Lorenz,
Multiplicative Invariant Theory, 2005, ch. 2).  The criterion reads each
Sylow restriction mod p.  It has been the package's test since its first
version, stated without a source; no proof of its "yes" half is given
here, and `Invertibility.verify()` re-checks the mod-p isomorphisms and
the rank equality, not a splitting over Z.

Why a "no" is sound.  Let C + C' = Z[X] and let P be a Sylow p-subgroup.
Restriction keeps permutation lattices, so F_p C + F_p C' = F_p[X] is a
sum of transitive F_p[P/Q] over the P-orbits of X.  Each F_p[P/Q] is
indecomposable: the socle of a module over the p-group P is its P-fixed
part (Alperin, ch. 1), which in F_p[P/Q] is the line of the orbit sum,
and every nonzero summand has a nonzero socle.  By Krull-Schmidt over
the finite-dimensional algebra F_p[P], the summand F_p C is then a sum of
some of the F_p[P/Q]: a permutation module.  For the rank equality, any
lattice M has dim_Q (QM)^P <= dim_{F_p} (F_p M)^P, since M^P is
saturated in M, so M^P / pM^P embeds in (M / pM)^P.  Both dimensions
add over direct sums, and for Z[X] both count the P-orbits of X (the
orbit sums span the fixed part over any field).  Equality for the sum
and <= for each summand force equality for C.  So a C that fails the
criterion at some p is not invertible.  Maps into a
permutation module come from Frobenius reciprocity (Brown, Cohomology of
Groups, GTM 87, III.5): Hom_P(M, F_p[P/Q]) = (M*)^Q.  Such a map F is
determined by its column f at the base coset Q, which may be any column
vector with act(q) f = f for q in Q; its column at the coset Qg is
act(g^-1) f.

Recognition is exact, decided on the socle: over a p-group P the socle
of M is M^P (Alperin, Local Representation Theory, ch. 1), and a module
map is injective iff it is on the socle.  With base columns f_i the map
sends v in M^P to sum_i (v . f_i) sigma_i, sigma_i the orbit sum of
summand i, and a candidate has dim M^P summands.  So it is an isomorphism
iff the square matrix [v_a . f_i] over a basis v_a of M^P is invertible.
Choosing the f_i is choosing one vector from each W_i = {(v_a . f)_a :
f in (M*)^{Q_i}}, all independent; matroid intersection finds such a
choice or proves that there is none (ProvablyNot).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .intlinalg import (
    _int_matmul,
    _is_invertible_modp,
    _rref_modp,
    rank_modp,
)
from .groups import (
    Subgroup,
    _prime_factors,
    all_subgroups,
    double_coset_table,
    sylow,
)
from .lattices import (
    GLattice,
    coset_gset_sum,
    fixed_sublattice,
    norm_matrix,
    perm_lattice,
    restrict,
    tate,
)


class ProvablyNot(Exception):
    pass


# ---------------------------------------------------------------------------
# F_p linear algebra (dense, row-major lists)
# ---------------------------------------------------------------------------

def left_nullspace_modp(rows, p):
    """Basis of {x : x * A = 0} over F_p, A given by its rows."""
    m = len(rows)
    if m == 0:
        return []
    aug = [list(rows[i]) + [1 if k == i else 0 for k in range(m)]
           for i in range(m)]
    red, pivots = _rref_modp(aug, p)
    n = len(rows[0])
    return [r[n:] for r in red if all(x % p == 0 for x in r[:n])]


def _mat_mul_modp(a, b, p):
    return (_int_matmul(a, b) % p).tolist()


def _fixed_basis(mats, dim, p):
    """Basis of the row vectors v with v * a = v for every a in mats."""
    if not mats:
        return [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    stacked = [[(a[i][j] - (1 if i == j else 0)) % p
                for a in mats for j in range(dim)] for i in range(dim)]
    return left_nullspace_modp(stacked, p)


def _fixed_dim(m: GLattice, gens, p) -> int:
    """dim of the vectors of F_p M fixed by the element indices gens."""
    return len(_fixed_basis([m.act(s).data for s in gens], m.rank, p))


# ---------------------------------------------------------------------------
# cohomological triviality / projectivity
# ---------------------------------------------------------------------------

def is_cohomologically_trivial(m: GLattice) -> bool:
    """Vanishing of the Tate degrees 0 and -1 over Z at every Sylow
    subgroup.  Over F_p the test is is_projective_modp."""
    g = m.group
    for q in _prime_factors(g.order):
        syl = sylow(g, q)
        if not (tate(m, syl, 0).is_trivial()
                and tate(m, syl, -1).is_trivial()):
            return False
    return True


def is_projective_modp(m: GLattice, p: int) -> bool:
    """Projectivity of F_p M: its restriction to a Sylow p-subgroup P is
    free, that is, the rank is divisible by |P| and the norm map of P has
    rank rank/|P| (rank 1 on each free summand, 0 on every other
    indecomposable one).

    Over a p-group P an F_p[P]-module is cohomologically trivial exactly
    when it is free (Brown, Cohomology of Groups, GTM 87, VI.8), so this
    is also the cohomological-triviality test over F_p.
    """
    if m.rank == 0:
        return True
    syl = sylow(m.group, p)
    if m.rank % syl.order != 0:
        return False
    return rank_modp(norm_matrix(m, syl).data, p) == m.rank // syl.order


# ---------------------------------------------------------------------------
# permutation-module recognition over p-groups
# ---------------------------------------------------------------------------

def _candidate_multisets(columns, profile):
    """Every multiset of subgroup-class positions whose orbit counts meet
    the fixed-point dimensions: columns[q][h] is the number of orbits of
    class rep h on the cosets of class rep q, profile[h] the dimension of
    the h-fixed space, and the columns of a multiset must sum to profile.

    Positions come in ascending order, each as often as it repeats, and
    multisets in depth-first order, each position before its successors
    (the trivial subgroup, position 0, first).  Orbit counts are >= 0, so
    a partial sum that passes profile in some row has no completion and
    is pruned; row 0 (the trivial subgroup) counts points, at least one
    per column, so every branch ends.
    """
    chosen = []

    def rec(pos, partial):
        if partial == profile:
            yield tuple(chosen)
            return
        for q in range(pos, len(columns)):
            total = [s + c for s, c in zip(partial, columns[q])]
            if any(s > t for s, t in zip(total, profile)):
                continue
            chosen.append(q)
            yield from rec(q, total)
            chosen.pop()

    return rec(0, [0] * len(profile))


def _socle_transversal(spaces, p):
    """One vector from each of the m lists `spaces` of vectors in F_p^m
    such that the picks form a basis of F_p^m: the position picked in each
    list, or None when there is none.

    Matroid intersection of the linear matroid on all listed vectors with
    the partition matroid "at most one per list", grown along shortest
    augmenting paths (Schrijver, Combinatorial Optimization, ch. 41).
    When it stops short, some k lists span fewer than k dimensions
    (Rado's theorem), so no choice from the subspaces they span works
    either.
    """
    chosen = {}  # list -> picked position
    while len(chosen) < len(spaces):
        inside = list(chosen.items())
        outside = [(i, j) for i, s in enumerate(spaces)
                   for j in range(len(s)) if chosen.get(i) != j]
        # exchange coordinates: the picks reduce to unit columns, so
        # column k + c holds outside[c] in their coordinates (rows < k)
        k = len(inside)
        red, _ = _rref_modp(zip(*[spaces[i][j] for i, j in inside + outside]),
                            p)
        coords = {x: [row[k + c] for row in red]
                  for c, x in enumerate(outside)}
        # breadth first from the vectors outside the span of the picks: a
        # vector leads to the pick of its list, a pick to the vectors
        # with a nonzero coordinate on it
        prev = {x: None for x in outside if any(coords[x][k:])}
        queue = deque(prev)
        while queue:
            x = queue.popleft()
            if x in inside:
                nxt = [z for z in outside if coords[z][inside.index(x)]]
            elif x[0] in chosen:
                nxt = [(x[0], chosen[x[0]])]
            else:
                break  # x ends a shortest augmenting path
            for z in nxt:
                if z not in prev:
                    prev[z] = x
                    queue.append(z)
        else:
            return None
        while x is not None:  # swap the path's vectors for its picks
            if x not in inside:
                chosen[x[0]] = x[1]
            x = prev[x]
    return [chosen[i] for i in range(len(spaces))]


def _spread(m: GLattice, q: Subgroup, f, p):
    """Rows of the map F_p M -> F_p[G/Q] with column f at the base coset:
    column k is act(g_k^-1) f for the k-th coset representative g_k.

    Coset k of q.right_cosets is point k of coset_gset, and coset 0 is Q
    itself because the identity is element 0.
    """
    inv = m.group.inv
    cols = [[sum(x * y for x, y in zip(row, f)) % p
             for row in m.act(inv[g]).data]
            for g in q.right_cosets[0]]
    return [list(row) for row in zip(*cols)]


def is_permutation_modp(m: GLattice, p: int):
    """Recognize F_p M as a direct sum of coset permutation modules of
    m's p-group.  Returns (multiset of Subgroups, isomorphism matrix rows)
    or raises ProvablyNot.

    Every subgroup multiset that meets the fixed-point dimensions is a
    candidate, and each is decided on the socle (module docstring), so
    ProvablyNot means that F_p M is not a permutation module.
    """
    group = m.group
    assert all(q == p for q in _prime_factors(group.order)), "group must be a p-group"
    if m.rank == 0:
        return ([], [])
    reps = all_subgroups(group).representatives()
    # invariant data: fixed dims of F_p M under every class rep, and the
    # orbit counts |Q\G/H| of each rep H on each coset space of Q
    profile = [_fixed_dim(m, h.generators(), p) for h in reps]
    columns = [[len(dcs) for dcs in row] for row in double_coset_table(group)]
    socle = _fixed_basis([m.act(s).data for s in group.generator_indices],
                         m.rank, p)
    fixed = {}  # class position -> (base columns f, socle images)

    def fixed_at(pos):
        if pos not in fixed:
            cols = _fixed_basis([tuple(zip(*m.act(s).data))
                                 for s in reps[pos].generators()],
                                m.rank, p)
            fixed[pos] = (cols, [[sum(x * y for x, y in zip(v, f)) % p
                                  for v in socle] for f in cols])
        return fixed[pos]

    reason = "fixed-point dimensions rule out every candidate"
    for ms in _candidate_multisets(columns, profile):
        reason = "no candidate is injective on the socle"
        picks = _socle_transversal([fixed_at(pos)[1] for pos in ms], p)
        if picks is None:
            continue
        subs = [reps[pos] for pos in ms]
        blocks = [_spread(m, reps[pos], fixed_at(pos)[0][j], p)
                  for pos, j in zip(ms, picks)]
        found = [sum(rows, []) for rows in zip(*blocks)]
        assert _intertwines(m, perm_lattice(coset_gset_sum(group, subs)),
                            found, p)
        return (subs, found)
    raise ProvablyNot(reason)


def _intertwines(m: GLattice, c: GLattice, f, p) -> bool:
    """act_m(s) f = f act_c(s) mod p for every generator s."""
    return all(_mat_mul_modp(m.act(s).data, f, p)
               == _mat_mul_modp(f, c.act(s).data, p)
               for s in m.group.generator_indices)


# ---------------------------------------------------------------------------
# invertibility criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SylowPermutationWitness:
    """The lattice M restricted to a Sylow p-subgroup P is, mod p, the
    permutation module of the subgroups Q of P: `iso` holds the rows,
    entries in [0, p), of an isomorphism F_p(M|P) -> sum of F_p[P/Q].
    M|P lives over one standalone copy of P (sylow.as_group()), and the
    Q are subgroups of that copy."""
    prime: int
    sylow: Subgroup
    subgroups: tuple
    iso: tuple


@dataclass(frozen=True)
class Invertibility:
    """Outcome of the permutation-summand test on a lattice, truthy
    exactly when the lattice is invertible.

    Invertible: `witnesses` holds one SylowPermutationWitness per prime
    dividing |G|.  Not invertible: `obstruction` is the record
    {"prime", "sylow", "reason"} of the prime that rules it out.
    """
    lattice: GLattice
    witnesses: tuple = ()
    obstruction: dict = None

    def __bool__(self):
        return self.obstruction is None

    def verify(self) -> bool:
        """Re-check an invertible outcome from its witnesses alone: one
        witness per prime, each an equivariant isomorphism mod p onto
        the permutation module, and the rank equality at p = 2."""
        if self.obstruction is not None:
            return False
        primes = sorted(w.prime for w in self.witnesses)
        return (primes == _prime_factors(self.lattice.group.order)
                and all(_verify_sylow_witness(self.lattice, w)
                        for w in self.witnesses))


def _verify_sylow_witness(m: GLattice, w: SylowPermutationWitness) -> bool:
    g, p, syl = m.group, w.prime, w.sylow
    if (syl.parent is not g or g.closure_indices(syl.members) != syl.members
            or _prime_factors(syl.order) != [p]
            or (g.order // syl.order) % p == 0):
        return False
    sgrp = w.subgroups[0].parent if w.subgroups else syl.as_group()
    if (any(q.parent is not sgrp for q in w.subgroups)
            or set(sgrp.elements) != set(syl.matrices())):
        return False
    res = restrict(m, syl, hgroup=sgrp)
    if p == 2 and (fixed_sublattice(res, sgrp.full_subgroup()).rows
                   != _fixed_dim(res, sgrp.generator_indices, p)):
        return False
    cand = perm_lattice(coset_gset_sum(sgrp, w.subgroups))
    f = [list(row) for row in w.iso]
    if (cand.rank != res.rank or len(f) != res.rank
            or any(len(row) != cand.rank for row in f)):
        return False
    if res.rank == 0:
        return True
    return _is_invertible_modp(f, p) and _intertwines(res, cand, f, p)


def is_invertible(m: GLattice) -> Invertibility:
    """Permutation-summand test: F_p(m) must be Syl_p-permutation for each
    prime p | |G|, with the additional rank equality at p = 2.

    One pass over the primes: restrict to the Sylow p-subgroup and
    recognise a permutation module mod p.  Returns an Invertibility with
    the witnesses, or with the obstruction at the first prime that rules
    invertibility out; every prime is decided.
    """
    g = m.group
    witnesses = []
    for p in _prime_factors(g.order):
        syl = sylow(g, p)
        sgrp = syl.as_group()
        res = restrict(m, syl, hgroup=sgrp)
        if p == 2:
            qrank = fixed_sublattice(res, sgrp.full_subgroup()).rows
            frank = _fixed_dim(res, sgrp.generator_indices, p)
            if qrank != frank:
                return Invertibility(m, obstruction={
                    "prime": 2, "sylow": syl,
                    "reason": "fixed-point rank drops mod 2 "
                              "(%d over Z, %d over F_2)" % (qrank, frank)})
        try:
            subs, iso = is_permutation_modp(res, p)
        except ProvablyNot as e:
            return Invertibility(m, obstruction={"prime": p, "sylow": syl,
                                                 "reason": str(e)})
        witnesses.append(SylowPermutationWitness(
            p, syl, tuple(subs), tuple(tuple(row) for row in iso)))
    return Invertibility(m, tuple(witnesses))
