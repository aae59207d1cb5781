"""Ground-truth data for finite subgroups of GL_r(Z), r = 2, 3, 4.

This module carries three things:

* a catalog of generator sets for the interesting Z-classes (maximal
  finite subgroups and the handful of distinguished non-maximal ones),
  shipped as JSON and validated on load;
* named builders for the recurring families of integral representations
  (the J/I lattices of symmetric groups, their sign twists, signed
  permutation groups of type B, cyclotomic companion actions);
* the census pipeline: enumerate subgroup classes of a list of root
  groups and merge them into GL_r(Z)-conjugacy classes.

Conventions: matrices act on row vectors, so the i-th row of a generator
is the image of the i-th basis vector, and the represented composition
rule is act(ab) = act(a)act(b).
"""

import json
from dataclasses import dataclass, field
from importlib import resources

from .groups import (
    FiniteMatrixGroup,
    ProvablyDistinct,
    all_subgroups,
    closure,
    glz_conjugate,
)
from .intlinalg import BudgetExhausted, IntMat, solve_left
from .lattices import (
    GLattice,
    hom_basis,
    rho_matrix,
    std_lattice,
    subgroup_tate_profiles,
)


class UnknownBuilder(Exception):
    pass


class CatalogError(Exception):
    """Raised when a catalog file fails validation."""


class ParseError(CatalogError):
    """A lattice expression that does not parse or does not evaluate;
    `offset` is the position in the text, when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (at offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class UndecidedPairs(Exception):
    """Census rejected: some subgroup pairs neither merged nor separated.

    Carries the partial report; raise the budget and retry.
    """

    def __init__(self, report):
        super().__init__(
            "%d undecided pair(s) in census" % len(report.undecided_pairs))
        self.report = report


# ---------------------------------------------------------------------------
# permutations and the named representation families
# ---------------------------------------------------------------------------

def perm_from_cycles(n, cycles):
    """Permutation on {0,..,n-1} as an image tuple, from 1-based cycles."""
    img = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a - 1] = b - 1
    return tuple(img)


def rho_dual_matrix(perm):
    return rho_matrix(perm).inverse_unimodular().transpose()


def eta_matrix(n, flips, perm):
    """Signed permutation: e_i maps to -e_{perm(i)} when perm(i) in flips."""
    rows = []
    for i in range(n):
        j = perm[i]
        s = -1 if (j + 1) in flips else 1
        rows.append([s if k == j else 0 for k in range(n)])
    return IntMat(rows)


def cyclotomic_poly(m):
    """Integer coefficients c_0 .. c_d of the m-th cyclotomic polynomial:
    x^m - 1 divided exactly by Phi_d for every proper divisor d of m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d:
            continue
        den = cyclotomic_poly(d)  # monic
        k = len(den) - 1
        quot = [0] * (len(num) - k)
        for i in range(len(quot) - 1, -1, -1):
            quot[i] = q = num[i + k]
            for j, c in enumerate(den):
                num[i + j] -= q * c
        assert not any(num), "inexact division by Phi_%d" % d
        num = quot
    return num


def cyclotomic_companion_matrix(m):
    low = cyclotomic_poly(m)[:-1]  # c_0 .. c_{d-1}
    d = len(low)
    rows = []
    for i in range(d - 1):
        rows.append([1 if k == i + 1 else 0 for k in range(d)])
    rows.append([-c for c in low])
    return IntMat(rows)


def _sym_gens(n):
    """Transposition (12) and the full cycle on n+1 points."""
    pts = n + 1
    return [perm_from_cycles(pts, [(1, 2)]),
            perm_from_cycles(pts, [tuple(range(1, pts + 1))])]


def named_lattice(builder, n):
    """Build one of the stock lattices together with its matrix group;
    n >= 1 is the rank (the order of the cyclotomic companion)."""
    if n < 1:
        raise ValueError("named lattice size must be at least 1, got %d" % n)
    if builder in ("rho", "weight_A"):
        gens = [rho_matrix(p) for p in _sym_gens(n)]
        name = "J(X%d)" % (n + 1)
    elif builder in ("rho_dual", "root_A"):
        gens = [rho_dual_matrix(p) for p in _sym_gens(n)]
        name = "I(X%d)" % (n + 1)
    elif builder == "rho_sign":
        gens = [rho_matrix(p) for p in _sym_gens(n)]
        gens.append(IntMat.identity(n).scale(-1))
        name = "J(X%d)xsign" % (n + 1)
    elif builder == "rho_sign_dual":
        gens = [rho_dual_matrix(p) for p in _sym_gens(n)]
        gens.append(IntMat.identity(n).scale(-1))
        name = "I(X%d)xsign" % (n + 1)
    elif builder == "eta_B":
        gens = [eta_matrix(n, (1,), tuple(range(n)))]
        if n > 1:
            gens.append(eta_matrix(n, (), perm_from_cycles(n, [(1, 2)])))
            gens.append(eta_matrix(
                n, (), perm_from_cycles(n, [tuple(range(1, n + 1))])))
        name = "ZB%d" % n
    elif builder == "cyclotomic_companion":
        gens = [cyclotomic_companion_matrix(n)]
        name = "Z[w%d]" % n
    else:
        raise UnknownBuilder(builder)
    return std_lattice(closure(gens, name=name))


BUILDERS = ("rho", "rho_dual", "rho_sign", "rho_sign_dual", "eta_B",
            "cyclotomic_companion", "weight_A", "root_A")


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------

@dataclass
class CatalogEntry:
    name: str
    gap_id: tuple  # claimed external label; metadata only, never trusted
    rank: int
    generators: tuple  # of IntMat
    expected_lattice: str
    expected_verdict: str
    provenance: str
    _group: FiniteMatrixGroup = field(default=None, repr=False)

    def group(self) -> FiniteMatrixGroup:
        if self._group is None:
            self._group = closure(list(self.generators), name=self.name)
        return self._group

    def lattice(self) -> GLattice:
        return std_lattice(self.group())


def _validate_entry(raw):
    for key in ("name", "gap_id", "rank", "generators", "expected_lattice",
                "expected_verdict", "provenance"):
        if key not in raw:
            raise CatalogError("entry missing field %r" % key)
    rank = raw["rank"]
    gens = []
    for rows in raw["generators"]:
        m = IntMat(rows)
        if m.rows != rank or m.cols != rank:
            raise CatalogError(
                "%s: generator shape %dx%d does not match rank %d"
                % (raw["name"], m.rows, m.cols, rank))
        if not m.is_unimodular():
            raise CatalogError("%s: non-unimodular generator" % raw["name"])
        gens.append(m)
    gap_id = raw["gap_id"]
    if gap_id is not None:
        gap_id = tuple(int(v) for v in gap_id)
        if len(gap_id) != 4:
            raise CatalogError("%s: gap_id must have 4 parts" % raw["name"])
    if raw["expected_lattice"] is not None:
        parse_expr(raw["expected_lattice"])
    return CatalogEntry(raw["name"], gap_id, rank, tuple(gens),
                        raw["expected_lattice"], raw["expected_verdict"],
                        raw["provenance"])


def load_catalog(text) -> list:
    """Parse and validate a catalog JSON document (a list of entries)."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise CatalogError("invalid JSON: %s" % exc)
    if not isinstance(data, list):
        raise CatalogError("catalog document must be a JSON list")
    entries = [_validate_entry(raw) for raw in data]
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise CatalogError("duplicate entry names")
    return entries


_BUILTIN = None


def builtin_catalog() -> list:
    global _BUILTIN
    if _BUILTIN is None:
        text = resources.files("glattice").joinpath(
            "data/builtin.json").read_text("utf-8")
        _BUILTIN = load_catalog(text)
    return _BUILTIN


def entry(name) -> CatalogEntry:
    for e in builtin_catalog():
        if e.name == name:
            return e
    raise KeyError(name)


def entry_by_gap_id(gap_id) -> CatalogEntry:
    gap_id = tuple(gap_id)
    for e in builtin_catalog():
        if e.gap_id == gap_id:
            return e
    raise KeyError(gap_id)


# ---------------------------------------------------------------------------
# expected-lattice expressions
# ---------------------------------------------------------------------------

def parse_expr(text):
    """Parse a lattice expression into a tree of (head, args) tuples.

    The grammar, shared by catalog expectations and the ``glat``
    command line::

        expr  := token | token "(" expr ("," expr)* ")"
        token := ident | "gens:[" word ("," word)* "]"
        ident := one or more letters, digits, "_" or "-"

    Whitespace may separate tokens.  A leaf is (token, ()), so integers
    and names stay strings; a gens:[...] subgroup spec is one token with
    its whitespace removed.  The parser gives no meaning to heads or
    leaves: catalog.eval_expr and cli.eval_lattice_expr each check the
    heads, arities and leaf types they accept.  Raises ParseError.
    """
    pos = 0
    s = text

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def token():
        nonlocal pos
        skip_ws()
        start = pos
        if s.startswith("gens:", pos):
            end = s.find("]", pos)
            if end < 0:
                raise ParseError("unterminated gens:[...]", len(s))
            pos = end + 1
            spec = "".join(s[start:pos].split())
            if not spec.startswith("gens:["):
                raise ParseError("expected '[' after gens:", start)
            return spec
        while pos < len(s) and (s[pos].isalnum() or s[pos] in "_-"):
            pos += 1
        if pos == start:
            raise ParseError("expected identifier", start)
        return s[start:pos]

    def node():
        nonlocal pos
        head = token()
        skip_ws()
        if pos < len(s) and s[pos] == "(":
            pos += 1
            args = [node()]
            skip_ws()
            while pos < len(s) and s[pos] == ",":
                pos += 1
                args.append(node())
                skip_ws()
            if pos >= len(s) or s[pos] != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            return (head, tuple(args))
        return (head, ())

    tree = node()
    skip_ws()
    if pos != len(s):
        raise ParseError("trailing input", pos)
    return tree


def eval_expr(tree) -> GLattice:
    """Evaluate an expected-lattice expression to a concrete lattice."""
    head, args = tree
    if head == "named":
        builder = args[0][0]
        n = int(args[1][0])
        return named_lattice(builder, n)
    if head == "minus":
        return std_lattice(closure([IntMat([[-1]])], name="Z-"))
    if head == "entry":
        return entry(args[0][0]).lattice()
    if head == "dual":
        inner = eval_expr(args[0])
        gens = [inner.group.elements[i].transpose()
                for i in inner.group.generator_indices]
        return std_lattice(closure(gens))
    if head == "sum":
        left = eval_expr(args[0])
        right = eval_expr(args[1])
        gens = [left.group.elements[i].block_diag(
                    IntMat.identity(right.rank))
                for i in left.group.generator_indices]
        gens += [IntMat.identity(left.rank).block_diag(
                     right.group.elements[i])
                 for i in right.group.generator_indices]
        return std_lattice(closure(gens))
    if head == "wreath2":
        inner = eval_expr(args[0])
        r = inner.rank
        gens = []
        for i in inner.group.generator_indices:
            g = inner.group.elements[i]
            gens.append(g.block_diag(IntMat.identity(r)))
            gens.append(IntMat.identity(r).block_diag(g))
        swap = IntMat([[1 if j == (i + r) % (2 * r) else 0
                        for j in range(2 * r)] for i in range(2 * r)])
        gens.append(swap)
        return std_lattice(closure(gens))
    if head == "extension":
        raise CatalogError(
            "extension(...) describes structure, not a concrete lattice")
    raise CatalogError("unknown expression head %r" % head)


# ---------------------------------------------------------------------------
# identification checks
# ---------------------------------------------------------------------------

# glz_conjugate budget of each conjugacy check
_IDENTIFY_BUDGET = 60000


@dataclass
class IdentificationReport:
    results: list  # of (name, status, detail); status in pass/fail/unknown

    def ok(self):
        return all(status != "fail" for _n, status, _d in self.results)

    def failures(self):
        return [r for r in self.results if r[1] == "fail"]


def _split_form(gens, r):
    """Locate a coordinate-aligned corank-1 stable sublattice.

    Returns (sub coordinate indices, quotient coordinate index); the
    sublattice may sit in the trailing or the leading coordinates.
    """
    if all(g.data[i][0] == 0 for g in gens for i in range(1, r)):
        return list(range(1, r)), 0
    if all(g.data[i][r - 1] == 0 for g in gens for i in range(r - 1)):
        return list(range(r - 1)), r - 1
    return None, None


def _check_extension(e, tree):
    """Check 0 -> sub -> M -> (rank-1) -> 0 structure of an entry.

    The claimed sub-action and the rank-1 quotient character are
    verified, and the extension is certified non-split by showing no
    equivariant retraction onto the sublattice exists.
    """
    sub_expr, quot = tree[1]
    r = e.rank
    sub_idx, quot_idx = _split_form(e.generators, r)
    if sub_idx is None:
        return "fail", "no coordinate-aligned corank-1 stable sublattice"
    sub_gens = [g.submatrix(sub_idx, sub_idx) for g in e.generators]
    chars = [g.data[quot_idx][quot_idx] for g in e.generators]
    if any(c not in (1, -1) for c in chars):
        return "fail", "quotient is not a rank-1 lattice"
    if quot[0] == "trivial" and any(c == -1 for c in chars):
        return "fail", "quotient character is not trivial"
    if quot[0] == "minus" and all(c == 1 for c in chars):
        return "fail", "quotient character is trivial"
    expected = eval_expr(sub_expr)
    sub_group = closure(sub_gens)
    try:
        glz_conjugate(sub_group, expected.group, budget=_IDENTIFY_BUDGET)
    except ProvablyDistinct as exc:
        return "fail", "sub-action mismatch: %s" % exc
    except BudgetExhausted:
        return "unknown", "sub-action conjugacy undecided"
    # non-splitness: no equivariant M -> sub restricting to the identity
    whole = e.lattice()
    sub = GLattice(whole.group,
                   [m.submatrix(sub_idx, sub_idx) for m in whole.action])
    basis = hom_basis(whole, sub)
    if not basis:
        return "pass", "non-split (no equivariant maps at all)"
    # solve: some integer combination restricts to the identity on sub
    rows = [[b.data[i][j] for i in sub_idx for j in range(r - 1)]
            for b in basis]
    target = [[1 if i == j else 0 for i in range(r - 1)
               for j in range(r - 1)]]
    if solve_left(IntMat(rows), IntMat(target)) is not None:
        return "fail", "extension splits: retraction found"
    return "pass", "structure verified, extension non-split"


def verify_identifications() -> IdentificationReport:
    """Check every catalog entry with an expectation against that
    expectation."""
    results = []
    for e in builtin_catalog():
        if e.expected_lattice is None:
            results.append((e.name, "skip", "no expectation recorded"))
            continue
        tree = parse_expr(e.expected_lattice)
        if tree[0] == "extension":
            status, detail = _check_extension(e, tree)
        else:
            expected = eval_expr(tree)
            try:
                witness = glz_conjugate(e.group(), expected.group,
                                        budget=_IDENTIFY_BUDGET)
                status, detail = "pass", "conjugate (witness found)"
                del witness
            except ProvablyDistinct as exc:
                status, detail = "fail", str(exc)
            except BudgetExhausted as exc:
                status, detail = "unknown", str(exc)
        results.append((e.name, status, detail))
    return IdentificationReport(results)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

@dataclass
class ZClassRecord:
    label: str
    representative: FiniteMatrixGroup
    members: list  # of (root_name, subgroup_class_index)
    fingerprint: tuple


@dataclass
class CensusReport:
    roots: list
    classes: list
    undecided_pairs: list

    @property
    def count(self):
        return len(self.classes)

    def labels_by_root(self):
        out = {}
        for rec in self.classes:
            for root, idx in rec.members:
                out.setdefault(root, []).append((idx, rec.label))
        return out


def _canon_key(matrices):
    return tuple(sorted(m.data for m in matrices))


def census(roots, budget=60000) -> CensusReport:
    """Merge the subgroup classes of the root groups into Z-classes.

    Membership of two subgroups in the same Z-class is decided by
    glz_conjugate; candidates are pre-bucketed on a fingerprint of
    conjugation invariants, so only plausible pairs are compared: rank,
    order, the multiset of (element order, characteristic polynomial) and
    the Tate profile of the defining lattice (charpolys alone do not
    separate e.g. the two reflection classes in GL_2(Z)).  The profiles
    of all subgroup classes of a root come from one Tate table of the
    root.  Raises UndecidedPairs when any comparison exhausts its budget.

    Before any search, a class is merged through a shared subgroup.  Every
    member set in a class's conjugation orbit is a root-conjugate of its
    representative, so when the same set of matrices lies in the orbits
    of two classes, g1 S1 g1^-1 = g2 S2 g2^-1 with g1, g2 in GL_r(Z) and
    the two representatives are Z-conjugate.  Each matrix of the roots
    gets one census-wide id and each orbit member set the bitmask of its
    ids; the keys of every class that joins or founds a record point to
    that record, and a class with a known key joins it.  When no pair is
    undecided the records are pairwise not Z-conjugate, so this is the
    record the search would have found.
    """
    reps = []
    ids = {}  # matrix -> census-wide id
    roots = [entry(e) if isinstance(e, str) else e for e in roots]
    for e in roots:
        g = e.group()
        bits = [1 << ids.setdefault(m, len(ids)) for m in g.elements]
        orders, charpolys = g.element_orders, g.charpolys
        profiles = subgroup_tate_profiles(std_lattice(g))
        for idx, cls in enumerate(all_subgroups(g).classes):
            h = cls.representative
            by_elt = sorted((orders[i], charpolys[i]) for i in h.members)
            fp = (g.rank, h.order, tuple(by_elt), profiles[idx])
            keys = [sum(bits[i] for i in m) for m in cls.orbit]
            reps.append((fp, _canon_key(h.matrices()), e.name, idx, h, keys))
    # canonical processing order makes the census root-order independent
    reps.sort(key=lambda t: t[:4])

    buckets = {}
    owner = {}  # orbit key -> the record its class joined or founded
    undecided = []
    classes = []  # parallel to records below
    for fp, _key, root, idx, h, keys in reps:
        rec = next((owner[k] for k in keys if k in owner), None)
        if rec is not None:
            assert rec.fingerprint == fp
        else:
            sub = h.as_group()
            for rec in buckets.setdefault(fp, []):
                try:
                    glz_conjugate(rec.representative, sub, budget=budget)
                    break
                except ProvablyDistinct:
                    continue
                except BudgetExhausted:
                    undecided.append(((rec.members[0], (root, idx)), fp))
                    continue
            else:
                rec = ZClassRecord("", sub, [], fp)
                buckets[fp].append(rec)
                classes.append(rec)
        rec.members.append((root, idx))
        for k in keys:
            owner.setdefault(k, rec)
    classes.sort(key=lambda r: (r.fingerprint,
                                _canon_key(r.representative.elements)))
    for i, rec in enumerate(classes):
        rec.label = "Z%d-%03d" % (rec.representative.rank, i + 1)
    report = CensusReport([e.name for e in roots], classes, undecided)
    if undecided:
        raise UndecidedPairs(report)
    return report


# ---------------------------------------------------------------------------
# expected-count constants and distinguished ID lists
# ---------------------------------------------------------------------------

DIM2_CLASS_COUNT = 13
DIM3_CLASS_COUNT = 73
DIM3_RATIONAL_COUNT = 58
DIM4_CLASS_COUNT = 710
DIM4_STABLY_RATIONAL_COUNT = 487
DIM4_HEREDITARY_UNION_COUNT = 477

DIM2_ROOTS = ("dade-2-1", "dade-2-2")
DIM3_ROOTS = ("dade-3-1", "dade-3-2", "dade-3-3", "dade-3-4")
DIM3_HEREDITARY_ROOTS = ("dade-3-1", "dade-3-2", "z-3-7-4-3", "z-3-4-5-2")
DIM4_ROOTS = tuple("dade-4-%d" % k for k in range(1, 10))
DIM4_HEREDITARY_ROOTS = (
    "dade-4-1", "dade-4-5", "dade-4-6", "dade-4-8",
    "z-4-25-9-2", "z-4-13-6-4", "z-4-25-7-5", "z-4-24-3-4")

# subgroup classes of the two stably-rational-but-not-hereditary roots
# that fall outside the hereditary union
EXCEPTIONAL_GAP_IDS = (
    (4, 6, 2, 11), (4, 12, 4, 13), (4, 13, 2, 6), (4, 13, 3, 6),
    (4, 13, 7, 12), (4, 24, 4, 6), (4, 25, 4, 5), (4, 25, 8, 5),
    (4, 31, 3, 2), (4, 31, 6, 2))

# retract-rational but not stably rational
RETRACT_ONLY_GAP_IDS = (
    (4, 31, 1, 3), (4, 31, 1, 4), (4, 31, 2, 2), (4, 31, 4, 2),
    (4, 31, 5, 2), (4, 31, 7, 2), (4, 33, 2, 1))
RETRACT_ONLY_NAMES = (
    "z-4-31-1-3", "z-4-31-1-4", "z-4-31-2-2", "z-4-31-4-2",
    "z-4-31-5-2", "dade-4-7", "z-4-33-2-1")
