import hashlib
import json
import os
import subprocess
import sys

import pytest

from glattice import catalog, groups
from glattice.intlinalg import IntMat, unimodular_in_lattice
from glattice.catalog import (
    BUILDERS,
    DIM2_CLASS_COUNT,
    DIM2_ROOTS,
    DIM3_CLASS_COUNT,
    DIM3_HEREDITARY_ROOTS,
    DIM3_RATIONAL_COUNT,
    DIM3_ROOTS,
    CatalogError,
    UndecidedPairs,
    UnknownBuilder,
    builtin_catalog,
    census,
    cyclotomic_companion_matrix,
    cyclotomic_poly,
    entry,
    entry_by_gap_id,
    eta_matrix,
    eval_expr,
    load_catalog,
    named_lattice,
    parse_expr,
    perm_from_cycles,
    rho_dual_matrix,
    rho_matrix,
    verify_identifications,
)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_perm_from_cycles():
    assert perm_from_cycles(4, [(1, 2)]) == (1, 0, 2, 3)
    assert perm_from_cycles(4, [(1, 2, 3, 4)]) == (1, 2, 3, 0)
    assert perm_from_cycles(5, [(1, 2), (3, 4)]) == (1, 0, 3, 2, 4)


def test_rho_matrix_last_point():
    # the omitted point maps every basis vector through the all -1 row
    m = rho_matrix(perm_from_cycles(3, [(1, 2, 3)]))
    assert m.data == ((0, 1), (-1, -1))
    assert m * m * m == IntMat.identity(2)


def test_rho_is_a_homomorphism():
    a = perm_from_cycles(5, [(1, 2, 3)])
    b = perm_from_cycles(5, [(2, 5)])
    ab = tuple(b[a[i]] for i in range(5))
    assert rho_matrix(a) * rho_matrix(b) == rho_matrix(ab)


def test_rho_dual_is_contragredient():
    p = perm_from_cycles(4, [(1, 2, 3, 4)])
    assert rho_dual_matrix(p) == \
        rho_matrix(p).inverse_unimodular().transpose()


def test_eta_matrix_signs_follow_target():
    assert eta_matrix(2, (1, 2), (0, 1)).data == ((-1, 0), (0, -1))
    assert eta_matrix(2, (2,), (1, 0)).data == ((0, -1), (1, 0))


def test_cyclotomic_companion_orders():
    for m, deg in ((3, 2), (4, 2), (8, 4), (12, 4), (5, 4)):
        c = cyclotomic_companion_matrix(m)
        assert c.rows == deg
        g = named_lattice("cyclotomic_companion", m).group
        assert g.order == m if m % 2 == 0 else 2 * m  # -1 is a power iff even
    assert cyclotomic_companion_matrix(8).charpoly() == (1, 0, 0, 0, 1)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_poly_divisor_product():
    for m in range(1, 61):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = poly_mul(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (m - 1) + [1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]
    # 105 is the least m with a coefficient outside {-1, 0, 1}
    assert all(c in (-1, 0, 1) for m in range(1, 105)
               for c in cyclotomic_poly(m))
    assert -2 in cyclotomic_poly(105)


def test_named_lattice_orders():
    assert named_lattice("eta_B", 2).group.order == 8
    assert named_lattice("eta_B", 3).group.order == 48
    assert named_lattice("rho", 4).group.order == 120
    assert named_lattice("rho_sign", 4).group.order == 240
    assert named_lattice("rho_dual", 3).group.order == 24
    # aliases agree with the primary names
    assert named_lattice("weight_A", 3).group.order == \
        named_lattice("rho", 3).group.order


def test_unknown_builder():
    with pytest.raises(UnknownBuilder):
        named_lattice("nope", 3)
    assert "rho" in BUILDERS and "eta_B" in BUILDERS


# ---------------------------------------------------------------------------
# catalog loading and lookup
# ---------------------------------------------------------------------------

def test_builtin_catalog_loads():
    cat = builtin_catalog()
    assert len(cat) >= 30
    names = [e.name for e in cat]
    assert len(set(names)) == len(names)
    for e in cat:
        assert all(g.rows == e.rank for g in e.generators)


def test_entry_lookup():
    e = entry("dade-2-1")
    assert e.group().order == 8
    assert entry_by_gap_id((2, 3, 2, 1)) is e
    with pytest.raises(KeyError):
        entry("no-such-entry")
    with pytest.raises(KeyError):
        entry_by_gap_id((9, 9, 9, 9))


def test_catalog_group_orders():
    expect = {"dade-2-2": 12, "dade-3-2": 48, "dade-4-5": 288,
              "dade-4-8": 384, "dade-4-9": 1152, "z-4-33-2-1": 24,
              "z-4-31-1-3": 20}
    for name, order in expect.items():
        assert entry(name).group().order == order, name


def test_load_catalog_rejects_bad_documents():
    with pytest.raises(CatalogError):
        load_catalog("not json {")
    with pytest.raises(CatalogError):
        load_catalog('{"name": "x"}')  # not a list
    good = {"name": "t", "gap_id": None, "rank": 1,
            "generators": [[[1]]], "expected_lattice": None,
            "expected_verdict": None, "provenance": "test"}
    assert load_catalog(json.dumps([good]))[0].name == "t"
    bad = dict(good); del bad["provenance"]
    with pytest.raises(CatalogError):
        load_catalog(json.dumps([bad]))
    bad = dict(good, generators=[[[2]]])  # det 2
    with pytest.raises(CatalogError):
        load_catalog(json.dumps([bad]))
    bad = dict(good, generators=[[[1, 0]]])
    with pytest.raises(CatalogError):
        load_catalog(json.dumps([bad]))
    bad = dict(good, gap_id=[1, 2, 3])
    with pytest.raises(CatalogError):
        load_catalog(json.dumps([bad]))
    with pytest.raises(CatalogError):
        load_catalog(json.dumps([good, good]))  # duplicate name


# ---------------------------------------------------------------------------
# expected-lattice expressions
# ---------------------------------------------------------------------------

def test_parse_expr_trees():
    assert parse_expr("minus") == ("minus", ())
    head, args = parse_expr("sum(named(eta_B,2),minus)")
    assert head == "sum" and len(args) == 2
    assert args[0] == ("named", (("eta_B", ()), ("2", ())))


def test_parse_expr_errors():
    for bad in ("", "sum(", "sum(a,)", "f(a))", "(a)"):
        with pytest.raises(CatalogError):
            parse_expr(bad)


def test_eval_expr():
    lat = eval_expr(parse_expr("sum(named(eta_B,2),minus)"))
    assert lat.rank == 3 and lat.group.order == 16
    assert eval_expr(parse_expr("minus")).group.order == 2
    d = eval_expr(parse_expr("dual(entry(dade-3-3))"))
    assert d.group.order == 48
    w = eval_expr(parse_expr("wreath2(named(rho_sign_dual,2))"))
    assert w.rank == 4 and w.group.order == 288


# ---------------------------------------------------------------------------
# identification audit
# ---------------------------------------------------------------------------

def test_verify_identifications_all_pass():
    rep = verify_identifications()
    assert rep.ok(), rep.failures()
    statuses = {s for _n, s, _d in rep.results}
    assert "pass" in statuses
    # extension entries are checked structurally, not by conjugation
    detail = dict((n, d) for n, _s, d in rep.results)
    assert "non-split" in detail["z-4-25-7-5"]


def test_maximal_group_word_identities():
    # the seven transcribed rank-4 reflection generators satisfy the
    # defining words of the four simple reflections
    x = [None] + list(entry("dade-4-9").generators)
    inv = lambda m: m.inverse_unimodular()
    sa2 = x[5] * x[3] * inv(x[4]) * x[1]
    assert sa2.data == ((1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, -1, 2),
                        (0, 0, 0, 1))
    sa3 = x[2] * x[1]
    assert sa3.data == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                        (1, 1, 1, -1))
    sa4 = inv(x[6]) * inv(x[4]) * inv(x[3]) * x[2] * x[1]
    assert sa4.data == ((0, 0, 0, 1), (1, 1, 0, -1), (1, 0, 1, -1),
                        (1, 0, 0, 0))
    for s in (x[1], sa2, sa3, sa4):
        assert s * s == IntMat.identity(4)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def test_census_dim2():
    rep = census(DIM2_ROOTS)
    assert rep.count == DIM2_CLASS_COUNT == 13
    labels = rep.labels_by_root()
    assert set(labels) == set(DIM2_ROOTS)
    # every subgroup class got a label and the two roots share classes
    flat = [l for v in labels.values() for _i, l in v]
    assert len(set(flat)) == 13


def test_census_root_order_independent():
    a = census(DIM2_ROOTS)
    b = census(tuple(reversed(DIM2_ROOTS)))
    assert a.labels_by_root() == b.labels_by_root()


def test_census_dim3():
    rep = census(DIM3_ROOTS)
    assert rep.count == DIM3_CLASS_COUNT == 73


def test_census_dim3_conjugating_matrices_are_pinned(monkeypatch):
    # The first unimodular intertwiner found for each conjugacy test of
    # the dim-3 census, so that a change to the search order or to the
    # determinant screen shows.
    found = []

    def record(basis, bound):
        x = unimodular_in_lattice(basis, bound=bound)
        found.append(None if x is None else x.data)
        return x

    monkeypatch.setattr(groups, "unimodular_in_lattice", record)
    census(DIM3_ROOTS)
    assert len(found) == 25 and None not in found
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "4b478028711a42f99a1a53def68e9edc6f75a11eab10986621578cd23c65a014")


def test_census_dim3_rational_union():
    rep = census(DIM3_HEREDITARY_ROOTS)
    assert rep.count == DIM3_RATIONAL_COUNT == 58


def test_census_leaves_numpy_unloaded():
    # a fresh interpreter: the CLI's imports and the benchmark's census
    # roots run on Python integers alone
    script = (
        "import sys\n"
        "import glattice.cli\n"
        "from glattice import catalog\n"
        "counts = [catalog.census(roots).count for roots in (\n"
        "    catalog.DIM2_ROOTS, catalog.DIM3_ROOTS,\n"
        "    catalog.DIM3_HEREDITARY_ROOTS, ('dade-4-6',))]\n"
        "print(counts, 'numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[13, 73, 58, 52] False"


def test_census_tiny_budget_raises_undecided():
    with pytest.raises(UndecidedPairs) as exc:
        census(DIM3_ROOTS, budget=1)
    rep = exc.value.report
    assert rep.undecided_pairs
    assert rep.count >= DIM3_CLASS_COUNT  # unmerged pairs only add classes


def test_census_dim2_needs_no_conjugacy_search(monkeypatch):
    # in dimension 2 the fingerprints separate the Z-classes, and each
    # class with the fingerprint of an earlier one shares a subgroup with
    # it, so the census merges without a single search
    def fail(*args, **kwargs):
        raise AssertionError("glz_conjugate called")

    monkeypatch.setattr(catalog, "glz_conjugate", fail)
    assert census(DIM2_ROOTS, budget=1).count == DIM2_CLASS_COUNT == 13


@pytest.mark.parametrize("roots", [DIM3_ROOTS, DIM3_HEREDITARY_ROOTS])
def test_census_shared_subgroup_merges_are_conjugate(monkeypatch, roots):
    # every member after a record's founder joined it by a successful
    # search or through a shared subgroup; both kinds must be conjugate
    # to the representative
    searched = []

    def record(g1, g2, budget):
        x = groups.glz_conjugate(g1, g2, budget=budget)
        searched.append(x)
        return x

    monkeypatch.setattr(catalog, "glz_conjugate", record)
    rep = census(roots)
    joined = [(rec.representative, root, idx)
              for rec in rep.classes for root, idx in rec.members[1:]]
    assert len(joined) > len(searched)  # some merges skipped the search
    for r, root, idx in joined:
        cls = groups.all_subgroups(entry(root).group()).classes[idx]
        member = cls.representative.as_group()
        x = groups.glz_conjugate(r, member)
        xinv = x.inverse_unimodular()
        assert {x * m * xinv for m in r.elements} == set(member.elements)
