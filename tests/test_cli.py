import json
from importlib import resources

import pytest

from glattice.cli import EXPR_HEADS, run


def run_json(capsys, *argv):
    code = run(["--json", *argv])
    return code, json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# one run per subcommand
# ---------------------------------------------------------------------------

def test_group_show_and_subgroups(capsys):
    code, out = run_json(capsys, "group", "show", "dade-2-1")
    assert code == 0
    res = out["results"]
    assert (res["order"], res["rank"], res["center_order"]) == (8, 2, 2)
    assert not res["is_cyclic"] and not res["is_abelian"]
    assert res["normal_subgroup_orders"] == [1, 2, 4, 4, 4, 8]
    code, out = run_json(capsys, "group", "subgroups", "dade-2-1")
    assert code == 0
    assert out["results"]["count"] == len(out["results"]["classes"]) == 8


def test_cohomology_reports_invariants(capsys):
    code, out = run_json(capsys, "cohomology", "--group", "dade-2-1",
                         "--lattice", "Z", "--degree", "0")
    assert code == 0
    assert out["results"]["invariants"] == [8]
    assert out["inputs"]["degree"] == 0


def test_flasque_reports_checks(capsys):
    code, out = run_json(capsys, "flasque", "--group", "dade-2-2",
                         "--lattice", "std")
    assert code == 0
    res = out["results"]
    assert res["left_rank"] + res["flasque_rank"] == res["mid_rank"]
    # flasque: H^-1 vanishes on every subgroup class
    assert res["flasque_checks"]
    assert all(inv == [] for _order, inv in res["flasque_checks"])


def test_classify_reports_the_verdict(capsys):
    code, out = run_json(capsys, "classify", "--group", "dade-2-1")
    assert code == 0
    verdict = out["results"]["verdict"]
    assert verdict["level"] == "HereditarilyRational"
    assert verdict["certificate"] == ["sign_permutation_basis"]


def test_classify_json_carries_the_verdict_note(capsys):
    code, out = run_json(capsys, "classify", "--group", "z-4-33-2-1")
    assert code == 0
    verdict = out["results"]["verdict"]
    assert verdict["level"] == "RetractRational"
    assert verdict["note"] == "not stably rational (integral obstruction)"


def test_norm_one_decision_table(capsys):
    code, out = run_json(capsys, "norm-one", "--group", "dade-2-1",
                         "--stabilizer", "gens:[a]")
    assert code == 0
    res = out["results"]
    assert res["fallback"] is False
    assert res["verdict"]["level"] == "NotRetractRational"
    assert res["verdict"]["certificate"] == ["norm_one_shape",
                                             "nilpotent_non_galois"]


def test_census_dim2(capsys):
    code, out = run_json(capsys, "census", "--dim", "2")
    assert code == 0
    assert out["inputs"] == {"dim": 2, "roots": ["dade-2-1", "dade-2-2"],
                             "budget": 60000}
    res = out["results"]
    assert res["accepted"] is True
    assert res["count"] == len(res["classes"]) == 13


def test_catalog_validate(capsys):
    path = resources.files("glattice").joinpath("data/builtin.json")
    code, out = run_json(capsys, "catalog", "validate", str(path))
    assert code == 0
    assert out["results"] == {"entries": 32, "valid": True}


def test_verify_paper_census2(capsys):
    code, out = run_json(capsys, "verify-paper", "--case", "census-2")
    assert code == 0
    assert out["results"] == {"census-2": {"ok": True,
                                           "values": {"count": 13}}}


# ---------------------------------------------------------------------------
# lattice expressions
# ---------------------------------------------------------------------------

# (expression over dade-2-1, rank); dade-2-1 is generated by a (order 2),
# b (order 4) and c (order 2), and <b> is normal of index 2
GOOD_EXPRS = [
    ("std", 2),
    ("sum(Z,std)", 3),
    ("sign(gens:[b])", 1),
    ("perm(gens:[a])", 4),
    ("I(gens:[a])", 3),
    ("J(gens:[a])", 3),
    ("dual(std)", 2),
    ("tensor(std,std)", 4),
    ("ind(gens:[b],Z)", 2),
    ("res(gens:[b],std)", 2),
    ("inflate(gens:[b],std)", 2),
    ("named(rho,2)", 2),
    ("perm(gens:[a*b,c^-1])", 2),
    ("perm( gens:[ a*b , c^-1 ] )", 2),
    ("perm(trivial)", 8),
]


def test_expression_table_covers_every_head():
    heads = {e.split("(", 1)[0] for e, _r in GOOD_EXPRS}
    heads |= {"Z"}
    assert set(EXPR_HEADS) <= heads


@pytest.mark.parametrize("expr,rank", GOOD_EXPRS)
def test_lattice_expression_rank(capsys, expr, rank):
    code, out = run_json(capsys, "flasque", "--group", "dade-2-1",
                         "--lattice", expr)
    assert code == 0
    assert out["results"]["left_rank"] == rank


def test_catalog_name_subgroup(capsys):
    # z-3-4-5-2's generators are elements of dade-3-4
    code, out = run_json(capsys, "flasque", "--group", "dade-3-4",
                         "--lattice", "res(z-3-4-5-2,std)")
    assert code == 0
    assert out["results"]["left_rank"] == 3
    assert [o for o, _i in out["results"]["flasque_checks"]][-1] == 8


@pytest.mark.parametrize("expr", [
    "foo(std)",          # unknown head
    "foo",               # unknown bare head
    "sum(std)",          # wrong arity
    "dual(std,std)",     # wrong arity
    "std)",              # trailing input
    "std extra",         # trailing input
    "",                  # empty input
    "   ",               # empty input
    "perm(gens:[a",      # unterminated gens:[
    "dual(std",          # missing ')'
    "sum(std,,Z)",       # missing argument
    "perm(gens:[q])",    # no such generator
    "perm(nope)",        # unknown subgroup name
    "named(rho,x)",      # builder size is not an integer
    "perm(std)",         # lattice where a subgroup is expected
])
def test_bad_expression_is_an_input_error(capsys, expr):
    code, out = run_json(capsys, "cohomology", "--group", "dade-2-1",
                         "--lattice", expr, "--degree", "0")
    assert code == 2
    assert out["error"]


def test_sign_of_a_subgroup_that_is_not_index_two_normal(capsys):
    code, out = run_json(capsys, "classify", "--group", "dade-2-1",
                         "--lattice", "sign(trivial)")
    assert code == 2
    assert "index" in out["error"]
