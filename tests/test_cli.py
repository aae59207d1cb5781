import json
import time
from importlib import resources

import pytest

from glattice import catalog
from glattice.cli import EXPR_HEADS, resolve_subgroup, run


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


@pytest.mark.parametrize("expr", ["Z", "perm(full)"])
def test_flasque_of_rank_zero(capsys, expr):
    # P = Z[G/G] = M, so the flasque term is 0
    code, out = run_json(capsys, "flasque", "--group", "dade-2-1",
                         "--lattice", expr)
    assert code == 0
    res = out["results"]
    assert (res["left_rank"], res["mid_rank"], res["flasque_rank"]) == \
        (1, 1, 0)


@pytest.mark.parametrize("expr, subgroup, invariants", [
    ("named(rho,2)", None, [3]),
    ("res(gens:[b],std)", None, [2]),
    ("res(gens:[b],std)", "full", [2]),
    ("res(gens:[b],std)", "trivial", []),
])
def test_cohomology_over_the_lattice_group(capsys, expr, subgroup,
                                           invariants):
    # the lattice lives over another group than --group; the subgroup is
    # one of the lattice's group
    argv = ["cohomology", "--group", "dade-2-1", "--lattice", expr,
            "--degree", "-1"]
    code, out = run_json(capsys, *argv,
                         *(["--subgroup", subgroup] if subgroup else []))
    assert code == 0
    assert out["results"]["invariants"] == invariants


@pytest.mark.parametrize("subgroup", ["gens:[c]", "dade-2-1"])
def test_cohomology_subgroup_outside_the_lattice_group(capsys, subgroup):
    # the restricted group has no third generator, and dade-2-1 is not
    # inside it
    code, out = run_json(capsys, "cohomology", "--group", "dade-2-1",
                         "--lattice", "res(gens:[b],std)", "--degree", "0",
                         "--subgroup", subgroup)
    assert code == 2
    assert out["error"]


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


def test_classify_cites_the_rank_2_theorem(capsys):
    code, out = run_json(capsys, "classify", "--group", "dade-2-2")
    assert code == 0
    verdict = out["results"]["verdict"]
    assert verdict["level"] == "HereditarilyRational"
    assert verdict["certificate"] == ["voskresenskii_rank_2"]
    assert "Voskresenskii 1967" in verdict["note"]
    assert "not a witness" in verdict["note"]


def test_classify_assembles_a_basis_of_z_g_squared(capsys):
    # Z[G]^2 for |G| = 8, rank 16: the orbit-basis assembly stops after
    # a bounded number of tried extensions, so classify finishes
    code, out = run_json(capsys, "classify", "--group", "dade-2-1",
                         "--lattice", "ind(trivial,std)")
    assert code == 0
    assert out["results"]["verdict"]["level"] == "HereditarilyRational"


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


def test_verify_paper_census4(capsys, monkeypatch):
    # the full case takes several seconds; the dim-2 roots run
    # the same pipeline against their own class count
    monkeypatch.setattr(catalog, "DIM4_ROOTS", catalog.DIM2_ROOTS)
    code, out = run_json(capsys, "verify-paper", "--case", "census-4")
    assert code == 1
    assert out["results"] == {"census-4": {
        "ok": False, "values": {"count": 13, "undecided": 0}}}
    monkeypatch.setattr(catalog, "DIM4_CLASS_COUNT", 13)
    code, out = run_json(capsys, "verify-paper", "--case", "census-4")
    assert code == 0 and out["results"]["census-4"]["ok"] is True


def test_verify_paper_retract_seven_reverifies(capsys, monkeypatch):
    # the full case takes about half a minute; one retract-only entry and
    # one hereditarily rational entry exercise the per-entry record
    monkeypatch.setattr(catalog, "RETRACT_ONLY_NAMES",
                        ("z-4-33-2-1", "dade-2-1"))
    code, out = run_json(capsys, "verify-paper", "--case", "retract-seven")
    assert code == 1
    res = out["results"]["retract-seven"]
    assert res["ok"] is False
    good, bad = res["values"]["z-4-33-2-1"], res["values"]["dade-2-1"]
    assert (good["level"], good["verified"]) == ("RetractRational", True)
    assert (bad["level"], bad["verified"]) == ("HereditarilyRational", False)
    assert good["timing"] >= 0 and bad["timing"] >= 0


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
    # operands over the group their head needs
    ("ind(gens:[a],res(full,std))", 8),  # a copy of <a> will do for ind
    ("dual(named(rho,2))", 2),
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


@pytest.mark.parametrize("e, order", [(3 * 10 ** 9, 1),
                                      (-3 * 10 ** 9 - 1, 2)])
def test_generator_word_exponent_reduced_mod_the_order(e, order):
    # a has order 2 in dade-2-1; one table step per unit of e would take
    # minutes here
    g = catalog.entry("dade-2-1").group()
    t0 = time.perf_counter()
    h = resolve_subgroup(g, "gens:[a^%d]" % e)
    assert time.perf_counter() - t0 < 1
    assert h == resolve_subgroup(g, "gens:[a^%d]" % (e % 2))
    assert h.order == order


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
    # operands over another group than their head needs
    "sum(std,res(gens:[a],std))",       # res lives over <a>
    "tensor(std,named(rho,2))",         # named lives over its own group
    "sum(named(rho,2),named(rho,2))",   # two groups, neither the ambient
    "inflate(trivial,named(rho,3))",    # not over the quotient G/1
    "inflate(trivial,named(rho,2))",
    "inflate(full,named(rho,2))",       # not over the quotient G/G
    "ind(gens:[a],named(rho,2))",       # not over <a>
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


@pytest.mark.parametrize("expr, message", [
    ("inflate(gens:[a],std)", "not normal"),  # <a> is not normal
    ("named(rho,0)", "at least 1"),
    ("named(rho,-1)", "at least 1"),
    ("named(rho_dual,0)", "at least 1"),
    ("named(rho_sign,0)", "at least 1"),
    ("named(eta_B,-2)", "at least 1"),
])
def test_non_normal_subgroup_or_size_below_one_is_an_input_error(
        capsys, expr, message):
    code, out = run_json(capsys, "classify", "--group", "dade-2-1",
                         "--lattice", expr)
    assert code == 2
    assert message in out["error"]


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_census_budget_below_one_is_an_input_error(capsys, budget):
    code, out = run_json(capsys, "census", "--dim", "2", "--budget", budget)
    assert code == 2
    assert "at least 1" in out["error"]


@pytest.mark.parametrize("argv, message", [
    ([], "one of the arguments --dim --roots is required"),
    (["--dim", "2", "--roots", "dade-2-1"], "not allowed with"),
])
def test_census_takes_exactly_one_of_dim_and_roots(capsys, argv, message):
    assert run(["--json", "census", *argv]) == 2
    assert message in capsys.readouterr().err
