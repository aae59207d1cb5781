import json

from glattice.cli import run


def run_json(capsys, *argv):
    code = run(["--json", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_flasque_reports_checks(capsys):
    code, out = run_json(capsys, "flasque", "--group", "dade-2-2",
                         "--lattice", "std")
    assert code == 0
    res = out["results"]
    assert res["left_rank"] + res["flasque_rank"] == res["mid_rank"]
    # flasque: H^-1 vanishes on every subgroup class
    assert res["flasque_checks"]
    assert all(inv == [] for _order, inv in res["flasque_checks"])


def test_classify_json_carries_the_verdict_note(capsys):
    code, out = run_json(capsys, "classify", "--group", "z-4-33-2-1")
    assert code == 0
    verdict = out["results"]["verdict"]
    assert verdict["level"] == "RetractRational"
    assert verdict["note"] == "not stably rational (integral obstruction)"
