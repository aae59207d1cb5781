"""Command-line surface: ``glat``.

Subcommands wrap the library for interactive use and scripted
pipelines; ``--json`` switches every report to deterministic JSON on
stdout (identical inputs give identical output minus the timing
fields).  Exit codes: 0 success, 1 "unknown/undecided" verdict,
2 input error.

Lattice expressions (``--lattice``) follow the grammar documented at
catalog.parse_expr, with heads std, Z, sign(H), perm(H), I(H), J(H),
dual(e), sum(e,e), tensor(e,e), ind(H,e), res(H,e), inflate(N,e) and
named(builder,n).  A subgroup argument H or N is ``trivial``, ``full``,
a catalog entry name, or ``gens:[word,...]`` with words in the letters
a,b,c,... naming the ambient group's generators in catalog order
(e.g. ``gens:[a*b,c^-1]``).
"""

import argparse
import json
import sys
import time

from . import __version__
from .groups import (
    OrderCapExceeded,
    Subgroup,
    all_subgroups,
    structure_probe,
)
from .intlinalg import BudgetExhausted
from .lattices import (
    NotIndexTwoNormal,
    aug_ideal,
    coset_gset,
    coset_lattice,
    dual,
    direct_sum,
    induce,
    inflate,
    j_lattice,
    quotient_group,
    restrict,
    sign_lattice,
    std_lattice,
    tate,
    tensor,
    trivial_lattice,
)
from .homology import (
    flasque_resolution,
    stably_permutation_obstruction,
    verify_exact,
)
from .rationality import (
    UNKNOWN,
    NormOneSpec,
    UnrecognizedShape,
    classify,
    hereditary_closure,
    norm_one_classify,
)
from . import catalog as _catalog
from .catalog import (
    CatalogError,
    ParseError,
    UndecidedPairs,
    UnknownBuilder,
    census,
    entry,
    load_catalog,
    named_lattice,
    parse_expr,
)


# ---------------------------------------------------------------------------
# lattice expressions
# ---------------------------------------------------------------------------

# head -> number of arguments
EXPR_HEADS = {
    "std": 0, "Z": 0, "sign": 1, "perm": 1, "I": 1, "J": 1,
    "dual": 1, "sum": 2, "tensor": 2, "ind": 2, "res": 2,
    "inflate": 2, "named": 2,
}

def _word_to_index(g, word):
    """Evaluate a generator word like 'a*b^-1*c' to an element index."""
    idx = 0  # identity
    gens = g.generator_indices
    for factor in word.split("*"):
        if not factor:
            raise ParseError("empty factor in word %r" % word)
        base, _, exp = factor.partition("^")
        if len(base) != 1 or not ("a" <= base <= "z"):
            raise ParseError("bad generator letter %r" % base)
        k = ord(base) - ord("a")
        if k >= len(gens):
            raise ParseError("group has no generator %r" % base)
        e = int(exp) if exp else 1
        x = gens[k]
        for _ in range(e % g.element_orders[x]):
            idx = g.table[idx][x]
    return idx


def resolve_subgroup(g, spec):
    """Subgroup of g from a spec: 'trivial', 'full', 'gens:[...]' with
    words in letters a,b,c,... (catalog generator order), or a catalog
    entry name whose generators are elements of g."""
    if spec in ("trivial", "1"):
        return g.trivial_subgroup()
    if spec in ("full", "G"):
        return g.full_subgroup()
    if spec.startswith("gens:"):
        body = spec[len("gens:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError("expected gens:[...]")
        words = [w for w in body[1:-1].split(",") if w]
        return Subgroup(g, g.closure_indices(
            [_word_to_index(g, w) for w in words]))
    e = entry(spec)  # raises KeyError for unknown names
    idx = []
    for m in e.generators:
        if m not in g.index:
            raise CatalogError(
                "generators of %r are not elements of the ambient group"
                % spec)
        idx.append(g.index[m])
    return Subgroup(g, g.closure_indices(idx))


def _leaf(arg, what):
    """The token of a leaf argument; ParseError when arg has arguments."""
    if arg[1]:
        raise ParseError("expected %s, got %s(...)" % (what, arg[0]))
    return arg[0]


def eval_lattice_expr(tree, g):
    """Evaluate a parse_expr tree against the ambient group g, checking
    each head, its arity and that each operand lives over the group the
    head needs (g, the subgroup for ind, the quotient for inflate) on the
    way; raises ParseError."""
    head, args = tree
    if head not in EXPR_HEADS:
        raise ParseError("unknown head %r" % head)
    if EXPR_HEADS[head] != len(args):
        raise ParseError("%s takes %d argument(s)" % (head, EXPR_HEADS[head]))

    def sub(a):
        return resolve_subgroup(g, _leaf(a, "a subgroup"))

    def over(a, group):
        lat = eval_lattice_expr(a, group)
        # induce looks the subgroup's matrices up, so a copy of it will do
        if not (lat.group is group or head == "ind"
                and set(lat.group.elements) == set(group.elements)):
            raise ParseError("operand %r of %s is not a lattice over the "
                             "order-%d group it needs"
                             % (a[0], head, group.order))
        return lat

    if head == "std":
        return std_lattice(g)
    if head == "Z":
        return trivial_lattice(g)
    if head == "sign":
        return sign_lattice(g, sub(args[0]))
    if head == "perm":
        return coset_lattice(g, sub(args[0]))
    if head == "I":
        return aug_ideal(coset_gset(g, sub(args[0])))
    if head == "J":
        return j_lattice(coset_gset(g, sub(args[0])))
    if head == "dual":
        return dual(eval_lattice_expr(args[0], g))
    if head == "sum":
        return direct_sum(over(args[0], g), over(args[1], g))
    if head == "tensor":
        return tensor(over(args[0], g), over(args[1], g))
    if head == "ind":
        h = sub(args[0])
        return induce(h, over(args[1], h.as_group()))
    if head == "res":
        h = sub(args[0])
        return restrict(over(args[1], g), h)
    if head == "inflate":
        n = sub(args[0])
        q, proj = quotient_group(g, n)
        return inflate(g, proj, over(args[1], q))
    # named
    size = _leaf(args[1], "an integer size")
    if not size.lstrip("-").isdigit():
        raise ParseError("expected an integer size, got %r" % size)
    return named_lattice(_leaf(args[0], "a builder name"), int(size))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _invariants(inv):
    return list(inv.factors) if hasattr(inv, "factors") else inv


def _verdict_dict(v):
    return {"level": v.level,
            "certificate": [s.kind for s in v.certificate],
            "note": v.notes}


class Reporter:
    def __init__(self, argv, as_json):
        self.report = {"command": list(argv), "version": __version__,
                       "inputs": {}, "results": {}}
        self.as_json = as_json
        self.t0 = time.time()

    def line(self, text):
        if not self.as_json:
            print(text)

    def emit(self):
        self.report["timing"] = round(time.time() - self.t0, 3)
        if self.as_json:
            print(json.dumps(self.report, sort_keys=True, indent=1,
                             default=str))


def _ambient(name):
    return entry(name).group()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_group(args, rep):
    g = _ambient(args.name)
    if args.action == "show":
        probe = structure_probe(g)
        rep.report["results"] = {
            "name": args.name, "order": probe.order, "rank": g.rank,
            "is_cyclic": probe.is_cyclic, "is_abelian": probe.is_abelian,
            "sylows_all_cyclic": probe.sylows_all_cyclic,
            "center_order": probe.center.order,
            "normal_subgroup_orders":
                sorted(h.order for h in probe.normal_subgroups)}
        for k, v in sorted(rep.report["results"].items()):
            rep.line("%s: %s" % (k, v))
        return 0
    # subgroups
    classes = all_subgroups(g).classes
    out = []
    for i, cls in enumerate(classes):
        out.append({"index": i, "order": cls.representative.order,
                    "class_size": cls.size})
        rep.line("class %d: order %d, %d conjugate(s)"
                 % (i, cls.representative.order, cls.size))
    rep.report["results"] = {"name": args.name, "classes": out,
                             "count": len(out)}
    rep.line("total: %d subgroup classes" % len(out))
    return 0


def cmd_cohomology(args, rep):
    g = _ambient(args.group)
    lat = eval_lattice_expr(parse_expr(args.lattice), g)
    # res(...) and named(...) give a lattice over another group than g
    h = resolve_subgroup(lat.group, args.subgroup or "full")
    inv = tate(lat, h, args.degree)
    rep.report["inputs"] = {"group": args.group, "lattice": args.lattice,
                            "subgroup": args.subgroup, "degree": args.degree}
    rep.report["results"] = {"invariants": _invariants(inv)}
    rep.line("H^%d = %s" % (args.degree,
                            _invariants(inv) or "0"))
    return 0


def cmd_flasque(args, rep):
    g = _ambient(args.group)
    lat = eval_lattice_expr(parse_expr(args.lattice), g)
    fl = flasque_resolution(lat)
    cert = fl.cert
    rep.report["inputs"] = {"group": args.group, "lattice": args.lattice}
    rep.report["results"] = {
        "left_rank": cert.left.rank, "mid_rank": cert.mid.rank,
        "flasque_rank": cert.right.rank,
        "mid_parts": [h.order for h in (cert.mid_parts or ())],
        "flasque_checks": [[o, _invariants(i)] for o, i in fl.flasque_check]}
    rep.line("0 -> M(%d) -> P(%d) -> F(%d) -> 0"
             % (cert.left.rank, cert.mid.rank, cert.right.rank))
    rep.line("flasque condition verified on %d subgroup classes"
             % len(fl.flasque_check))
    return 0


def cmd_classify(args, rep):
    g = _ambient(args.group)
    lat = eval_lattice_expr(parse_expr(args.lattice), g) \
        if args.lattice else entry(args.group).lattice()
    rep.report["inputs"] = {"group": args.group, "lattice": args.lattice,
                            "hereditary": args.hereditary}
    if args.hereditary:
        hr = hereditary_closure(lat)
        rep.report["results"] = {
            "verdict": _verdict_dict(hr.top),
            "subgroups": [[h.order, v.level] for h, v in hr.entries]}
        rep.line("verdict: %s" % hr.top.level)
        v = hr.top
    else:
        v = classify(lat)
        rep.report["results"] = {"verdict": _verdict_dict(v)}
        rep.line("verdict: %s" % v.level)
        for s in v.certificate:
            rep.line("  via %s" % s.kind)
    return 1 if v.level == UNKNOWN else 0


def cmd_norm_one(args, rep):
    g = _ambient(args.group)
    h = resolve_subgroup(g, args.stabilizer)
    rep.report["inputs"] = {"group": args.group,
                            "stabilizer": args.stabilizer}
    spec = NormOneSpec(g, h)
    try:
        v = norm_one_classify(spec)
        rep.report["results"] = {"verdict": _verdict_dict(v),
                                 "fallback": False}
    except UnrecognizedShape as exc:
        rep.line("no structural branch (%s); classifying the character "
                 "lattice directly" % exc)
        v = classify(spec.lattice())
        rep.report["results"] = {"verdict": _verdict_dict(v),
                                 "fallback": True}
    rep.line("verdict: %s" % v.level)
    return 1 if v.level == UNKNOWN else 0


DIM_ROOTS = {2: _catalog.DIM2_ROOTS, 3: _catalog.DIM3_ROOTS,
             4: _catalog.DIM4_ROOTS}


def cmd_census(args, rep):
    roots = DIM_ROOTS[args.dim] if args.dim else tuple(args.roots.split(","))
    rep.report["inputs"] = {"dim": args.dim, "roots": list(roots),
                            "budget": args.budget}
    if args.budget < 1:
        raise ValueError("--budget must be at least 1, got %d" % args.budget)
    try:
        out = census(roots, budget=args.budget)
    except UndecidedPairs as exc:
        out = exc.report
        rep.report["results"] = {
            "count": out.count, "accepted": False,
            "undecided": [[list(a), list(b)]
                          for (a, b), _fp in out.undecided_pairs]}
        rep.line("census UNDECIDED: %d pair(s) exhausted the budget; "
                 "%d classes so far" % (len(out.undecided_pairs), out.count))
        return 1
    rep.report["results"] = {
        "count": out.count, "accepted": True,
        "classes": [{"label": c.label, "order": c.representative.order,
                     "members": [list(m) for m in c.members]}
                    for c in out.classes]}
    rep.line("census: %d Z-classes from %d root(s)"
             % (out.count, len(roots)))
    return 0


def cmd_catalog(args, rep):
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    entries = load_catalog(text)
    rep.report["results"] = {"entries": len(entries), "valid": True}
    rep.line("%s: %d entries, all valid" % (args.file, len(entries)))
    return 0


# --- verify: golden result driver ----------------------------------------

def _case_census2(rep):
    out = census(_catalog.DIM2_ROOTS)
    ok = out.count == _catalog.DIM2_CLASS_COUNT
    rep.line("dim-2 census: %d classes (want %d)"
             % (out.count, _catalog.DIM2_CLASS_COUNT))
    return ok, {"count": out.count}


def _case_census3(rep):
    out = census(_catalog.DIM3_ROOTS)
    hered = census(_catalog.DIM3_HEREDITARY_ROOTS)
    ok = out.count == _catalog.DIM3_CLASS_COUNT and \
        hered.count == _catalog.DIM3_RATIONAL_COUNT
    rep.line("dim-3 census: %d classes, %d rational"
             % (out.count, hered.count))
    return ok, {"count": out.count, "rational": hered.count}


def _case_census4(rep):
    """710 Z-classes in dimension 4, no undecided pair (about 6-9 s)."""
    try:
        out = census(_catalog.DIM4_ROOTS)
    except UndecidedPairs as exc:
        out = exc.report
    undecided = len(out.undecided_pairs)
    ok = out.count == _catalog.DIM4_CLASS_COUNT and not undecided
    rep.line("dim-4 census: %d classes (want %d), %d undecided pair(s)"
             % (out.count, _catalog.DIM4_CLASS_COUNT, undecided))
    return ok, {"count": out.count, "undecided": undecided}


def _case_4_33_2_1(rep):
    e = entry("z-4-33-2-1")
    g = e.group()
    lat = e.lattice()
    probe = structure_probe(g)
    center = probe.center
    center_cyclic = 4 in {g.element_orders[i] for i in center.members}
    vals = {"order": g.order, "center_order": center.order,
            "center_cyclic": center_cyclic}
    classes = all_subgroups(g).classes
    h3 = next(c.representative for c in classes
              if c.representative.order == 3)
    c8_classes = [c for c in classes
                  if c.representative.order == 8
                  and any(g.element_orders[i] == 8
                          for i in c.representative.members)]
    vals["c8_classes"] = [c.size for c in c8_classes]
    h8 = c8_classes[0].representative
    vals["H1_H3"] = _invariants(tate(lat, h3, 1))
    vals["H1_H8"] = _invariants(tate(lat, h8, 1))
    vals["H1_G"] = _invariants(tate(lat, g.full_subgroup(), 1))
    fl = flasque_resolution(lat)
    w = stably_permutation_obstruction(fl.cert.right)
    vals["obstruction"] = w is not None
    v = classify(lat)
    vals["verdict"] = v.level
    ok = (g.order == 24 and center.order == 4 and center_cyclic
          and vals["c8_classes"] == [3]
          and vals["H1_H3"] == [3, 3] and vals["H1_H8"] == [2]
          and vals["H1_G"] == []
          and w is not None and v.level == "RetractRational")
    rep.line("[4,33,2,1]: retract yes, stably no (obstruction witness %s)"
             % ("found" if w is not None else "missing"))
    return ok, vals


def _case_retract_seven(rep):
    """Each entry must be RetractRational with every certificate
    re-verified: the obstruction to stable rationality, the mod-p
    invertibility witnesses and the exactness of the flasque resolution."""
    ok = True
    vals = {}
    for name in _catalog.RETRACT_ONLY_NAMES:
        t0 = time.time()
        v = classify(entry(name).lattice())
        steps = {s.kind: s.data for s in v.certificate}
        obstruction = steps.get("stably_permutation_obstruction", {})
        invertible = steps.get("flasque_invertible")
        verified = (v.level == "RetractRational"
                    and obstruction.get("witness") is not None
                    and obstruction["witness"].verify()
                    and invertible["witness"].verify()
                    and verify_exact(invertible["resolution"].cert))
        vals[name] = {"level": v.level, "verified": verified,
                      "timing": round(time.time() - t0, 3)}
        ok = ok and verified
        rep.line("%s: %s%s" % (name, v.level,
                               "" if verified else " (NOT verified)"))
    return ok, vals


VERIFY_CASES = {
    "census-2": _case_census2,
    "census-3": _case_census3,
    "census-4": _case_census4,
    "4-33-2-1": _case_4_33_2_1,
    "retract-seven": _case_retract_seven,
}


def cmd_verify(args, rep):
    cases = [args.case] if args.case else ["census-2", "census-3",
                                           "4-33-2-1"]
    results = {}
    all_ok = True
    for cid in cases:
        if cid not in VERIFY_CASES:
            raise CatalogError("unknown case %r (have: %s)"
                               % (cid, ", ".join(sorted(VERIFY_CASES))))
        ok, vals = VERIFY_CASES[cid](rep)
        results[cid] = {"ok": ok, "values": vals}
        rep.line("case %s: %s" % (cid, "ok" if ok else "FAILED"))
        all_ok = all_ok and ok
    rep.report["results"] = results
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="glat",
                                description="integral lattice toolkit")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON report on stdout")
    subs = p.add_subparsers(dest="cmd", required=True)

    gp = subs.add_parser("group", help="inspect a catalog group")
    gp.add_argument("action", choices=("show", "subgroups"))
    gp.add_argument("name")
    gp.set_defaults(fn=cmd_group)

    cp = subs.add_parser("cohomology", help="Tate cohomology")
    cp.add_argument("--group", required=True)
    cp.add_argument("--lattice", required=True)
    cp.add_argument("--subgroup")
    cp.add_argument("--degree", type=int, required=True,
                    choices=(-1, 0, 1))
    cp.set_defaults(fn=cmd_cohomology)

    fp = subs.add_parser("flasque", help="flasque resolution")
    fp.add_argument("--group", required=True)
    fp.add_argument("--lattice", required=True)
    fp.set_defaults(fn=cmd_flasque)

    kp = subs.add_parser("classify", help="rationality classification")
    kp.add_argument("--group", required=True)
    kp.add_argument("--lattice")
    kp.add_argument("--hereditary", action="store_true")
    kp.set_defaults(fn=cmd_classify)

    np = subs.add_parser("norm-one", help="norm-one torus decision table")
    np.add_argument("--group", required=True)
    np.add_argument("--stabilizer", required=True)
    np.set_defaults(fn=cmd_norm_one)

    sp = subs.add_parser("census", help="Z-class census")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--dim", type=int, choices=(2, 3, 4))
    which.add_argument("--roots")
    sp.add_argument("--budget", type=int, default=60000)
    sp.set_defaults(fn=cmd_census)

    vp = subs.add_parser("verify-paper",
                         help="re-run the recorded golden results")
    vp.add_argument("--case")
    vp.set_defaults(fn=cmd_verify)

    tp = subs.add_parser("catalog", help="catalog file tools")
    tp.add_argument("action", choices=("validate",))
    tp.add_argument("file")
    tp.set_defaults(fn=cmd_catalog)
    return p


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    rep = Reporter(argv, args.json)
    try:
        code = args.fn(args, rep)
    except (CatalogError, UnknownBuilder, KeyError, NotIndexTwoNormal,
            OrderCapExceeded, OSError, ValueError) as exc:
        rep.report["error"] = str(exc)
        rep.line("error: %s" % exc)
        rep.emit()
        return 2
    except BudgetExhausted as exc:
        rep.report["error"] = "budget exhausted: %s" % exc
        rep.line("undecided: %s" % exc)
        rep.emit()
        return 1
    rep.emit()
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
