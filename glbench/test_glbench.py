"""Tests of the benchmark's own code: seeded inputs, checks and tracer."""

import pytest

from glattice import catalog, rationality
from glattice.groups import closure
from glattice.rationality import (
    HEREDITARILY_RATIONAL,
    NOT_RETRACT_RATIONAL,
    RETRACT_RATIONAL,
    STABLY_RATIONAL,
    UNKNOWN,
)

from glbench import workloads
from glbench.tracer import Tracer

ALL_ENTRIES = sorted(
    {n for _l, roots, _c, _s in workloads.CENSUS_OPS for n in roots}
    | set(workloads.CLASSIFY_STABLE) | set(workloads.CLASSIFY_RETRACT))


def test_seed0_keeps_catalog_generators():
    for name in ALL_ENTRIES:
        e, order = workloads.presented(name, 0)
        assert e.generators == catalog.entry(name).generators
        assert order == tuple(range(len(e.generators)))
    census = workloads.build_ops("census", 0)
    assert [[e.name for e in op.payload] for op in census] == [
        list(roots) for _l, roots, _c, _s in workloads.CENSUS_OPS]


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_seeded_inputs_reorder_the_same_groups(seed):
    for name in ALL_ENTRIES:
        ref = catalog.entry(name)
        e, order = workloads.presented(name, seed)
        assert sorted(order) == list(range(len(ref.generators)))
        assert e.generators == tuple(ref.generators[i] for i in order)
        assert workloads.presented(name, seed)[1] == order
        # same element numbering, on a group object of its own
        assert e.group().elements == ref.group().elements
        assert e.group() is not ref.group()
    ops = workloads.build_ops("census", seed)
    for op, (_l, roots, _c, _s) in zip(ops, workloads.CENSUS_OPS):
        assert sorted(e.name for e in op.payload) == sorted(roots)


def test_verdict_soundness():
    sound = workloads.verdict_sound
    assert sound(HEREDITARILY_RATIONAL, HEREDITARILY_RATIONAL)
    assert sound(STABLY_RATIONAL, HEREDITARILY_RATIONAL)
    assert sound(UNKNOWN, RETRACT_RATIONAL)
    assert sound(UNKNOWN, NOT_RETRACT_RATIONAL)
    assert not sound(HEREDITARILY_RATIONAL, STABLY_RATIONAL)
    assert not sound(NOT_RETRACT_RATIONAL, RETRACT_RATIONAL)
    assert not sound(RETRACT_RATIONAL, NOT_RETRACT_RATIONAL)


def test_census_op_passes_check():
    roots = [workloads.presented(n, 3)[0] for n in catalog.DIM2_ROOTS]
    op = workloads.Op("dim2", "census", roots, {}, catalog.DIM2_CLASS_COUNT,
                      "paper")
    out = workloads.run_op(op)
    assert workloads.check(op, out) == (True, True,
                                        "13 classes (paper reference 13)")


def test_deadline_fails_op():
    op = [o for o in workloads.build_ops("classify-retract", 0)
          if o.label == "z-4-31-1-4"][0]
    out = workloads.run_op(op, deadline_s=0.05)
    assert out.error.startswith("deadline")
    ok, _exact, _detail = workloads.check(op, out)
    assert not ok


def test_traced_classify_matches_untraced():
    e, _p = workloads.presented("z-4-25-9-2", 0)
    lat = e.lattice()
    plain = rationality.classify(lat)
    assert plain.certificate[0].kind == "direct_sum"
    original = rationality.classify
    tr = Tracer()
    with tr:
        assert rationality.classify is not original
        traced = rationality.classify(
            workloads.presented("z-4-25-9-2", 0)[0].lattice())
    assert rationality.classify is original
    assert traced.level == plain.level
    assert tr.function_calls("rationality.classify") > 1
    ok, _exact, _detail = workloads.check(
        workloads.Op("z-4-25-9-2", "classify", lat, {},
                     HEREDITARILY_RATIONAL, "catalog"),
        workloads.Outcome(0.0, traced))
    assert ok
    # self times partition the root spans: recursion is not counted twice
    roots = sum(end - start for start, end, parent in
                zip(tr.span_start, tr.span_end, tr.span_parent)
                if parent == -1)
    assert sum(tr.self_s) == pytest.approx(roots, rel=1e-6)


def test_tracer_counts_outcomes_and_restores_bindings():
    from glattice import groups
    from glattice.intlinalg import IntMat

    a = catalog.entry("dade-2-2").group()
    b = closure([IntMat([[-1, 0], [0, -1]])])
    original = groups.glz_conjugate
    tr = Tracer()
    with tr:
        catalog.glz_conjugate(a, a)
        with pytest.raises(groups.ProvablyDistinct):
            catalog.glz_conjugate(a, b)
    assert groups.glz_conjugate is original
    assert catalog.glz_conjugate is original
    assert tr.function_calls("groups.glz_conjugate") == 2
    assert tr.outcome("groups.glz_conjugate", "ProvablyDistinct") == 1
