"""Workloads of the glattice benchmark: seeded inputs, ops and output checks.

Each op is one call to `glattice.catalog.census` or
`glattice.rationality.classify` with the library defaults `glat` uses.
Inputs come from the built-in catalog.  Seed 0 keeps the catalog order
of every generator list and census root list; seed s > 0 shuffles both
with a random number generator seeded from s.  The groups, their element
numbering and every reference answer stay the same, so work per op stays
comparable across seeds while the inputs differ.
"""

import dataclasses
import random
import signal
import time

from glattice import catalog, homology, rationality
from glattice.intlinalg import IntMat
from glattice.rationality import (
    HEREDITARILY_RATIONAL,
    NOT_RETRACT_RATIONAL,
    RATIONAL,
    RETRACT_RATIONAL,
    STABLY_RATIONAL,
    UNKNOWN,
)

# census ops: (label, root names, reference count, reference source)
CENSUS_OPS = (
    ("dim2", catalog.DIM2_ROOTS, catalog.DIM2_CLASS_COUNT, "paper"),
    ("dim3", catalog.DIM3_ROOTS, catalog.DIM3_CLASS_COUNT, "paper"),
    ("dim3-hereditary", catalog.DIM3_HEREDITARY_ROOTS,
     catalog.DIM3_RATIONAL_COUNT, "paper"),
    # dim-4 root count as recorded at the commit that defined the benchmark
    ("dade-4-6", ("dade-4-6",), 52, "recorded"),
)

CLASSIFY_STABLE = (
    # decided by the hereditary detectors
    "dade-2-1", "dade-3-2", "z-3-7-4-3", "z-3-4-5-2", "z-3-4-5-2-c",
    "dade-4-8", "z-4-25-9-2", "z-4-25-7-5", "z-4-24-3-4",
    # quasi-permutation and padding search, then the H^0 obstruction
    "dade-2-2", "z-4-13-6-4", "dade-3-3",
)

CLASSIFY_RETRACT = ("z-4-33-2-1", "z-4-31-1-4")

# verdicts recorded at the commit that defined the benchmark, for entries
# the catalog gives no expected_verdict
RECORDED_VERDICTS = {"dade-3-3": NOT_RETRACT_RATIONAL}

# rank of each positive verdict level
_STRENGTH = {HEREDITARILY_RATIONAL: 4, RATIONAL: 3, STABLY_RATIONAL: 2,
             RETRACT_RATIONAL: 1}

OP_DEADLINE_S = 60.0


@dataclasses.dataclass
class Op:
    label: str
    kind: str                # "census" or "classify"
    payload: object          # list of CatalogEntry, or a GLattice
    orders: dict             # entry name -> generator order used
    reference: object        # class count or verdict level
    reference_source: str    # "paper", "recorded" or "catalog"


@dataclasses.dataclass
class Outcome:
    seconds: float
    result: object = None
    error: str = ""          # exception or deadline; empty on return


class Deadline(BaseException):
    """Raised in an op that runs past its deadline.

    A BaseException, so that `except Exception` in the library cannot
    swallow it.
    """


# -- inputs -----------------------------------------------------------------

def _shuffled(items, seed, key):
    """`items` as a list, in a seeded order; the given order for seed 0."""
    items = list(items)
    if seed:
        random.Random("%d:%s" % (seed, key)).shuffle(items)
    return items


def presented(name, seed):
    """(copy of catalog entry `name` with seeded generator order, order).

    The copy has its group built afresh, so no cache of the catalog's
    shared entry carries over.
    """
    e = catalog.entry(name)
    order = tuple(_shuffled(range(len(e.generators)), seed, name))
    copy = dataclasses.replace(
        e, generators=tuple(e.generators[i] for i in order), _group=None)
    copy.group()
    return copy, order


def build_ops(workload, seed):
    """Fresh inputs for one pass over the workload's ops."""
    ops = []
    if workload == "census":
        for label, roots, count, source in CENSUS_OPS:
            pairs = [presented(n, seed)
                     for n in _shuffled(roots, seed, label)]
            ops.append(Op(label, "census", [e for e, _o in pairs],
                          {e.name: o for e, o in pairs}, count, source))
        return ops
    names = {"classify-stable": CLASSIFY_STABLE,
             "classify-retract": CLASSIFY_RETRACT}[workload]
    for name in names:
        e, order = presented(name, seed)
        if e.expected_verdict is not None:
            ref, source = e.expected_verdict, "catalog"
        else:
            ref, source = RECORDED_VERDICTS[name], "recorded"
        ops.append(Op(name, "classify", e.lattice(), {name: order}, ref,
                      source))
    return ops


# -- running ----------------------------------------------------------------

def _expire(signum, frame):
    raise Deadline()


def run_op(op, deadline_s=OP_DEADLINE_S) -> Outcome:
    """Call the library once, under an in-process deadline."""
    fn = catalog.census if op.kind == "census" else rationality.classify
    previous = signal.signal(signal.SIGALRM, _expire)
    out = Outcome(0.0)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            out.result = fn(op.payload)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        out.error = "deadline of %g s passed" % deadline_s
    except Exception as exc:
        out.error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        out.seconds = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    return out


# -- output checks ----------------------------------------------------------

def verdict_sound(level, reference):
    """Whether `level` is consistent with a reference verdict.

    A weaker positive verdict, or Unknown, is sound; a stronger verdict or
    one that contradicts the reference is not.
    """
    if level == reference or level == UNKNOWN:
        return True
    if NOT_RETRACT_RATIONAL in (level, reference):
        return False
    return _STRENGTH[level] < _STRENGTH[reference]


def certificate_parts(obj, seen=None):
    """Every ObstructionWitness and ExactSequenceCert inside a verdict."""
    if seen is None:
        seen = set()
    if id(obj) in seen or isinstance(obj, (int, str, IntMat)):
        return
    seen.add(id(obj))
    if isinstance(obj, (homology.ObstructionWitness,
                        homology.ExactSequenceCert)):
        yield obj
        return
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        return
    for child in children:
        yield from certificate_parts(child, seen)


def check(op, out):
    """(ok, exact, detail) for one op's outcome.

    `exact` tells whether the output equals its reference exactly; it is
    None for classify ops whose reference is a recorded verdict rather
    than a catalog value.
    """
    graded = op.kind == "census" or op.reference_source != "recorded"
    if out.error:
        return False, (False if graded else None), out.error
    if op.kind == "census":
        n = out.result.count
        ok = n == op.reference
        return ok, ok, "%d classes (%s reference %d)" % (
            n, op.reference_source, op.reference)
    level = out.result.level
    ok = verdict_sound(level, op.reference)
    detail = "%s (%s reference %s)" % (level, op.reference_source,
                                      op.reference)
    for part in certificate_parts(out.result):
        if isinstance(part, homology.ObstructionWitness):
            valid = part.verify()
        else:
            valid = homology.verify_exact(part)
        if not valid:
            ok = False
            detail += "; %s fails re-verification" % type(part).__name__
    return ok, (level == op.reference if graded else None), detail
