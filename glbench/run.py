"""Benchmark of the glattice library: census and classify workloads.

Usage, from the root of a source checkout:

    python3 glbench/run.py --workload census --seed 1 --seconds 30 --trace 0

The library is imported from `src/` of the same checkout, never from an
installed copy.  Ops run one at a time in a closed loop from this single
process.  One pass runs every op of the workload once, each on freshly
built groups; passes repeat while another pass still fits in `--seconds`,
and at least one always runs.  Each op's output is checked right after
it, outside its timed region.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` it carries the per-layer metrics
of one traced pass, whose ops alternate with the same ops run untraced.
Set-up time is measured in fresh interpreters started with `--setup-only`.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 5
RUN_LIMIT_S = 150.0   # ops still pending after this are failed unrun


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("census", "classify-stable", "classify-retract"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the library, build the inputs and exit")
    return ap.parse_args(argv)


def import_library():
    """Import glattice from this checkout; exit non-zero when it is not."""
    if not os.path.isfile(os.path.join(SRC, "glattice", "__init__.py")):
        sys.exit("glbench: no glattice sources under %s" % SRC)
    sys.path[:0] = [SRC, ROOT]
    import glattice
    if not os.path.abspath(glattice.__file__).startswith(SRC + os.sep):
        sys.exit("glbench: imported glattice from %s, not from %s"
                 % (glattice.__file__, SRC))


def setup_seconds(args):
    """Median wall time of fresh interpreters that import and build."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       cwd=ROOT, timeout=120)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Pass:
    """Timings and check results of one pass over a workload's ops.

    Each op is checked right after it runs, outside its timed region, and
    only the check result is kept, so no op's output outlives it.
    """

    def __init__(self, workloads):
        self.workloads = workloads
        self.labels = []
        self.orders = []
        self.seconds = []
        self.checks = []

    def run(self, op, limit_at, tracer=None):
        wl = self.workloads
        left = limit_at - time.perf_counter()
        if left < 1.0:
            out = wl.Outcome(0.0, error="not run: run time limit reached")
        else:
            # survivors of earlier ops are frozen so that the op's own
            # garbage collections do not traverse them, as in a fresh
            # glat process
            gc.collect()
            gc.freeze()
            try:
                if tracer is not None:
                    tracer.op = len(self.labels)
                    tracer.install()
                out = wl.run_op(op, min(wl.OP_DEADLINE_S, left))
            finally:
                if tracer is not None:
                    tracer.uninstall()
                gc.unfreeze()
        self.labels.append(op.label)
        self.orders.append(op.orders)
        self.seconds.append(out.seconds)
        self.checks.append(wl.check(op, out))

    @property
    def wall(self):
        # ops run back to back; the collections between them are left out
        return sum(self.seconds)

    @property
    def failed(self):
        return sum(1 for ok, _exact, _d in self.checks if not ok)

    def report(self, tag):
        for label, orders, seconds, (ok, _exact, detail) in zip(
                self.labels, self.orders, self.seconds, self.checks):
            gens = " ".join("%s:%s" % (n, "".join(map(str, o)))
                            for n, o in orders.items())
            print("%s %-16s %8.3f s  %s  %s  generator order %s" % (
                tag, label, seconds, "ok  " if ok else "FAIL", detail,
                gens))


def end_to_end(passes, setup_s, rss_mb):
    per_op = [statistics.median(col)
              for col in zip(*(p.seconds for p in passes))]
    exact = [e for p in passes for _ok, e, _d in p.checks if e is not None]
    print("wall_s: median of %d pass(es); op_p50_s: median over %d ops of "
          "each op's median of %d; verdict_exact_frac: %d of %d" % (
              len(passes), len(per_op), len(passes), sum(exact),
              len(exact)))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "verdict_exact_frac": (sum(exact) / len(exact), "ratio"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tr, traced_wall, untraced_wall):
    from glbench.tracer import LAYERS

    m = {}

    def calls(name):
        m[name + ".calls"] = (tr.function_calls(name), "count")

    def self_s(name):
        m[name + ".self_s"] = (tr.function_self_s(name), "s")

    for layer in LAYERS:
        m[layer + ".self_s"] = (tr.layer_self_s(layer), "s")
        m[layer + ".incl_s"] = (tr.incl_s[layer], "s")
    for name in ("lattices.GLattice.init", "lattices.coset_lattice",
                 "lattices.tate", "groups.glz_conjugate",
                 "intlinalg.unimodular_in_lattice",
                 "modular.is_permutation_modp"):
        calls(name)
        self_s(name)
    for name in ("intlinalg.IntMat.mul", "lattices.dual", "intlinalg.hnf",
                 "intlinalg.snf", "intlinalg.solve_left",
                 "homology.find_isomorphism_parts", "rationality.classify"):
        calls(name)
    for name in ("groups.all_subgroups", "intlinalg.lll_reduce",
                 "homology.stably_permutation_paddings",
                 "homology.stably_permutation_obstruction",
                 "homology.flasque_resolution",
                 "homology.quasi_permutation_check",
                 "modular.left_nullspace_modp", "modular.is_invertible",
                 "lattices.recognize_permutation",
                 "lattices.recognize_sign_permutation",
                 "rationality.recognize_aug_ideal"):
        self_s(name)

    g = "groups.glz_conjugate"
    n = tr.function_calls(g)
    distinct = tr.outcome(g, "ProvablyDistinct")
    exhausted = tr.outcome(g, "BudgetExhausted")
    conjugate = n - sum(v for (name, _o), v in tr.outcomes.items()
                        if name == g)
    m[g + ".conjugate"] = (conjugate, "count")
    m[g + ".distinct"] = (distinct, "count")
    m[g + ".budget_exhausted"] = (exhausted, "count")
    m[g + ".hit_ratio"] = (_ratio(conjugate, n), "ratio")

    f = "homology.find_isomorphism_parts"
    n = tr.function_calls(f)
    misses = sum(v for (name, _o), v in tr.outcomes.items() if name == f)
    m[f + ".hit_ratio"] = (_ratio(n - misses, n), "ratio")

    p = "homology.stably_permutation_paddings"
    m[p + ".candidates"] = (tr.lengths.get(p, 0), "count")

    q = "modular.is_permutation_modp"
    m[q + ".provably_not"] = (tr.outcome(q, "ProvablyNot"), "count")
    m[q + ".budget_exhausted"] = (tr.outcome(q, "BudgetExhausted"), "count")

    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (len(tr.span_id), "count")
    return m


def timed_passes(workloads, args, limit_at):
    """Passes while another still fits in --seconds; at least one.

    Returns the passes and the resident-memory high-water mark in MB after
    the first, which does not depend on how many passes fit.
    """
    passes = []
    start = time.perf_counter()
    while True:
        p = Pass(workloads)
        for op in workloads.build_ops(args.workload, args.seed):
            p.run(op, limit_at)
        p.report("pass%d" % len(passes))
        passes.append(p)
        if len(passes) == 1:
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + p.wall > args.seconds:
            return passes, rss_mb


def traced_run(workloads, seed, workload, limit_at):
    """One untraced and one traced pass, op by op in alternation.

    Each op runs untraced and then traced on its own fresh inputs, so both
    runs of an op see the same machine conditions.
    """
    from glbench.tracer import Tracer

    tr = Tracer()
    plain, traced = Pass(workloads), Pass(workloads)
    for a, b in zip(workloads.build_ops(workload, seed),
                    workloads.build_ops(workload, seed)):
        plain.run(a, limit_at)
        traced.run(b, limit_at, tracer=tr)
    plain.report("plain")
    traced.report("traced")
    return [plain, traced], per_layer(tr, traced.wall, plain.wall)


def main(argv=None):
    args = parse_args(argv)
    import_library()
    from glbench import workloads

    if args.setup_only:
        workloads.build_ops(args.workload, args.seed)
        return 0

    limit_at = time.perf_counter() + RUN_LIMIT_S
    if args.trace:
        passes, metrics = traced_run(workloads, args.seed, args.workload,
                                     limit_at)
    else:
        setup_s = setup_seconds(args)
        passes, rss_mb = timed_passes(workloads, args, limit_at)
        metrics = end_to_end(passes, setup_s, rss_mb)

    attempted = sum(len(p.labels) for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
