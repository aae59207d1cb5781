import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import glattice
from glattice.intlinalg import (
    AbelianInvariants,
    IntMat,
    _fits_int64,
    _int_matmul,
    cokernel_invariants,
    hnf,
    kernel_basis,
    lll_reduce,
    quotient_invariants,
    saturate,
    snf,
    solve_left,
    unimodular_in_lattice,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def minors_gcd_invariants(a):
    """SNF invariant factors via gcds of k x k minors (textbook definition)."""
    m, n = a.rows, a.cols
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, a.submatrix(rows, cols).det())
        if g == 0:
            out.append(0)
            prev = 0
        else:
            out.append(g // prev)
            prev = g
    return out


def rational_rref(a):
    """Row echelon over Q, as an oracle for HNF pivot columns and row space."""
    rows = [[Fraction(x) for x in row] for row in a.data]
    m = len(rows)
    n = a.cols
    r = 0
    pivots = []
    for j in range(n):
        piv = next((i for i in range(r, m) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][j] for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][j]:
                rows[i] = [x - rows[i][j] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
    return pivots, r


def brute_force_quotient_order(sub, amb_rank, box):
    """|Z^n / L| by explicit coset enumeration in a box (index must be small)."""
    span = set()
    gens = [tuple(r) for r in sub.data]
    frontier = [(0,) * amb_rank]
    span.add(frontier[0])
    while frontier:
        v = frontier.pop()
        for g in gens:
            for s in (1, -1):
                w = tuple(a + s * b for a, b in zip(v, g))
                if all(abs(x) <= box for x in w) and w not in span:
                    span.add(w)
                    frontier.append(w)
    # count cosets among representatives in a fundamental box
    reps = set()
    side = range(0, box + 1)
    for v in product(side, repeat=amb_rank):
        # canonical representative: smallest member of v + span within the box
        cands = [tuple(a + b for a, b in zip(v, s)) for s in span]
        cands = [c for c in cands if all(0 <= x <= box for x in c)]
        reps.add(min(cands))
    return len(reps)


def random_mat(rng, m, n, lo=-9, hi=9):
    return IntMat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def random_unimodular(rng, n, steps=12):
    u = IntMat.identity(n)
    w = [list(r) for r in u.data]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        w[i] = [x + q * y for x, y in zip(w[i], w[j])]
    return IntMat(w)


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------

def test_matrices_without_rows_or_columns_keep_their_shape():
    z = IntMat.zeros(0, 3)
    assert z.shape == (0, 3) and z != IntMat.zeros(0, 0)
    assert z.transpose().shape == (3, 0)
    assert z.transpose().transpose() == z
    assert (z.transpose() * z).shape == (3, 3)
    assert (z.transpose() * z).is_zero()
    assert (z * IntMat.identity(3)).shape == (0, 3)
    assert z.hstack(IntMat.zeros(0, 2)).shape == (0, 5)
    assert z.block_diag(IntMat.zeros(0, 1)).shape == (0, 4)
    assert IntMat.identity(3).submatrix([], range(2)).shape == (0, 2)


def python_product(a, b):
    """Reference product in Python integers of two IntMats, as lists."""
    return [[sum(a[i, t] * b[t, j] for t in range(a.cols))
             for j in range(b.cols)] for i in range(a.rows)]


def test_int64_product_matches_python_product_on_random_shapes():
    rng = random.Random(5)
    for _ in range(300):
        m, k, n = (rng.randint(0, 9) for _ in range(3))
        bound = rng.choice([1, 3, 1000, 2 ** 30])
        a = IntMat.zeros(m, k) if not m else IntMat(
            [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(m)])
        b = IntMat.zeros(k, n) if not k else IntMat(
            [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)])
        prod = a * b
        assert prod.shape == (m, n)
        assert [list(r) for r in prod.data] == python_product(a, b)
        if m and k:
            got = _int_matmul(a.data, b.data)
            assert got.shape == (m, n)
            assert got.tolist() == [list(r) for r in prod.data]


def test_products_with_empty_operands_keep_their_columns():
    for m, k, n in ((0, 3, 4), (0, 12, 12), (3, 0, 4), (12, 0, 12),
                    (4, 3, 0), (12, 12, 0)):
        a, b = IntMat.zeros(m, k), IntMat.zeros(k, n)
        assert (a * b).shape == (m, n) and (a * b).is_zero()


def test_int64_product_takes_the_python_path_past_the_guard():
    import numpy as np
    # inner * max|a| * max|b| must stay below 2^63
    assert _fits_int64(2, 2 ** 31, 2 ** 31 - 1)
    assert not _fits_int64(2, 2 ** 31, 2 ** 31)
    assert not _fits_int64(1, 2 ** 32, 2 ** 31)
    rng = random.Random(6)
    for inner, big in ((2, 2 ** 31), (4, 2 ** 31), (1, 2 ** 32), (3, 2 ** 40),
                       (2, 2 ** 70)):
        a = [[big] * inner] + [[rng.randint(-9, 9) for _ in range(inner)]
                               for _ in range(4)]
        b = [[big] + [rng.randint(-9, 9) for _ in range(4)]
             for _ in range(inner)]
        want = python_product(IntMat(a), IntMat(b))
        got = _int_matmul(a, b)
        assert got.dtype == object and got.tolist() == want
        assert [list(r) for r in (IntMat(a) * IntMat(b)).data] == want
    # just inside the guard: int64, and still exact
    a = [[2 ** 31 - 1] * 2]
    b = [[-(2 ** 31)]] * 2
    got = _int_matmul(a, b)
    assert got.dtype == np.int64 and got.tolist() == [[-2 ** 63 + 2 ** 32]]


def test_snf_identity():
    assert snf(IntMat.identity(3)) == (1, 1, 1)


def test_snf_frozen_examples():
    # expected values frozen from the minors-gcd oracle
    a = IntMat([[2, 4], [6, 8]])
    assert minors_gcd_invariants(a) == [2, 4]
    assert snf(a) == (2, 4)

    b = IntMat.diag([6, 4])
    assert minors_gcd_invariants(b) == [2, 12]
    assert snf(b) == (2, 12)


def test_hnf_frozen_examples():
    assert hnf(IntMat.identity(4)).h == IntMat.identity(4)
    assert hnf(IntMat([[0, 1], [1, 0]])).h == IntMat.identity(2)
    f = hnf(IntMat([[2, 0], [1, 1]]))
    assert f.h == IntMat([[1, 1], [0, 2]])
    assert f.u * IntMat([[2, 0], [1, 1]]) == f.h


def test_kernel_basis_examples():
    assert kernel_basis(IntMat.identity(3)).rows == 0
    k = kernel_basis(IntMat([[1, 1], [1, 1]]))
    assert k.rows == 1
    assert tuple(k.data[0]) in ((1, -1), (-1, 1))
    # augmentation map Z[X_3] -> Z
    aug = IntMat([[1], [1], [1]])
    k = kernel_basis(aug)
    assert k.rows == 2 and (k * aug).is_zero()


def test_cokernel_examples():
    assert cokernel_invariants(IntMat.identity(2).scale(2), 2) == \
        AbelianInvariants((2, 2))
    assert cokernel_invariants(IntMat.zeros(0, 1), 1) == AbelianInvariants((), 1)
    assert cokernel_invariants(IntMat([[2, 0], [0, 3]]), 2) == AbelianInvariants((6,))


def test_unimodular_in_lattice_examples():
    found = unimodular_in_lattice([IntMat.identity(3)])
    assert found is not None and found.det() in (1, -1)
    assert unimodular_in_lattice([IntMat.identity(2).scale(2)], bound=500) is None
    found = unimodular_in_lattice([IntMat([[1, 0], [0, 0]]), IntMat([[0, 0], [0, 1]])])
    assert found is not None and found.det() in (1, -1)


def test_charpoly():
    assert IntMat([[0, -1], [1, 0]]).charpoly() == (1, 0, 1)  # x^2 + 1
    assert IntMat.identity(3).charpoly() == (-1, 3, -3, 1)


def test_solve_left():
    a = IntMat([[2, 1], [0, 3]])
    b = IntMat([[2, 4], [4, 2]])
    x = solve_left(a, b)
    assert x is not None and x * a == b
    assert solve_left(IntMat([[2, 0], [0, 2]]), IntMat([[1, 0]])) is None


def test_saturate():
    s = saturate(IntMat([[2, 0], [0, 4]]))
    assert hnf(s).h == IntMat.identity(2)
    s = saturate(IntMat([[2, 2]]))
    assert hnf(s).h == IntMat([[1, 1]])


def test_quotient_invariants():
    big = IntMat([[1, 0], [0, 1]])
    small = IntMat([[2, 0]])
    q = quotient_invariants(big, small)
    assert q.factors == (2,) and q.free_rank == 1
    q = quotient_invariants(IntMat([[1, 1], [0, 2]]), IntMat([[2, 2], [0, 4]]))
    assert q == AbelianInvariants((2, 2))


# ---------------------------------------------------------------------------
# randomized property suites (acceptance criterion: 1000 cases)
# ---------------------------------------------------------------------------

def test_snf_hnf_random_identities_1000():
    rng = random.Random(20240817)
    for trial in range(1000):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_mat(rng, m, n)
        d = snf(a)
        assert len(d) == min(m, n) and all(x >= 0 for x in d)
        for x, y in zip(d, d[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
        f = hnf(a)
        assert f.u.det() in (1, -1)
        assert f.u * a == f.h
        pivots, rank = rational_rref(a)
        assert f.pivots == pivots and f.rank == rank
        # canonical reduction above pivots
        for r, j in enumerate(f.pivots):
            p = f.h.data[r][j]
            assert p > 0
            for i in range(r):
                assert 0 <= f.h.data[i][j] < p
        k = kernel_basis(a)
        assert k.rows == m - rank
        if k.rows:
            assert (k * a).is_zero()


def test_snf_conjugation_invariance():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_mat(rng, n, n)
        p = random_unimodular(rng, n)
        q = random_unimodular(rng, n)
        assert snf(a) == snf(p * a * q)


def test_minors_oracle_random():
    rng = random.Random(99)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_mat(rng, m, n, -6, 6)
        assert list(snf(a)) == minors_gcd_invariants(a)


def test_cokernel_vs_brute_force():
    rng = random.Random(5)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 3)
        a = random_mat(rng, n, n, -4, 4)
        d = abs(a.det())
        if not 0 < d <= 200:
            continue
        inv = cokernel_invariants(a, n)
        order = 1
        for f in inv.factors:
            order *= f
        assert inv.free_rank == 0
        assert order == d
        checked += 1
    # tiny cases against explicit coset enumeration
    for sub, n, expect in [
        (IntMat([[2]]), 1, 2),
        (IntMat([[2, 0], [0, 3]]), 2, 6),
        (IntMat([[1, 1], [0, 4]]), 2, 4),
        (IntMat([[2, 1], [1, 2]]), 2, 3),
    ]:
        assert brute_force_quotient_order(sub, n, 8) == expect
        inv = cokernel_invariants(sub, n)
        order = 1
        for f in inv.factors:
            order *= f
        assert order == expect


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-8, 8), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_kernel_saturated(rows):
    a = IntMat(rows)
    k = kernel_basis(a)
    if k.rows:
        assert (k * a).is_zero()
        # saturation: quotient of ambient by the kernel must be torsion-free
        inv = cokernel_invariants(k, a.rows)
        assert inv.factors == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10 ** 6))
def test_lll_preserves_lattice(n, seed):
    rng = random.Random(seed)
    a = random_mat(rng, n, n, -9, 9)
    if a.det() == 0:
        return
    reduced = lll_reduce(a.data)
    assert hnf(IntMat(reduced)).h == hnf(a).h


def gram_schmidt(rows):
    """(mu, squared norms of b*_i), by the textbook recursion."""
    n = len(rows)
    mu = [[Fraction(0)] * n for _ in range(n)]
    star, norms = [], []
    for i in range(n):
        v = [Fraction(x) for x in rows[i]]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(rows[i], star[j])) / norms[j]
            v = [a - mu[i][j] * c for a, c in zip(v, star[j])]
        star.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def test_lll_output_is_reduced():
    rng = random.Random(1)
    tried = 0
    while tried < 200:
        n = rng.randint(2, 6)
        a = random_mat(rng, n, rng.randint(n, n + 3), -20, 20)
        if 0 in gram_schmidt(a.data)[1]:
            continue
        tried += 1
        reduced = lll_reduce(a.data)
        assert hnf(IntMat(reduced)).h == hnf(a).h
        mu, norms = gram_schmidt(reduced)
        for k in range(1, n):
            assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
            lovasz = (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
            assert norms[k] >= lovasz


def test_unimodular_search_respects_budget():
    # 6 x 6 all-even lattice: no unimodular element exists; search must
    # terminate and admit ignorance
    basis = [IntMat.identity(6).scale(2)]
    assert unimodular_in_lattice(basis, bound=50) is None


def test_unimodular_search_screens_exactly_its_budget(monkeypatch):
    import numpy as np
    # every element of these lattices has an even first row, so an even
    # determinant, and each search runs out: through the boxes, then the
    # random samples.  Up to size 4 each candidate gets one exact
    # determinant.
    dets = []
    det = IntMat.det

    def counting_det(m):
        dets.append(m)
        return det(m)

    monkeypatch.setattr(IntMat, "det", counting_det)
    basis = [IntMat([[2, 0], [0, 1]]), IntMat([[0, 1], [2, 0]])]
    for bound in (1, 50, 5000):
        dets.clear()
        assert unimodular_in_lattice(basis, bound=bound) is None
        assert len(dets) == bound
    monkeypatch.undo()
    # from size 5 on, each candidate is one row of a stacked float screen
    screened = []
    slogdet = np.linalg.slogdet

    def counting(stack):
        screened.append(len(stack))
        return slogdet(stack)

    monkeypatch.setattr(np.linalg, "slogdet", counting)
    shift = [[0] * 5 for _ in range(5)]
    for i in range(5):
        shift[i][(i + 1) % 5] = 2 if i == 0 else 1
    basis = [IntMat.diag([2, 1, 1, 1, 1]), IntMat(shift)]
    for bound in (1, 50, 5000):
        screened.clear()
        assert unimodular_in_lattice(basis, bound=bound) is None
        assert sum(screened) == bound


def test_signal_during_the_numpy_import_leaves_numpy_whole():
    # a fresh interpreter: a handler that raises is triggered in the middle
    # of numpy's first import, once its C extension is loaded; the handler
    # runs after the import, and numpy stays usable
    script = (
        "import signal, sys\n"
        "from glattice import intlinalg\n"
        "class Stop(Exception):\n"
        "    pass\n"
        "def stop(signum, frame):\n"
        "    raise Stop\n"
        "class Interrupt:\n"
        "    fired = False\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if not self.fired and any(m.endswith('._multiarray_umath')\n"
        "                                  for m in list(sys.modules)):\n"
        "            self.fired = True\n"
        "            signal.raise_signal(signal.SIGALRM)\n"
        "hook = Interrupt()\n"
        "signal.signal(signal.SIGALRM, stop)\n"
        "sys.meta_path.insert(0, hook)\n"
        "try:\n"
        "    intlinalg._numpy()\n"
        "    stopped = False\n"
        "except Stop:\n"
        "    stopped = True\n"
        "np = intlinalg._numpy()\n"
        "print(hook.fired, stopped, np.nonzero([0, 3, 0, 5])[0].tolist())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(glattice.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "True True [1, 3]"
