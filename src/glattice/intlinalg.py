"""
Exact integer linear algebra.

Dense matrices of arbitrary-precision Python integers, the Hermite normal
form with its transformation matrix, Smith invariant factors (the
transforms are never built), saturated kernel bases, cokernel invariants,
integral linear solving, row reduction and the invertibility test over
F_p, LLL basis reduction, and a bounded search for unimodular elements of
a lattice of square matrices.

numpy is imported on first use, by `_numpy`, and only on the paths where
it wins: an IntMat product of at least `_NUMPY_MUL_SIZE` scalar
multiplications, the stacked products of `lattices` (the homomorphism
check of a lattice action, the orbit search) and of the F_p layer, and
the stacked float determinant screen of the unimodular search for
matrices larger than 4x4.  The 3x3 and 4x4 products of the paper's groups
stay in Python, where they are faster (6.4 us against 9.5 us for a 4x4
product on a 2-core x86-64 host), so importing the package, building
groups and their standard lattices and the census never load numpy.

Every integer matrix product that leaves Python goes through one guard,
`_int_matmul`: numpy int64 when no partial sum can overflow, Python
integers otherwise.

Everything here is immutable and pure; all downstream cohomology and
isomorphism machinery reduces to these routines.
"""

from __future__ import annotations

import itertools
import random
import signal
from dataclasses import dataclass
from fractions import Fraction
from operator import mul


class BudgetExhausted(Exception):
    """A bounded search ran out of budget: the answer is 'unknown', never 'no'."""


class IntMat:
    """Immutable dense matrix over Z (row-major tuple of tuples of int).

    A matrix with no rows has no row to read its column count from, so
    IntMat.zeros(0, n) sets it; the operations below keep it."""

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, data):
        rows = tuple(tuple(int(x) for x in row) for row in data)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self.data = rows
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n):
        return IntMat._wrap(tuple(tuple(1 if i == j else 0 for j in range(n))
                                  for i in range(n)), n)

    @staticmethod
    def _wrap(data, cols):
        """The IntMat on `data`, a tuple of tuples of int with `cols`
        entries each, taken as it is."""
        out = object.__new__(IntMat)
        out.data = data
        out.rows = len(data)
        out.cols = cols
        out._hash = None
        return out

    @staticmethod
    def zeros(m, n):
        return IntMat._wrap(((0,) * n,) * m, n)

    @staticmethod
    def from_flat(m, n, entries):
        entries = list(entries)
        if len(entries) != m * n:
            raise ValueError("entry count mismatch")
        return IntMat([entries[i * n:(i + 1) * n] for i in range(m)])

    @staticmethod
    def diag(values):
        n = len(values)
        return IntMat([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, IntMat) and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.data)
        return self._hash

    def __repr__(self):
        return "IntMat(%r)" % (list(map(list, self.data)),)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def transpose(self):
        if not (self.rows and self.cols):
            return IntMat.zeros(self.cols, self.rows)
        return IntMat._wrap(tuple(zip(*self.data)), self.rows)

    def __neg__(self):
        return IntMat([[-x for x in row] for row in self.data])

    def __add__(self, other):
        assert self.shape == other.shape
        return IntMat([[a + b for a, b in zip(r, s)]
                       for r, s in zip(self.data, other.data)])

    def __sub__(self, other):
        assert self.shape == other.shape
        return IntMat._wrap(tuple(tuple(a - b for a, b in zip(r, s))
                                  for r, s in zip(self.data, other.data)),
                            self.cols)

    def scale(self, c):
        return IntMat([[c * x for x in row] for row in self.data])

    def __mul__(self, other):
        """Matrix product (also accepts an int scalar)."""
        if isinstance(other, int):
            return self.scale(other)
        assert self.cols == other.rows, (self.shape, other.shape)
        if not (self.rows and self.cols):
            return IntMat.zeros(self.rows, other.cols)
        if self.rows * self.cols * other.cols >= _NUMPY_MUL_SIZE:
            prod = _int_matmul(self.data, other.data)
            return IntMat._wrap(tuple(map(tuple, prod.tolist())), other.cols)
        bt = list(zip(*other.data))
        return IntMat._wrap(tuple(tuple(sum(map(mul, row, col)) for col in bt)
                                  for row in self.data), other.cols)

    __matmul__ = __mul__

    def stack(self, other):
        """Vertical concatenation."""
        assert self.cols == other.cols or self.rows == 0 or other.rows == 0
        if self.rows == 0:
            return other
        if other.rows == 0:
            return self
        return IntMat._wrap(self.data + other.data, self.cols)

    def hstack(self, other):
        assert self.rows == other.rows
        if not self.rows:
            return IntMat.zeros(0, self.cols + other.cols)
        return IntMat._wrap(tuple(r + s for r, s in zip(self.data, other.data)),
                            self.cols + other.cols)

    def block_diag(self, other):
        """The block-diagonal matrix with blocks self and other."""
        right, left = (0,) * other.cols, (0,) * self.cols
        return IntMat._wrap(tuple(r + right for r in self.data)
                            + tuple(left + r for r in other.data),
                            self.cols + other.cols)

    def submatrix(self, rows, cols):
        cols = tuple(cols)
        return IntMat._wrap(tuple(tuple(self.data[i][j] for j in cols)
                                  for i in rows), len(cols))

    def kron(self, other):
        """Kronecker product, left factor major."""
        out = []
        for arow in self.data:
            for brow in other.data:
                out.append([a * b for a in arow for b in brow])
        return IntMat(out) if out else IntMat.zeros(0, self.cols * other.cols)

    def max_abs(self):
        return max((abs(x) for row in self.data for x in row), default=0)

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        assert self.is_square()
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            pk = a[k][k]
            for i in range(k + 1, n):
                aik = a[i][k]
                arow = a[i]
                krow = a[k]
                for j in range(k + 1, n):
                    arow[j] = (pk * arow[j] - aik * krow[j]) // prev
                arow[k] = 0
            prev = pk
        return sign * a[n - 1][n - 1]

    def is_unimodular(self):
        return self.is_square() and self.det() in (1, -1)

    def inverse_unimodular(self):
        """Inverse of a matrix with det +-1 (exact, integral)."""
        h = hnf(self)
        assert h.h == IntMat.identity(self.rows), "matrix is not unimodular"
        return h.u

    def charpoly(self):
        """Coefficients [c_0, ..., c_n] of det(xI - A) = sum c_i x^i
        (Faddeev-LeVerrier; exact integer divisions)."""
        assert self.is_square()
        n = self.rows
        coeffs = [0] * (n + 1)
        coeffs[n] = 1
        m = IntMat.identity(n)
        for k in range(1, n + 1):
            m = self * m
            trace = sum(m.data[i][i] for i in range(n))
            c = -trace // k
            assert c * k == -trace
            coeffs[n - k] = c
            if k < n:
                m = IntMat([[m.data[i][j] + (c if i == j else 0) for j in range(n)]
                            for i in range(n)])
        return tuple(coeffs)


# ---------------------------------------------------------------------------
# exact products in numpy
# ---------------------------------------------------------------------------

# IntMat products with at least this many scalar multiplications go
# through numpy; below it the conversions cost more than they save.  On a
# 2-core x86-64 host a square product of small entries took 9.7 us in
# Python against 10.0 us through numpy at 5x5x5 (125), and 14.3 against
# 10.9 us at 6x6x6 (216): medians over three runs of the best of 7 x 2000
# products, from tuples of ints back to tuples of ints.
_NUMPY_MUL_SIZE = 150


_np = None


def _numpy():
    """The numpy module, imported on its first use: only the paths where
    numpy wins call this, so the r <= 4 paths never load it.

    Signals are held while numpy imports.  A handler that raises (a
    deadline's SIGALRM, Ctrl-C) would otherwise stop numpy's __init__
    halfway, and numpy cannot be imported again in the same process: every
    later call would meet a module without most of its names.  A signal
    that arrives meanwhile is handled as soon as the import is done."""
    global _np
    if _np is None:
        held = signal.pthread_sigmask(signal.SIG_BLOCK,
                                      signal.valid_signals())
        try:
            import numpy
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        _np = numpy
    return _np


def _int_array(rows):
    """Integer matrix, or stack of them, as an int64 array when every entry
    fits, otherwise as an object array of Python ints.  Arrays pass."""
    np = _numpy()
    if isinstance(rows, np.ndarray):
        return rows
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _max_abs(a):
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _fits_int64(inner, max_a, max_b):
    """Whether a product with `inner` terms per entry and factors bounded
    by max_a and max_b is exact in int64: every partial sum is at most
    inner * max_a * max_b in absolute value."""
    return inner * max_a * max_b < 2 ** 63


def _int_matmul(a, b):
    """Exact a @ b for integer matrices or stacks of them (numpy matmul
    shapes, rows or arrays from _int_array): an int64 array when
    _fits_int64, otherwise an object array computed in Python ints."""
    a, b = _int_array(a), _int_array(b)
    np = _numpy()
    if (a.dtype == np.int64 and b.dtype == np.int64
            and _fits_int64(a.shape[-1], _max_abs(a), _max_abs(b))):
        return a @ b
    return a.astype(object) @ b.astype(object)


# ---------------------------------------------------------------------------
# Hermite normal form (row style)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermiteForm:
    h: IntMat
    u: IntMat  # unimodular, u * a = h

    @property
    def rank(self):
        return sum(1 for row in self.h.data if any(row))

    @property
    def pivots(self):
        out = []
        for row in self.h.data:
            for j, x in enumerate(row):
                if x:
                    out.append(j)
                    break
        return out


def hnf(a: IntMat) -> HermiteForm:
    """Canonical row-style Hermite normal form h = u*a.

    Pivots positive, entries above each pivot reduced into [0, pivot),
    zero rows at the bottom.
    """
    m, n = a.rows, a.cols
    h = [list(row) for row in a.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0  # current pivot row
    for j in range(n):
        # euclidean elimination in column j below row r
        while True:
            nz = [i for i in range(r, m) if h[i][j] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(h[i][j]), i))
            if piv != r:
                h[r], h[piv] = h[piv], h[r]
                u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, m):
                if h[i][j] != 0:
                    q = h[i][j] // h[r][j]
                    if q:
                        h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][j] != 0:
                        done = False
            if done:
                break
        if r < m and h[r][j] != 0:
            if h[r][j] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            # reduce the entries above the pivot into [0, pivot)
            p = h[r][j]
            for i in range(r):
                q = h[i][j] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
            if r == m:
                break
    return HermiteForm(IntMat._wrap(tuple(map(tuple, h)), n),
                       IntMat._wrap(tuple(map(tuple, u)), m))


def kernel_basis(a: IntMat) -> IntMat:
    """Z-basis of the left kernel {x : x*a = 0}; saturated by construction
    (the basis rows extend to a basis of the ambient Z^m)."""
    f = hnf(a)
    rank = f.rank
    return IntMat(f.u.data[rank:]) if rank < a.rows else IntMat.zeros(0, a.rows)


def intertwiner_basis(pairs, rows, cols):
    """Z-basis (as rows x cols IntMats) of {X : L X = X R} for every
    (L, R) in pairs; every rows x cols matrix when pairs is empty.  The
    constraints follow pairs, then the entries (i, k) of L X - X R in
    row-major order."""
    n = rows * cols
    cons = []
    for left, right in pairs:
        for i in range(rows):
            for k in range(cols):
                col = [0] * n
                for j in range(rows):
                    col[j * cols + k] += left.data[i][j]
                for j in range(cols):
                    col[i * cols + j] -= right.data[j][k]
                cons.append(col)
    if not cons:
        kern = IntMat.identity(n)
    else:
        kern = kernel_basis(IntMat([[c[e] for c in cons] for e in range(n)]))
    return [IntMat.from_flat(rows, cols, row) for row in kern.data]


def solve_left(a: IntMat, b: IntMat):
    """Solve x * a = b over Z; returns x (b.rows x a.rows) or None."""
    f = hnf(a)
    h, u = f.h, f.u
    pivots = f.pivots
    rank = len(pivots)
    xs = []
    for brow in b.data:
        resid = list(brow)
        coeff = [0] * a.rows
        for k, j in enumerate(pivots):
            q, rem = divmod(resid[j], h.data[k][j])
            if rem:
                return None
            if q:
                coeff[k] = q
                resid = [x - q * y for x, y in zip(resid, h.data[k])]
        if any(resid):
            return None
        xs.append(coeff)
    if not xs:
        return IntMat.zeros(0, a.rows)
    return IntMat._wrap(tuple(map(tuple, xs)), a.rows) * u


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _min_pivot(a):
    """(row, col) of the first smallest-|entry| nonzero entry of a in
    row-major order; None when a is zero."""
    best = None
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x and (best is None or abs(x) < best[0]):
                best = (abs(x), i, j)
                if best[0] == 1:
                    return i, j
    return best and best[1:]


def snf(a: IntMat) -> tuple:
    """Invariant factors of a: the diagonal of its Smith normal form, a
    divisibility chain of min(rows, cols) entries with the zeros trailing.

    No transforms are kept.  Each step moves the first smallest nonzero
    entry of the remaining block to its corner and clears the corner's row
    and column.  A remainder becomes the next, smaller pivot, and so does
    an entry the pivot does not divide, once its row is added to the
    corner's.  A cleared corner is the next factor; the block then loses
    its first row and column.
    """
    w = [list(row) for row in a.data]
    d = []
    while w and w[0]:
        pivot = _min_pivot(w)
        if pivot is None:
            break
        i, j = pivot
        w[0], w[i] = w[i], w[0]
        for row in w:
            row[0], row[j] = row[j], row[0]
        p = w[0][0]
        for i in range(1, len(w)):
            q = w[i][0] // p
            if q:
                w[i] = [x - q * y for x, y in zip(w[i], w[0])]
        for j in range(1, len(w[0])):
            q = w[0][j] // p
            if q:
                for row in w:
                    row[j] -= q * row[0]
        if any(w[0][1:]) or any(row[0] for row in w[1:]):
            continue
        bad = next((row for row in w[1:] if any(x % p for x in row)), None)
        if bad is None:
            d.append(abs(p))
            w = [row[1:] for row in w[1:]]
        else:
            w[0] = [x + y for x, y in zip(w[0], bad)]
    return tuple(d) + (0,) * (min(a.rows, a.cols) - len(d))


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group: Z^free_rank + sum Z/f_i with
    f_i > 1 forming a divisibility chain."""
    factors: tuple
    free_rank: int = 0

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            assert b % a == 0, self.factors
        assert all(f > 1 for f in self.factors)

    def is_trivial(self):
        return not self.factors and self.free_rank == 0

    @property
    def order(self):
        assert self.free_rank == 0
        n = 1
        for f in self.factors:
            n *= f
        return n

    def __str__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % f for f in self.factors]
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = AbelianInvariants(())


def cokernel_invariants(sub: IntMat, amb_rank: int) -> AbelianInvariants:
    """Invariant factors of Z^amb_rank / rowspan(sub), read off the Smith
    invariant factors of sub: the factors above 1 are the torsion, and
    each zero or missing factor adds one to the free rank."""
    if sub.rows == 0:
        return AbelianInvariants((), amb_rank)
    assert sub.cols == amb_rank
    nonzero = [x for x in snf(sub) if x]
    return AbelianInvariants(tuple(x for x in nonzero if x > 1),
                             amb_rank - len(nonzero))


def quotient_invariants(big: IntMat, small: IntMat) -> AbelianInvariants:
    """Invariants of rowspan(big)/rowspan(small); small must lie in big."""
    if big.rows == 0:
        assert small.rows == 0 or small.is_zero()
        return TRIVIAL_GROUP
    if small.rows == 0:
        return AbelianInvariants((), hnf(big).rank)
    assert hnf(big).rank == big.rows, "big must be a basis (independent rows)"
    x = solve_left(big, small)
    assert x is not None, "small is not contained in the span of big"
    return cokernel_invariants(x, big.rows)


def saturate(a: IntMat) -> IntMat:
    """Basis of the saturation (Q-span intersect Z^n) of the row span of a."""
    if a.rows == 0:
        return a
    k = kernel_basis(a.transpose())
    # rows of a span a full-rank sublattice of the right-kernel-orthogonal
    # complement; the saturation is the left kernel of k^T
    if k.rows == 0:
        return IntMat.identity(a.cols)
    return kernel_basis(k.transpose())


# ---------------------------------------------------------------------------
# linear algebra over F_p (dense, row-major lists)
# ---------------------------------------------------------------------------

def _rref_modp(rows, p):
    """Row-reduce in place over F_p; returns (rref rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    n = len(rows[0])
    r = 0
    pivots = []
    for j in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][j] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][j], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j] % p:
                c = rows[i][j]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
    return rows, pivots


def rank_modp(rows, p):
    return len(_rref_modp(rows, p)[1])


def _is_invertible_modp(rows, p):
    """Whether the matrix with these rows is square and invertible over F_p."""
    return (all(len(r) == len(rows) for r in rows)
            and rank_modp(rows, p) == len(rows))


# ---------------------------------------------------------------------------
# LLL reduction (exact, on integer row vectors)
# ---------------------------------------------------------------------------

def lll_reduce(rows):
    """LLL-reduce (Lovasz constant 3/4) linearly independent integer vectors.

    Returns the reduced rows, which span the same lattice.  Exact
    rational Gram-Schmidt, computed once and updated in place on each size
    reduction and swap (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.3).
    """
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n <= 1:
        return b

    # mu[i][j] (j < i) and the squared norms bn[i] of the Gram-Schmidt
    # vectors b*_i = b_i - sum_j mu[i][j] b*_j
    mu = [[Fraction(0)] * n for _ in range(n)]
    bn = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (sum(x * y for x, y in zip(b[i], b[j]))
                        - sum(mu[j][l] * mu[i][l] * bn[l]
                              for l in range(j))) / bn[j]
        bn.append(Fraction(sum(x * x for x in b[i]))
                  - sum(mu[i][j] ** 2 * bn[j] for j in range(i)))

    def reduce(k, j):
        q = round(mu[k][j])
        if q:
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            mu[k][j] -= q
            for l in range(j):
                mu[k][l] -= q * mu[j][l]

    k = 1
    while k < n:
        reduce(k, k - 1)
        if bn[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bn[k - 1]:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        m = mu[k][k - 1]
        new = bn[k] + m * m * bn[k - 1]
        mu[k][k - 1] = m * bn[k - 1] / new
        bn[k] = bn[k - 1] * bn[k] / new
        bn[k - 1] = new
        for i in range(k + 1, n):
            x = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * x
            mu[i][k - 1] = x + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return b


# ---------------------------------------------------------------------------
# Unimodular element search in a matrix lattice
# ---------------------------------------------------------------------------

# unimodular_in_lattice screens candidates of at most this size one at a
# time with an exact determinant, larger ones in float batches
_EXACT_SCREEN_SIZE = 4


def _search_order(d, bound):
    """Nonzero coefficient vectors in search order: the unit vectors, then
    boxes of growing radius while (2r+1)^d fits both what is left of
    `bound` and 3^12, then 20000 samples per radius from Random(0)."""
    for k in range(d):
        yield tuple(int(i == k) for i in range(d))
    emitted = d
    rng = random.Random(0)
    radius = 1
    while True:
        n_box = (2 * radius + 1) ** d
        if n_box <= bound - emitted and n_box <= 3 ** 12:
            for c in itertools.product(range(-radius, radius + 1), repeat=d):
                if any(c):
                    yield c
            emitted += n_box - 1
        else:
            for _ in range(20000):
                c = [rng.randint(-radius, radius) for _ in range(d)]
                if any(c):
                    yield c
        radius += 1


def unimodular_in_lattice(basis, bound=20000):
    """Search the Z-span of `basis` (square IntMats of equal size) for an
    element of determinant +-1.

    The flattened basis is LLL-reduced and combined with the coefficient
    vectors of `_search_order`.  Up to size `_EXACT_SCREEN_SIZE` (every
    GL_r(Z) conjugacy search of the paper) each candidate gets one exact
    determinant; larger ones are drawn in batches of 64 doubling to 4096
    that go through one float determinant screen.  Either way the first
    unimodular candidate in search order is returned, and `bound` counts
    the candidates screened.  Returns None once the budget is exhausted
    ("unknown", never "no").
    """
    basis = [m for m in basis if not m.is_zero()]
    if not basis:
        return None
    size = basis[0].rows
    assert all(m.is_square() and m.rows == size for m in basis)
    flat = tuple(tuple(x for row in m.data for x in row) for m in basis)
    # drop Z-linear dependencies via HNF
    f = hnf(IntMat._wrap(flat, size * size))
    indep = [row for row in f.h.data if any(row)]
    # exact-rational LLL is only worthwhile for modest flattened dimensions
    if size * size <= 600 and len(indep) <= 30:
        reduced = lll_reduce(indep)
    else:
        reduced = indep
    columns = list(zip(*reduced))
    candidates = _search_order(len(reduced), bound)

    def element(c):
        entries = [sum(map(mul, c, col)) for col in columns]
        return IntMat._wrap(tuple(tuple(entries[i:i + size])
                                  for i in range(0, size * size, size)), size)

    if size <= _EXACT_SCREEN_SIZE:
        for c in itertools.islice(candidates, bound):
            m = element(c)
            if m.is_unimodular():
                return m
        return None
    np = _numpy()
    floats = np.array(reduced, dtype=float)
    evals = 0
    batch = 64
    while evals < bound:
        coeffs = list(itertools.islice(candidates, min(batch, bound - evals)))
        evals += len(coeffs)
        stack = (np.array(coeffs, dtype=float) @ floats).reshape(-1, size, size)
        # a unimodular integer matrix has log|det| = 0 up to rounding, so
        # the float screen only decides which candidates get an exact
        # determinant
        signs, logdets = np.linalg.slogdet(stack)
        for i in np.flatnonzero((signs != 0) & (np.abs(logdets) < 0.5)):
            m = element(coeffs[i])
            if m.is_unimodular():
                return m
        batch = min(2 * batch, 4096)
    return None
