"""Exact linear algebra over GF(p) or Q.

Everything downstream (module pieces, differential-module homology, Cech
strands) reduces to rank / kernel / reduced-echelon computations done here.
No floating point anywhere: GF(p) matrices are int64 numpy arrays reduced
mod p, rational matrices are object arrays of Fractions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import SchemaError

DEFAULT_PRIME = 32003


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class GF:
    """The prime field Z/p, p an odd prime below 2^31 (default 32003), so
    that a product of two reduced entries fits in an int64."""

    def __init__(self, p=DEFAULT_PRIME):
        if p >= 1 << 31 or not _is_prime(p) or p == 2:
            raise SchemaError("p must be an odd prime below 2^31, got %r" % (p,))
        self.p = p

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p

    def of(self, x):
        if isinstance(x, Fraction):
            return self.mul(int(x.numerator) % self.p, self.inv(int(x.denominator)))
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    zero = 0
    one = 1

    def zeros(self, rows, cols):
        return np.zeros((rows, cols), dtype=np.int64)

    def array(self, rows):
        return np.array(rows, dtype=np.int64) % self.p

    def reduce(self, a):
        return a % self.p

    def matmul(self, a, b):
        """a @ b reduced mod p, for int64 matrices with entries of absolute
        value below p. Where one int64 product could overflow, a is split
        into 16-bit halves and the inner dimension into chunks, so that no
        partial sum reaches 2^63 (delayed reduction, as in FFPACK)."""
        p = self.p
        inner = a.shape[1]
        if inner * (p - 1) ** 2 < 1 << 63:
            return (a @ b) % p
        hi, lo = a >> 16, a & 0xFFFF
        step = ((1 << 63) - 1) // ((1 << 16) * (p - 1))
        out = np.zeros((a.shape[0],) + b.shape[1:], dtype=np.int64)
        for k in range(0, inner, step):
            bk = b[k:k + step]
            out += ((hi[:, k:k + step] @ bk) % p << 16) + (lo[:, k:k + step] @ bk) % p
            out %= p
        return out


class QQ:
    """Exact rationals. Used for small cross-checks only."""

    def __eq__(self, other):
        return isinstance(other, QQ)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ()"

    def of(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(1) / a

    zero = Fraction(0)
    one = Fraction(1)

    def zeros(self, rows, cols):
        m = np.empty((rows, cols), dtype=object)
        m[:] = Fraction(0)
        return m

    def array(self, rows):
        m = np.array(rows, dtype=object)
        out = np.empty(m.shape, dtype=object)
        flat_in, flat_out = m.reshape(-1), out.reshape(-1)
        for k in range(flat_in.size):
            flat_out[k] = Fraction(flat_in[k])
        return out.reshape(m.shape)

    def reduce(self, a):
        return a

    def matmul(self, a, b):
        return a @ b


class Mat:
    """A dense matrix over a fixed field; equality is entrywise."""

    def __init__(self, field, data):
        self.field = field
        a = data if isinstance(data, np.ndarray) else field.array(data)
        if a.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        self.a = field.reduce(a)

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, field.zeros(rows, cols))

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool(np.all(self.a == other.a))
        )

    def __repr__(self):
        return "Mat(%r, %r)" % (self.field, self.a.tolist())

    def __matmul__(self, other):
        return Mat(self.field, self.field.matmul(self.a, other.a))

    def is_zero(self):
        return not np.any(self.a)


def rref(field, a):
    """Reduced row echelon form. Returns (R, pivot column list); R has one
    row per pivot."""
    a = field.reduce(np.array(a, copy=True))
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = field.reduce(a[r] * field.inv(a[r, c]))
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            a[rows] = field.reduce(a[rows] - np.outer(a[rows, c], a[r]))
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(m):
    """Rank over the field, by exact Gaussian elimination."""
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivots = rref(m.field, m.a)
    return len(pivots)


def _rank_arr(field, a):
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    return len(rref(field, a)[1])


def kernel_basis(m):
    """Columns of the result form a basis of the right kernel: m @ result = 0."""
    field = m.field
    r, pivots = rref(field, m.a)
    piv = set(pivots)
    free = [j for j in range(m.cols) if j not in piv]
    cols = range(len(free))
    k = field.zeros(m.cols, len(free))
    k[free, cols] = field.one
    if pivots:
        k[np.ix_(pivots, cols)] = field.reduce(-r[:, free])
    return Mat(field, k)


def _kernel_arr(field, a):
    return kernel_basis(Mat(field, a)).a


def independent_columns(field, base, candidates):
    """Indices of the candidate columns that are independent modulo the span
    of the base columns, chosen greedily from left to right. The pivot
    columns of rref([base | candidates]) are exactly the columns independent
    of all columns to their left, so one elimination picks them all."""
    if candidates.shape[1] == 0:
        return []
    nb = base.shape[1]
    _, pivots = rref(field, np.concatenate([base, candidates], axis=1))
    return [c - nb for c in pivots if c >= nb]


def homology_dim(d_in, d_out):
    """dim ker(d_out) - rank(d_in) for consecutive differentials
    d_in: U -> V, d_out: V -> W with d_out @ d_in = 0."""
    if d_in.field != d_out.field:
        raise ValueError("mismatched fields")
    if d_out.cols != d_in.rows:
        raise ValueError("shape mismatch: d_out has %d columns, d_in has %d rows" % (d_out.cols, d_in.rows))
    if d_in.cols and d_out.rows and not (d_out @ d_in).is_zero():
        raise ValueError("d_out @ d_in != 0")
    return d_out.cols - rank(d_out) - rank(d_in)


def _homology_dim_arr(field, d_in, d_out):
    n = d_out.shape[1]
    return n - _rank_arr(field, d_out) - _rank_arr(field, d_in)


def solve_in_span(field, basis, targets):
    """Express target columns in the span of basis columns.

    Returns the coefficient matrix X with basis @ X = targets, or None if
    some target is outside the span. basis columns need not be independent;
    any valid X is returned (deterministic)."""
    nb = basis.shape[1]
    stacked = np.concatenate([basis, targets], axis=1)
    r, pivots = rref(field, stacked)
    if any(pc >= nb for pc in pivots):
        return None
    x = field.zeros(nb, targets.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = r[i, nb:]
    return x


def invert(field, a):
    """Inverse of a square matrix; raises if singular."""
    n = a.shape[0]
    eye = field.zeros(n, n)
    for i in range(n):
        eye[i, i] = field.one
    r, pivots = rref(field, np.concatenate([a, eye], axis=1))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return r[:, n:]


def sparse_rank(field, rows):
    """Rank of a matrix given as sparse rows (dicts column -> coefficient,
    none zero in the field), by elimination with sparsest-first ordering.
    Exact over any field; the rational mode runs fraction-free."""
    if isinstance(field, QQ):
        return _sparse_rank_fraction_free(rows)
    p = field.p
    # lead column -> (row, inverse of its lead entry); rows stay unscaled
    pivots = {}
    for row in sorted(rows, key=len):
        owned = False
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                x = row[lead] % p
                if not x:
                    raise ZeroDivisionError("division by zero in GF(%d)" % p)
                # +-1, the usual leads here, are their own inverses
                pivots[lead] = (row, x if x == 1 or x == p - 1 else pow(x, p - 2, p))
                break
            if not owned:
                # pivots are only read, so a row is copied once it changes
                row = dict(row)
                owned = True
            piv, inv = piv
            f = row[lead] * inv % p
            get = row.get
            for c, v in piv.items():
                nv = (get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return len(pivots)


def _sparse_rank_fraction_free(rows):
    import math

    def to_int_row(row):
        denom = 1
        for v in row.values():
            denom = denom * v.denominator // math.gcd(denom, v.denominator) if isinstance(v, Fraction) else denom
        out = {}
        for c, v in row.items():
            out[c] = v.numerator * (denom // v.denominator) if isinstance(v, Fraction) else int(v) * denom
        return out

    pivots = {}
    order = sorted(range(len(rows)), key=lambda i: len(rows[i]))
    rank = 0
    for idx in order:
        row = to_int_row(rows[idx])
        steps = 0
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                g = 0
                for v in row.values():
                    g = math.gcd(g, v)
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
                pivots[lead] = row
                rank += 1
                break
            a = piv[lead]
            b = row[lead]
            new = {}
            for c, v in row.items():
                new[c] = a * v
            for c, v in piv.items():
                nv = new.get(c, 0) - b * v
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            row = new
            steps += 1
            if steps % 8 == 0 and row:
                g = 0
                for v in row.values():
                    g = math.gcd(g, v)
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
    return rank


class RowReducer:
    """Echelonized row space with fast membership reduction.

    Used to present cokernels: rows span the relation space, labels outside
    the pivot set index the quotient basis."""

    def __init__(self, field, rows_matrix):
        self.field = field
        self.ncols = rows_matrix.shape[1]
        self.r, self.pivots = rref(field, rows_matrix)
        piv = set(self.pivots)
        self.free = [j for j in range(self.ncols) if j not in piv]
        self._free_arr = np.array(self.free, dtype=np.int64)
        self._piv_arr = np.array(self.pivots, dtype=np.int64)

    @property
    def corank(self):
        return len(self.free)

    def reduce_rows(self, v):
        """Reduce row vectors modulo the row space; returns coordinates in
        the non-pivot (quotient) basis, shape (k, corank)."""
        if len(self.pivots) and v.shape[0]:
            v = self.field.reduce(v - self.field.matmul(v[:, self._piv_arr], self.r))
        if len(self.free) == 0:
            return self.field.zeros(v.shape[0], 0)
        return v[:, self._free_arr]
