"""Exact linear algebra over GF(p) or Q.

Everything downstream (module pieces, differential-module homology, Cech
strands, the diagonal's maps) reduces to rank / kernel / reduced-echelon
computations done here. No floating point anywhere: GF(p) matrices are
int64 numpy arrays reduced mod p, rational matrices are object arrays of
Fractions.

Elimination runs on sparse rows (dicts column -> nonzero coefficient), as
the matrices met here are mostly about 1% dense. A finished sparse map is
an `Entries`, its entry arrays; `Entries.dense()` fills one in and
`Entries.columns()` unpacks its columns. Each field has one forward
elimination, `insert`; the caller picks the lead column. `_forward` leads
with the smallest, and `_back_substitute` reduces the pivot rows asked
for and those they reach. `_echelon` is both, for every pivot, and
returns sparse reduced rows: `rref` fills them in, `echelon_kernel` reads
the pivots and the kernel off them (under `kernel_basis`, for a `Mat` and
an Entries alike). `RowReducer` runs only `_forward` when it is built, and
back-substitutes a pivot label's normal form the first time
`reduce_rows` is asked for it. `sparse_rank` leads with the largest and
only counts pivots. `independent_columns` inserts columns one at a time
and keeps those that add a pivot.

`rank` is the one rank route, for a Mat (through its entries) and an
Entries alike, and the route is chosen there alone. Where every column is
two entries of +-1 (the diagonal's binomial maps, the larger Cl = Z cone
blocks), `signed_graph_rank` counts components of a signed graph.
Otherwise `peel` removes singleton rows and columns, one rank each, and
`sparse_rank` eliminates the core left. A matrix of at most
`SMALL_ENTRIES` entries goes to `sparse_rank` whole.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import SchemaError, WindowTooSmall

DEFAULT_PRIME = 32003
MAX_DENSE_CELLS = 1 << 26  # 512 MiB as int64 over GF(p), as many pointers over QQ
# An Entries of at most this many entries is ranked by sparse_rank alone:
# below it the numpy set-up of counting components or peeling costs more
# than the elimination (on signed graphs the two meet near 120 entries)
SMALL_ENTRIES = 128


def _dense_cells(rows, cols):
    """The shape of a dense matrix, checked against MAX_DENSE_CELLS before it
    is allocated: WindowTooSmall (exit 4) names a shape over the budget."""
    if rows * cols > MAX_DENSE_CELLS:
        raise WindowTooSmall("a dense %d x %d matrix is over the size budget of %d cells"
                             % (rows, cols, MAX_DENSE_CELLS))
    return rows, cols


def _is_prime(n):
    """Deterministic Miller-Rabin over the first 12 prime bases, exact for
    every n below 3.18 * 10^23 (Sorenson and Webster 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 is an odd number times 2^s
    for b in bases:
        x = pow(b, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
        return np.zeros(_dense_cells(rows, cols), dtype=np.int64)

    def array(self, rows):
        return np.array(rows, dtype=np.int64) % self.p

    def reduce(self, a):
        return a % self.p

    def insert(self, pivots, row, lead):
        """Reduce a sparse row by pivots, {lead column: (row, inverse of its
        lead entry)}, where lead (min or max) picks a row's lead column, and
        keep what is left as a pivot; returns whether the row was kept.
        Pivot rows stay unscaled and are only read, and the row passed in is
        copied once it changes."""
        p = self.p
        owned = False
        while row:
            c = lead(row)
            piv = pivots.get(c)
            if piv is None:
                x = row[c] % p
                if not x:
                    raise ZeroDivisionError("division by zero in GF(%d)" % p)
                # +-1, the usual leads here, are their own inverses
                pivots[c] = (row, x if x == 1 or x == p - 1 else pow(x, p - 2, p))
                return True
            if not owned:
                row = dict(row)
                owned = True
            piv, inv = piv
            f = row[c] * inv % p
            get = row.get
            for k, v in piv.items():
                nv = (get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        return False

    def monic(self, piv, c):
        """A pivot row of insert scaled to lead with one at column c."""
        row, inv = piv
        if inv == 1:
            return dict(row)
        p = self.p
        return {k: v * inv % p for k, v in row.items()}

    def sub_scaled(self, row, f, other):
        """row -= f * other on sparse rows, in place; zeros are dropped."""
        p = self.p
        get = row.get
        for c, v in other.items():
            nv = (get(c, 0) - f * v) % p
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)

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
        return np.full(_dense_cells(rows, cols), Fraction(0), dtype=object)

    def array(self, rows):
        m = np.array(rows, dtype=object)
        out = np.empty(m.shape, dtype=object)
        flat_in, flat_out = m.reshape(-1), out.reshape(-1)
        for k in range(flat_in.size):
            flat_out[k] = Fraction(flat_in[k])
        return out.reshape(m.shape)

    def reduce(self, a):
        return a

    def insert(self, pivots, row, lead):
        """Reduce a sparse row (Fractions or ints) by pivots, {lead column:
        primitive integer row}, where lead (min or max) picks a row's lead
        column, and keep what is left as a pivot; returns whether the row was
        kept. Fraction-free: the row is made integral once on entry, each
        step is row = a * row - b * pivot with integers a and b, and common
        factors are divided out every eighth step and on keeping."""
        nums = [v.numerator for v in row.values()]
        dens = [v.denominator for v in row.values()]
        denom = math.lcm(*dens)
        if denom == 1:
            row = dict(zip(row, nums))
        else:
            row = {c: n * (denom // d) for c, n, d in zip(row, nums, dens)}
        steps = 0
        while row:
            c = lead(row)
            piv = pivots.get(c)
            if piv is None:
                g = math.gcd(*row.values())
                if g > 1:
                    row = {k: v // g for k, v in row.items()}
                pivots[c] = row
                return True
            a = piv[c]
            b = row[c]
            new = {k: a * v for k, v in row.items()}
            for k, v in piv.items():
                nv = new.get(k, 0) - b * v
                if nv:
                    new[k] = nv
                else:
                    new.pop(k, None)
            row = new
            steps += 1
            if steps % 8 == 0 and row:
                g = math.gcd(*row.values())
                if g > 1:
                    row = {k: v // g for k, v in row.items()}
        return False

    def monic(self, row, c):
        """A pivot row of insert divided by its lead entry at column c."""
        x = row[c]
        return {k: Fraction(v, x) for k, v in row.items()}

    def sub_scaled(self, row, f, other):
        """row -= f * other on sparse rows, in place; zeros are dropped."""
        get = row.get
        for c, v in other.items():
            nv = get(c, 0) - f * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)

    def matmul(self, a, b):
        """a @ b over the nonzero entries only: the matrices multiplied
        here are mostly zero, and a dense product of Fractions spends
        nearly all its time on the zeros."""
        out = self.zeros(a.shape[0], b.shape[1])
        for k, brow in enumerate(b):
            row = [(j, brow[j]) for j in np.flatnonzero(brow)]
            if row:  # only the columns of a that meet a nonzero row of b are read
                for r in np.flatnonzero(a[:, k]):
                    x, acc = a[r, k], out[r]
                    for j, v in row:
                        acc[j] += x * v
        return out


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


def _forward(field, rows):
    """Forward elimination (field.insert) of sparse rows, dicts column ->
    coefficient none zero in the field, sparsest first and leading with the
    smallest column: {pivot column: unscaled pivot row}, each pivot row
    holding its other entries at larger columns."""
    pivots = {}
    for row in sorted(rows, key=len):
        field.insert(pivots, row, min)
    return pivots


def _back_substitute(field, pivots, reduced, wanted):
    """The reduced echelon rows of the pivot columns wanted and of every
    pivot column their rows reach, memoized in reduced: each holds one at
    its pivot column, no other pivot column, and its nonzero entries at free
    columns. A pivot row's other entries lie at larger columns, so the rows
    are scaled (field.monic) and then cleared in decreasing column order,
    each only at the pivot columns it holds, by rows already reduced."""
    held = {}
    todo = set(wanted).difference(reduced)
    while todo:
        reach = set()
        for c in todo:
            row = reduced[c] = field.monic(pivots[c], c)
            held[c] = [k for k in row if k != c and k in pivots]
            reach.update(held[c])
        todo = reach.difference(reduced)
    for c in sorted(held, reverse=True):
        row = reduced[c]
        for k in held[c]:
            field.sub_scaled(row, row[k], reduced[k])


def _echelon(field, rows):
    """Reduced row echelon form of sparse rows: (reduced rows, one per
    pivot, as dicts; pivot column list), the forward elimination (_forward)
    followed by the back-substitution of every pivot (_back_substitute)."""
    pivots = _forward(field, rows)
    order = sorted(pivots)
    reduced = {}
    _back_substitute(field, pivots, reduced, order)
    return [reduced[c] for c in order], order


def entry_rows(keys, cols, vals):
    """Sparse rows, dicts column -> value, of the entries (keys[k], cols[k],
    vals[k]) grouped by key in order of first appearance; each (key, column)
    appears once, and values are nonzero in the field."""
    rows = {}
    for i, c, v in zip(keys.tolist(), cols.tolist(), vals.tolist()):
        rows.setdefault(i, {})[c] = v
    return list(rows.values())


class Entries:
    """A rows x cols matrix over a field as entry arrays: vals[k] at
    (ri[k], ci[k]), each position at most once, every value reduced and
    nonzero."""

    def __init__(self, field, rows, cols, ri, ci, vals):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.ri = ri
        self.ci = ci
        self.vals = vals

    @classmethod
    def zeros(cls, field, rows, cols):
        none = np.zeros(0, dtype=np.int64)
        return cls(field, rows, cols, none, none, field.array([]))

    @classmethod
    def of(cls, field, a):
        """The entries of a dense matrix, read off its nonzero entries once:
        only those are reduced, and any that reduce to zero are dropped."""
        a = np.asarray(a)
        ri, ci = np.nonzero(a)
        vals = field.reduce(a[ri, ci])
        keep = np.flatnonzero(vals)
        return cls(field, *a.shape, ri[keep], ci[keep], vals[keep])

    def __neg__(self):
        return Entries(self.field, self.rows, self.cols, self.ri, self.ci, self.field.reduce(-self.vals))

    def columns(self):
        """The columns as sparse dicts row -> value, a zero column empty;
        within a column, rows in entry order."""
        out = [{} for _ in range(self.cols)]
        for r, c, v in zip(self.ri.tolist(), self.ci.tolist(), self.vals.tolist()):
            out[c][r] = v
        return out

    def dense(self):
        """The matrix filled in: vals at (ri, ci), zero elsewhere."""
        out = self.field.zeros(self.rows, self.cols)
        out[self.ri, self.ci] = self.vals
        return out


def rref(field, a):
    """Reduced row echelon form of a dense matrix. Returns (R, pivot column
    list); R has one row per pivot. It is computed on the sparse rows of a
    (see _echelon) and filled in densely only here."""
    e = Entries.of(field, a)
    rows, order = _echelon(field, entry_rows(e.ri, e.ci, e.vals))
    out = field.zeros(len(order), e.cols)
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out, order


def rank(m):
    """Rank over the field of a Mat (through its entries, Entries.of) or an
    Entries. Where every column is two entries of +-1 on distinct rows, the
    matrix is a signed graph's and signed_graph_rank counts components;
    otherwise peel removes singleton rows and columns and sparse_rank
    eliminates the core left, its columns taken as rows. A matrix of at
    most SMALL_ENTRIES entries goes to sparse_rank whole."""
    if not isinstance(m, Entries):
        m = Entries.of(m.field, m.a)
    field = m.field
    core = slice(None)
    rk = 0
    if len(m.vals) > SMALL_ENTRIES:
        if len(m.vals) == 2 * m.cols and (np.bincount(m.ci, minlength=m.cols) == 2).all():
            signs = np.where(m.vals == field.one, 1, np.where(m.vals == field.neg(field.one), -1, 0))
            graph = signed_graph_rank(m.ci, m.ri, signs, m.cols)
            if graph is not None:
                return graph
        rk, core = peel(m.ri, m.ci, m.rows, m.cols)
    return rk + sparse_rank(field, entry_rows(m.ci[core], m.ri[core], m.vals[core]))


def kernel_basis(m):
    """Columns of the result form a basis of the right kernel: m @ result = 0.
    The basis is read off the reduced echelon form, one column per free
    column (echelon_kernel); a Mat's as a Mat, an Entries' as an Entries."""
    if isinstance(m, Entries):
        return echelon_kernel(m)[1]
    return Mat(m.field, echelon_kernel(Entries.of(m.field, m.a))[1].dense())


def echelon_kernel(m):
    """(pivot columns, kernel basis as an Entries) of an Entries, both read
    off one _echelon of its rows: the kernel column of free column f is one
    at f and -R[i, f] at each pivot row i of the reduced echelon form R."""
    field = m.field
    reduced, pivots = _echelon(field, entry_rows(m.ri, m.ci, m.vals))
    free = np.ones(m.cols, dtype=bool)
    free[pivots] = False
    at = np.cumsum(free) - 1  # a free column's kernel column
    ri, ci, vals = [], [], []
    for c, row in zip(pivots, reduced):
        del row[c]
        ri += [c] * len(row)
        ci += row
        vals += [-v for v in row.values()]
    own = np.flatnonzero(free)
    return pivots, Entries(field, m.cols, len(own),
                           np.concatenate([np.array(ri, dtype=np.int64), own]),
                           np.concatenate([at[np.array(ci, dtype=np.int64)], np.arange(len(own))]),
                           field.array(vals + [field.one] * len(own)))


def _kernel_arr(field, a):
    return kernel_basis(Mat(field, a)).a


def independent_columns(field, base, candidates):
    """Indices of the candidate columns that are independent modulo the span
    of the base columns and of the candidates to their left: the pivot
    columns of rref([base | candidates]) past base. Greedy forward
    insertion (field.insert) finds them: the base columns first, then each
    candidate in turn, kept where it adds a pivot. Each column leads with
    its last row, which in a kernel basis read off an rref is its own free
    column. base and candidates are dense arrays or Entries."""
    base, candidates = (m if isinstance(m, Entries) else Entries.of(field, m)
                        for m in (base, candidates))
    pivots = {}
    for col in sorted(base.columns(), key=len):
        field.insert(pivots, col, max)
    return [c for c, col in enumerate(candidates.columns()) if field.insert(pivots, col, max)]


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


def homology_dims(dims, maps):
    """Homology dimensions of a complex of vector spaces with the given
    dimensions, maps[k] (a Mat or an Entries) going from position k to
    position k + 1 (a last map out of the final position may be given or
    left out). Each map is ranked once, by rank."""
    ranks = [rank(m) for m in maps] + [0]
    return [n - ranks[k] - (ranks[k - 1] if k else 0) for k, n in enumerate(dims)]


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
    x[pivots] = r[:, nb:]
    return x


def invert(field, a):
    """Inverse of a square matrix; raises if singular."""
    n = a.shape[0]
    eye = field.zeros(n, n)
    eye[range(n), range(n)] = field.one
    r, pivots = rref(field, np.concatenate([a, eye], axis=1))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return r[:, n:]


def sparse_rank(field, rows):
    """Rank of a matrix given as sparse rows (dicts column -> coefficient,
    none zero in the field; over Q, Fractions or Python ints), by forward
    elimination (field.insert) with sparsest-first ordering, leading with
    the largest column."""
    pivots = {}
    for row in sorted(rows, key=len):
        field.insert(pivots, row, max)
    return len(pivots)


def _components(n, u, v):
    """Number of connected components of the graph on nodes 0..n-1 with
    edges (u[k], v[k]), by label propagation: each round hooks the larger
    root label of every edge whose ends disagree onto the smaller, then
    follows labels to their roots. Labels only decrease, and each round
    removes at least one root."""
    lab = np.arange(n)
    while True:
        lu, lv = lab[u], lab[v]
        apart = lu != lv
        if not apart.any():
            return int(np.count_nonzero(lab == np.arange(n)))
        lu, lv = lu[apart], lv[apart]
        lo = np.minimum(lu, lv)
        np.minimum.at(lab, lu, lo)
        np.minimum.at(lab, lv, lo)
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up


def signed_graph_rank(cols, rows, signs, ncols):
    """Rank, over any field of characteristic other than 2, of the matrix
    with entry signs[k] at (rows[k], cols[k]), when each of its ncols
    columns has exactly two entries, on distinct rows, each 1 or -1; None
    otherwise, and the caller eliminates.

    Such a matrix is the incidence matrix of a signed graph on its rows
    (Zaslavsky, Signed graphs, 1982): s e_u + t e_v is an edge, negative when
    s = t. Its rank is the number of rows it touches minus the number of
    balanced components, and a component is balanced exactly when it lifts
    to two components of the signed double cover (negative edges cross the
    sheets), so balanced = components(cover) - components(graph)."""
    if len(cols) != 2 * ncols or not (np.abs(signs) == 1).all():
        return None
    if not (np.bincount(cols, minlength=ncols) == 2).all():
        return None
    order = np.argsort(cols, kind="stable")
    ends = rows[order].reshape(ncols, 2)
    if (ends[:, 0] == ends[:, 1]).any():
        return None
    touched = np.bincount(ends.ravel()) > 0
    u, v = (np.cumsum(touched) - 1)[ends].T
    m = int(np.count_nonzero(touched))
    s = signs[order].reshape(ncols, 2)
    cross = np.where(s[:, 0] == s[:, 1], m, 0)
    parts = _components(m, u, v)
    if not cross.any():  # no negative edge: every component is balanced
        return m - parts
    cover = _components(2 * m, np.concatenate([u, u + m]),
                        np.concatenate([v + cross, v + m - cross]))
    return m - (cover - parts)


def peel(rows, cols, nrows, ncols):
    """Singleton reduction of the matrix with a nonzero entry at each
    (rows[k], cols[k]), every position given once, over any field.

    Each round removes every column that is the only entry of some row (it
    is independent of all other columns), then every remaining column with a
    single entry together with that entry's row (a column operation by it
    clears the row); each removal adds one to the rank, a row shared by
    several single-entry columns only once. Rounds repeat until neither rule
    applies (the reductions of Kaczynski, Mrozek and Slusarek, 1998, and of
    structured Gaussian elimination). Returns the rank removed and a mask of
    the entries left in the core: rank = peeled + rank(core)."""
    at = np.arange(len(rows))
    r, c = rows, cols
    peeled = 0
    while len(at):
        lone = np.bincount(r, minlength=nrows)[r] == 1
        claimed = np.zeros(ncols, dtype=bool)
        claimed[c[lone]] = True
        taken = claimed[c]
        single = np.bincount(c, minlength=ncols)[c] == 1
        cleared = np.zeros(nrows, dtype=bool)
        cleared[r[single & ~taken]] = True
        removed = int(np.count_nonzero(claimed)) + int(np.count_nonzero(cleared))
        if not removed:
            break
        peeled += removed
        keep = ~(taken | cleared[r])
        at, r, c = at[keep], r[keep], c[keep]
    core = np.zeros(len(rows), dtype=bool)
    core[at] = True
    return peeled, core


class RowReducer:
    """Forward-echelonized row space with normal forms on request.

    Used to present cokernels: rows (sparse, over ncols columns) span the
    relation space, labels outside the pivot set index the quotient basis.
    Only the forward elimination runs when it is built. A free label is its
    own basis vector; the normal form of a pivot label c, -R[c, free] for
    the reduced echelon form R, is back-substituted the first time
    reduce_rows is asked for c and appended to _cols and _vals, where each
    label's form starts at _start (-1 while not yet made) and runs for
    _size entries."""

    def __init__(self, field, rows, ncols):
        self.field = field
        self.ncols = ncols
        self._forward = _forward(field, rows)
        self._reduced = {}
        self.pivots = sorted(self._forward)
        free = np.ones(ncols, dtype=bool)
        free[self.pivots] = False
        self.free = np.flatnonzero(free).tolist()
        self._basis = np.cumsum(free) - 1  # a free column's basis index
        self._start = np.where(free, self._basis, -1)
        self._size = free.astype(np.int64)
        self._cols = np.arange(len(self.free))
        self._vals = field.array([field.one] * len(self.free))

    @property
    def corank(self):
        return len(self.free)

    def reduce_rows(self, labels):
        """The normal forms of the labels (an int array of columns) modulo the
        row space as entries (owner, coordinate, value): the label at
        position owner has value at that quotient basis vector. Every value
        is nonzero."""
        new = sorted(set(labels[self._start[labels] < 0].tolist()))
        if new:
            _back_substitute(self.field, self._forward, self._reduced, new)
            ks, vs, sizes = [], [], []
            for c in new:
                row = self._reduced[c]
                ks += [k for k in row if k != c]
                vs += [v for k, v in row.items() if k != c]
                sizes.append(len(row) - 1)
            self._start[new] = len(self._cols) + np.cumsum(sizes) - sizes
            self._size[new] = sizes
            self._cols = np.concatenate([self._cols, self._basis[np.array(ks, dtype=np.int64)]])
            self._vals = np.concatenate([self._vals, self.field.reduce(-self.field.array(vs))])
        start = self._start[labels]
        sizes = self._size[labels]
        owner = np.repeat(np.arange(len(labels)), sizes)
        at = np.arange(len(owner)) + np.repeat(start - np.cumsum(sizes) + sizes, sizes)
        return owner, self._cols[at], self._vals[at]
