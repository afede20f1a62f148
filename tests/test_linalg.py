import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torictate import linalg
from torictate.dmres import _IncrementalRank, _select_representatives
from torictate.errors import WindowTooSmall
from torictate.linalg import (GF, QQ, Mat, RowReducer, homology_dim, homology_dims,
                              invert, kernel_basis, peel, rank, rref, signed_graph_rank,
                              solve_in_span, sparse_rank)


def test_rank_empty(gf):
    assert rank(Mat.zeros(gf, 0, 0)) == 0


def test_rank_identity(gf):
    assert rank(Mat(gf, np.eye(3, dtype=np.int64))) == 3


def test_rank_dependent_rows(gf):
    # [[1,2],[2,4]]: second row is twice the first
    assert rank(Mat(gf, [[1, 2], [2, 4]])) == 1


def test_kernel_identity(gf):
    k = kernel_basis(Mat(gf, np.eye(4, dtype=np.int64)))
    assert k.cols == 0


def test_kernel_zero_matrix(gf):
    k = kernel_basis(Mat.zeros(gf, 2, 3))
    assert k.cols == 3


def test_kernel_single_row(gf):
    m = Mat(gf, [[1, 1, 0]])
    k = kernel_basis(m)
    assert k.cols == 2
    assert (m @ k).is_zero()
    # (1, -1, 0) lies in the kernel span
    target = gf.array([[1], [-1], [0]])
    assert solve_in_span(gf, k.a, target) is not None


def test_homology_zero_differentials(gf):
    z = Mat.zeros(gf, 3, 0)
    z2 = Mat.zeros(gf, 0, 3)
    assert homology_dim(z, z2) == 3


def test_homology_exact_pair(gf):
    # 0 -> k -> k^2 -> k -> 0 with d_in = (1,0)^t, d_out = (0,1): exact at middle
    d_in = Mat(gf, [[1], [0]])
    d_out = Mat(gf, [[0, 1]])
    assert homology_dim(d_in, d_out) == 0


def test_homology_koszul_one_variable(gf):
    # K(x0) on P^1 in a nonzero degree d = 2: S(-1)_2 -> S_2 is injective,
    # so the kernel-end homology vanishes.
    x0 = Mat(gf, [[1, 0], [0, 1], [0, 0]])  # mult by x0: S_1 -> S_2
    nothing = Mat.zeros(gf, 2, 0)
    assert homology_dim(nothing, x0) == 0


def test_homology_rejects_nonzero_composite(gf):
    d_in = Mat(gf, [[1], [0]])
    d_out = Mat(gf, [[1, 0]])
    with pytest.raises(ValueError):
        homology_dim(d_in, d_out)


def test_homology_rejects_shape_mismatch(gf):
    with pytest.raises(ValueError):
        homology_dim(Mat.zeros(gf, 3, 1), Mat.zeros(gf, 1, 2))


def test_rank_plus_nullity(gf, rng):
    for _ in range(25):
        r = rng.randrange(0, 6)
        c = rng.randrange(0, 6)
        a = gf.zeros(r, c)
        for i in range(r):
            for j in range(c):
                a[i, j] = rng.randrange(-10, 11) % gf.p
        m = Mat(gf, a)
        assert rank(m) + kernel_basis(m).cols == c


def test_homology_invariant_under_basis_change(gf, rng):
    # d_out d_in = 0 built from a random middle splitting; conjugating the
    # middle by an invertible matrix preserves the homology dimension.
    for _ in range(10):
        n = rng.randrange(2, 6)
        rk_in = rng.randrange(0, n)
        d_in = gf.zeros(n, rk_in)
        for i in range(rk_in):
            d_in[i, i] = 1
        rk_out = rng.randrange(0, n - rk_in + 1)
        d_out = gf.zeros(rk_out, n)
        for i in range(rk_out):
            d_out[i, n - 1 - i] = 1
        h0 = homology_dim(Mat(gf, d_in), Mat(gf, d_out))
        g = None
        while g is None:
            cand = gf.array([[rng.randrange(0, gf.p) for _ in range(n)] for _ in range(n)])
            try:
                invert(gf, cand)
                g = cand
            except ValueError:
                pass
        gi = invert(gf, g)
        h1 = homology_dim(Mat(gf, gf.reduce(gi @ d_in)), Mat(gf, gf.reduce(d_out @ g)))
        assert h0 == h1


def test_gf_and_qq_agree(rng, gf, qq):
    for trial in range(15):
        hi = 30 if trial < 2 else 8
        r = rng.randrange(1, hi)
        c = rng.randrange(1, hi)
        rows = [[rng.randrange(-10, 11) for _ in range(c)] for _ in range(r)]
        assert rank(Mat(gf, rows)) == rank(Mat(qq, rows))
        assert kernel_basis(Mat(gf, rows)).cols == kernel_basis(Mat(qq, rows)).cols


def test_gf_rejects_non_prime():
    with pytest.raises(ValueError):
        GF(32004)
    with pytest.raises(ValueError):
        GF(2)


def _gathered(red, v):
    """v reduced through the gather: each row of v combines the normal
    forms of the labels it holds, read off RowReducer.reduce_rows."""
    owner, coords, vals = red.reduce_rows(np.arange(red.ncols))
    forms = red.field.zeros(red.ncols, red.corank)
    forms[owner, coords] = vals
    return red.field.matmul(v, forms)


def _dense_reduced(field, rows, v):
    """The dense reference: v - v[:, piv] R restricted to the free columns,
    R the reduced echelon form of the relation rows."""
    n = v.shape[1]
    a = field.zeros(len(rows), n)
    for i, row in enumerate(rows):
        a[i, list(row)] = list(row.values())
    r, piv = rref(field, a)
    free = [j for j in range(n) if j not in piv]
    if piv and v.shape[0]:
        v = field.reduce(v - field.matmul(v[:, piv], r))
    return v[:, free]


def test_row_reducer_quotient():
    # k^3 modulo the span of (1, 1, 0): quotient has dimension 2
    for field in FIELDS:
        red = RowReducer(field, [{0: field.one, 1: field.one}], 3)
        assert red.corank == 2 and red.pivots == [0] and red.free == [1, 2]
        # e1 and e2 are quotient basis vectors; e0 reduces to -e1
        owner, coords, vals = red.reduce_rows(np.array([1, 0, 2, 0]))
        assert owner.tolist() == [0, 1, 2, 3] and coords.tolist() == [0, 0, 1, 0]
        assert vals.tolist() == [field.one, field.neg(field.one), field.one, field.neg(field.one)]
        v = field.array([[0, 1, 0], [1, 0, 0], [2, 3, 5]])
        want = _dense_reduced(field, [{0: 1, 1: 1}], v)
        assert _gathered(red, v).tolist() == want.tolist() == field.array([[1, 0], [-1, 0], [1, 5]]).tolist()


def test_rref_pivots(qq):
    r, piv = rref(qq, qq.array([[2, 4], [1, 2]]))
    assert piv == [0]
    assert r.shape[0] == 1


def _dense_rank_mod(p, rows, ncols):
    """Rank mod p by Gaussian elimination on lists of Python ints."""
    m = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


@pytest.mark.parametrize("p", [32003, 2147483647])
def test_sparse_rank_matches_dense_reference(p, rng):
    field = GF(p)
    for _ in range(60):
        nrows, ncols = rng.randint(0, 14), rng.randint(1, 14)
        rows = []
        for _ in range(nrows):
            row = {}
            for c in rng.sample(range(ncols), rng.randint(0, min(4, ncols))):
                row[c] = rng.choice([1, p - 1, rng.randrange(1, p)])
            rows.append(row)
        # dependent rows: sums of earlier ones, so that elimination cancels
        for _ in range(rng.randint(0, 3)):
            if rows:
                a, b = rng.choice(rows), rng.choice(rows)
                s = {c: (a.get(c, 0) + b.get(c, 0)) % p for c in set(a) | set(b)}
                rows.append({c: v for c, v in s.items() if v})
        assert sparse_rank(field, rows) == _dense_rank_mod(p, rows, ncols)


def _loop_kernel(field, a):
    """The entry-by-entry kernel construction that kernel_basis replaced."""
    n = a.shape[1]
    if n == 0:
        return field.zeros(0, 0)
    if a.shape[0] == 0:
        return Mat(field, np.eye(n, dtype=np.int64) if isinstance(field, GF) else QQ().array(np.eye(n, dtype=np.int64))).a
    r, pivots = rref(field, a)
    free = [j for j in range(n) if j not in set(pivots)]
    k = field.zeros(n, len(free))
    for idx, j in enumerate(free):
        k[j, idx] = field.one
        for i, pc in enumerate(pivots):
            k[pc, idx] = field.neg(r[i, j])
    return k


@pytest.mark.parametrize("field", [GF(), GF(2147483647), QQ()], ids=repr)
def test_kernel_basis_matches_entrywise_loop(field, rng):
    for _ in range(150):
        rows, cols = rng.randrange(0, 7), rng.randrange(0, 8)
        a = field.array([[rng.choice([0, 0, 1, -1, rng.randrange(-50, 51)]) for _ in range(cols)]
                         for _ in range(rows)]).reshape(rows, cols)
        for c in range(cols):
            if c and rng.random() < 0.25:
                a[:, c] = a[:, rng.randrange(0, c)]
        got = kernel_basis(Mat(field, a)).a
        want = _loop_kernel(field, a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()
        assert [type(x) for x in got.flat] == [type(x) for x in want.flat]


def _int_product(p, a, b):
    """a @ b mod p on Python ints."""
    a, b = a.tolist(), b.tolist()
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


@pytest.mark.parametrize("p", [32003, 2147483647])
def test_matmul_matches_python_ints(p, rng):
    field = GF(p)
    for n in (1, 2, 7, 50):
        a = field.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        b = field.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        assert (Mat(field, a) @ Mat(field, b)).a.tolist() == _int_product(p, a, b)
    # every entry p - 1, so each partial sum is as large as it can be
    top = np.full((3, 5), p - 1, dtype=np.int64)
    assert field.matmul(top, top.T).tolist() == _int_product(p, top, top.T)
    # negative entries above -p, as in a matrix negated before reduction
    assert field.matmul(-top, top.T).tolist() == _int_product(p, -top, top.T)


def test_matmul_splits_long_inner_dimension(rng):
    # an inner dimension beyond one chunk of 2^16 at p = 2^31 - 1
    p = 2147483647
    field = GF(p)
    inner = 70000
    a = np.array([[rng.randrange(p) for _ in range(inner)] for _ in range(2)], dtype=np.int64)
    b = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(inner)], dtype=np.int64)
    assert field.matmul(a, b).tolist() == _int_product(p, a, b)


def test_qq_matmul_matches_dense_product(rng):
    # QQ multiplies over nonzero entries only; the dense object product is
    # the reference, on empty shapes too
    field = QQ()
    for m, k, n in ((4, 5, 3), (7, 1, 6), (0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)):
        a, b = field.zeros(m, k), field.zeros(k, n)
        for x in (a, b):
            for idx in np.ndindex(x.shape):
                if rng.random() < 0.3:
                    x[idx] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        got = field.matmul(a, b)
        assert got.shape == (m, n) and got.dtype == object
        assert (got == a @ b).all()


def reference_rref(field, a):
    """The dense column-by-column Gauss-Jordan routine that rref replaced."""
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


FIELDS = [GF(), GF(2147483647), QQ()]


@st.composite
def _matrices(draw, fields=FIELDS):
    """A field and a matrix over it: any shape up to 9 x 12 (0 rows or 0
    columns included), density 1% to 100%, with zero rows and rows that are
    multiples or sums of other rows."""
    field = draw(st.sampled_from(fields))
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 12))
    density = draw(st.floats(0.01, 1.0))
    rnd = draw(st.randoms(use_true_random=False))
    if isinstance(field, QQ):
        entry = lambda: Fraction(rnd.randrange(-9, 10) or 1, rnd.choice([1, 1, 2, 3, 7]))
    else:
        entry = lambda: rnd.choice([1, field.p - 1, rnd.randrange(1, field.p)])
    rows = [[entry() if rnd.random() < density else 0 for _ in range(n)] for _ in range(m)]
    for i in range(m):
        kind = rnd.choice(["keep", "keep", "zero", "copy", "combine"])
        if kind == "zero":
            rows[i] = [0] * n
        elif kind == "copy":
            rows[i] = list(rows[rnd.randrange(m)])
        elif kind == "combine":
            f, g = entry(), entry()
            rows[i] = [field.reduce(f * x + g * y)
                       for x, y in zip(rows[rnd.randrange(m)], rows[rnd.randrange(m)])]
    return field, field.array(rows).reshape(m, n)


@settings(max_examples=400, deadline=None)
@given(_matrices())
def test_rref_matches_dense_reference(case):
    field, a = case
    r, pivots = rref(field, a)
    want_r, want_pivots = reference_rref(field, a)
    assert pivots == want_pivots
    assert r.shape == want_r.shape and r.dtype == want_r.dtype
    assert r.tolist() == want_r.tolist()
    assert [type(x) for x in r.flat] == [type(x) for x in want_r.flat]
    if isinstance(field, QQ):
        assert all(type(x) is Fraction for x in r.flat)


@st.composite
def _unreduced_matrices(draw):
    """A matrix of _matrices, also over GF(3), whose GF(p) entries are
    shifted by -2p to p: a cone block holds -x unreduced, and a zero entry
    shifted reads +-p, nonzero but zero in the field."""
    field, a = draw(_matrices(FIELDS + [GF(3)]))
    if isinstance(field, GF) and a.size:
        shifts = draw(st.lists(st.sampled_from([0, 0, -1, 1, -2]), min_size=a.size,
                               max_size=a.size))
        a = a + field.p * np.array(shifts, dtype=np.int64).reshape(a.shape)
    return field, a


@settings(max_examples=400, deadline=None)
@given(_unreduced_matrices())
def test_rank_by_forward_elimination_is_the_rref_pivot_count(case):
    field, a = case
    want = len(reference_rref(field, a)[1])
    assert rank(Mat(field, a)) == len(rref(field, a)[1]) == want


def _sparse(a):
    return [{c: v for c, v in enumerate(row) if v} for row in a.tolist()]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_reduce_rows_matches_unrestricted_product(field, rng):
    for _ in range(60):
        m, n, k = rng.randrange(0, 6), rng.randrange(1, 9), rng.randrange(0, 5)
        a = field.array([[rng.choice([0, 0, 1, -1, rng.randrange(-20, 21)]) for _ in range(n)]
                         for _ in range(m)]).reshape(m, n)
        red = RowReducer(field, _sparse(a), n)
        # gathers of any labels, repeats included, over several calls, each
        # asking for some forms made by an earlier call and some not: each
        # is the gather of each label
        for _ in range(rng.randrange(1, 5)):
            labels = np.array([rng.randrange(n) for _ in range(k)], dtype=np.int64)
            owner, coords, vals = red.reduce_rows(labels)
            assert all(vals != field.zero) and len(owner) == len(set(zip(owner.tolist(), coords.tolist())))
            for j, lab in enumerate(labels.tolist()):
                mine = {c: x for o, c, x in zip(owner.tolist(), coords.tolist(), vals.tolist()) if o == j}
                unit = field.zeros(1, n)
                unit[0, lab] = field.one
                want = _dense_reduced(field, _sparse(a), unit)[0]
                assert mine == {c: x for c, x in enumerate(want.tolist()) if x != field.zero}
        v = field.array([[rng.choice([0, 1, rng.randrange(-20, 21)]) for _ in range(n)]
                         for _ in range(k)]).reshape(k, n)
        if k and rng.random() < 0.5:
            v[rng.randrange(k), red.pivots] = field.zero  # this row touches no pivot column
        if rng.random() < 0.2:
            v[:, red.pivots] = field.zero  # no row does
        assert _gathered(red, v).tolist() == _dense_reduced(field, _sparse(a), v).tolist()


def test_sparse_rank_rational_denominators(qq):
    # the 6 x 6 Hilbert matrix is invertible over Q
    hilbert = [{c: Fraction(1, r + c + 1) for c in range(6)} for r in range(6)]
    assert sparse_rank(qq, hilbert) == 6
    # rows that combine others with non-unit coefficients add no rank
    mix = {c: Fraction(2, 3) * hilbert[0][c] - Fraction(5, 7) * hilbert[4][c] for c in range(6)}
    assert sparse_rank(qq, hilbert[:5] + [mix]) == 5
    # ints and Fractions mixed in one row; the third row is the first halved
    rows = [{0: 2, 1: Fraction(1, 3)}, {1: 4, 2: Fraction(-1, 5)}, {0: Fraction(1), 1: Fraction(1, 6)}]
    assert sparse_rank(qq, rows) == 2


def test_homology_dims_ranks_each_map_once(gf):
    # 0 -> k --(1,0)^t--> k^2 --(0,1)--> k -> 0 is exact; the ends are kept
    d0, d1 = Mat(gf, [[1], [0]]), linalg.Entries.of(gf, gf.array([[0, 1]]))
    assert homology_dims([1, 2, 1], [d0, d1]) == [0, 0, 0]
    assert homology_dims([1, 2, 1], [d0, d1, linalg.Entries.zeros(gf, 0, 1)]) == [0, 0, 0]
    assert homology_dims([1, 2, 1], [Mat.zeros(gf, 2, 1), d1]) == [1, 1, 0]
    assert homology_dims([3], []) == [3]


def reference_sparse_rank_gf(p, rows):
    """The GF(p) sparse rank loop that field.insert replaced: leads with the
    largest column, keeps pivot rows unscaled with their lead inverse."""
    pivots = {}
    for row in sorted(rows, key=len):
        owned = False
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                x = row[lead] % p
                pivots[lead] = (row, x if x == 1 or x == p - 1 else pow(x, p - 2, p))
                break
            if not owned:
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


def reference_sparse_rank_fraction_free(rows):
    """The fraction-free rational rank that field.insert replaced: leads with
    the smallest column."""
    def to_int_row(row):
        nums = [v.numerator for v in row.values()]
        dens = [v.denominator for v in row.values()]
        denom = math.lcm(*dens)
        return {c: n * (denom // d) for c, n, d in zip(row, nums, dens)}

    pivots = {}
    for row in sorted(rows, key=len):
        row = to_int_row(row)
        steps = 0
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                g = 0
                for v in row.values():
                    g = math.gcd(g, v)
                pivots[lead] = {c: v // g for c, v in row.items()}
                break
            a, b = piv[lead], row[lead]
            new = {c: a * v for c, v in row.items()}
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
                row = {c: v // g for c, v in row.items()}
    return len(pivots)


class ReferenceIncrementalRank:
    """The dense accumulator that _IncrementalRank replaced: rows normalized
    at their first nonzero column, reduced one dense row at a time."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.rows = []

    def add(self, vec):
        v = np.array(vec, copy=True)
        for piv, row in self.rows:
            c = v[piv]
            if c != self.field.zero:
                v = self.field.reduce(v - c * row)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        self.rows.append((piv, self.field.reduce(v * self.field.inv(v[piv]))))
        return True


@settings(max_examples=400, deadline=None)
@given(_matrices(), st.randoms(use_true_random=False))
def test_one_elimination_matches_references(case, rnd):
    # the matrices hold zero rows, copied rows and summed rows, with
    # denominators over Q and 0-row or 0-column shapes
    field, a = case
    rows = _sparse(a)
    if isinstance(field, QQ):
        # a rational row may hold Python ints as well as Fractions
        rows = [{c: int(v) if v.denominator == 1 and rnd.random() < 0.5 else v for c, v in row.items()}
                for row in rows]
        want = reference_sparse_rank_fraction_free(rows)
    else:
        want = reference_sparse_rank_gf(field.p, rows)
    before = [dict(row) for row in rows]
    assert sparse_rank(field, rows) == want
    assert rows == before  # rows are only read
    new, old = _IncrementalRank(field), ReferenceIncrementalRank(field, a.shape[1])
    assert [new.add(v) for v in a] == [old.add(v) for v in a]


@pytest.mark.parametrize("field", [GF(), QQ()], ids=["gf", "qq"])
def test_dense_allocation_over_the_budget_raises_before_allocating(field, monkeypatch):
    # the shape is checked before the matrix is allocated: at a budget of
    # six cells 2 x 3 is made and 3 x 3 refused, and the Cech block the P1^3
    # hypersurface S/(x0x2x4 + x1x3x5) asks for at (0,0,0) (9.75 GiB as
    # int64) is refused at the real budget
    monkeypatch.setattr(linalg, "MAX_DENSE_CELLS", 6)
    assert field.zeros(2, 3).shape == (2, 3)
    with pytest.raises(WindowTooSmall, match="dense 3 x 3 matrix"):
        field.zeros(3, 3)
    monkeypatch.undo()
    with pytest.raises(WindowTooSmall, match="dense 42952 x 30464 matrix"):
        field.zeros(42952, 30464)


@st.composite
def _signed_graphs(draw):
    """A field and a map whose every column is two entries of +-1 on
    distinct rows, as (cols, rows, signs, ncols) and as sparse columns:
    random edges, whose signs close unbalanced cycles, triangles with an odd
    number of negative edges, columns repeated or negated, edges on two rows
    nothing else touches, and rows no column touches; in half the draws
    every edge is made positive (one entry 1, the other -1)."""
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(2, 14))
    rnd = draw(st.randoms(use_true_random=False))
    sign = lambda: rnd.choice([1, -1])
    cols = []
    for _ in range(draw(st.integers(0, 16))):
        kind = rnd.choice(["edge", "edge", "triangle", "repeat", "isolated"])
        if kind == "triangle" and nrows >= 3:
            a, b, c = rnd.sample(range(nrows), 3)
            cols += [((a, 1), (b, -1)), ((b, 1), (c, -1)), ((c, 1), (a, 1))]
        elif kind == "repeat" and cols:
            (u, s), (v, t) = rnd.choice(cols)
            f = sign()
            cols.append(((u, f * s), (v, f * t)))
        elif kind == "isolated":
            u, v = nrows, nrows + 1
            nrows += 2
            cols.append(((u, sign()), (v, sign())))
        else:
            u, v = rnd.sample(range(nrows), 2)
            cols.append(((u, sign()), (v, sign())))
    nrows += draw(st.integers(0, 3))  # untouched rows
    if draw(st.booleans()):  # no negative edge, as in y e - x e'
        cols = [((u, s), (v, -s)) for (u, s), (v, _) in cols]
    rnd.shuffle(cols)
    entries = [(j, u, s) for j, col in enumerate(cols) for u, s in col]
    rnd.shuffle(entries)
    arrays = [np.array([e[k] for e in entries], dtype=np.int64) for k in range(3)]
    sparse = [{u: field.of(s) for u, s in col} for col in cols]
    return field, (*arrays, len(cols)), sparse


@settings(max_examples=300, deadline=None)
@given(_signed_graphs())
def test_signed_graph_rank_matches_sparse_rank(case):
    field, entries, sparse = case
    assert signed_graph_rank(*entries) == sparse_rank(field, sparse)


def test_signed_graph_rank_declines_other_maps():
    # a column of e0 + e1 and one of e1 - e2 is a signed graph; with an
    # entry 2, a third entry, a lone entry or both entries on one row it is
    # not, and the caller eliminates
    def rank(*cols):
        entries = [(j, u, s) for j, col in enumerate(cols) for u, s in col]
        c, r, s = (np.array(x, dtype=np.int64) for x in zip(*entries))
        return signed_graph_rank(c, r, s, len(cols))

    assert rank([(0, 1), (1, 1)], [(1, 1), (2, -1)]) == 2
    assert rank([(0, 2), (1, 1)], [(1, 1), (2, -1)]) is None
    assert rank([(0, 1), (1, 1), (2, 1)], [(1, 1), (2, -1)]) is None
    assert rank([(0, 1)], [(1, 1), (2, -1)]) is None
    assert rank([(0, 1), (0, -1)], [(1, 1), (2, -1)]) is None
    assert signed_graph_rank(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64), 0) == 0


PEEL_FIELDS = [GF(3), GF(), GF(2147483647), QQ()]


def _column_dicts(field, rows, cols, vals, keep):
    out = {}
    for r, c, v, k in zip(rows.tolist(), cols.tolist(), vals, keep.tolist()):
        if k:
            out.setdefault(c, {})[r] = field.of(v)
    return list(out.values())


@st.composite
def _peelable(draw):
    """A field and a sparse matrix with nonzero entries, as entry arrays
    (rows, cols, values) and its shape: planted dense cores, the 2 x 2 core
    [[1, 1], [1, 4]] whose rank drops mod 3, triangular blocks that peel over
    several rounds, rows claimed by two single-entry columns, and entries
    scattered across the blocks."""
    field = draw(st.sampled_from(PEEL_FIELDS))
    rnd = draw(st.randoms(use_true_random=False))

    def value():  # nonzero mod 3, 32003 and 2^31 - 1
        v = rnd.choice([1, -1, 2, 4, -5, 7, 1000])
        return Fraction(v, rnd.choice([1, 1, 3])) if isinstance(field, QQ) else v

    entries = {}
    nrows = ncols = 0
    for _ in range(draw(st.integers(0, 8))):
        kind = rnd.choice(["core", "mod 3", "triangle", "twins", "scatter"])
        if kind == "scatter" and nrows and ncols:
            for _ in range(rnd.randint(1, 4)):
                entries[rnd.randrange(nrows), rnd.randrange(ncols)] = value()
            continue
        if kind == "mod 3":
            block = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 4}
        elif kind == "twins":
            block = {(0, 0): value(), (0, 1): value()}
        else:
            k = rnd.randint(2, 4)
            block = {(a, b): value() for a in range(k) for b in range(k)
                     if kind == "core" or a == b or (b > a and rnd.random() < 0.5)}
        for (a, b), v in block.items():
            entries[nrows + a, ncols + b] = v
        nrows += 1 + max(a for a, _ in block)
        ncols += 1 + max(b for _, b in block)
    items = list(entries.items())
    rnd.shuffle(items)
    rows, cols = (np.array([rc[k] for rc, _ in items], dtype=np.int64) for k in range(2))
    extra = draw(st.integers(0, 2))  # untouched rows and columns
    return field, rows, cols, [v for _, v in items], nrows + extra, ncols + extra


@settings(max_examples=300, deadline=None)
@given(_peelable())
def test_peel_plus_core_rank_is_sparse_rank(case):
    field, rows, cols, vals, nrows, ncols = case
    peeled, core = peel(rows, cols, nrows, ncols)
    whole = _column_dicts(field, rows, cols, vals, np.ones(len(rows), dtype=bool))
    assert peeled + sparse_rank(field, _column_dicts(field, rows, cols, vals, core)) == sparse_rank(field, whole)
    # peeling runs to the end: no row or column of the core has one entry
    for ends in (rows[core], cols[core]):
        assert not (np.bincount(ends) == 1).any()


@pytest.mark.parametrize("field, rank_core", [(GF(3), 1), (GF(), 2), (GF(2147483647), 2), (QQ(), 2)],
                         ids=repr)
def test_peel_counts_a_shared_row_once_and_keeps_a_dense_core(field, rank_core):
    # columns 0 and 1 are single entries on row 0, which is counted once;
    # [[1, 1], [1, 4]] on rows 1, 2 and columns 2, 3 does not peel, and its
    # rank is left to elimination, where it drops mod 3
    rows, cols = np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 2, 3, 2, 3])
    vals = [1, 2, 1, 1, 1, 4]
    peeled, core = peel(rows, cols, 3, 4)
    assert peeled == 1 and core.tolist() == [False, False, True, True, True, True]
    assert sparse_rank(field, _column_dicts(field, rows, cols, vals, core)) == rank_core
    whole = _column_dicts(field, rows, cols, vals, np.ones(6, dtype=bool))
    assert sparse_rank(field, whole) == 1 + rank_core


def _entry_block(field, rng, rows, cols, per_col, signed):
    """A rows x cols Entries with per_col entries in each column (in half
    the blocks, a zero column now and then), on distinct rows drawn from a
    few, so that columns repeat and ranks fall short: +-1 where signed (-1
    stored as p - 1 over GF(p)), otherwise small nonzero values."""
    ri, ci, vals = [], [], []
    pool = list(range(rows))[:max(per_col, rng.randrange(1, rows + 1))] if rows else []
    zeros = rng.choice([0, 0.1])
    for c in range(cols):
        if rng.random() < zeros:
            continue
        at = rng.sample(pool, min(per_col, len(pool)))
        ri += at
        ci += [c] * len(at)
        vals += [rng.choice([1, -1]) if signed else rng.choice([1, -1, 2, -3, 5]) for _ in at]
    return linalg.Entries(field, rows, cols, np.array(ri, dtype=np.int64), np.array(ci, dtype=np.int64),
                          field.array(vals))


def _dense_of(e):
    return e.dense()


@pytest.mark.parametrize("field", [GF(), GF(2147483647), QQ()], ids=repr)
@pytest.mark.parametrize("small", [0, linalg.SMALL_ENTRIES])
def test_entry_route_matches_dense_route(field, small, rng, monkeypatch):
    # rank, kernel and representative selection of an Entries against the
    # dense Mat route: ranks by signed graphs, by peeling plus elimination
    # and (below SMALL_ENTRIES) by elimination alone; kernels entry for
    # entry; selections against independent_columns of the dense matrices
    # and the pivots of rref([d_in | K]), for both policies
    monkeypatch.setattr(linalg, "SMALL_ENTRIES", small)
    shapes = [(0, 0), (3, 0), (0, 4)] + [(rng.randrange(1, 90), rng.randrange(1, 90)) for _ in range(30)]
    for k, (rows, cols) in enumerate(shapes):
        for per_col in (1, 2, 3):
            e = _entry_block(field, rng, rows, cols, per_col, signed=k % 3 != 2)
            a = _dense_of(e)
            assert rank(e) == rank(Mat(field, a)) == len(rref(field, a)[1])
            ker = kernel_basis(e)
            want = kernel_basis(Mat(field, a)).a
            assert (ker.rows, ker.cols) == want.shape
            assert _dense_of(ker).tolist() == want.tolist()
            # d_in: combinations of kernel columns, some dependent, and a
            # block of its own
            d_in = _entry_block(field, rng, ker.cols, rng.randrange(0, 6), 2, signed=True)
            d_in = Mat(field, want) @ Mat(field, _dense_of(d_in))
            for policy in ("first", "last"):
                order = want[:, ::-1] if policy == "last" else want
                picked = linalg.independent_columns(field, d_in.a, order)
                nb = d_in.cols
                assert picked == [c - nb for c in rref(field, np.concatenate([d_in.a, order], axis=1))[1]
                                  if c >= nb]
                got = _select_representatives(field, ker, linalg.Entries.of(field, d_in.a), policy)
                assert [v.tolist() for v in got.dense().T] == [order[:, c].tolist() for c in picked]


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division(rng):
    # every n below 10^5, random n below 2^31, and strong pseudoprimes to
    # the bases 2; 2, 3; and 2, 3, 5
    assert [n for n in range(10 ** 5) if linalg._is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division(n)]
    for n in [rng.randrange(1 << 31) for _ in range(300)] + [(1 << 31) - 1, (1 << 31) - 3]:
        assert linalg._is_prime(n) == _trial_division(n), n
    assert not any(linalg._is_prime(n) for n in (2047, 1373653, 25326001))
