"""The Koszul resolution of the diagonal over the doubled Cox ring.

Over S' = k[x; y] with the semigroup ring R = S'[Eff] the elements
y_i - x_i u_i form a regular sequence; the Koszul complex F on them is
realized degreewise, one bidegree at a time. Its terms decompose as
F_i = sum over a in Eff, subsets T of size i of S'-summands, a basis
element being (T, a, x-exponent, y-exponent). For a weighted projective
stack the finite subcomplex keeping deg(T) < w - a is again a resolution.

Each map at a bidegree is built once as entry arrays: an image term's
block is the outer product of an x and a y shift map, cached on the
complex. A map whose every column is y_i e_k - x_i e_l (two entries of +-1,
as d_1 is) is ranked by counting components of a signed graph
(linalg.signed_graph_rank); every other map by peeling its singleton rows and
columns off the entry arrays (linalg.peel), plus sparse_rank on the core left.
"""

from __future__ import annotations

from operator import add

import numpy as np

from .errors import PreconditionError
from .linalg import entry_rows, peel, signed_graph_rank, sparse_rank
from .smodule import monomial_basis
from .toric import cone_contains, deg_add, deg_sub, degrees_within, hirzebruch


class _BlockComplex:
    """A complex of free S'-modules realized degreewise. The basis of term i
    at a bidegree is a list of blocks (key, dx, dy, xs, ys), one per summand
    (key, dx, dy) that a subclass's _summands lists, with xs, ys the
    monomial_basis lists of dx, dy: a block starting at index off holds
    key * x^ex y^ey for ex in xs, ey in ys, the pair (xs[j], ys[k]) at
    off + j * len(ys) + k. _images(i)(key) lists the images of a source
    block's generator as (target key, coefficient, tx, ty): x^ex y^ey maps
    to coefficient * x^(ex+tx) y^(ey+ty) in the target block, and a product
    outside that block's xs x ys (wrong bidegree) contributes nothing.
    Blocks, shift maps and ranks are cached on the complex."""

    def __init__(self, stack, field):
        self.stack = stack
        self.field = field
        self._blocks = {}
        self._shifts = {}
        self._rk_cache = {}

    def blocks(self, i, bid):
        key = (i, tuple(bid[0]), tuple(bid[1]))
        if key not in self._blocks:
            self._blocks[key] = [(k, dx, dy, monomial_basis(self.stack, dx), monomial_basis(self.stack, dy))
                                 for k, dx, dy in self._summands(i, bid)]
        return self._blocks[key]

    def basis(self, i, bid):
        return [k + (ex, ey) for k, _, _, xs, ys in self.blocks(i, bid) for ex in xs for ey in ys]

    def dim(self, i, bid):
        return sum(len(xs) * len(ys) for _, _, _, xs, ys in self.blocks(i, bid))

    def _shift(self, d, t, td):
        """The shift map of x^t from degree d to td: the positions j of
        monomial_basis(d) whose product with x^t lies in monomial_basis(td),
        and the positions of those products there."""
        key = (d, t, td)
        if key not in self._shifts:
            where = {e: j for j, e in enumerate(monomial_basis(self.stack, td))}
            shifted = (tuple(map(add, e, t)) for e in monomial_basis(self.stack, d))
            pairs = [(j, where[e]) for j, e in enumerate(shifted) if e in where]
            self._shifts[key] = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        return self._shifts[key]

    def _entries(self, i, bid):
        """The map F_i -> F_{i-1} at bid as entry arrays: coefficient
        coefs[k] at (rows, cols) for a run of counts[k] consecutive entries.
        Each run is one image term on one source block, the outer product of
        an x and a y shift map; terms with the same target block and shift
        are summed first, so no entry is written twice."""
        field = self.field
        where = {}
        off = 0
        for key, dx, dy, xs, ys in self.blocks(i - 1, bid):
            where[key] = (off, dx, dy, len(ys))
            off += len(xs) * len(ys)
        images = self._images(i)
        cols, rows, coefs, counts = [], [], [], []
        off = 0
        for key, dx, dy, xs, ys in self.blocks(i, bid):
            ny = len(ys)
            merged = {}
            for tkey, coeff, tx, ty in images(key):
                if tkey in where:
                    k = (tkey, tx, ty)
                    merged[k] = field.add(merged.get(k, field.zero), field.of(coeff))
            for (tkey, tx, ty), c in merged.items():
                if c == field.zero:
                    continue
                toff, tdx, tdy, tny = where[tkey]
                (jx, kx), (jy, ky) = self._shift(dx, tx, tdx), self._shift(dy, ty, tdy)
                cols.append(np.add.outer(jx * ny + off, jy).ravel())
                rows.append(np.add.outer(kx * tny + toff, ky).ravel())
                coefs.append(c)
                counts.append(len(jx) * len(jy))
            off += len(xs) * ny
        if not cols:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), coefs, counts
        return np.concatenate(cols), np.concatenate(rows), coefs, counts

    # sparse_columns and homology are defined on each subclass itself, where
    # bench/tracer.py wraps them, and call these

    def _columns(self, i, bid):
        """The columns of F_i -> F_{i-1} at bid as sparse dicts over target
        indices."""
        cols, rows, coefs, counts = self._entries(i, bid)
        order = np.argsort(cols, kind="stable")
        targets = rows[order].tolist()
        values = np.repeat(np.array(coefs, dtype=object), counts)[order].tolist()
        out = []
        start = 0
        for end in np.cumsum(np.bincount(cols, minlength=self.dim(i, bid))).tolist():
            out.append(dict(zip(targets[start:end], values[start:end])))
            start = end
        return out

    def _rank(self, i, bid):
        """Rank of F_i -> F_{i-1} at bid: by components when the map is a
        signed graph (every column two entries of +-1), else the columns
        peeled by linalg.peel plus sparse_rank of the core left over."""
        key = (i, tuple(bid[0]), tuple(bid[1]))
        if key not in self._rk_cache:
            field = self.field
            cols, rows, coefs, counts = self._entries(i, bid)
            unit = {field.one: 1, field.neg(field.one): -1}
            signs = np.repeat(np.array([unit.get(c, 0) for c in coefs], dtype=np.int64), counts)
            rk = signed_graph_rank(cols, rows, signs, self.dim(i, bid)) if len(cols) else 0
            if rk is None:
                rk, core = peel(rows, cols, self.dim(i - 1, bid), self.dim(i, bid))
                values = np.repeat(np.array(coefs, dtype=object), counts)[core]
                rk += sparse_rank(field, entry_rows(cols[core], rows[core], values))
            self._rk_cache[key] = rk
        return self._rk_cache[key]

    def _homology(self, i, bid):
        r_out = self._rank(i, bid) if i >= 1 else 0
        return self.dim(i, bid) - r_out - self._rank(i + 1, bid)


class DiagComplex(_BlockComplex):
    """The degreewise realization of F (or the subcomplex of the summands
    that keep(T, a) accepts); the differential preserves the bidegree."""

    def __init__(self, stack, field, keep=None):
        super().__init__(stack, field)
        self.keep = keep

    def _summands(self, i, bid):
        # basis element (T, a, x-exponent, y-exponent), of bidegree
        # (deg(x-exp) - a, deg(y-exp) + a + deg(T))
        c, d = tuple(bid[0]), tuple(bid[1])
        stack = self.stack
        masks = [m for m in range(1 << stack.nvars) if bin(m).count("1") == i]
        for a in degrees_within(stack.eff.generators, stack.theta, stack.theta(d)):
            for mask in masks:
                if self.keep is None or self.keep(mask, a):
                    yield (mask, a), deg_add(c, a), deg_sub(deg_sub(d, a), stack.mask_degree(mask))

    def _images(self, i):
        return self._terms

    def _terms(self, key):
        """d(e_T u^a) = sum over t in T of +-(y_t e_{T-t} u^a - x_t e_{T-t} u^{a+deg x_t}),
        the sign alternating along the set bits of T."""
        mask, a = key
        n = self.stack.nvars
        out = []
        sign = 1
        for t in range(n):
            if mask >> t & 1:
                rest = mask & ~(1 << t)
                unit = tuple(1 if k == t else 0 for k in range(n))
                out.append(((rest, a), sign, (0,) * n, unit))
                out.append(((rest, deg_add(a, self.stack.var_degrees[t])), -sign, unit, (0,) * n))
                sign = -sign
        return out

    def sparse_columns(self, i, bideg):
        """Columns of the differential F_i -> F_{i-1} as sparse dicts over
        target indices."""
        return self._columns(i, bideg)

    def homology(self, i, bideg):
        return self._homology(i, bideg)

    def check_square_zero(self, bidegrees):
        """d_{i-1} d_i = 0 on the realized columns at every listed bidegree."""
        field = self.field
        for bid in bidegrees:
            for i in range(2, self.stack.nvars + 1):
                inner = self.sparse_columns(i - 1, bid)
                for col in self.sparse_columns(i, bid):
                    acc = {}
                    for mid, c in col.items():
                        for tgt, v in inner[mid].items():
                            acc[tgt] = field.add(acc.get(tgt, field.zero), field.mul(c, v))
                    if any(v != field.zero for v in acc.values()):
                        return False
        return True


def build_F(stack, field):
    """The full Koszul resolution of the diagonal, realized degreewise
    (every summand that can contribute is included; the strand at a fixed
    bidegree is a complete finite complex)."""
    return DiagComplex(stack, field)


def build_F_prime_weighted(stack, field):
    """The finite-rank weighted projective subcomplex: keep the summands
    with deg(T) < w - a."""
    if stack.r != 1:
        raise PreconditionError("the finite diagonal subcomplex requires r = 1")
    w = stack.total_degree

    def keep(mask, a):
        return stack.theta(stack.mask_degree(mask)) < stack.theta(w) - stack.theta(a)

    return DiagComplex(stack, field, keep=keep)


def check_acyclicity(cx, bidegrees, report=False):
    """H_i = 0 for i > 0 at every listed bidegree."""
    for bid in bidegrees:
        for i in range(1, cx.stack.nvars + 1):
            if cx.homology(i, bid):
                if report:
                    return False, (i, bid)
                return False
    if report:
        return True, None
    return True


def check_H0_diagonal(cx, bidegrees):
    """dim H_0 at (d, d') equals dim S_{d+d'}; bidegrees with d' outside
    the effective cone are excluded by convention."""
    stack = cx.stack
    for bid in bidegrees:
        d, dprime = bid
        if not cone_contains(stack.eff, stack.theta, tuple(dprime)):
            continue
        want = len(monomial_basis(stack, deg_add(tuple(d), tuple(dprime))))
        if cx.homology(0, bid) != want:
            return False
    return True


# -- the Hirzebruch-1 finite example ------------------------------------------

class ExplicitBigradedComplex(_BlockComplex):
    """A finite complex of free bigraded S'-modules given by twist lists and
    polynomial matrices over S' = k[x0..x3, y0..y3], realized degreewise."""

    def __init__(self, stack, field, twists, matrices):
        # twists[i]: list of bidegree twists (vx, vy) meaning S'(-(vx, vy))
        # matrices[i]: entries as {(row, col): [(coeff, xexp, yexp), ...]}
        super().__init__(stack, field)
        self.twists = twists
        self.matrices = matrices
        self._image_maps = {}

    def _summands(self, i, bid):
        # basis element (twist index k, x-exponent, y-exponent)
        for k, (vx, vy) in enumerate(self.twists.get(i, [])):
            yield (k,), deg_sub(tuple(bid[0]), vx), deg_sub(tuple(bid[1]), vy)

    def _images(self, i):
        # built on first use, so matrices may still be edited before any map is
        if i not in self._image_maps:
            images = {}
            for (row, col), terms in self.matrices.get(i, {}).items():
                images.setdefault((col,), []).extend(((row,), c, tx, ty) for c, tx, ty in terms)
            self._image_maps[i] = lambda key: images.get(key, ())
        return self._image_maps[i]

    def sparse_columns(self, i, bid):
        return self._columns(i, bid)

    def homology(self, i, bid):
        return self._homology(i, bid)

    def check_square_zero(self):
        """Every matrix term has the bidegree twists[i][col] - twists[i-1][row]
        of its entry, and consecutive matrices multiply to zero over
        Z[x, y]: a complex of bigraded modules, in every bidegree."""
        degs = self.stack.var_degrees

        def deg(e):
            return tuple(sum(k * d[j] for k, d in zip(e, degs)) for j in range(self.stack.r))

        for i, outer in self.matrices.items():
            src, tgt = self.twists.get(i, []), self.twists.get(i - 1, [])
            for (row, col), terms in outer.items():
                if not (0 <= row < len(tgt) and 0 <= col < len(src)):
                    return False
                want = (deg_sub(src[col][0], tgt[row][0]), deg_sub(src[col][1], tgt[row][1]))
                if any((deg(tx), deg(ty)) != want for _, tx, ty in terms):
                    return False
            prod = {}
            for (row, mid), left in self.matrices.get(i - 1, {}).items():
                for (mid2, col), right in outer.items():
                    if mid2 == mid:
                        for c1, x1, y1 in left:
                            for c2, x2, y2 in right:
                                k = (row, col, deg_add(x1, x2), deg_add(y1, y2))
                                prod[k] = prod.get(k, 0) + c1 * c2
            if any(prod.values()):
                return False
        return True


def _e(*idx):
    v = [0, 0, 0, 0]
    for i in idx:
        v[i] += 1
    return tuple(v)


_Z4 = (0, 0, 0, 0)


def hirzebruch1_diagonal(field):
    """The finite length-2 resolution of the diagonal on the Hirzebruch
    surface of type 1, with the 5 x 10 presentation matrix hard-coded and
    the second map reconstructed from the wedge description of its five
    generators.

    Row labels of the first matrix: the semigroup elements 1, u0, u1,
    u0 u1, u0^2 u1; column labels: g0..g3 (one per variable) and u1 g0,
    u0 u1 g0, u0 g1, u1 g2, u0 u1 g2, u0 g3."""
    stack = hirzebruch(1)
    # bidegree twists: u0 has degree (-(1,0); (1,0)), u1 ((1,-1); (-1,1))
    u0 = ((-1, 0), (1, 0))
    u1 = ((1, -1), (-1, 1))

    def tw_mul(*ts):
        vx = (0, 0)
        vy = (0, 0)
        for (ax, ay) in ts:
            vx = deg_add(vx, ax)
            vy = deg_add(vy, ay)
        return (vx, vy)

    gdeg = [((0, 0), stack.var_degrees[i]) for i in range(4)]
    twists = {
        0: [tw_mul(), tw_mul(u0), tw_mul(u1), tw_mul(u0, u1), tw_mul(u0, u0, u1)],
        1: [gdeg[0], gdeg[1], gdeg[2], gdeg[3],
            tw_mul(u1, gdeg[0]), tw_mul(u0, u1, gdeg[0]), tw_mul(u0, gdeg[1]),
            tw_mul(u1, gdeg[2]), tw_mul(u0, u1, gdeg[2]), tw_mul(u0, gdeg[3])],
        2: [tw_mul(gdeg[0], gdeg[1]), tw_mul(gdeg[0], gdeg[3]),
            tw_mul(gdeg[1], gdeg[2]), tw_mul(gdeg[2], gdeg[3]),
            tw_mul(u1, gdeg[0], gdeg[2])],
    }

    def x(i):
        return (1, _e(i), _Z4)

    def y(i):
        return (1, _Z4, _e(i))

    def neg(term):
        c, a, b = term
        return (-c, a, b)

    # the printed presentation matrix (rows 1, u0, u1, u0u1, u0^2u1)
    m1 = {
        (0, 0): [y(0)], (0, 1): [y(1)], (0, 2): [y(2)], (0, 3): [y(3)],
        (1, 0): [neg(x(0))], (1, 2): [neg(x(2))], (1, 6): [y(1)], (1, 9): [y(3)],
        (2, 1): [neg(x(1))], (2, 4): [y(0)], (2, 7): [y(2)],
        (3, 3): [neg(x(3))], (3, 4): [neg(x(0))], (3, 5): [y(0)],
        (3, 6): [neg(x(1))], (3, 7): [neg(x(2))], (3, 8): [y(2)],
        (4, 5): [neg(x(0))], (4, 8): [neg(x(2))], (4, 9): [neg(x(3))],
    }
    # second syzygies: d(g_a g_b) = y_a [g_b] - y_b [g_a] - x_a [u_a g_b]
    # + x_b [u_b g_a], with u_2 = u_0 and u_3 = u_0 u_1
    m2 = {
        # g0 g1
        (1, 0): [y(0)], (0, 0): [neg(y(1))], (4, 0): [x(1)], (6, 0): [neg(x(0))],
        # g0 g3
        (3, 1): [y(0)], (0, 1): [neg(y(3))], (5, 1): [x(3)], (9, 1): [neg(x(0))],
        # g1 g2
        (2, 2): [y(1)], (1, 2): [neg(y(2))], (6, 2): [x(2)], (7, 2): [neg(x(1))],
        # g2 g3
        (3, 3): [y(2)], (2, 3): [neg(y(3))], (9, 3): [neg(x(2))], (8, 3): [x(3)],
        # u1 g0 g2
        (7, 4): [y(0)], (4, 4): [neg(y(2))], (8, 4): [neg(x(0))], (5, 4): [x(2)],
    }
    return ExplicitBigradedComplex(stack, field, twists, {1: m1, 2: m2})


def hirzebruch1_report(field, lo=0, hi=4):
    """d^2 = 0 (symbolically, over Z[x, y]), acyclicity in degrees > 0 on
    [lo,hi]^4, and the deep Hilbert comparison dim H_0 at (d, d') = dim S_{d+d'}."""
    cx = hirzebruch1_diagonal(field)
    box = [(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)]
    deep = [(2, 2), (3, 2), (2, 3), (3, 3)]
    return {"square_zero": cx.check_square_zero(),
            "acyclic_positive": check_acyclicity(cx, [(p, q) for p in box for q in box]),
            "h0_hilbert": check_H0_diagonal(cx, [(p, q) for p in deep for q in deep]),
            "complex": cx}
