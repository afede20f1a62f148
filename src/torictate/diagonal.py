"""The Koszul resolution of the diagonal over the doubled Cox ring.

Over S' = k[x; y] with the semigroup ring R = S'[Eff] the elements
y_i - x_i u_i form a regular sequence; the Koszul complex F on them is
realized degreewise. Its terms decompose as
F_i = sum over a in Eff, subsets T of size i of S'-summands, a basis
element being (T, a, x-exponent, y-exponent). For a weighted projective
stack the finite subcomplex keeping deg(T) < w - a is again a resolution.

Every map is built and ranked over a whole list of bidegrees at once, as
the block-diagonal union of its pieces: the image terms are merged once,
the shift maps of x and y monomials are looked up once per distinct x- and
y-degree of the list, and the entry arrays of a run of bidegrees come from
a few numpy operations per run (_Map), as a linalg.Entries. The bidegrees
on which each source block has exactly two image terms, both +-1 and on
the whole block (every column y_i e_k - x_i e_l, as in d_1), are ranked
together, and the others together, each group by linalg.rank, which alone
chooses the route (signed-graph components, else peeling and elimination
of the core); so one bidegree that is no signed graph never moves the
others off the component count. Runs are cut to a fixed number of
entries, so memory stays bounded however long the list. Acyclicity sums
homology over a run: each H_i(b) >= 0, so a sum of 0 means every term is
0, and single bidegrees are ranked only to name the first failing one.
"""

from __future__ import annotations

from operator import add

import numpy as np

from .errors import PreconditionError
from .linalg import Entries, rank
from .smodule import monomial_basis
from .toric import cone_members, deg_add, deg_neg, deg_sub, degrees_within, hirzebruch


# The entries, summed over the maps ranked together, of one run of
# bidegrees (see _runs): a bound on the arrays held at once.
_RUN_ENTRIES = 1 << 15


def _runs(load):
    """Consecutive runs of the positions of load, as index arrays, whose
    loads sum to at most _RUN_ENTRIES, or of one position that alone
    exceeds it."""
    lo, acc = 0, 0
    for k, n in enumerate(load.tolist()):
        if acc + n > _RUN_ENTRIES and k > lo:
            yield np.arange(lo, k)
            lo, acc = k, 0
        acc += n
    if lo < len(load):
        yield np.arange(lo, len(load))


class _BlockComplex:
    """A complex of free S'-modules realized degreewise. Term i is a list of
    summands (key, vx, vy) that a subclass's _summands lists for a list of
    bidegrees: at (c, d) the summand is a block holding key * x^ex y^ey for
    ex in xs = monomial_basis(c - vx) and ey in ys = monomial_basis(d - vy),
    the pair (xs[j], ys[k]) at the block's offset + j * len(ys) + k, and it
    is empty where either list is. _images(i)(key) lists the images of a
    source block's generator as (target key, coefficient, tx, ty): x^ex y^ey
    maps to coefficient * x^(ex+tx) y^(ey+ty) in the target block, and a
    product outside that block's xs x ys (wrong bidegree) contributes
    nothing. Every map is built by _Map; shift maps are cached on the
    complex."""

    def __init__(self, stack, field):
        self.stack = stack
        self.field = field
        self._shifts = {}

    def _blocks(self, i, bid):
        c, d = tuple(bid[0]), tuple(bid[1])
        return [(key, monomial_basis(self.stack, deg_sub(c, vx)), monomial_basis(self.stack, deg_sub(d, vy)))
                for key, vx, vy in self._summands(i, [bid])]

    def basis(self, i, bid):
        return [k + (ex, ey) for k, xs, ys in self._blocks(i, bid) for ex in xs for ey in ys]

    def dim(self, i, bid):
        return sum(len(xs) * len(ys) for _, xs, ys in self._blocks(i, bid))

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

    # sparse_columns and homology are defined on each subclass itself, where
    # bench/tracer.py wraps them, and call these

    def _columns(self, i, bid):
        """The columns of F_i -> F_{i-1} at bid as sparse dicts over target
        indices."""
        return _Map(self, i, [bid]).entries([0]).columns()

    def _homologies(self, bids, degrees, each=False):
        """Yield (run, {i: dim H_i summed over the run}) for i in degrees,
        over consecutive runs of bids within the entry budget, or over each
        bidegree alone. The maps are built once over all of bids and each
        run is ranked as one block-diagonal union."""
        bids = list(bids)
        maps = {j: _Map(self, j, bids) for i in degrees for j in (i, i + 1)}
        runs = np.arange(len(bids))[:, None] if each else _runs(sum(m.load for m in maps.values()))
        for sel in runs:
            rk = {j: m.rank(sel) for j, m in maps.items()}
            yield [bids[k] for k in sel], {i: int(maps[i].ncols[sel].sum()) - rk[i] - rk[i + 1] for i in degrees}

    def _homology(self, i, bid):
        (_, sums), = self._homologies([bid], [i])
        return sums[i]


class _Map:
    """d_i: F_i -> F_{i-1} on the block-diagonal union of a list of
    bidegrees, assembled as entry arrays and ranked on any selection of
    them. Columns and rows run bidegree by bidegree, then block by block.

    A block's x-size and an image term's x-shift map depend on the bidegree
    (c, d) through c alone, its y-size and y-shift through d alone. So the
    terms are merged once (terms with the same target block and shift are
    summed, and no entry is written twice), every shift is looked up once
    per distinct c or d of the list, and the entries of any selection of
    bidegrees come from those shifts and the blocks' offsets in a few numpy
    operations."""

    def __init__(self, cx, i, bids):
        stack, field = cx.stack, cx.field
        bids = [(tuple(c), tuple(d)) for c, d in bids]
        src, tgt = list(cx._summands(i, bids)), list(cx._summands(i - 1, bids))
        cs, ds = {}, {}
        ci = np.array([cs.setdefault(c, len(cs)) for c, _ in bids], dtype=np.int64)
        di = np.array([ds.setdefault(d, len(ds)) for _, d in bids], dtype=np.int64)

        def layout(summands):
            # the y-size of each summand's block per distinct d, and per
            # (summand, bidegree) its size and first index within the bidegree
            def sizes(axis, degs):
                return np.array([[len(monomial_basis(stack, deg_sub(e, s[axis]))) for e in degs]
                                 for s in summands], dtype=np.int64).reshape(len(summands), len(degs))
            ny = sizes(2, ds)
            size = sizes(1, cs)[:, ci] * ny[:, di]
            return ny, size, np.cumsum(size, axis=0) - size

        where = {s[0]: t for t, s in enumerate(tgt)}
        images = cx._images(i)
        terms, coefs = [], []
        for s, (key, _, _) in enumerate(src):
            merged = {}
            for tkey, coeff, tx, ty in images(key):
                if tkey in where:
                    k = (where[tkey], tuple(tx), tuple(ty))
                    merged[k] = field.add(merged.get(k, field.zero), field.of(coeff))
            for (t, tx, ty), c in merged.items():
                if c != field.zero:
                    terms.append((s, t, (tx, ty)))
                    coefs.append(c)

        def shifts(axis, degs):
            # every term's shift maps at every distinct degree, concatenated
            # (source and target positions), and each (term, degree)'s start
            # and length there
            found = [cx._shift(deg_sub(e, src[s][axis]), by[axis - 1], deg_sub(e, tgt[t][axis]))
                     for s, t, by in terms for e in degs]
            n = np.array([f.shape[1] for f in found], dtype=np.int64).reshape(len(terms), len(degs))
            start = (np.cumsum(n.ravel()) - n.ravel()).reshape(n.shape)
            j, k = np.concatenate([np.zeros((2, 0), dtype=np.int64)] + found, axis=1)
            return j, k, start, n

        self.jx, self.kx, self.xstart, self.xlen = shifts(1, cs)
        self.jy, self.ky, self.ystart, self.ylen = shifts(2, ds)
        self.sny, size, self.soff = layout(src)
        self.tny, tsize, self.toff = layout(tgt)
        self.ci, self.di = ci, di
        self.src = np.array([s for s, _, _ in terms], dtype=np.int64)[:, None]
        self.tgt = np.array([t for _, t, _ in terms], dtype=np.int64)[:, None]
        count = self.xlen[:, ci] * self.ylen[:, di]
        self.load = count.sum(0)
        self.ncols, self.nrows = size.sum(0), tsize.sum(0)
        self.field = field
        self.coefs = field.array(coefs)
        unit = (self.coefs == field.one) | (self.coefs == field.neg(field.one))
        # a bidegree is a signed graph when each of its nonempty source
        # blocks has exactly two terms that land, both +-1 on the whole block
        landed, whole = np.zeros_like(size), np.zeros_like(size)
        np.add.at(landed, self.src[:, 0], count > 0)
        np.add.at(whole, self.src[:, 0], (count == size[self.src[:, 0]]) & unit[:, None])
        self.graph = ((size == 0) | (landed == 2) & (whole == 2)).all(0)

    def entries(self, sel):
        """d_i on the bidegrees sel (an index array) as an Entries: columns
        and rows are numbered across those bidegrees in order."""
        c, d = self.ci[sel], self.di[sel]
        # per (term, bidegree); the blocks' first column and row counted
        # across sel
        t = np.stack([self.xlen[:, c], self.ylen[:, d], self.xstart[:, c], self.ystart[:, d],
                      self.soff[self.src, sel] + np.cumsum(self.ncols[sel]) - self.ncols[sel], self.sny[self.src, d],
                      self.toff[self.tgt, sel] + np.cumsum(self.nrows[sel]) - self.nrows[sel], self.tny[self.tgt, d]])
        term = np.repeat(np.arange(t.shape[1]), (t[0] * t[1]).sum(1))
        xlen, ylen, xstart, ystart, soff, sny, toff, tny = t.reshape(len(t), -1)
        # one element per (term, bidegree, source x-monomial), then one per entry
        x = np.repeat(xstart - np.cumsum(xlen) + xlen, xlen) + np.arange(xlen.sum())
        ny = np.repeat(ylen, xlen)
        colx = np.repeat(soff, xlen) + self.jx[x] * np.repeat(sny, xlen)
        rowx = np.repeat(toff, xlen) + self.kx[x] * np.repeat(tny, xlen)
        y = np.repeat(np.repeat(ystart, xlen) - np.cumsum(ny) + ny, ny) + np.arange(ny.sum())
        return Entries(self.field, int(self.nrows[sel].sum()), int(self.ncols[sel].sum()),
                       np.repeat(rowx, ny) + self.ky[y], np.repeat(colx, ny) + self.jy[y], self.coefs[term])

    def rank(self, sel):
        """Rank on the bidegrees sel: linalg.rank of the signed-graph
        bidegrees together and of the others together."""
        sel = np.asarray(sel)
        sel = sel[self.load[sel] > 0]  # a bidegree without entries has rank 0
        graph = self.graph[sel]
        return sum(rank(self.entries(part)) for part in (sel[graph], sel[~graph]) if len(part))


class DiagComplex(_BlockComplex):
    """The degreewise realization of F (or the subcomplex of the summands
    that keep(T, a) accepts); the differential preserves the bidegree."""

    def __init__(self, stack, field, keep=None):
        super().__init__(stack, field)
        self.keep = keep

    def _summands(self, i, bids):
        # basis element (T, a, x-exponent, y-exponent), of bidegree
        # (deg(x-exp) - a, deg(y-exp) + a + deg(T)): the summand (T, a) has the
        # twist (-a, a + deg T). Every a up to the largest listed d is listed;
        # its block is empty at a bidegree whose d it exceeds
        stack = self.stack
        masks = [m for m in range(1 << stack.nvars) if bin(m).count("1") == i]
        cap = max((stack.theta(d) for _, d in bids), default=-1)
        for a in degrees_within(stack.eff.generators, stack.theta, cap):
            for mask in masks:
                if self.keep is None or self.keep(mask, a):
                    yield (mask, a), deg_neg(a), deg_add(a, stack.mask_degree(mask))

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
        """d_{i-1} d_i = 0 on the realized columns at every listed bidegree,
        composed on runs of them as one block-diagonal union."""
        field = self.field
        bids = list(bidegrees)
        for i in range(2, self.stack.nvars + 1):
            first, second = _Map(self, i - 1, bids), _Map(self, i, bids)
            for sel in _runs(first.load + second.load):
                inner = first.entries(sel).columns()
                for col in second.entries(sel).columns():
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
    """H_i = 0 for i > 0 at every listed bidegree. Homology is summed over
    runs of bidegrees; each H_i(b) >= 0, so a sum of 0 means every term is 0.
    Only a run with a nonzero sum is scanned bidegree by bidegree, for the
    first failing (i, bid)."""
    degrees = range(1, cx.stack.nvars + 1)
    for run, sums in cx._homologies(bidegrees, degrees):
        if any(sums.values()):
            if not report:
                return False
            return False, next((i, bid) for (bid,), each in cx._homologies(run, degrees, each=True)
                               for i in degrees if each[i])
    return (True, None) if report else True


def check_H0_diagonal(cx, bidegrees):
    """dim H_0 at (d, d') equals dim S_{d+d'}, each bidegree ranked alone
    on maps built once over the list; bidegrees with d' outside the
    effective cone are excluded by convention, all d' tested in one count
    (toric.cone_members)."""
    stack = cx.stack
    inside = cone_members(stack.eff, stack.theta, [bid[1] for bid in bidegrees])
    kept = [bid for bid, ok in zip(bidegrees, inside) if ok]
    return all(h[0] == len(monomial_basis(stack, deg_add(tuple(d), tuple(dprime))))
               for ((d, dprime),), h in cx._homologies(kept, [0], each=True))


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

    def _summands(self, i, bids):
        # basis element (twist index k, x-exponent, y-exponent)
        for k, (vx, vy) in enumerate(self.twists.get(i, [])):
            yield (k,), tuple(vx), tuple(vy)

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
