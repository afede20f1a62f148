"""The Koszul resolution of the diagonal over the doubled Cox ring.

Over S' = k[x; y] with the semigroup ring R = S'[Eff] the elements
y_i - x_i u_i form a regular sequence; the Koszul complex F on them is
realized degreewise on bidegree windows. Its terms decompose as
F_i = sum over a in Eff, subsets T of size i of S'-summands, a basis
element being (T, a, x-exponent, y-exponent). For a weighted projective
stack the finite subcomplex keeping deg(T) < w - a is again a resolution.
"""

from __future__ import annotations

from .errors import PreconditionError
from .smodule import monomial_basis
from .toric import cone_contains, deg_add, deg_sub, degrees_within


class DiagComplex:
    """The degreewise realization of F (or a subcomplex) on a bidegree
    window: bases per (homological index, bidegree) plus the differential
    matrices, which preserve the bidegree."""

    def __init__(self, stack, field, window_x, window_y, keep=None):
        self.stack = stack
        self.field = field
        self.wx = window_x
        self.wy = window_y
        self.keep = keep
        self._bases = {}

    # basis element: (mask T, a in Eff, x-exponent, y-exponent) with
    # bidegree (deg(x-exp) - a, deg(y-exp) + a + deg(T))

    def basis(self, i, bideg):
        key = (i, tuple(bideg[0]), tuple(bideg[1]))
        if key in self._bases:
            return self._bases[key]
        c, d = bideg
        stack = self.stack
        out = []
        theta = stack.theta
        masks_by_size = {}
        for mask in range(1 << stack.nvars):
            masks_by_size.setdefault(bin(mask).count("1"), []).append(mask)
        for a in degrees_within(stack.eff.generators, theta, theta(d)):
            for mask in masks_by_size.get(i, []):
                b = stack.mask_degree(mask)
                if self.keep is not None and not self.keep(mask, a):
                    continue
                dx = deg_add(tuple(c), a)
                dy = deg_sub(deg_sub(tuple(d), a), b)
                if theta(dx) < 0 or theta(dy) < 0:
                    continue
                for ex in monomial_basis(stack, dx):
                    for ey in monomial_basis(stack, dy):
                        out.append((mask, a, ex, ey))
        self._bases[key] = out
        return out

    def dim(self, i, bideg):
        return len(self.basis(i, bideg))

    def sparse_columns(self, i, bideg):
        """Columns of the differential F_i -> F_{i-1} as sparse dicts over
        target indices."""
        ckey = ("sc", i, tuple(bideg[0]), tuple(bideg[1]))
        cache = getattr(self, "_sc_cache", None)
        if cache is None:
            cache = self._sc_cache = {}
        if ckey in cache:
            return cache[ckey]
        field = self.field
        src = self.basis(i, bideg)
        tgt = self.basis(i - 1, bideg)
        index = {lab: k for k, lab in enumerate(tgt)}
        cols = []
        for (mask, a, ex, ey) in src:
            col = {}
            sign = 1
            for tvar in range(self.stack.nvars):
                bit = 1 << tvar
                if not (mask & bit):
                    continue
                rest = mask & ~bit
                lab = (rest, a, ex, tuple(x + (1 if k == tvar else 0) for k, x in enumerate(ey)))
                k = index.get(lab)
                if k is not None:
                    v = field.add(col.get(k, field.zero), field.of(sign))
                    col[k] = v
                a2 = deg_add(a, self.stack.var_degrees[tvar])
                lab2 = (rest, a2, tuple(x + (1 if k == tvar else 0) for k, x in enumerate(ex)), ey)
                k2 = index.get(lab2)
                if k2 is not None:
                    v = field.sub(col.get(k2, field.zero), field.of(sign))
                    col[k2] = v
                sign = -sign
            cols.append({k: v for k, v in col.items() if v != field.zero})
        cache[ckey] = cols
        return cols

    def _rank(self, i, bideg):
        key = ("rk", i, tuple(bideg[0]), tuple(bideg[1]))
        cache = getattr(self, "_rk_cache", None)
        if cache is None:
            cache = self._rk_cache = {}
        if key not in cache:
            from .linalg import sparse_rank

            cache[key] = sparse_rank(self.field, self.sparse_columns(i, bideg))
        return cache[key]

    def homology(self, i, bideg):
        n = self.dim(i, bideg)
        r_out = self._rank(i, bideg) if i >= 1 else 0
        r_in = self._rank(i + 1, bideg)
        return n - r_out - r_in

    def check_square_zero(self, bidegrees, top=None):
        top = top if top is not None else self.stack.nvars
        for bid in bidegrees:
            for i in range(2, top + 1):
                inner = self.sparse_columns(i - 1, bid)
                outer = self.sparse_columns(i, bid)
                for col in outer:
                    acc = {}
                    for mid, c in col.items():
                        for tgt, v in inner[mid].items():
                            nv = self.field.add(acc.get(tgt, self.field.zero), self.field.mul(c, v))
                            if nv == self.field.zero:
                                acc.pop(tgt, None)
                            else:
                                acc[tgt] = nv
                    if acc:
                        return False
        return True


def build_F(stack, field, window_x, window_y):
    """The full Koszul resolution of the diagonal on the bidegree window
    (every summand that can contribute is included; the strand at a fixed
    bidegree is a complete finite complex)."""
    return DiagComplex(stack, field, window_x, window_y)


def build_F_prime_weighted(stack, field, window_x, window_y):
    """The finite-rank weighted projective subcomplex: keep the summands
    with deg(T) < w - a."""
    if stack.r != 1:
        raise PreconditionError("the finite diagonal subcomplex requires r = 1")
    w = stack.total_degree

    def keep(mask, a):
        return stack.theta(stack.mask_degree(mask)) < stack.theta(w) - stack.theta(a)

    return DiagComplex(stack, field, window_x, window_y, keep=keep)


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

def _hirz1_ring():
    from .toric import hirzebruch

    return hirzebruch(1)


class ExplicitBigradedComplex:
    """A finite complex of free bigraded S'-modules given by twist lists and
    polynomial matrices over S' = k[x0..x3, y0..y3], realized degreewise."""

    def __init__(self, stack, field, twists, matrices):
        # twists[i]: list of bidegree twists (vx, vy) meaning S'(-(vx, vy))
        # matrices[i]: entries as {(row, col): [(coeff, xexp, yexp), ...]}
        self.stack = stack
        self.field = field
        self.twists = twists
        self.matrices = matrices
        self._bases = {}

    def basis(self, i, bid):
        key = (i, tuple(bid[0]), tuple(bid[1]))
        if key in self._bases:
            return self._bases[key]
        c, d = bid
        out = []
        for k, (vx, vy) in enumerate(self.twists.get(i, [])):
            dx = deg_sub(tuple(c), vx)
            dy = deg_sub(tuple(d), vy)
            if self.stack.theta(dx) < 0 or self.stack.theta(dy) < 0:
                continue
            for ex in monomial_basis(self.stack, dx):
                for ey in monomial_basis(self.stack, dy):
                    out.append((k, ex, ey))
        self._bases[key] = out
        return out

    def dim(self, i, bid):
        return len(self.basis(i, bid))

    def sparse_columns(self, i, bid):
        ckey = ("sc", i, tuple(bid[0]), tuple(bid[1]))
        cache = getattr(self, "_sc_cache", None)
        if cache is None:
            cache = self._sc_cache = {}
        if ckey in cache:
            return cache[ckey]
        field = self.field
        src = self.basis(i, bid)
        tgt = self.basis(i - 1, bid)
        index = {lab: kk for kk, lab in enumerate(tgt)}
        by_col = {}
        for (row, kk), terms in self.matrices.get(i, {}).items():
            by_col.setdefault(kk, []).append((row, terms))
        cols = []
        for (k, ex, ey) in src:
            col = {}
            for row, terms in by_col.get(k, ()):
                for coeff, tx, ty in terms:
                    lab = (row,
                           tuple(a + b for a, b in zip(ex, tx)),
                           tuple(a + b for a, b in zip(ey, ty)))
                    j = index.get(lab)
                    if j is not None:
                        nv = field.add(col.get(j, field.zero), field.of(coeff))
                        if nv == field.zero:
                            col.pop(j, None)
                        else:
                            col[j] = nv
            cols.append(col)
        cache[ckey] = cols
        return cols

    def _rank(self, i, bid):
        key = ("rk", i, tuple(bid[0]), tuple(bid[1]))
        cache = getattr(self, "_rk_cache", None)
        if cache is None:
            cache = self._rk_cache = {}
        if key not in cache:
            from .linalg import sparse_rank

            cache[key] = sparse_rank(self.field, self.sparse_columns(i, bid))
        return cache[key]

    def homology(self, i, bid):
        n = self.dim(i, bid)
        r_out = self._rank(i, bid) if i >= 1 else 0
        r_in = self._rank(i + 1, bid)
        return n - r_out - r_in

    def check_square_zero(self, bidegrees):
        field = self.field
        for bid in bidegrees:
            for i in range(2, max(self.twists) + 1):
                inner = self.sparse_columns(i - 1, bid)
                outer = self.sparse_columns(i, bid)
                for col in outer:
                    acc = {}
                    for mid, c in col.items():
                        for tgt, v in inner[mid].items():
                            nv = field.add(acc.get(tgt, field.zero), field.mul(c, v))
                            if nv == field.zero:
                                acc.pop(tgt, None)
                            else:
                                acc[tgt] = nv
                    if acc:
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
    stack = _hirz1_ring()
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
    """d^2 = 0, acyclicity in degrees > 0 on [lo,hi]^4, and the deep
    Hilbert comparison dim H_0 at (d, d') = dim S_{d+d'}."""
    cx = hirzebruch1_diagonal(field)
    stack = cx.stack
    box = [(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)]
    bidegrees = [(p, q) for p in box for q in box]
    sq = cx.check_square_zero(bidegrees)
    acyclic = True
    for bid in bidegrees:
        for i in (1, 2):
            if cx.homology(i, bid):
                acyclic = False
    deep = [(p, q) for p in [(2, 2), (3, 2), (2, 3), (3, 3)] for q in [(2, 2), (3, 2), (2, 3), (3, 3)]]
    h0_ok = True
    for (d, dprime) in deep:
        want = len(monomial_basis(stack, deg_add(d, dprime)))
        if cx.homology(0, (d, dprime)) != want:
            h0_ok = False
    return {"square_zero": sq, "acyclic_positive": acyclic, "h0_hilbert": h0_ok, "complex": cx}
