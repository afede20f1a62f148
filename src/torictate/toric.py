"""Degrees, positive gradings, effective cones, and toric stack data.

A stack is described combinatorially: variable degrees in Cl = Z^r, the
supports of the monomial generators of the irrelevant ideal, a Cech cover
(defaults to those supports), a positive grading functional, effective-cone
generators, and optional primitive collections with their deg_I vectors.
Fans are never computed; the user supplies this data directly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .linalg import QQ, solve_in_span


def deg_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def deg_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def deg_neg(a):
    return tuple(-x for x in a)


def deg_zero(r):
    return (0,) * r


class Window:
    """A finite coordinate box of degrees in Z^r."""

    def __init__(self, lo, hi):
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        if len(self.lo) != len(self.hi):
            raise ValueError("window bounds have mismatched ranks")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("window lower bound exceeds upper bound")

    @property
    def r(self):
        return len(self.lo)

    def __contains__(self, d):
        return all(l <= x <= h for l, x, h in zip(self.lo, d, self.hi))

    def __eq__(self, other):
        return isinstance(other, Window) and (self.lo, self.hi) == (other.lo, other.hi)

    def __repr__(self):
        return "Window(%r, %r)" % (self.lo, self.hi)

    def points(self):
        return [tuple(p) for p in itertools.product(*[range(l, h + 1) for l, h in zip(self.lo, self.hi)])]

    def expand(self, lo_margin, hi_margin):
        return Window(
            tuple(l + m for l, m in zip(self.lo, lo_margin)),
            tuple(h + m for h, m in zip(self.hi, hi_margin)),
        )


class PositiveGrading:
    """A linear functional theta on Cl with theta(deg x_i) > 0 for all i."""

    def __init__(self, coeffs):
        self.coeffs = tuple(int(c) for c in coeffs)

    def __call__(self, d):
        return sum(c * x for c, x in zip(self.coeffs, d))

    def __repr__(self):
        return "PositiveGrading(%r)" % (self.coeffs,)


class EffCone:
    def __init__(self, generators):
        self.generators = [tuple(g) for g in generators]


class PrimitiveCollection:
    """A primitive collection I with its deg_I values on the variables.

    deg_I(x_l) > 0 for l in I and <= 0 otherwise; the values must come from
    a single linear functional on Cl, which is solved for and stored."""

    def __init__(self, vars_, values, var_degrees):
        self.vars = frozenset(vars_)
        self.values = tuple(int(v) for v in values)
        if len(self.values) != len(var_degrees):
            raise ValueError("deg_I vector must have one value per variable")
        for l, v in enumerate(self.values):
            if l in self.vars and v <= 0:
                raise ValueError("deg_I(x_%d) must be > 0 for %d in the collection" % (l, l))
            if l not in self.vars and v > 0:
                raise ValueError("deg_I(x_%d) must be <= 0 for %d outside the collection" % (l, l))
        qq = QQ()
        lam = solve_in_span(qq, qq.array(var_degrees), qq.array([[v] for v in self.values]))
        if lam is None:
            raise ValueError("deg_I values are not induced by a linear functional on Cl")
        self.functional = tuple(lam[:, 0])

    def deg(self, d):
        v = sum(c * x for c, x in zip(self.functional, d))
        if v.denominator != 1:
            raise ValueError("deg_I is not integral on degree %r" % (d,))
        return int(v)


class ToricStack:
    """Combinatorial data of a projective toric stack."""

    def __init__(self, r, var_degrees, irrelevant_supports, theta, cover=None,
                 eff_generators=None, primitive_collections=None):
        self.r = int(r)
        self.var_degrees = [tuple(d) for d in var_degrees]
        if any(len(d) != self.r for d in self.var_degrees):
            raise ValueError("variable degree of wrong rank")
        self.nvars = len(self.var_degrees)
        self.irrelevant_supports = [frozenset(s) for s in irrelevant_supports]
        if any(not s for s in self.irrelevant_supports):
            raise ValueError("irrelevant ideal generator with empty support")
        for s in self.irrelevant_supports:
            if any(i < 0 or i >= self.nvars for i in s):
                raise ValueError("irrelevant support has out-of-range variable index")
        self.theta = theta if isinstance(theta, PositiveGrading) else PositiveGrading(theta)
        for d in self.var_degrees:
            if self.theta(d) <= 0:
                raise ValueError("grading functional is not positive on variable degree %r" % (d,))
        self.cover = [frozenset(s) for s in (cover if cover is not None else self.irrelevant_supports)]
        gens = eff_generators if eff_generators is not None else self.var_degrees
        self.eff = EffCone(gens)
        for g in self.eff.generators:
            if self.theta(g) <= 0:
                raise ValueError("effective-cone generator %r with nonpositive theta" % (g,))
        self.primitive_collections = []
        for pc in (primitive_collections or []):
            if isinstance(pc, PrimitiveCollection):
                self.primitive_collections.append(pc)
            else:
                vars_, values = pc
                self.primitive_collections.append(
                    PrimitiveCollection(vars_, values, self.var_degrees))
        self.total_degree = deg_zero(self.r)
        for d in self.var_degrees:
            self.total_degree = deg_add(self.total_degree, d)
        self._subset_sums = None
        self._subsets_by_sum = None

    # -- degree bookkeeping -------------------------------------------------

    def subset_sums(self):
        """Degree sums over all subsets of the variables (2^(n+1) values)."""
        if self._subset_sums is None:
            self._ensure_subsets()
        return self._subset_sums

    def subsets_by_sum(self):
        """Map degree -> sorted list of variable-subset bitmasks with that sum."""
        if self._subsets_by_sum is None:
            self._ensure_subsets()
        return self._subsets_by_sum

    def _ensure_subsets(self):
        if self.nvars > 62:
            raise ValueError("at most 62 variables are supported")
        # sums[mask] for the masks below 2^(i+1) are those below 2^i, then
        # the same plus deg x_i
        sums = [deg_zero(self.r)]
        for d in self.var_degrees:
            sums += [deg_add(s, d) for s in sums]
        table = {}
        for mask, s in enumerate(sums):
            table.setdefault(s, []).append(mask)
        self._subsets_by_sum = table
        self._subset_sums = sums

    def mask_degree(self, mask):
        """The degree of the variable subset with bitmask mask."""
        return self.subset_sums()[mask]

    def collection(self, vars_):
        key = frozenset(vars_)
        for pc in self.primitive_collections:
            if pc.vars == key:
                return pc
        raise KeyError("no registered primitive collection %r" % (sorted(key),))


def is_irrelevant_subset(stack, subset):
    """True iff P_I contains the irrelevant ideal, i.e. every monomial
    generator support of B meets I."""
    subset = set(subset)
    for i in subset:
        if i < 0 or i >= stack.nvars:
            raise IndexError("variable index %d out of range" % i)
    return all(s & subset for s in stack.irrelevant_supports)


def cone_contains(cone, theta, d):
    """Membership of d in the semigroup generated by the cone generators."""
    n = len(cone.generators)
    return bool(points(cone.generators, theta, tuple(d), [0] * n, [None] * n))


def degrees_within(gens, theta, cap):
    """The distinct degrees sum c_i gens[i] (all c_i >= 0) with theta-value
    at most cap, sorted by (theta, degree). theta must be positive on gens."""
    found = {deg_zero(len(gens[0]))}
    for g in gens:
        tg = theta(g)
        found = {deg_add(d, tuple(c * x for x in g))
                 for d in found for c in range((cap - theta(d)) // tg + 1)}
    return sorted(found, key=lambda d: (theta(d), d))


# -- lattice points of a graded piece ------------------------------------------

_ENUM_CAP = 2_000_000
# An open side is closed at -_FAR or _FAR, so every bound is an integer. This
# lies far beyond any coordinate of a region small enough to enumerate, and a
# branching range that still reaches it is wider than _ENUM_CAP.
_FAR = 1 << 64
# count_points works in int64 only where every intermediate is below _SAFE, and
# on at most _CHUNK (box point, target) pairs at a time
_SAFE = 1 << 62
_CHUNK = 1 << 16


def _det(m):
    """Integer determinant by cofactor expansion (m is at most r x r)."""
    if not m:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


def _cuts(rows, f, cols, lo, hi):
    """(k, a, t_lo, t_hi) per row k with a = rows[k][f] != 0: with the cols in
    [lo, hi], -((t_lo - b) // a) <= e_f <= (b - t_hi) // a at right side b."""
    out = []
    for k, row in enumerate(rows):
        a = row[f]
        if a:
            tmin = sum(row[j] * (lo[j] if row[j] > 0 else hi[j]) for j in cols)
            tmax = sum(row[j] * (hi[j] if row[j] > 0 else lo[j]) for j in cols)
            out.append((k, a) + ((tmax, tmin) if a > 0 else (tmin, tmax)))
    return out


def _project(ineqs, q):
    """(lo, hi) of x_q over the system sum_j c_j x_j <= b of ineqs, pairs
    (c, b) among them finite bounds on x_q, by Fourier-Motzkin elimination
    of the other coordinates (Schrijver 1986): exact over the rationals, so
    both ends are finite wherever the system bounds x_q, and lo > hi when
    it has no real solution."""
    for v in range(len(ineqs[0][0])):
        if v != q:
            ineqs = [x for x in ineqs if not x[0][v]] + [
                ([p[0][v] * y - m[0][v] * x for x, y in zip(p[0], m[0])],
                 p[0][v] * m[1] - m[0][v] * p[1])
                for p in ineqs if p[0][v] > 0 for m in ineqs if m[0][v] < 0]
    if any(b < 0 for c, b in ineqs if not any(c)):
        return 1, 0
    return (max(-(b // -c[q]) for c, b in ineqs if c[q] < 0),
            min(b // c[q] for c, b in ineqs if c[q] > 0))


def _region(degrees, theta, targets, lower, upper):
    """The one bounding rule of points and count_points. It tightens the
    bounds over the degree rows and the theta row once for all targets,
    each row's right-hand side taken as its interval over them; picks
    pivots P with independent degrees, solved through the integer adjugate
    of their degree submatrix; and, where tightening leaves a branching
    coordinate (outside P) wider than _ENUM_CAP, bounds each by projecting
    the solved ones' bounds onto it. None when no target has a point, else
    (rows, lo, hi, P, the branching coordinates, the degree rows outside
    the solve, det, starts, cols): starts per target and cols per branching
    coordinate hold its column of the rows followed by the numerators of P
    solved for that column."""
    n, r = len(degrees), len(targets[0])
    rows = [[d[k] for d in degrees] for k in range(r)] + [[theta(d) for d in degrees]]
    rhss = [list(t) + [theta(t)] for t in targets]
    rhs = [(min(b), max(b)) for b in zip(*rhss)]
    lo = [-_FAR if x is None else x for x in lower]
    hi = [_FAR if x is None else x for x in upper]
    # bounds only ever tighten; a few sweeps settle the callers' regions, and
    # the limit keeps a slowly shrinking bound from looping long
    for _ in range(2 * n + 2):
        moved = False
        for i in range(n):
            for k, a, t_lo, t_hi in _cuts(rows, i, [j for j in range(n) if j != i], lo, hi):
                b_lo, b_hi = rhs[k] if a > 0 else rhs[k][::-1]
                l, h = max(lo[i], -((t_lo - b_lo) // a)), min(hi[i], (b_hi - t_hi) // a)
                if l > h:
                    return None
                moved = moved or (l, h) != (lo[i], hi[i])
                lo[i], hi[i] = l, h
        if not moved:
            break

    # P with the rows prows on which its degree submatrix sub is invertible;
    # the first such set in widest-first order, tried from rank r down
    order = sorted(range(n), key=lambda j: (hi[j] - lo[j], j), reverse=True)
    piv, prows = next((list(P), list(R)) for size in range(r, -1, -1)
                      for P in itertools.combinations(order, size)
                      for R in itertools.combinations(range(r), size)
                      if _det([[rows[k][j] for j in P] for k in R]))
    free = [j for j in range(n) if j not in piv]
    sub = [[rows[k][j] for j in piv] for k in prows]
    det = _det(sub)
    # adj[i][m] = (-1)^(i+m) det(sub without row m and column i)
    adj = [[(-1) ** (i + m) * _det([row[:i] + row[i + 1:] for q, row in enumerate(sub) if q != m])
            for m in range(len(piv))] for i in range(len(piv))]

    def extend(col):
        return col + [sum(c * col[k] for c, k in zip(adj_row, prows)) for adj_row in adj]

    starts = [extend(b) for b in rhss]
    cols = [extend([row[f] for row in rows]) for f in free]
    if any(hi[f] - lo[f] > _ENUM_CAP for f in free):
        # each solved coordinate is affine in the branching ones,
        # det e_j = b_j - sum_f m_jf e_f with b_j ranging over the targets,
        # so its bounds are inequalities on them
        ineqs = [([s * (q == f) for q in free], bound)
                 for f in free for s, bound in ((1, hi[f]), (-1, -lo[f]))]
        for p, j in enumerate(piv):
            t_lo, t_hi = sorted((det * lo[j], det * hi[j]))
            ms, bs = [col[r + 1 + p] for col in cols], [b[r + 1 + p] for b in starts]
            ineqs += [(ms, max(bs) - t_lo), ([-x for x in ms], t_hi - min(bs))]
        for q, f in enumerate(free):
            lo[f], hi[f] = _project(ineqs, q)
            if lo[f] > hi[f]:
                return None
    return rows, lo, hi, piv, free, [k for k in range(r) if k not in prows], det, starts, cols


def points(degrees, theta, target, lower, upper):
    """All integer vectors e with sum e_i degrees[i] = target and lower[i] <=
    e_i <= upper[i] (None: unbounded on that side), in lexicographic order,
    each branching coordinate of _region walked within the bounds that the
    choices before it leave, so integrality of the solved coordinates is a
    divisibility test. Raises ArithmeticError when a branching coordinate
    is unbounded or the branching passes _ENUM_CAP. count_points counts the
    same points for many targets at once."""
    region = _region(degrees, theta, [target], lower, upper)
    if region is None:
        return []
    rows, lo, hi, piv, free, checks, det, (start,), cols = region
    if any(hi[j] - lo[j] > _ENUM_CAP for j in free):
        raise ArithmeticError("lattice-point region is unbounded or too wide to enumerate")
    r = len(target)
    # A node's state is each row's remaining right-hand side followed by the
    # numerators of the solved coordinates.
    plan = [(f, lo[f], hi[f], col, _cuts(rows, f, free[depth + 1:] + piv, lo, hi))
            for depth, (f, col) in enumerate(zip(free, cols))]
    out = []
    e = [0] * len(degrees)
    nodes = 0

    def rec(depth, rest):
        nonlocal nodes
        if depth == len(free):
            for j, v in zip(piv, rest[r + 1:]):
                if v % det or not lo[j] <= v // det <= hi[j]:
                    return
                e[j] = v // det
            if not checks or all(sum(rows[k][j] * e[j] for j in piv) == rest[k] for k in checks):
                out.append(tuple(e))
            return
        f, l, h, col, cuts = plan[depth]
        for k, a, t_lo, t_hi in cuts:
            l = max(l, -((t_lo - rest[k]) // a))
            h = min(h, (rest[k] - t_hi) // a)
        nodes += max(0, h - l + 1)
        if nodes > _ENUM_CAP:
            raise ArithmeticError("lattice-point enumeration exceeded the cap")
        for c in range(l, h + 1):
            e[f] = c
            rec(depth + 1, [x - c * y for x, y in zip(rest, col)])

    rec(0, start)
    out.sort()
    return out


def count_points(degrees, theta, targets, lower, upper):
    """[len(points(degrees, theta, t, lower, upper)) for t in targets],
    without building a point: one _region for all targets, then every point
    of its branching box solved for every target at once in int64, _CHUNK
    (point, target) pairs at a time. Falls back to points per target, and
    its ArithmeticError, where the box passes _ENUM_CAP, where int64 is not
    proven exact (every intermediate below _SAFE), and for rank-deficient
    degrees, which no toric stack has."""
    region = _region(degrees, theta, targets, lower, upper) if targets else None
    if region is None:
        return [0] * len(targets)
    _, lo, hi, piv, free, checks, det, starts, cols = region
    off = len(targets[0]) + 1  # where the numerators start
    reach = [max(-lo[f], hi[f]) for f in free]
    # every numerator, and so every solved coordinate, is at most vmax
    vmax = max([0] + reach + [max(abs(b[p]) for b in starts) + sum(abs(c[p]) * x for c, x in zip(cols, reach))
                              for p in range(off, off + len(piv))])
    widths = [hi[f] - lo[f] + 1 for f in free]
    size = math.prod(widths)
    if size > _ENUM_CAP or vmax >= _SAFE or checks:
        return [len(points(degrees, theta, t, lower, upper)) for t in targets]
    b = np.array([x[off:] for x in starts], dtype=np.int64).reshape(len(targets), 1, len(piv))
    m = np.array([c[off:] for c in cols], dtype=np.int64).reshape(len(free), len(piv))
    plo = np.array([max(lo[j], -_SAFE) for j in piv], dtype=np.int64)
    phi = np.array([min(hi[j], _SAFE) for j in piv], dtype=np.int64)
    counts = np.zeros(len(targets), dtype=np.int64)
    step = max(1, _CHUNK // len(targets))
    for start in range(0, size, step):
        idx = np.arange(start, min(size, start + step))
        grid = np.stack(np.unravel_index(idx, widths), axis=1) + [lo[f] for f in free] \
            if free else np.zeros((len(idx), 0), dtype=np.int64)
        e, rem = np.divmod(b - grid @ m, det)
        counts += ((rem == 0) & (plo <= e) & (e <= phi)).all(axis=2).sum(axis=1)
    return counts.tolist()


def weights_zgraded(stack):
    """For Cl = Z: the total weight w and the sequences w^i (sum of the i
    largest weights) and w_i (sum of the i smallest), as dicts indexed from
    -1 through n+2 including the boundary conventions."""
    if stack.r != 1:
        raise ValueError("w-sequences require a Z-graded (r = 1) stack")
    weights = sorted(d[0] for d in stack.var_degrees)
    if any(w <= 0 for w in weights):
        raise ValueError("all variable degrees must be positive")
    n1 = len(weights)
    w = sum(weights)
    upper = {-1: -1, 0: 0}
    lower = {-1: -1, 0: 0}
    for i in range(1, n1 + 1):
        upper[i] = sum(weights[n1 - i:])
        lower[i] = sum(weights[:i])
    upper[n1 + 1] = upper[n1] + 1
    lower[n1 + 1] = lower[n1] + 1
    return w, upper, lower


def weights_degI(stack, vars_):
    """The thresholds w^j_I of a registered primitive collection: max deg_I
    sum over j-subsets of I for j < #I, the full sum for j >= #I.
    Returned as a dict for j in -1 .. n+2."""
    pc = stack.collection(vars_)
    vals = sorted((pc.values[i] for i in pc.vars), reverse=True)
    k = len(vals)
    total = sum(vals)
    out = {-1: -1, 0: 0}
    nmax = stack.nvars + 1
    for j in range(1, nmax + 1):
        out[j] = sum(vals[:j]) if j < k else total
    return out


# -- stock examples used across the test-suite and docs ----------------------

def weighted_projective(*weights):
    """P(d_0, ..., d_n): Cl = Z, B = <x_0, ..., x_n>."""
    n1 = len(weights)
    return ToricStack(
        r=1,
        var_degrees=[(w,) for w in weights],
        irrelevant_supports=[{i} for i in range(n1)],
        theta=(1,),
    )


def projective_space(n):
    return weighted_projective(*([1] * (n + 1)))


def hirzebruch(t):
    """The Hirzebruch surface of type t: degrees (1,0), (-t,1), (1,0), (0,1),
    B = (x0,x2) cap (x1,x3)."""
    return ToricStack(
        r=2,
        var_degrees=[(1, 0), (-t, 1), (1, 0), (0, 1)],
        irrelevant_supports=[{0, 1}, {0, 3}, {1, 2}, {2, 3}],
        theta=(1, t + 1),
        primitive_collections=[({0, 2}, (1, -t, 1, 0)), ({1, 3}, (0, 1, 0, 1))],
    )


def p1xp1():
    """P^1 x P^1: degrees (1,0), (0,1), (1,0), (0,1)."""
    return ToricStack(
        r=2,
        var_degrees=[(1, 0), (0, 1), (1, 0), (0, 1)],
        irrelevant_supports=[{0, 1}, {0, 3}, {1, 2}, {2, 3}],
        theta=(1, 1),
        primitive_collections=[({0, 2}, (1, 0, 1, 0)), ({1, 3}, (0, 1, 0, 1))],
    )
