"""Multigraded polynomial-ring side: monomials, presentations, and the
degreewise realization (per-degree bases plus multiplication matrices) that
all downstream functors consume.

There is deliberately no Groebner machinery anywhere: a module is only ever
seen through its graded pieces and the multiplication maps between them,
each obtained by exact linear algebra on a finite degree window.
"""

from __future__ import annotations

import numpy as np

from .linalg import Entries, Mat, RowReducer, _kernel_arr, rref, solve_in_span
from .toric import Window, cone_contains, deg_add, deg_sub, deg_zero, point_array


def monomial_array(stack, d):
    """All exponent vectors e with sum e_i deg(x_i) = d, as the rows of an
    int64 array in lexicographic order (cached on the stack; treat the
    result as immutable). Finiteness comes from positivity of the
    grading."""
    cache = stack.__dict__.setdefault("_monomial_arrays", {})
    key = tuple(d)
    if key not in cache:
        cache[key] = point_array(stack.var_degrees, stack.theta, key,
                                 [0] * stack.nvars, [None] * stack.nvars)
    return cache[key]


def monomial_basis(stack, d):
    """The rows of monomial_array as tuples, in the same order (cached on
    the stack; treat the result as immutable)."""
    cache = stack.__dict__.setdefault("_monomial_cache", {})
    key = tuple(d)
    if key not in cache:
        cache[key] = list(map(tuple, monomial_array(stack, key).tolist()))
    return cache[key]


def _locate(table, queries):
    """The position of each row of queries among the rows of table (distinct
    int64 rows, at least one), or -1 where it is none of them. A row is
    read as one exact integer key, its entries the digits of a mixed radix
    over the bounding box of table, and a query with an entry outside the
    box is none of them. Where a key would reach 2^62, the digits read so
    far are first renumbered by their ranks among table's, a query prefix
    that is none of table's taking the rank past the last."""
    lo, hi = table.min(axis=0), table.max(axis=0)
    inside = ((queries >= lo) & (queries <= hi)).all(axis=1)
    t, q = table - lo, np.clip(queries, lo, hi) - lo
    tk, qk = np.zeros(len(t), dtype=np.int64), np.zeros(len(q), dtype=np.int64)
    radix = 1
    for i, span in enumerate((hi - lo + 1).tolist()):
        if radix * span >= 1 << 62:
            ranks = np.unique(tk)
            at = np.searchsorted(ranks, qk)
            qk = np.where(ranks[np.minimum(at, len(ranks) - 1)] == qk, at, len(ranks))
            tk = np.searchsorted(ranks, tk)
            radix = len(ranks) + 1
        tk, qk, radix = tk * span + t[:, i], qk * span + q[:, i], radix * span
    order = np.argsort(tk, kind="stable")  # O(n) on the sorted keys of a piece's labels
    tk = tk[order]
    at = np.minimum(np.searchsorted(tk, qk), len(tk) - 1)
    return np.where(inside & (tk[at] == qk), order[at], -1)


class Poly:
    """A homogeneous polynomial: list of (coefficient, exponent vector)."""

    def __init__(self, terms):
        self.terms = [(c, tuple(e)) for c, e in terms]
        seen = set()
        for _, e in self.terms:
            if e in seen:
                raise ValueError("duplicate exponent vector %r" % (e,))
            seen.add(e)

    @classmethod
    def monomial(cls, exponents, coeff=1):
        return cls([(coeff, exponents)])

    def degree(self, stack):
        """The common Cl-degree of the terms (None for the zero polynomial)."""
        d = None
        for _, e in self.terms:
            de = deg_zero(stack.r)
            for i, ei in enumerate(e):
                if ei:
                    de = deg_add(de, tuple(ei * x for x in stack.var_degrees[i]))
            if d is None:
                d = de
            elif d != de:
                raise ValueError("inhomogeneous polynomial entry")
        return d

    def is_zero(self):
        return not self.terms


class Presentation:
    """A graded free presentation coker(F1 -> F0): generator degrees,
    relation degrees, and a matrix of homogeneous entries (entry (i, j) of
    degree rel[j] - gen[i])."""

    def __init__(self, gen_degrees, rel_degrees=(), entries=None):
        self.gen_degrees = [tuple(d) for d in gen_degrees]
        self.rel_degrees = [tuple(d) for d in rel_degrees]
        self.entries = {}
        if entries:
            for (i, j), poly in entries.items():
                if not isinstance(poly, Poly):
                    poly = Poly(poly)
                if not poly.is_zero():
                    self.entries[(i, j)] = poly

    def validate(self, stack):
        for (i, j), poly in self.entries.items():
            if any(x < 0 for _, e in poly.terms for x in e):
                raise ValueError("entry (%d, %d) has a negative exponent" % (i, j))
            d = poly.degree(stack)
            if d is not None and d != deg_sub(self.rel_degrees[j], self.gen_degrees[i]):
                raise ValueError("entry (%d, %d) is not homogeneous of degree rel - gen" % (i, j))

    @classmethod
    def free(cls, degrees=((),)):
        degrees = [tuple(d) for d in degrees]
        return cls(degrees or [()])

    @classmethod
    def quotient(cls, stack, polys):
        """S modulo the given homogeneous elements (one generator in degree 0)."""
        polys = [p if isinstance(p, Poly) else Poly.monomial(p) for p in polys]
        rel_degrees = [p.degree(stack) for p in polys]
        entries = {(0, j): p for j, p in enumerate(polys)}
        return cls([deg_zero(stack.r)], rel_degrees, entries)

    def relation_terms(self, field, j):
        """The terms (generator, coefficient, exponent) of relation j whose
        coefficient is nonzero in field, the coefficient read in field."""
        terms = [(i, field.of(c), e) for i in range(len(self.gen_degrees))
                 for c, e in self.entries.get((i, j), Poly([])).terms]
        return [t for t in terms if t[1]]

    def relation_rows(self, field, j, table, multipliers):
        """Relation j times each multiplier monomial (the rows of an int64
        array), as sparse rows over the labels (generator, exponent...) that
        are the rows of table, numbered by position (_locate). A product with
        a label outside table is dropped, and so is one that is zero."""
        terms = self.relation_terms(field, j)
        if not terms or not len(multipliers):
            return []
        # the labels of one product are distinct: a Poly repeats no exponent
        found = _locate(table, np.concatenate([
            np.column_stack([np.full(len(multipliers), i), multipliers + np.array(e, dtype=np.int64)])
            for i, _, e in terms])).reshape(len(terms), -1).T
        coeffs = [c for _, c, _ in terms]
        return [dict(zip(row, coeffs)) for row in found[(found >= 0).all(axis=1)].tolist()]

    def piece(self, field, exponents):
        """(labels, reducer, index) of a graded piece whose monomials of
        degree d are the rows of exponents(d), an int64 array in
        lexicographic order, called with d = piece degree minus a generator
        or relation degree: labels are (generator, exponent) pairs, index
        maps each label to its position, and the reducer (None when no
        relation lands) works modulo the relations."""
        exps = [exponents(gd) for gd in self.gen_degrees]
        labels = [(g, e) for g, ex in enumerate(exps) for e in map(tuple, ex.tolist())]
        if not labels:
            return labels, None, {}
        table = np.concatenate([np.column_stack([np.full(len(ex), g), ex]) for g, ex in enumerate(exps)])
        index = {lab: k for k, lab in enumerate(labels)}
        rows = [row for j, rd in enumerate(self.rel_degrees)
                for row in self.relation_rows(field, j, table, exponents(rd))]
        return labels, (RowReducer(field, rows, len(labels)) if rows else None), index

    def is_monomial(self, field):
        """True when there is one generator and every relation has at most
        one term nonzero in field (monomial-quotient fast paths apply)."""
        return len(self.gen_degrees) == 1 and all(
            len(self.relation_terms(field, j)) <= 1 for j in range(len(self.rel_degrees)))

    def monomial_exponents(self, field):
        """The exponents of the relations of a monomial presentation, one
        per relation that is nonzero in field."""
        return [e for j in range(len(self.rel_degrees)) for _, _, e in self.relation_terms(field, j)]


class GradedPieces:
    """Basis reading for modules whose piece(a) returns (labels, reducer,
    index) as Presentation.piece does: the basis is the labels, or the
    reducer's free columns of them. Every map into a piece goes through
    image_entries."""

    def dim(self, a):
        labels, red, _ = self.piece(a)
        return len(labels) if red is None else red.corank

    def basis_labels(self, a):
        labels, red, _ = self.piece(a)
        return list(labels) if red is None else [labels[j] for j in red.free]

    def image_entries(self, a, labels):
        """The coordinate columns of the labels in the basis at degree a, as
        entry arrays (rows, cols, values), every value nonzero: a label's
        normal form looked up in the piece's reducer. ArithmeticError for a
        label outside the piece, where the exponent box is too small to hold
        it."""
        _, red, index = self.piece(a)
        ks = np.array([index.get(lab, -1) for lab in labels], dtype=np.int64)
        if (ks < 0).any():
            raise ArithmeticError("label %r lies outside the piece at %r" % (labels[int(np.argmin(ks))], a))
        if red is None:
            return ks, np.arange(len(labels)), np.full(len(labels), self.field.one)
        owner, coords, vals = red.reduce_rows(ks)
        return coords, owner, vals

    def image(self, a, labels):
        """image_entries as a dense matrix. It is filled transposed and
        copied out: returning the zero-filled matrix itself raised the peak
        RSS of `cohomology p112 --window -30:30` by 3 MB."""
        rows, cols, vals = self.image_entries(a, labels)
        return Entries(self.field, len(labels), self.dim(a), cols, rows, vals).dense().T.copy()

    def moved(self, a, mono):
        """The basis labels at a times the monomial with exponent vector mono."""
        return [(g, tuple(x + y for x, y in zip(e, mono))) for g, e in self.basis_labels(a)]

    def times(self, a, b, mono):
        """Multiplication by the monomial with exponent vector mono from the
        piece at a to the piece at b = a + deg mono, in their bases."""
        src = self.moved(a, mono)
        if not src or not self.dim(b):
            return self.field.zeros(self.dim(b), len(src))
        return self.image(b, src)


class DegreewiseModule(GradedPieces):
    """A graded module realized on a window: an ordered basis per degree and
    multiplication matrices between adjacent pieces.

    Pieces at theta-degrees below `floor_theta` are known to vanish even
    outside the window (the module is generated in degrees above it)."""

    def __init__(self, stack, field, pres, window, shift=None, keep=None):
        self.stack = stack
        self.field = field
        self.pres = pres
        self.window = window
        self.shift = tuple(shift) if shift is not None else deg_zero(stack.r)
        self.keep = keep
        pres.validate(stack)
        gen_thetas = [stack.theta(deg_sub(d, self.shift)) for d in pres.gen_degrees]
        self.floor_theta = min(gen_thetas) if gen_thetas else 0
        self._pieces = {}

    # M(shift)_a = M_(a + shift); truncation drops pieces where keep is False.

    def _kept(self, a):
        return self.keep is None or self.keep(a)

    def kept(self, a):
        """Whether the truncation retains the piece at a."""
        return self._kept(tuple(a))

    def piece(self, a):
        """Presentation.piece at degree a, or an empty piece where the
        truncation drops it; labels are (gen, exponent) pairs."""
        a = tuple(a)
        if a not in self._pieces:
            inner = deg_add(a, self.shift)
            self._pieces[a] = self.pres.piece(
                self.field, lambda d: monomial_array(self.stack, deg_sub(inner, d))) \
                if self._kept(a) else ([], None, {})
        return self._pieces[a]

    def in_window(self, a):
        return tuple(a) in self.window

    def piece_known(self, a):
        """True when the piece at a is determined (inside the window, or
        below the generator floor where it must vanish, or truncated away)."""
        return self.in_window(a) or self.stack.theta(a) < self.floor_theta or not self._kept(a)

    def mult_matrix(self, i, a):
        """Multiplication by x_i from piece(a) to piece(a + deg x_i)."""
        a = tuple(a)
        return Mat(self.field, self.times(a, deg_add(a, self.stack.var_degrees[i]),
                                          tuple(int(k == i) for k in range(self.stack.nvars))))


def realize(pres, stack, window, field):
    """Realize a presentation as a DegreewiseModule on the window."""
    return DegreewiseModule(stack, field, pres, window)


def truncate(module, threshold):
    """M_{>= d}: keep piece(a) iff a - d lies in the effective cone
    (multigraded), or theta(a) >= d when an integer threshold is given."""
    stack = module.stack
    if isinstance(threshold, int):
        old = module.keep
        keep = lambda a, t=threshold: (old is None or old(a)) and stack.theta(a) >= t
    else:
        d = tuple(threshold)
        old = module.keep
        keep = lambda a: (old is None or old(a)) and cone_contains(stack.eff, stack.theta, deg_sub(a, d))
    return DegreewiseModule(stack, module.field, module.pres, module.window,
                            shift=module.shift, keep=keep)


def twist(module, a):
    """M(a): relabeled pieces, M(a)_b = M_{a+b}."""
    a = tuple(a)
    old = module.keep
    keep = None if old is None else (lambda b: old(deg_add(b, a)))
    return DegreewiseModule(
        module.stack, module.field, module.pres,
        Window(deg_sub(module.window.lo, a), deg_sub(module.window.hi, a)),
        shift=deg_add(module.shift, a), keep=keep)


class SpanSubmodule:
    """The submodule of a realized module generated by its pieces at the
    given degrees, presented degreewise: the piece at b is the span of all
    monomial multiples of the generating pieces landing there.

    Exposes the DegreewiseModule surface the BGG functors consume."""

    def __init__(self, module, gen_degrees, window):
        self.stack = module.stack
        self.field = module.field
        self.inner = module
        self.gen_degrees = [tuple(d) for d in gen_degrees]
        self.window = window
        self.floor_theta = min(self.stack.theta(d) for d in self.gen_degrees)
        self._basis = {}

    def _span(self, b):
        b = tuple(b)
        if b not in self._basis:
            cols = [self.inner.times(d, b, mono) for d in self.gen_degrees
                    if self.stack.theta(deg_sub(b, d)) >= 0 and self.inner.dim(d)
                    for mono in monomial_basis(self.stack, deg_sub(b, d))]
            val = np.concatenate(cols, axis=1) if cols else self.field.zeros(self.inner.dim(b), 0)
            self._basis[b] = rref(self.field, val.T)[0].T
        return self._basis[b]

    def dim(self, a):
        return self._span(a).shape[1]

    def piece_known(self, a):
        return tuple(a) in self.window or self.stack.theta(a) < self.floor_theta

    def in_window(self, a):
        return tuple(a) in self.window

    def mult_matrix(self, i, a):
        a = tuple(a)
        src = self._span(a)
        tgt = self._span(deg_add(a, self.stack.var_degrees[i]))
        inner_m = self.inner.mult_matrix(i, a).a
        x = solve_in_span(self.field, tgt, self.field.matmul(inner_m, src))
        if x is None:
            raise ValueError("span is not multiplication-closed at %r" % (a,))
        return Mat(self.field, x)


def generated_truncation(module, d, window):
    """The submodule generated by the piece in degree d, with pieces
    relabeled so the generators sit in degree 0 (the module M_{>= d}(d)
    when a single truncation degree pins the generators)."""
    d = tuple(d)
    shifted = twist(module, d)
    return SpanSubmodule(shifted, [deg_zero(module.stack.r)], window)


def presentation_from_span(span, rel_degrees):
    """A minimal finite presentation of a span submodule generated in degree
    zero: at each relation degree (in increasing grading order) the kernel
    of the evaluation map is reduced modulo multiples of the relations
    already chosen, and only genuinely new syzygies are kept. The degrees
    must include every minimal first-syzygy degree."""
    from .dmres import _IncrementalRank

    stack = span.stack
    field = span.field
    zero = deg_zero(stack.r)
    ngens = span.dim(zero)
    pres = Presentation([zero] * ngens)  # the relations chosen so far

    for b in sorted((tuple(x) for x in rel_degrees), key=lambda d: (stack.theta(d), d)):
        # the evaluation at b: one column per (generator, monomial) label
        monos = monomial_basis(stack, b)
        labels = [(k, mu) for mu in monos for k in range(ngens)]
        if not labels:
            continue
        ker = _kernel_arr(field, solve_in_span(
            field, span._span(b), np.concatenate([span.inner.times(zero, b, mu) for mu in monos],
                                                 axis=1)))
        if ker.shape[1] == 0:
            continue
        table = np.array([(k,) + mu for k, mu in labels], dtype=np.int64)
        acc = _IncrementalRank(field)
        for j, cdeg in enumerate(pres.rel_degrees):
            if stack.theta(deg_sub(b, cdeg)) >= 0:
                for row in pres.relation_rows(field, j, table, monomial_array(stack, deg_sub(b, cdeg))):
                    vec = field.zeros(1, len(labels))[0]
                    vec[list(row)] = list(row.values())
                    acc.add(vec)
        for c in range(ker.shape[1]):
            if acc.add(ker[:, c]):
                relj = len(pres.rel_degrees)
                pres.rel_degrees.append(b)
                for (k, mu), v in zip(labels, ker[:, c].tolist()):
                    if v != field.zero:
                        pres.entries.setdefault((k, relj), Poly([])).terms.append((v, mu))
    return pres


class GradedComplex:
    """A windowed complex of graded vector spaces: for each homological index
    j and each degree a, a basis-size and a matrix term_j(a) -> term_{j-1}(a).
    The differential preserves the degree a."""

    def __init__(self, field):
        self.field = field
        self.dims = {}
        self.maps = {}

    def set_dim(self, j, a, n):
        self.dims[(j, tuple(a))] = n

    def dim(self, j, a):
        return self.dims.get((j, tuple(a)), 0)

    def set_map(self, j, a, mat):
        self.maps[(j, tuple(a))] = mat

    def map(self, j, a):
        """The matrix term_j(a) -> term_{j-1}(a)."""
        a = tuple(a)
        m = self.maps.get((j, a))
        if m is None:
            return Mat.zeros(self.field, self.dim(j - 1, a), self.dim(j, a))
        return m

    def js(self):
        return sorted({j for j, _ in self.dims})

    def homology(self, j, a):
        from .linalg import homology_dim

        return homology_dim(self.map(j + 1, a), self.map(j, a))


def koszul_complex(stack, window, field):
    """The Koszul complex on the variables, realized degreewise: term j has
    one summand S(-d) for each j-subset of variables with degree sum d, and
    the differential is contraction against sum x_i e_i."""
    cx = GradedComplex(field)
    n1 = stack.nvars
    degs = stack.var_degrees
    masks_by_size = {}
    for mask in range(1 << n1):
        masks_by_size.setdefault(bin(mask).count("1"), []).append(mask)
    for a in window.points():
        bases = {}
        for j in range(n1 + 2):
            basis = []
            for mask in masks_by_size.get(j, []):
                d = stack.mask_degree(mask)
                for e in monomial_basis(stack, deg_sub(a, d)):
                    basis.append((mask, e))
            bases[j] = basis
            cx.set_dim(j, a, len(basis))
        for j in range(1, n1 + 1):
            src = bases[j]
            tgt = bases.get(j - 1, [])
            if not src or not tgt:
                continue
            index = {lab: k for k, lab in enumerate(tgt)}
            m = field.zeros(len(tgt), len(src))
            for col, (mask, e) in enumerate(src):
                sign = 1
                for i in range(n1):
                    if mask & (1 << i):
                        newe = tuple(x + (1 if k == i else 0) for k, x in enumerate(e))
                        lab = (mask & ~(1 << i), newe)
                        if lab in index:
                            c = field.of(sign)
                            m[index[lab], col] = field.add(m[index[lab], col], c)
                        sign = -sign
            cx.set_map(j, a, Mat(field, m))
    return cx
