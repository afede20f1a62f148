"""Graded pieces of localizations M[x_C^{-1}], the Cech cells built from
them, and the exact cell-pattern engine of monomial presentations.

MonomialStrands needs no exponent bound: a strand depends only on which
relation thresholds its Laurent exponent crosses, so a degree's homology is
a finite sum over patterns, each weighted by the number of lattice points
of its region in that degree, a value of a vector partition function
(count_exponents counts them; signed_exponents lists them where a caller
needs them). The dense path (LocalizedModule, CechComplex) takes any
presentation. A localized piece in a fixed degree is usually infinite
dimensional, so it bounds each inverted exponent below by -max(t, floor),
where the floor is the one reach rule (reach_floors) of a grading, or by -t
when no grading is given, and relies on the caller's adaptive
stabilization (double t until the dimensions stop changing; a bound
unsettled by t = T_CAP raises StabilizationError, exit 4). Every cell of
one complex uses the same bound, so its ExponentBoxes enumerate each
degree once, for the cell inverting the union of the cover, and mask that
for the others. Its pieces are built by Presentation.piece, monomial
presentations too (no kill rule is shared with MonomialStrands), and its
maps as linalg.Entries of the normal forms of the labels they read, made
on request (RowReducer.reduce_rows): strand homology ranks them by
linalg.rank, which alone chooses the route, and only the Tate walk's
retracts and horizontal blocks are made dense (Entries.dense).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import StabilizationError
from .linalg import Entries, Mat, echelon_kernel, homology_dims, independent_columns, invert
from .smodule import GradedPieces
from .toric import count_points, deg_add, deg_sub, deg_zero, point_array, points


def _pattern_call(fn, stack, d, pattern):
    try:
        return fn(stack.var_degrees, stack.theta, d, [lo for lo, _ in pattern], [hi for _, hi in pattern])
    except ArithmeticError as exc:
        raise StabilizationError("the Cech strand pattern %r has no finite enumeration at "
                                 "%r: %s" % (pattern, d, exc))


def signed_exponents(stack, d, pattern):
    """Exponent vectors of degree d with lower <= e_i <= upper for the
    per-variable (lower, upper) bounds of pattern (None: open on that side),
    in lexicographic order. StabilizationError (exit 4) when toric.points
    cannot bound the region, as for a strand pattern whose cohomology is
    infinite. count_exponents counts them without building them."""
    return _pattern_call(points, stack, tuple(d), pattern)


def count_exponents(stack, degrees, pattern):
    """The number of signed_exponents(stack, d, pattern) for each d in
    degrees, counted for all of them at once (toric.count_points); the same
    StabilizationError."""
    return _pattern_call(count_points, stack, [tuple(d) for d in degrees], pattern)


def reach_floors(stack, grading, inner):
    """Per-variable lower bounds on the inverted exponents that reach the
    classes of degree inner: reach = |grading(inner)| plus the grading's
    positive values on the variables, and floor_i = reach // v_i + 1 where
    v_i = grading(deg x_i) > 0, else 1."""
    values = [grading(d) for d in stack.var_degrees]
    reach = abs(grading(inner)) + sum(v for v in values if v > 0)
    return [reach // v + 1 if v > 0 else 1 for v in values]


def _laurent_exponents(stack, d, inverted, t, floors=None):
    """Exponent vectors of degree d with e_i >= -max(t, floors[i]) on
    inverted variables and e_i >= 0 elsewhere, as the rows of an int64
    array in lexicographic order."""
    floors = [t] * stack.nvars if floors is None else floors
    lower = [-max(t, f) if i in inverted else 0 for i, f in enumerate(floors)]
    return point_array(stack.var_degrees, stack.theta, d, lower, [None] * stack.nvars)


class ExponentBoxes:
    """The Laurent exponents of the cells of one Cech complex. Every cell
    bounds each variable it inverts below by the same -max(t, floor_i)
    (reach_floors of the piece degree under grading; -t without one), so a
    cell's exponents are those of the cell inverting the union of the cover
    with e_i >= 0 on the variables it does not invert. Each (piece degree,
    degree) is enumerated once, for the union, and masked per cell, which
    keeps the lexicographic order."""

    def __init__(self, stack, union, t, grading=None):
        self.stack = stack
        self.union = frozenset(union)
        self.t = t
        self.grading = grading
        self._boxes = {}

    def exponents(self, inverted, inner, d):
        """The exponents of degree d of the cell inverting inverted, for the
        piece of degree inner."""
        box = self._boxes.get((inner, d))
        if box is None:
            floors = None if self.grading is None else reach_floors(self.stack, self.grading, inner)
            box = self._boxes[inner, d] = _laurent_exponents(self.stack, d, self.union, self.t, floors)
        fixed = sorted(self.union - inverted)
        return box[(box[:, fixed] >= 0).all(axis=1)] if fixed else box


class LocalizedModule(GradedPieces):
    """M[x_C^{-1}] realized degreewise on the exponents of boxes, an
    ExponentBoxes, which bounds the inverted ones below.

    M is given by its presentation (with an optional twist shift); the
    truncation predicate of a DegreewiseModule is irrelevant after inverting
    any variable and is ignored here."""

    def __init__(self, stack, field, pres, inverted, boxes, shift=None):
        self.stack = stack
        self.field = field
        self.pres = pres
        self.inverted = frozenset(inverted)
        self.boxes = boxes
        self.shift = tuple(shift) if shift is not None else deg_zero(stack.r)
        self._cache = {}

    def piece(self, a):
        """Presentation.piece at degree a: (labels, reducer, index), labels
        (gen, exponent vector); reducer is None when the labels are already
        a basis."""
        a = tuple(a)
        if a not in self._cache:
            inner = deg_add(a, self.shift)
            self._cache[a] = self.pres.piece(
                self.field, lambda d: self.boxes.exponents(self.inverted, inner, deg_sub(inner, d)))
        return self._cache[a]


def cech_cells(cover):
    """The Cech cells of a cover and their signed cofaces. A cell is
    (level, J, union): J is a nonempty subset of the cover of size
    level + 1, inverting the union of its supports; cells run level by
    level, lexicographically within a level. cofaces[ci] lists, for each
    j not in J in increasing order, the index of the cell J + {j} and the
    sign (-1)^(position of j in J + {j}) of the Cech differential."""
    cover = [frozenset(c) for c in cover]
    cells = []
    for size in range(1, len(cover) + 1):
        for J in itertools.combinations(range(len(cover)), size):
            cells.append((size - 1, J, frozenset().union(*[cover[j] for j in J])))
    index = {J: ci for ci, (_, J, _) in enumerate(cells)}
    cofaces = []
    for _, J, _ in cells:
        out = []
        for extra in range(len(cover)):
            if extra in J:
                continue
            J2 = tuple(sorted(J + (extra,)))
            out.append((index[J2], -1 if J2.index(extra) % 2 else 1))
        cofaces.append(out)
    return cells, cofaces


class _Retract:
    """Per-degree contraction data: a complex (levels 0..L with maps up),
    its homology embedded and projected, and the side homotopy, satisfying
    u h + h u = 1 - i p with p i = 1, h i = 0, p h = 0, h h = 0."""

    def __init__(self, field, dims, maps, offsets, i, p, h, hlabels):
        self.field = field
        self.dims = dims
        self.maps = maps
        self.offsets = offsets
        self.i = i
        self.p = p
        self.h = h
        self.hlabels = hlabels  # per homology basis vector: its Cech level


def _build_retract(field, dims, maps):
    """dims: per-level dimensions; maps[l]: matrix level l -> level l+1."""
    levels = len(dims)
    total = sum(dims)
    offsets = [0]
    for dblock in dims:
        offsets.append(offsets[-1] + dblock)
    # per level: pivot (input) columns of u_l, kernel basis, image basis
    pivots = []
    kernels = []
    for l, n in enumerate(dims):
        u = Entries.of(field, maps[l]) if l < levels - 1 else Entries.zeros(field, 0, n)
        piv, ker = echelon_kernel(u) if n else ([], None)  # an empty level is never read
        pivots.append(piv)
        kernels.append(ker)
    i_cols = []
    hlabels = []
    p_rows = []
    h = field.zeros(total, total)
    for l in range(levels):
        n = dims[l]
        if n == 0:
            continue
        u_prev = maps[l - 1] if l >= 1 else field.zeros(n, 0)
        b_basis = u_prev[:, pivots[l - 1]] if l >= 1 and pivots[l - 1] else field.zeros(n, 0)
        ker = kernels[l].dense()
        # homology representatives: kernel columns extending the image
        reps = ker[:, independent_columns(field, b_basis, ker)]
        a_cols = pivots[l]
        nb = b_basis.shape[1]
        nh = reps.shape[1]
        na = len(a_cols)
        if nb + nh + na != n:
            raise AssertionError("level decomposition does not span")
        s = field.zeros(n, n)
        s[:, :nb] = b_basis
        s[:, nb:nb + nh] = reps
        s[a_cols, range(nb + nh, n)] = field.one
        sinv = invert(field, s)
        off = offsets[l]
        col = field.zeros(total, nh)
        col[off:off + n] = reps
        i_cols.append(col)
        hlabels.extend([l] * nh)
        row = field.zeros(nh, total)
        row[:, off:off + n] = sinv[nb:nb + nh]
        p_rows.append(row)
        # h on level l: kill the B-part back to A-coordinates of level l-1
        if nb:
            prev_off = offsets[l - 1]
            h[[prev_off + c for c in pivots[l - 1]], off:off + n] = sinv[:nb]
    i_mat = np.concatenate(i_cols, axis=1) if i_cols else field.zeros(total, 0)
    p_mat = np.concatenate(p_rows, axis=0) if p_rows else field.zeros(0, total)
    return _Retract(field, dims, maps, offsets, i_mat, p_mat, h, hlabels)


class MonomialStrands:
    """The Cech cell-pattern engine of a monomial presentation. The strand
    of a Laurent exponent e is the tiny complex spanned by the cells where e
    survives (its cellset), so it depends only on that pattern: the oracle
    sums cached pattern homologies, each times the lattice points of its
    region, and the Fourier-Mukai transfer walks cached pattern retracts.
    Exact, with no exponent bound; the dense CechComplex is the independent
    general path."""

    def __init__(self, stack, field, pres, cover, shift=None):
        if not pres.is_monomial(field):
            raise ValueError("MonomialStrands requires a monomial presentation")
        self.stack = stack
        self.field = field
        self.pres = pres
        self.shift = tuple(shift) if shift is not None else deg_zero(stack.r)
        self.cover = [frozenset(c) for c in cover]
        self.gshift = pres.gen_degrees[0]
        self.rels = pres.monomial_exponents(field)
        self.cells, self.cofaces = cech_cells(self.cover)
        self.nlevels = len(self.cover)
        # cellset(e) reads e[i] only through e[i] < 0 and g[i] <= e[i] for
        # relation exponents g >= 0: raising e[i] by one changes it only when
        # e[i] reaches a threshold, and e[i] clamped to [-1, max] keys it
        self.thresholds = [frozenset({0}.union(g[i] for g in self.rels))
                           for i in range(stack.nvars)]
        self._caps = [max(th) for th in self.thresholds]
        self._cellsets = {}
        self._homology = {}
        self._retracts = {}
        self._contributing = {}

    def cellset(self, e):
        """The cells where the Laurent exponent tuple e survives."""
        e = tuple(-1 if x < 0 else min(x, c) for x, c in zip(e, self._caps))
        cached = self._cellsets.get(e)
        if cached is not None:
            return cached
        neg = frozenset(i for i, x in enumerate(e) if x < 0)
        out = self._cellsets[e] = frozenset(
            ci for ci, (_, _, union) in enumerate(self.cells)
            if neg <= union and not any(all(g[i] <= e[i] for i in range(len(e)) if i not in union)
                                        for g in self.rels))
        return out

    def module_alive(self, e):
        if any(x < 0 for x in e):
            return False
        return not any(all(g[i] <= e[i] for i in range(len(e))) for g in self.rels)

    def _pattern_complex(self, alive, cellset):
        """The strand of a pattern: per-position dims and maps, where
        position 0 is the module cell (of dim 1 when alive), mapping to
        every level-0 cell, and position l + 1 is Cech level l; plus the
        pattern's cells in strand order, which is the order of self.cells."""
        field = self.field
        order = sorted(cellset)
        pos = {}
        dims = [1 if alive else 0] + [0] * self.nlevels
        for ci in order:
            lvl = self.cells[ci][0]
            pos[ci] = dims[lvl + 1]
            dims[lvl + 1] += 1
        mats = [field.zeros(dims[k + 1], dims[k]) for k in range(self.nlevels)]
        for ci in order:
            lvl = self.cells[ci][0]
            if lvl == 0 and alive:
                mats[0][pos[ci], 0] = field.one
            for cj, sign in self.cofaces[ci]:
                k = pos.get(cj)
                if k is not None:
                    mats[lvl + 1][k, pos[ci]] = field.neg(field.one) if sign < 0 else field.one
        return dims, mats, order

    def homology(self, alive, cellset):
        """Homology dims of a pattern's strand by position (0 = the module
        cell, alive or not)."""
        key = (alive, cellset)
        hom = self._homology.get(key)
        if hom is None:
            dims, mats, _ = self._pattern_complex(alive, cellset)
            hom = self._homology[key] = homology_dims(dims, [Mat(self.field, m) for m in mats])
        return hom

    def retract(self, cellset):
        """(retract, cells in strand order) of a pattern's Cech strand
        without the module cell."""
        val = self._retracts.get(cellset)
        if val is None:
            dims, mats, order = self._pattern_complex(False, cellset)
            val = self._retracts[cellset] = (_build_retract(self.field, dims[1:], mats[1:]), order)
        return val

    def contributing(self, live):
        """(pattern, alive, cellset) of each pattern whose strand has
        homology, the module cell alive only when live. A pattern bounds each
        e_i by (None, -1) or from one of thresholds[i] up to the next, and its
        lower ends represent it, since cellset and module_alive are constant
        on it. A free module (thresholds {0}) has the 2^n sign patterns."""
        out = self._contributing.get(live)
        if out is None:
            out = self._contributing[live] = []
            sides = []
            for th in self.thresholds:
                cuts = sorted(th)
                sides.append([(None, -1)] + list(zip(cuts, [c - 1 for c in cuts[1:]] + [None])))
            for pattern in itertools.product(*sides):
                e = tuple(-1 if lo is None else lo for lo, _ in pattern)
                cs = self.cellset(e)
                alive = live and self.module_alive(e)
                if (cs or alive) and any(self.homology(alive, cs)):
                    out.append((pattern, alive, cs))
        return out

    def strand_homology(self, a, extended, keep=None):
        """Summed homology positions; extended includes the module cell
        (position 0 = H^0_B), otherwise position 0 is the sheaf H^0 slot.
        Each contributing pattern counts once per exponent of its region,
        the exponents counted (count_exponents), not built."""
        inner = deg_sub(deg_add(tuple(a), self.shift), self.gshift)
        live = extended and (keep is None or keep(tuple(a)))
        out = [0] * (self.nlevels + (1 if extended else 0))
        for pattern, alive, cs in self.contributing(live):
            n, = count_exponents(self.stack, [inner], pattern)
            if n:
                hom = self.homology(alive, cs)
                for i, h in enumerate(hom if extended else hom[1:]):
                    out[i] += h * n
        return out


class CechComplex:
    """The Cech cells of a presentation over a cover: cell J (a nonempty
    subset of the cover) inverts the union of the supports in J; the
    optional module cell at level 0 prepends M itself (extended complex)."""

    def __init__(self, stack, field, pres, cover, t, shift=None, module_piece=None,
                 grading=None):
        self.stack = stack
        self.field = field
        self.cover = [frozenset(c) for c in cover]
        self.module_piece = module_piece
        self.cells, self.cofaces = cech_cells(self.cover)
        boxes = ExponentBoxes(stack, self.cells[-1][2], t, grading=grading)
        self.localized = {}
        for _, _, inv in self.cells:
            if inv not in self.localized:
                self.localized[inv] = LocalizedModule(stack, field, pres, inv, boxes, shift=shift)

    def cells_at(self, level):
        """(index, cell) of the cells at Cech level l (l+1 opens
        intersected)."""
        return [(ci, c) for ci, c in enumerate(self.cells) if c[0] == level]

    def _block(self, a, b, sources, targets, mono=None):
        """Every map of the strands is made here, as an Entries: the map from
        the pieces at degree a to the target pieces at b. sources lists
        (piece, [(target index, sign)]); each source's basis labels, moved
        by the monomial mono if given, are imaged in each of its targets'
        bases, signed, at the pieces' offsets. No two (source, target)
        blocks overlap."""
        field = self.field
        offsets = list(itertools.accumulate([t.dim(b) for t in targets], initial=0))
        ents = [(np.zeros(0, dtype=np.int64),) * 2 + (np.full(0, field.one),)]
        co = 0
        for src, signs in sources:
            labels = src.basis_labels(a) if mono is None else src.moved(a, mono)
            for k, sign in signs:
                if labels and targets[k].dim(b):
                    rows, cols, vals = targets[k].image_entries(b, labels)
                    ents.append((rows + offsets[k], cols + co, vals if sign > 0 else field.reduce(-vals)))
            co += len(labels)
        return Entries(field, offsets[-1], co, *(np.concatenate(x) for x in zip(*ents)))

    def _map(self, a, level):
        """The map at degree a from Cech level to level + 1, or from the
        module cell to the level-0 cells (level -1)."""
        tgt = self.cells_at(level + 1)
        index = {cj: k for k, (cj, _) in enumerate(tgt)}
        if level < 0:
            sources = [(self.module_piece, [(k, 1) for k in range(len(tgt))])]
        else:
            sources = [(self.localized[c[2]], [(index[cj], sign) for cj, sign in self.cofaces[ci]])
                       for ci, c in self.cells_at(level)]
        return self._block(a, a, sources, [self.localized[c[2]] for _, c in tgt])

    def _strand(self, a, extended):
        """Dims and maps (_block) of the complex at degree a, the last map
        out of the top level (to no cells); position 0 is the module cell
        when extended, else the level-0 cells."""
        maps = [self._map(a, level) for level in range(-1 if extended else 0, len(self.cover))]
        return [m.cols for m in maps], maps

    def strand(self, a, extended):
        """The full complex at degree a as (dims, dense maps to the next)."""
        dims, maps = self._strand(a, extended)
        return dims, [m.dense() for m in maps[:-1]]

    def strand_homology(self, a, extended):
        """Homology dimensions by position (0 = H^0_B resp. kernel end), each
        map ranked by linalg.rank, never made dense."""
        return homology_dims(*self._strand(a, extended))

    def horizontal_block(self, a, i):
        """The horizontal map x_i (x) e_i of the bicomplex, from the strand at
        a to the strand at a + deg x_i (cells only, no module cell), with the
        row sign (-1)^level."""
        pieces = [self.localized[inv] for _, _, inv in self.cells]
        sources = [(piece, [(k, -1 if level % 2 else 1)])
                   for k, (piece, (level, _, _)) in enumerate(zip(pieces, self.cells))]
        mono = tuple(int(k == i) for k in range(self.stack.nvars))
        return self._block(a, deg_add(a, self.stack.var_degrees[i]), sources, pieces, mono).dense()
