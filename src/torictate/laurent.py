"""Bounded-exponent graded pieces of localizations M[x_C^{-1}] and the Cech
cells built from them.

A localized piece in a fixed degree is usually infinite dimensional; we
truncate by bounding the inverted exponents below by -t and rely on the
caller's adaptive stabilization (double t until the reported dimensions
stop changing). Monomial presentations take a combinatorial fast path: the
surviving Laurent monomials themselves form a basis.
"""

from __future__ import annotations

import itertools

import numpy as np

from .linalg import RowReducer, homology_dims
from .toric import deg_add, deg_sub, deg_zero, points


def signed_exponents(stack, d, negatives):
    """Exponent vectors of degree d with e_i <= -1 for i in the negatives
    set and e_i >= 0 elsewhere -- the lattice points of a polytope whenever
    the pattern contributes cohomology -- in lexicographic order."""
    n = stack.nvars
    return points(stack.var_degrees, stack.theta, d,
                  [None if i in negatives else 0 for i in range(n)],
                  [-1 if i in negatives else None for i in range(n)])


def _laurent_exponents(stack, d, inverted, t, floors=None):
    """Exponent vectors of degree d with e_i >= -max(t, floors[i]) on
    inverted variables and e_i >= 0 elsewhere, in lexicographic order."""
    floors = [t] * stack.nvars if floors is None else floors
    lower = [-max(t, f) if i in inverted else 0 for i, f in enumerate(floors)]
    return points(stack.var_degrees, stack.theta, d, lower, [None] * stack.nvars)


class LocalizedModule:
    """M[x_C^{-1}] realized degreewise with inverted exponents >= -t (or a
    per-degree, per-variable bound supplied by floors_fn).

    M is given by its presentation (with an optional twist shift); the
    truncation predicate of a DegreewiseModule is irrelevant after inverting
    any variable and is ignored here."""

    def __init__(self, stack, field, pres, inverted, t, shift=None, floors_fn=None):
        self.stack = stack
        self.field = field
        self.pres = pres
        self.inverted = frozenset(inverted)
        self.t = t
        self.floors_fn = floors_fn
        self.shift = tuple(shift) if shift is not None else deg_zero(stack.r)
        self.monomial = pres.is_monomial()
        if self.monomial:
            self._rel_exponents = [p.terms[0][1] for (_, _), p in sorted(pres.entries.items())]
        self._cache = {}

    def _kills(self, e):
        """Monomial path: is the Laurent monomial e annihilated, i.e. is some
        relation monomial a divisor of e on the non-inverted variables?"""
        for g in self._rel_exponents:
            if all(e[i] >= g[i] for i in range(len(e)) if i not in self.inverted):
                return True
        return False

    def piece(self, a):
        """(labels, reducer): labels are (gen, exponent vector); reducer is
        None when the labels are already a basis."""
        a = tuple(a)
        if a in self._cache:
            return self._cache[a]
        inner = deg_add(a, self.shift)
        floors = self.floors_fn(inner) if self.floors_fn is not None else None
        if self.monomial:
            exps = _laurent_exponents(self.stack, deg_sub(inner, self.pres.gen_degrees[0]),
                                      self.inverted, self.t, floors=floors)
            labels = [(0, e) for e in exps if not self._kills(e)]
            val = (labels, None)
        else:
            labels = []
            for g, gd in enumerate(self.pres.gen_degrees):
                for e in _laurent_exponents(self.stack, deg_sub(inner, gd), self.inverted,
                                            self.t, floors=floors):
                    labels.append((g, e))
            index = {lab: k for k, lab in enumerate(labels)}
            rows = []
            for j, rd in enumerate(self.pres.rel_degrees):
                rows += self.pres.relation_rows(self.field, j, index, _laurent_exponents(
                    self.stack, deg_sub(inner, rd), self.inverted, self.t, floors=floors))
            red = RowReducer(self.field, rows, len(labels)) if rows else None
            val = (labels, red)
        self._cache[a] = val
        return val

    def dim(self, a):
        labels, red = self.piece(a)
        return red.corank if red is not None else len(labels)

    def basis_labels(self, a):
        labels, red = self.piece(a)
        if red is None:
            return list(labels)
        return [labels[j] for j in red.free]

    def express(self, a, vectors):
        """Coordinates of label->coeff dicts in the basis at degree a; None
        entries where a label falls outside the truncation box."""
        labels, red = self.piece(a)
        index = {lab: k for k, lab in enumerate(labels)}
        n = len(vectors)
        amb = self.field.zeros(n, len(labels))
        ok = [True] * n
        for r, vec in enumerate(vectors):
            for lab, c in vec.items():
                k = index.get(lab)
                if k is None:
                    if self.monomial and self._kills(lab[1]):
                        continue
                    ok[r] = False
                    break
                amb[r, k] = self.field.add(amb[r, k], c)
        if self.monomial or red is None:
            if self.monomial:
                keep = [index[lab] for lab in self.basis_labels(a)] if labels else []
                coords = amb[:, keep] if labels else self.field.zeros(n, 0)
            else:
                coords = amb
        else:
            coords = red.reduce_rows(amb)
        return coords, ok


class MonomialStrands:
    """Per-exponent decomposition of the Cech strands of a monomial
    presentation: each Laurent exponent spans a tiny subcomplex determined
    by the set of cells where it survives, so homology is a sum of cached
    pattern homologies. Exact and fast; the dense CechComplex is the
    independent general path."""

    def __init__(self, stack, field, pres, cover, shift=None):
        if not pres.is_monomial():
            raise ValueError("MonomialStrands requires a monomial presentation")
        self.stack = stack
        self.field = field
        self.pres = pres
        self.shift = tuple(shift) if shift is not None else deg_zero(stack.r)
        self.cover = [frozenset(c) for c in cover]
        self.gshift = pres.gen_degrees[0]
        self.rels = [p.terms[0][1] for (_, _), p in sorted(pres.entries.items())]
        self.cells = []
        for size in range(1, len(self.cover) + 1):
            for J in itertools.combinations(range(len(self.cover)), size):
                union = frozenset().union(*[self.cover[j] for j in J])
                self.cells.append((size - 1, J, union))
        self.nlevels = len(self.cover)
        self._hom_cache = {}

    def cellset(self, e):
        neg = frozenset(i for i, x in enumerate(e) if x < 0)
        alive = []
        for ci, (_, _, union) in enumerate(self.cells):
            if not neg <= union:
                continue
            if any(all(g[i] <= e[i] for i in range(len(e)) if i not in union) for g in self.rels):
                continue
            alive.append(ci)
        return frozenset(alive)

    def module_alive(self, e):
        if any(x < 0 for x in e):
            return False
        return not any(all(g[i] <= e[i] for i in range(len(e))) for g in self.rels)

    def _pattern_homology(self, key):
        if key in self._hom_cache:
            return self._hom_cache[key]
        module_alive, cellset = key
        field = self.field
        per_level = {}
        for ci in sorted(cellset):
            lvl, J, _ = self.cells[ci]
            per_level.setdefault(lvl, []).append(J)
        dims = [1 if module_alive else 0]
        index = []
        for lvl in range(self.nlevels):
            js = sorted(per_level.get(lvl, []))
            index.append({J: k for k, J in enumerate(js)})
            dims.append(len(js))
        mats = []
        m0 = field.zeros(dims[1], dims[0])
        if module_alive:
            for J, k in index[0].items():
                m0[k, 0] = field.one
        mats.append(m0)
        for lvl in range(self.nlevels - 1):
            mat = field.zeros(dims[lvl + 2], dims[lvl + 1])
            for J, col in index[lvl].items():
                for extra in range(self.nlevels):
                    if extra in J:
                        continue
                    J2 = tuple(sorted(J + (extra,)))
                    k = index[lvl + 1].get(J2)
                    if k is None:
                        continue
                    pos = J2.index(extra)
                    mat[k, col] = field.neg(field.one) if pos % 2 else field.one
            mats.append(mat)
        hom = homology_dims(field, dims, mats)
        self._hom_cache[key] = hom
        return hom

    def _free_contributing(self, extended, kept):
        """For a free module, the sign patterns whose strand has homology
        (with the module cell alive exactly when the pattern is nonnegative
        and the piece is kept)."""
        key = (extended, kept)
        cache = getattr(self, "_contrib_cache", None)
        if cache is None:
            cache = self._contrib_cache = {}
        if key in cache:
            return cache[key]
        out = []
        for mask in range(1 << self.stack.nvars):
            nu = frozenset(i for i in range(self.stack.nvars) if mask & (1 << i))
            probe = tuple(-1 if i in nu else 0 for i in range(self.stack.nvars))
            cs = self.cellset(probe)
            alive = extended and kept and not nu
            if not cs and not alive:
                continue
            hom = self._pattern_homology((alive if extended else False, cs))
            if any(hom):
                out.append(nu)
        cache[key] = out
        return out

    def strand_homology(self, a, extended, t, keep=None):
        """Summed homology positions; extended includes the module cell
        (position 0 = H^0_B), otherwise position 0 is the sheaf H^0 slot."""
        inner = deg_add(tuple(a), self.shift)
        kept = keep is None or keep(tuple(a))
        out = [0] * (self.nlevels + (1 if extended else 0))
        if not self.rels:
            # free module: exact per-pattern polytope enumeration
            for nu in self._free_contributing(extended, kept):
                n = len(signed_exponents(self.stack, deg_sub(inner, self.gshift), nu))
                if not n:
                    continue
                alive = extended and kept and not nu
                probe = tuple(-1 if i in nu else 0 for i in range(self.stack.nvars))
                hom = self._pattern_homology((alive if extended else False, self.cellset(probe)))
                if extended:
                    for i, h in enumerate(hom):
                        if h:
                            out[i] += h * n
                else:
                    for i, h in enumerate(hom[1:]):
                        if h:
                            out[i] += h * n
            return out
        all_vars = frozenset(range(self.stack.nvars))
        theta = self.stack.theta
        reach = abs(theta(inner)) + theta(self.stack.total_degree)
        floors = [reach // theta(d) + 1 for d in self.stack.var_degrees]
        for e in _laurent_exponents(self.stack, deg_sub(inner, self.gshift), all_vars, t,
                                    floors=floors):
            cs = self.cellset(e)
            alive = extended and kept and self.module_alive(e)
            if not cs and not alive:
                continue
            hom = self._pattern_homology((alive if extended else False, cs))
            if extended:
                for i, h in enumerate(hom):
                    if h:
                        out[i] += h
            else:
                for i, h in enumerate(hom[1:]):
                    if h:
                        out[i] += h
        return out


class CechComplex:
    """The Cech cells of a presentation over a cover: cell J (a nonempty
    subset of the cover) inverts the union of the supports in J; the
    optional module cell at level 0 prepends M itself (extended complex)."""

    def __init__(self, stack, field, pres, cover, t, shift=None, module_piece=None,
                 floors_fn=None):
        self.stack = stack
        self.field = field
        self.cover = [frozenset(c) for c in cover]
        self.t = t
        self.module_piece = module_piece
        self.localized = {}
        self.cells = []
        for size in range(1, len(self.cover) + 1):
            for J in itertools.combinations(range(len(self.cover)), size):
                inv = frozenset().union(*[self.cover[j] for j in J])
                if inv not in self.localized:
                    self.localized[inv] = LocalizedModule(stack, field, pres, inv, t,
                                                          shift=shift, floors_fn=floors_fn)
                self.cells.append((size, J, inv))

    def levels(self):
        return range(0, len(self.cover) + 1)

    def cells_at(self, level):
        """Cells at Cech level l (l+1 opens intersected); level -1 would be
        the module cell, handled separately."""
        return [c for c in self.cells if c[0] == level + 1]

    def restriction_block(self, a, src_cell, tgt_cell):
        """Matrix of the localization map from cell J to cell J' (J subset
        of J', one more open)."""
        _, J, inv = src_cell
        _, J2, inv2 = tgt_cell
        srcm = self.localized[inv]
        tgtm = self.localized[inv2]
        vectors = [{lab: self.field.one} for lab in srcm.basis_labels(a)]
        coords, ok = tgtm.express(a, vectors)
        if not all(ok):
            raise ArithmeticError("truncation box too small for a restriction map")
        return coords.T.copy()

    def module_block(self, a):
        """The map from the module piece into the level-0 cells, stacked."""
        src = self.module_piece
        vectors = [{lab: self.field.one} for lab in src.basis_labels(a)]
        blocks = []
        for cell in self.cells_at(0):
            tgtm = self.localized[cell[2]]
            coords, ok = tgtm.express(a, vectors)
            if not all(ok):
                raise ArithmeticError("truncation box too small for the module map")
            blocks.append(coords.T)
        if not blocks:
            return self.field.zeros(0, len(vectors))
        return np.concatenate(blocks, axis=0)

    def cech_block(self, a, level):
        """The Cech differential from level to level + 1 at degree a."""
        src_cells = self.cells_at(level)
        tgt_cells = self.cells_at(level + 1)
        src_dims = [self.localized[c[2]].dim(a) for c in src_cells]
        tgt_dims = [self.localized[c[2]].dim(a) for c in tgt_cells]
        mat = self.field.zeros(sum(tgt_dims), sum(src_dims))
        tgt_off = {}
        off = 0
        for c, d in zip(tgt_cells, tgt_dims):
            tgt_off[c[1]] = off
            off += d
        src_off = 0
        for c, d in zip(src_cells, src_dims):
            J = c[1]
            for extra in range(len(self.cover)):
                if extra in J:
                    continue
                J2 = tuple(sorted(J + (extra,)))
                pos = J2.index(extra)
                sign = -1 if pos % 2 else 1
                block = self.restriction_block(a, c, next(cc for cc in tgt_cells if cc[1] == J2))
                if sign < 0:
                    block = self.field.reduce(-block)
                o = tgt_off[J2]
                mat[o:o + block.shape[0], src_off:src_off + d] = \
                    self.field.reduce(mat[o:o + block.shape[0], src_off:src_off + d] + block)
            src_off += d
        return mat

    def strand(self, a, extended):
        """The full complex at degree a as a list of (dim, matrix-to-next);
        position 0 is the module cell when extended, else the level-0 cells."""
        dims = []
        mats = []
        if extended:
            dims.append(self.module_piece.dim(a))
            mats.append(self.module_block(a))
        for level in range(len(self.cover)):
            cells = self.cells_at(level)
            dims.append(sum(self.localized[c[2]].dim(a) for c in cells))
            if level < len(self.cover) - 1:
                mats.append(self.cech_block(a, level))
        return dims, mats

    def strand_homology(self, a, extended):
        """Homology dimensions by position (0 = H^0_B resp. kernel end)."""
        dims, mats = self.strand(a, extended)
        return homology_dims(self.field, dims, mats)

    def multiplication_block(self, a, i, cell):
        """Multiplication by x_i on one cell, from degree a to a + deg x_i."""
        loc = self.localized[cell[2]]
        vectors = []
        for (g, e) in loc.basis_labels(a):
            vectors.append({(g, tuple(x + (1 if k == i else 0) for k, x in enumerate(e))): self.field.one})
        b = deg_add(a, self.stack.var_degrees[i])
        coords, ok = loc.express(b, vectors)
        if not all(ok):
            raise ArithmeticError("truncation box too small for a multiplication map")
        return coords.T.copy()
