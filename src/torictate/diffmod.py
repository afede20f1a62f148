"""Free differential E-modules on degree windows.

A FreeDiffModule is a list of omega_E twists plus a sparse matrix of
homogeneous exterior-algebra entries acting by left multiplication; the
differential has total degree (0; -1), so it preserves the Cl-degree and
every Cl-degree slice ("column") is an ordinary finite complex of
k-vector spaces graded by the auxiliary degree.

Homology is only ever reported on the module's safe degree set: outside it
a column may be missing contributors from generators beyond the window.
"""

from __future__ import annotations

import numpy as np

from .exterior import (OmegaTwist, column_basis, column_slices, elem_add, elem_mask_filter,
                       elem_mul, elem_scale, entry_degree, ext_mul, popcount)
from .linalg import homology_dims
from .toric import deg_neg


class FreeDiffModule:
    def __init__(self, stack, field, gens, entries, safe=(), varmask=None, validate=True):
        self.stack = stack
        self.field = field
        self.gens = list(gens)
        self.varmask = (1 << stack.nvars) - 1 if varmask is None else varmask
        self.entries = {}
        for (s, t), elem in entries.items():
            elem = {m: c for m, c in elem.items() if c != field.zero}
            if elem:
                self.entries[(s, t)] = elem
        self.safe = frozenset(tuple(a) for a in safe)
        self._columns = {}
        self._out = {}
        for (s, t) in self.entries:
            self._out.setdefault(t, []).append(s)
        if validate:
            _check_degrees(stack, self.gens, self.gens, self.entries, -1)

    def column_basis(self, a):
        """Ordered basis [(gen, monomial)] of the degree-a slice."""
        a = tuple(a)
        if a not in self._columns:
            self._columns[a] = column_basis(self.stack, self.gens, a, self.varmask)
        return self._columns[a]

    def column_slices(self, a):
        """The column split by auxiliary degree: dict aux -> element list."""
        return column_slices(self.stack, self.gens, self.column_basis(a))

    def column_block(self, a, slice_src, slice_tgt):
        """Differential matrix from the span of slice_src to slice_tgt
        (both lists of (gen, monomial) at the same Cl-degree)."""
        return column_matrix(self.field, self.entries, self._out, slice_src, slice_tgt)

    def column_complex(self, a):
        """(slices, blocks): slices maps aux -> basis list, blocks maps
        aux -> matrix from slice(aux) to slice(aux - 1)."""
        slices = self.column_slices(a)
        blocks = {}
        for j, src in slices.items():
            tgt = slices.get(j - 1, [])
            blocks[j] = self.column_block(a, src, tgt)
        return slices, blocks


def _check_degrees(stack, src_gens, tgt_gens, entries, shift_aux):
    """ValueError unless every entry (s, t), from src_gens[t] to
    tgt_gens[s], holds only monomials of the degree (0; shift_aux) map
    between their twists, looked up once per pair of twists."""
    table = stack.subsets_by_sum()
    allowed = {}
    for (s, t), elem in entries.items():
        pair = (src_gens[t], tgt_gens[s])
        ok = allowed.get(pair)
        if ok is None:
            cl, aux = entry_degree(stack, *pair, shift_aux=shift_aux)
            ok = allowed[pair] = {m for m in table.get(deg_neg(cl), ()) if -popcount(m) == aux}
        if not ok.issuperset(elem):
            raise ValueError("entry (%d, %d) is not homogeneous of degree (0; %d)" % (s, t, shift_aux))


def restrict(gens, entries, keep):
    """The generators at the increasing indices keep, and the entries
    between them, renumbered."""
    remap = {t: k for k, t in enumerate(keep)}
    return ([gens[t] for t in keep],
            {(remap[s], remap[t]): elem for (s, t), elem in entries.items()
             if s in remap and t in remap})


def column_matrix(field, entries, out, src, tgt):
    """The matrix, from the span of src to the span of tgt, of the sparse
    E-matrix entries (out[t] lists the s with an entry (s, t)) acting by
    left multiplication; src and tgt list (gen, monomial) labels."""
    idx = {lab: k for k, lab in enumerate(tgt)}
    mat = field.zeros(len(tgt), len(src))
    for col, (t, m) in enumerate(src):
        for s in out.get(t, ()):
            for u, c in entries[(s, t)].items():
                r = ext_mul(u, m)
                if r is None:
                    continue
                sign, um = r
                k = idx.get((s, um))
                if k is None:
                    continue
                cc = c if sign > 0 else field.neg(c)
                mat[k, col] = field.add(mat[k, col], cc)
    return mat


def _add_block(entries, field, toff, soff, rows, mono, sign):
    """Add sign * block to the e_mono coefficients of the differential at
    rows toff.., columns soff.., dropping coefficients that cancel; rows
    yields (row index, row values)."""
    for rr, row in rows:
        for cc, v in enumerate(row):
            if v == field.zero:
                continue
            if sign < 0:
                v = field.neg(v)
            elem = entries.setdefault((toff + rr, soff + cc), {})
            nv = field.add(elem.get(mono, field.zero), v)
            if nv == field.zero:
                elem.pop(mono, None)
            else:
                elem[mono] = nv


def check_square_zero(module, degrees=None):
    """Exact check that the differential squares to zero on the given
    degrees (default: the safe set), column by column."""
    degrees = list(degrees) if degrees is not None else sorted(module.safe)
    field = module.field
    for a in degrees:
        slices, blocks = module.column_complex(a)
        for j in sorted(slices):
            m1 = blocks.get(j)
            m0 = blocks.get(j - 1)
            if m1 is None or m0 is None or m1.shape[1] == 0 or m0.shape[0] == 0:
                continue
            if np.any(field.matmul(m0, m1)):
                return False
    return True


def homology_column(module, a):
    """Homology dimensions of the degree-a column, as a dict aux -> dim;
    zero entries are omitted. Rejects degrees outside the safe set."""
    a = tuple(a)
    if a not in module.safe:
        raise ValueError("degree %r is outside the safe region" % (a,))
    return _homology_column_unchecked(module, a)


def _homology_column_unchecked(module, a):
    return _slice_homology(module.field, *module.column_complex(a))


def _slice_homology(field, slices, blocks):
    """{aux: homology dim}, zeros omitted, of a column whose blocks[j] maps
    slice j to slice j - 1. Where j - 1 is no slice, blocks[j] has no rows
    and ranks 0, so the slices can be taken in order even across gaps."""
    js = sorted(slices, reverse=True)
    hs = homology_dims(field, [blocks[j].shape[1] for j in js], [blocks[j] for j in js])
    return {j: h for j, h in sorted(zip(js, hs)) if h}


def tensor_EI(module, subset):
    """The quotient differential module over E_I = E / <e_i : i not in I>:
    entries lose every monomial meeting the complement of I, and columns are
    computed over monomials inside I only."""
    mask = 0
    for i in subset:
        mask |= 1 << i
    mask &= module.varmask
    entries = {}
    for key, elem in module.entries.items():
        filtered = elem_mask_filter(elem, mask)
        if filtered:
            entries[key] = filtered
    return FreeDiffModule(module.stack, module.field, module.gens, entries,
                          safe=module.safe, varmask=mask, validate=False)


class DMMorphism:
    """A degree-0 morphism of free differential modules, as a sparse matrix
    of homogeneous exterior entries (rows: target gens, cols: source gens)."""

    def __init__(self, source, target, entries, validate=True):
        self.source = source
        self.target = target
        self.entries = {k: dict(v) for k, v in entries.items() if v}
        if validate:
            _check_degrees(source.stack, source.gens, target.gens, self.entries, 0)


def cone(morphism):
    """Mapping cone: target + source(0; -1), differential [[d', f], [0, -d]]."""
    src, tgt = morphism.source, morphism.target
    if src.stack is not tgt.stack or src.field != tgt.field:
        raise ValueError("cone of a morphism between mismatched modules")
    field = src.field
    gens = list(tgt.gens) + [OmegaTwist(tw.cl, tw.aux - 1) for tw in src.gens]
    off = len(tgt.gens)
    entries = {}
    for (s, t), elem in tgt.entries.items():
        entries[(s, t)] = dict(elem)
    for (s, t), elem in morphism.entries.items():
        entries[(s, off + t)] = dict(elem)
    for (s, t), elem in src.entries.items():
        entries[(off + s, off + t)] = elem_scale(elem, field.neg(field.one), field)
    safe = src.safe & tgt.safe
    return FreeDiffModule(src.stack, field, gens, entries, safe=safe,
                          varmask=src.varmask & tgt.varmask, validate=False)


def check_minimal(module):
    """True iff no entry has a nonzero constant term."""
    return not any(0 in elem for elem in module.entries.values())


def minimize(module, report=False):
    """Cancel unit (constant) entries pairwise until none remain. Homology
    columns are unchanged on the safe region. Pivots are chosen smallest
    (target, source) first, so the output is deterministic."""
    field = module.field
    alive = set(range(len(module.gens)))
    rows = {}
    cols = {}
    ent = {}
    for (s, t), elem in module.entries.items():
        ent[(s, t)] = dict(elem)
        rows.setdefault(s, set()).add(t)
        cols.setdefault(t, set()).add(s)
    cancelled = 0

    def scalar_pivot():
        best = None
        for (s, t), elem in ent.items():
            if 0 in elem and (best is None or (s, t) < best):
                best = (s, t)
        return best

    while True:
        piv = scalar_pivot()
        if piv is None:
            break
        a, b = piv
        lam = ent[piv][0]
        lam_inv = field.inv(lam)
        row_a = [(t, dict(ent[(a, t)])) for t in rows.get(a, set()) if t != b and t in alive]
        col_b = [(s, dict(ent[(s, b)])) for s in cols.get(b, set()) if s != a and s in alive]
        for g in (a, b):
            for t in rows.pop(g, set()):
                ent.pop((g, t), None)
                cols.get(t, set()).discard(g)
            for s in cols.pop(g, set()):
                ent.pop((s, g), None)
                rows.get(s, set()).discard(g)
            alive.discard(g)
        for s, left in col_b:
            for t, right in row_a:
                prod = elem_mul(left, right, field)
                if not prod:
                    continue
                corr = elem_scale(prod, field.neg(lam_inv), field)
                cur = ent.get((s, t), {})
                new = elem_add(cur, corr, field)
                if new:
                    ent[(s, t)] = new
                    rows.setdefault(s, set()).add(t)
                    cols.setdefault(t, set()).add(s)
                else:
                    ent.pop((s, t), None)
                    rows.get(s, set()).discard(t)
                    cols.get(t, set()).discard(s)
        cancelled += 1

    gens, entries = restrict(module.gens, ent, sorted(alive))
    out = FreeDiffModule(module.stack, field, gens, entries, safe=module.safe,
                         varmask=module.varmask, validate=False)
    if report:
        return out, cancelled
    return out


# -- folding and unfolding (standard grading only) ---------------------------

class EComplex:
    """A complex of free Z-graded E-modules (standard grading, no auxiliary
    twist): terms[j] is a list of integer twists v for summands E(v), and
    diffs[j] holds the entries of term_j -> term_{j-1}."""

    def __init__(self, terms, diffs):
        self.terms = {j: list(vs) for j, vs in terms.items() if vs}
        self.diffs = {j: {k: dict(e) for k, e in d.items() if e} for j, d in diffs.items()}

    def __eq__(self, other):
        return isinstance(other, EComplex) and self.terms == other.terms and self.diffs == other.diffs


def _require_standard(stack):
    if stack.r != 1 or any(d != (1,) for d in stack.var_degrees):
        raise ValueError("fold/unfold require the standard grading (all variables of degree 1)")


def fold(stack, field, complex_):
    """Fold a complex into a differential module: the summand E(v) in
    homological degree j becomes omega_E(v + n + 1; v + n + 1 - j), and the
    differential is carried over unchanged."""
    _require_standard(stack)
    n1 = stack.nvars
    gens = []
    offset = {}
    for j in sorted(complex_.terms):
        offset[j] = len(gens)
        for v in complex_.terms[j]:
            gens.append(OmegaTwist((v + n1,), v + n1 - j))
    entries = {}
    for j, d in complex_.diffs.items():
        if j not in complex_.terms or j - 1 not in complex_.terms:
            continue
        for (s, t), elem in d.items():
            entries[(offset[j - 1] + s, offset[j] + t)] = dict(elem)
    return FreeDiffModule(stack, field, gens, entries, safe=(), validate=True)


def unfold(module):
    """Inverse of fold: a generator omega_E(c; u) contributes E(c - n - 1)
    in homological degree c - u."""
    _require_standard(module.stack)
    n1 = module.stack.nvars
    terms = {}
    pos = {}
    for g, tw in enumerate(module.gens):
        j = tw.cl[0] - tw.aux
        terms.setdefault(j, [])
        pos[g] = (j, len(terms[j]))
        terms[j].append(tw.cl[0] - n1)
    diffs = {}
    for (s, t), elem in module.entries.items():
        js, ks = pos[s]
        jt, kt = pos[t]
        if js != jt - 1:
            raise ValueError("differential entry does not drop the folded homological degree by 1")
        diffs.setdefault(jt, {})[(ks, kt)] = dict(elem)
    return EComplex(terms, diffs)
