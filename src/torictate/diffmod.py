"""Free differential E-modules on degree windows.

A FreeDiffModule is a list of omega_E twists plus a differential of total
degree (0; -1), so it preserves the Cl-degree and every Cl-degree slice
("column") is an ordinary finite complex of k-vector spaces graded by the
auxiliary degree.

The differential is kept as D = sum_u e_u (x) A_u over exterior monomials
u (an EMatrix): the generators fall into runs of consecutive equal twists
(exterior.Runs), and each A_u is held as blocks between runs, each a
linalg.Entries made once by whoever writes it. A column's basis is a
concatenation of (run x monomials) ranges (exterior.Slice), and
column_entries places each block's entries, signed, at strided positions,
as entry arrays: a column's blocks are linalg.Entries, ranked without a
dense matrix. Dense matrices are made only where they are multiplied:
column_matrix for bgg.L's Kronecker blocks and check_square_zero's
products, minimize's working blocks, and the sums of _add_block.

Homology is only ever reported on the module's safe degree set: outside it
a column may be missing contributors from generators beyond the window.
"""

from __future__ import annotations

import numpy as np

from .exterior import (OmegaTwist, Runs, Slice, column_slices, entry_degree,
                       mul_sign, popcount)
from .linalg import Entries, homology_dims, invert, rref
from .toric import deg_neg


class EMatrix:
    """A matrix over E between free modules, sum_u e_u (x) A_u:
    blocks[t][(s, u)] is the block of A_u from source run t to target run s,
    a linalg.Entries with at least one entry. Run indices refer to the Runs
    of the two modules. Modules share blocks, which are never written in
    place."""

    def __init__(self, field, blocks=None):
        self.field = field
        self.blocks = {} if blocks is None else blocks

    def __bool__(self):
        return bool(self.blocks)

    def items(self):
        for t, row in self.blocks.items():
            for (s, u), block in row.items():
                yield s, t, u, block

    def put(self, s, t, u, block):
        """Store the e_u block, an Entries, from run t to run s unless it is empty."""
        if len(block.vals):
            self.blocks.setdefault(t, {})[(s, u)] = block


def _from_entries(field, rows, cols, entries):
    """The EMatrix of a dict {(target, source): {monomial: coeff}} between
    the runs rows and cols."""
    rloc = [(r, k) for r, n in enumerate(rows.size) for k in range(n)]
    cloc = rloc if cols is rows else [(r, k) for r, n in enumerate(cols.size) for k in range(n)]
    parts = {}
    for (s, t), elem in entries.items():
        (rs, i), (rt, k) = rloc[s], cloc[t]
        for u, c in elem.items():
            parts.setdefault((rs, rt, u), []).append((i, k, c))
    out = EMatrix(field)
    for (rs, rt, u), part in parts.items():
        ri, ci, vals = zip(*part)
        vals = field.array(vals)
        keep = np.flatnonzero(vals)
        out.put(rs, rt, u, Entries(field, rows.size[rs], cols.size[rt], np.array(ri, dtype=np.int64)[keep],
                                   np.array(ci, dtype=np.int64)[keep], vals[keep]))
    return out


def _add_block(sums, runs, toff, soff, mat, mono, sign):
    """Add sign * mat, at generator rows toff.. and columns soff.., to the
    dense e_mono sums, keyed (target run, source run, mono) and split along
    the runs; _summed stores each sum once as a block."""
    if sign < 0:
        mat = -mat
    for s, i0, i1, a in runs.cover(toff, toff + mat.shape[0]):
        for t, k0, k1, b in runs.cover(soff, soff + mat.shape[1]):
            piece = mat[a:a + i1 - i0, b:b + k1 - k0]
            if np.any(piece):
                block = sums.get((s, t, mono))
                if block is None:
                    block = sums[s, t, mono] = np.zeros_like(mat, shape=(runs.size[s], runs.size[t]))
                block[i0:i1, k0:k1] += piece


def _summed(field, sums):
    """The EMatrix of the sums of _add_block, each read off once (a sum
    that cancels is no block)."""
    out = EMatrix(field)
    for (s, t, u), block in sums.items():
        out.put(s, t, u, Entries.of(field, block))
    return out


class FreeDiffModule:
    """gens is a list of twists or a Runs; d the differential, an EMatrix
    keyed by those runs (by Runs(gens) for a list)."""

    def __init__(self, stack, field, gens, d, safe=(), varmask=None, validate=True):
        self.stack = stack
        self.field = field
        self.runs = gens if isinstance(gens, Runs) else Runs(gens)
        self.gens = self.runs.gens
        full = (1 << stack.nvars) - 1
        self.varmask = full if varmask is None else varmask
        self._mask = None if self.varmask == full else self.varmask
        self.d = d
        self.safe = frozenset(tuple(a) for a in safe)
        if validate:
            _check_degrees(stack, self.runs, self.runs, self.d, -1)

    def column_slices(self, a):
        """The column split by auxiliary degree: dict aux -> Slice."""
        return column_slices(self.stack, self.runs, tuple(a), self._mask)

    def column_block(self, a, slice_src, slice_tgt):
        """The differential from the span of slice_src to slice_tgt (both
        Slices of the degree-a column), as an Entries."""
        return Entries(self.field, len(slice_tgt), len(slice_src),
                       *column_entries(self.field, self.d, slice_src, slice_tgt))

    def column_complex(self, a):
        """(slices, blocks): slices maps aux -> Slice, blocks maps
        aux -> Entries from slice(aux) to slice(aux - 1)."""
        slices = self.column_slices(a)
        blocks = {}
        for j, src in slices.items():
            blocks[j] = self.column_block(a, src, slices.get(j - 1, Slice()))
        return slices, blocks


def _check_degrees(stack, rows, cols, emat, shift_aux):
    """ValueError unless every block, from run t of cols to run s of rows,
    has a monomial of the degree (0; shift_aux) map between their twists;
    one check per block, the allowed monomials looked up once per pair of
    twists."""
    table = stack.subsets_by_sum()
    allowed = {}
    for s, t, u, block in emat.items():
        pair = (cols.twist[t], rows.twist[s])
        ok = allowed.get(pair)
        if ok is None:
            cl, aux = entry_degree(stack, *pair, shift_aux=shift_aux)
            ok = allowed[pair] = {m for m in table.get(deg_neg(cl), ()) if -popcount(m) == aux}
        if u not in ok:
            i, k = block.ri[0], block.ci[0]
            raise ValueError("entry (%d, %d) is not homogeneous of degree (0; %d)"
                             % (rows.start[s] + i, cols.start[t] + k, shift_aux))


def restrict(runs, emat, keep):
    """The runs at the increasing indices keep, and the blocks between
    them, renumbered."""
    out = Runs()
    remap = {r: out.append(runs.twist[r], runs.size[r]) for r in keep}
    sub = EMatrix(emat.field)
    for s, t, u, block in emat.items():
        if s in remap and t in remap:
            sub.blocks.setdefault(remap[t], {})[(remap[s], u)] = block
    return out, sub


_NONE = np.zeros(0, dtype=np.int64)  # no entries, of any field


def column_entries(field, emat, src, tgt, sign=1, at=(0, 0)):
    """The matrix, from the span of the Slice src to that of tgt, of the
    E-matrix emat acting by left multiplication, times sign, as entry arrays
    (rows, cols, vals), each row and column shifted by at. The block A_u
    from run t to run s lands, for each monomial m of t's segment with
    e_u e_m = +-e_{u|m} in s's segment, at the strided rows of (s, u|m) and
    columns of (t, m). The target monomial fixes u, so each position is
    given at most once."""
    r0, c0 = at
    where = {s: (r0 + off, len(monos), {m: k for k, m in enumerate(monos)})
             for s, _, _, monos, off in tgt.segs}
    rows, cols, vals = [], [], []
    for t, _, _, monos, coff in src.segs:
        row = emat.blocks.get(t)
        if not row:
            continue
        step = len(monos)
        for (s, u), block in row.items():
            hit = where.get(s)
            if hit is None:
                continue
            roff, rstep, index = hit
            starts = [(roff + index[u | m], c0 + coff + mi, mul_sign(u, m) == sign)
                      for mi, m in enumerate(monos) if not u & m and u | m in index]
            if not starts:
                continue
            bi, bk, bv = rstep * block.ri, step * block.ci, block.vals
            for r, c, same in starts:
                rows.append(r + bi)
                cols.append(c + bk)
                vals.append(bv if same else field.reduce(-bv))
    if not rows:
        return _NONE, _NONE, _NONE
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def column_matrix(field, emat, src, tgt):
    """column_entries as a dense matrix."""
    return Entries(field, len(tgt), len(src), *column_entries(field, emat, src, tgt)).dense()


def check_square_zero(module, degrees=None):
    """Exact check that the differential squares to zero on the given
    degrees (default: the safe set), column by column."""
    degrees = list(degrees) if degrees is not None else sorted(module.safe)
    field = module.field
    for a in degrees:
        slices = module.column_slices(a)
        for j in sorted(slices):
            src, mid, tgt = slices[j], slices.get(j - 1), slices.get(j - 2)
            if not src or not mid or not tgt:
                continue
            m1 = column_matrix(field, module.d, src, mid)
            m0 = column_matrix(field, module.d, mid, tgt)
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
    return _slice_homology(*module.column_complex(a))


def _slice_homology(slices, blocks):
    """{aux: homology dim}, zeros omitted, of a column whose blocks[j] maps
    slice j to slice j - 1. Where j - 1 is no slice, blocks[j] has no rows
    and ranks 0, so the slices can be taken in order even across gaps."""
    js = sorted(slices, reverse=True)
    hs = homology_dims([blocks[j].cols for j in js], [blocks[j] for j in js])
    return {j: h for j, h in sorted(zip(js, hs)) if h}


def tensor_EI(module, subset):
    """The quotient differential module over E_I = E / <e_i : i not in I>:
    the blocks of monomials meeting the complement of I are dropped, and
    columns are computed over monomials inside I only."""
    mask = 0
    for i in subset:
        mask |= 1 << i
    mask &= module.varmask
    d = EMatrix(module.field)
    for s, t, u, block in module.d.items():
        if not u & ~mask:
            d.blocks.setdefault(t, {})[(s, u)] = block
    return FreeDiffModule(module.stack, module.field, module.runs, d,
                          safe=module.safe, varmask=mask, validate=False)


class DMMorphism:
    """A degree-0 morphism of free differential modules, as an EMatrix m
    from the source's runs to the target's."""

    def __init__(self, source, target, m, validate=True):
        self.source = source
        self.target = target
        self.m = m
        if validate:
            _check_degrees(source.stack, target.runs, source.runs, self.m, 0)


def cone(morphism):
    """Mapping cone: target + source(0; -1), differential [[d', f], [0, -d]]."""
    src, tgt = morphism.source, morphism.target
    if src.stack is not tgt.stack or src.field != tgt.field:
        raise ValueError("cone of a morphism between mismatched modules")
    field = src.field
    runs = Runs()
    for tw, n in zip(tgt.runs.twist, tgt.runs.size):
        runs.append(tw, n)
    off = len(runs.start)
    for tw, n in zip(src.runs.twist, src.runs.size):
        runs.append(OmegaTwist(tw.cl, tw.aux - 1), n)
    blocks = {t: dict(row) for t, row in tgt.d.blocks.items()}
    for t, row in morphism.m.blocks.items():
        blocks[off + t] = dict(row)
    for t, row in src.d.blocks.items():
        blocks.setdefault(off + t, {}).update(((off + s, u), -block) for (s, u), block in row.items())
    return FreeDiffModule(src.stack, field, runs, EMatrix(field, blocks), safe=src.safe & tgt.safe,
                          varmask=src.varmask & tgt.varmask, validate=False)


def check_minimal(module):
    """True iff no entry has a nonzero constant term."""
    return not any(u == 0 for _, _, u, _ in module.d.items())


def minimize(module, report=False):
    """Cancel the constant (u = 0) blocks until none remain, a block at a
    time, smallest (target run, source run) first; homology columns are
    unchanged on the safe region. For a block A from run t to run s, with
    I the pivot rows (those of A^T) and K the pivot columns of A, A[I, K]
    is invertible: the generators I of s cancel against K of t, and every
    block C_u out of t and B_v into s adds -sign(u, v) C_u[:, K] A[I, K]^-1
    B_v[I, :] to the e_{u|v} block between their runs (the reductions of
    Kaczynski, Mrozek and Slusarek). A module with no constant block is
    returned as it is. The blocks are densified to be worked on and read
    back as Entries at the end."""
    if check_minimal(module):
        return (module, 0) if report else module
    field = module.field
    size = list(module.runs.size)
    blocks = {(s, t, u): block.dense() for s, t, u, block in module.d.items()}
    cancelled = 0
    while True:
        piv = min(((s, t) for s, t, u in blocks if u == 0), default=None)
        if piv is None:
            break
        s, t = piv
        a = blocks[s, t, 0]
        rows, cols = rref(field, a.T)[1], rref(field, a)[1]
        ainv = invert(field, a[np.ix_(rows, cols)])
        out_t = [(s2, u, field.matmul(b[:, cols], ainv))
                 for (s2, t2, u), b in blocks.items() if t2 == t]
        into_s = [(t2, v, b[rows]) for (s2, t2, v), b in blocks.items() if s2 == s]
        for s2, u, left in out_t:
            for t2, v, right in into_s:
                if u & v:
                    continue
                corr = field.matmul(left, right)
                if mul_sign(u, v) > 0:
                    corr = -corr
                cur = blocks.get((s2, t2, u | v))
                blocks[s2, t2, u | v] = field.reduce(corr if cur is None else cur + corr)
        keep = {s: np.delete(np.arange(size[s]), rows), t: np.delete(np.arange(size[t]), cols)}
        for (s2, t2, u), b in list(blocks.items()):
            b = b[keep[s2]] if s2 in keep else b
            b = b[:, keep[t2]] if t2 in keep else b
            if np.any(b):
                blocks[s2, t2, u] = b
            else:
                del blocks[s2, t2, u]
        size[s] -= len(rows)
        size[t] -= len(rows)
        cancelled += len(rows)
    runs = Runs()
    remap = {r: runs.append(tw, n) for r, (tw, n) in enumerate(zip(module.runs.twist, size)) if n}
    d = EMatrix(field)
    for (s, t, u), block in blocks.items():
        d.put(remap[s], remap[t], u, Entries.of(field, block))
    out = FreeDiffModule(module.stack, field, runs, d, safe=module.safe,
                         varmask=module.varmask, validate=False)
    return (out, cancelled) if report else out


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
    runs = Runs(gens)
    return FreeDiffModule(stack, field, runs, _from_entries(field, runs, runs, entries), safe=(),
                          validate=True)


def unfold(module):
    """Inverse of fold: a generator omega_E(c; u) contributes E(c - n - 1)
    in homological degree c - u; a run of generators lands in one term."""
    _require_standard(module.stack)
    n1 = module.stack.nvars
    runs = module.runs
    terms = {}
    pos = []  # per run: (homological degree, position of its first generator)
    for tw, n in zip(runs.twist, runs.size):
        j = tw.cl[0] - tw.aux
        terms.setdefault(j, [])
        pos.append((j, len(terms[j])))
        terms[j] += [tw.cl[0] - n1] * n
    diffs = {}
    for s, t, u, block in module.d.items():
        (js, ks), (jt, kt) = pos[s], pos[t]
        if js != jt - 1:
            raise ValueError("differential entry does not drop the folded homological degree by 1")
        d = diffs.setdefault(jt, {})
        for i, k, v in zip(block.ri.tolist(), block.ci.tolist(), block.vals.tolist()):
            d.setdefault((ks + i, kt + k), {})[u] = v
    return EComplex(terms, diffs)
