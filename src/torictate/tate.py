"""Tate resolutions on toric stacks.

Two constructions are provided. For weighted projective stacks (Cl = Z) the
resolution is the mapping cone of the minimal free resolution of R applied
to a suitable truncation, made minimal. For a general stack it is computed
from the Cech model of the noncommutative Fourier-Mukai transform: the
totalization of the Cech bicomplex is contracted onto its column homology
by homotopy transfer, which yields the minimal differential module whose
generators tabulate all twisted sheaf cohomology.
"""

from __future__ import annotations

import numpy as np

from .bgg import R
from .cohomology import (CechOracle, T_CAP, T_START, fast_table_state,
                         h0b_vanishes)
from .diffmod import (FreeDiffModule, _homology_column_unchecked, homology_column,
                      minimize, tensor_EI)
from .dmres import tate_cone
from .errors import PreconditionError, StabilizationError
from .exterior import OmegaTwist, ext_mul, socle_readoff
from .laurent import CechComplex
from .linalg import GF, _kernel_arr, invert, rref
from .toric import deg_add, deg_neg, deg_sub, is_irrelevant_subset


class TateResult:
    """A minimal Tate differential module with its cohomology table."""

    def __init__(self, dm, table, provenance, safe_window, truncation=None):
        self.T = dm
        self.table = table
        self.provenance = provenance
        self.safe_window = safe_window
        self.truncation = truncation

    def entry(self, i, a):
        return self.table.get((i, tuple(a)), 0)


def tate_weighted(pres, stack, window, field, d=None):
    """cone(F -> R(M_{>= d})) made minimal, where F is the minimal free
    resolution; the table reads the generator twists, with the section rows
    at a >= d taken directly from the module."""
    d, trunc, dm, state = fast_table_state(pres, stack, window, field, d=d)
    lo, hi = window.lo[0], window.hi[0]
    w = stack.total_degree[0]
    safe = frozenset(a for a in dm.safe if stack.theta(a) >= lo + w)
    cone_dm = tate_cone(state, safe=safe)
    minimal, cancelled = minimize(cone_dm, report=True)
    table = socle_readoff(stack, minimal.gens)
    table = {(i, a): v for (i, a), v in table.items() if lo <= a[0] <= hi}
    for a in range(d, hi + 1):
        v = trunc.dim((a,))
        got = table.get((0, (a,)), 0)
        if got != v:
            raise AssertionError("section row mismatch at %d: %d vs %d" % (a, got, v))
    return TateResult(minimal, table, "weighted", window, truncation=d)


# -- deformation retracts of Cech strands -------------------------------------

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
    for l in range(levels):
        u = maps[l] if l < levels - 1 else field.zeros(0, dims[l])
        if dims[l] == 0:
            pivots.append([])
            kernels.append(field.zeros(0, 0))
            continue
        _, piv = rref(field, u)
        pivots.append(piv)
        kernels.append(_kernel_arr(field, u))
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
        ker = kernels[l]
        # homology representatives: kernel columns extending the image
        from .dmres import _IncrementalRank

        acc = _IncrementalRank(field, n)
        for c in range(b_basis.shape[1]):
            acc.add(b_basis[:, c])
        reps = []
        for c in range(ker.shape[1]):
            if acc.add(ker[:, c]):
                reps.append(ker[:, c])
        a_cols = pivots[l]
        nb = b_basis.shape[1]
        nh = len(reps)
        na = len(a_cols)
        if nb + nh + na != n:
            raise AssertionError("level decomposition does not span")
        s = field.zeros(n, n)
        if nb:
            s[:, :nb] = b_basis
        for k, v in enumerate(reps):
            s[:, nb + k] = v
        for k, c in enumerate(a_cols):
            s[c, nb + nh + k] = field.one
        sinv = invert(field, s)
        off = offsets[l]
        for k, v in enumerate(reps):
            col = field.zeros(total, 1)
            col[off:off + n, 0] = v
            i_cols.append(col)
            hlabels.append(l)
            row = field.zeros(1, total)
            row[0, off:off + n] = sinv[nb + k]
            p_rows.append(row)
        # h on level l: kill the B-part back to A-coordinates of level l-1
        if nb:
            prev_off = offsets[l - 1]
            e_a = field.zeros(dims[l - 1], nb)
            for k, c in enumerate(pivots[l - 1]):
                e_a[c, k] = field.one
            h[prev_off:prev_off + dims[l - 1], off:off + n] = field.reduce(e_a @ sinv[:nb])
    nh_total = len(i_cols)
    i_mat = np.concatenate(i_cols, axis=1) if i_cols else field.zeros(total, 0)
    p_mat = np.concatenate(p_rows, axis=0) if p_rows else field.zeros(0, total)
    return _Retract(field, dims, maps, offsets, i_mat, p_mat, h, hlabels)


class _FMData:
    """Materialized Cech data of one transform attempt at a fixed exponent
    bound: stacked cell bases, Cech maps, retracts, and variable maps."""

    def __init__(self, stack, field, pres, window, t):
        self.stack = stack
        self.field = field
        self.t = t
        self.window = window
        sums = set(stack.subset_sums())
        r = stack.r
        smin = tuple(min(s[k] for s in sums) for k in range(r))
        smax = tuple(max(s[k] for s in sums) for k in range(r))
        self.wplus = window.expand(smin, smax)
        self.cx = CechComplex(stack, field, pres, stack.cover, t)
        self.levels = len(stack.cover)
        self.dims = {}
        self.maps = {}
        self.retract = {}
        for a in self.wplus.points():
            dims, mats = self.cx.strand(a, extended=False)
            self.dims[a] = dims
            self.maps[a] = mats
            self.retract[a] = _build_retract(field, dims, mats)

    def delta(self, a, i):
        """The horizontal map x_i (x) e_i from the stacked strand at a to the
        strand at a + deg x_i, with the row sign (-1)^level."""
        b = deg_add(a, self.stack.var_degrees[i])
        field = self.field
        src_dims = self.dims[a]
        tgt_dims = self.dims[b]
        mat = field.zeros(sum(tgt_dims), sum(src_dims))
        so = 0
        to = [0]
        for dblock in tgt_dims:
            to.append(to[-1] + dblock)
        for level in range(self.levels):
            cells = self.cx.cells_at(level)
            lo_src = sum(src_dims[:level])
            lo_tgt = to[level]
            cs = lo_src
            ct = lo_tgt
            for cell in cells:
                loc = self.cx.localized[cell[2]]
                ns = loc.dim(a)
                nt = loc.dim(b)
                if ns and nt:
                    block = self.cx.multiplication_block(a, i, cell)
                    if level % 2 == 1:
                        block = field.reduce(-block)
                    mat[ct:ct + nt, cs:cs + ns] = block
                cs += ns
                ct += nt
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


def _transfer(data, h_sign):
    """Homotopy transfer of the horizontal perturbation onto the columnwise
    Cech homology: returns generators (with their degrees and levels) and
    the sparse exterior entries of the minimal differential module."""
    stack = data.stack
    field = data.field
    gens = []
    gen_offset = {}
    for a in data.window.points():
        ret = data.retract[a]
        gen_offset[a] = len(gens)
        for level in ret.hlabels:
            gens.append(OmegaTwist(deg_neg(a), level))
    entries = {}
    nvars = stack.nvars
    for a in data.window.points():
        ret = data.retract[a]
        if ret.i.shape[1] == 0:
            continue

        def walk(c, mat, mono, sign):
            for i in range(nvars):
                bit = 1 << i
                if mono & bit:
                    continue
                b = deg_add(c, stack.var_degrees[i])
                if b not in data.dims:
                    continue
                step = field.reduce(data.delta(c, i) @ mat)
                if not np.any(step):
                    continue
                r = ext_mul(bit, mono)
                if r is None:
                    continue
                msign, mmono = r
                if b in gen_offset:
                    out = field.reduce(data.retract[b].p @ step)
                    _add_block(entries, field, gen_offset[b], gen_offset[a],
                               enumerate(out), mmono, sign * msign)
                cont = field.reduce(data.retract[b].h @ step)
                if h_sign < 0:
                    cont = field.reduce(-cont)
                if np.any(cont):
                    walk(b, cont, mmono, sign * msign)

        walk(a, ret.i, 0, 1)
    return gens, entries


# -- monomial strand pipeline -------------------------------------------------

class _StrandTypes:
    """For a monomial presentation: Cech cell-pattern machinery. The strand
    of a Laurent exponent e is the tiny complex spanned by the cells where e
    survives; it depends only on that cell set, so retracts are cached per
    pattern."""

    def __init__(self, stack, field, cover, rel_exponents):
        self.stack = stack
        self.field = field
        self.rels = rel_exponents
        self.cells = []
        import itertools as _it

        for size in range(1, len(cover) + 1):
            for J in _it.combinations(range(len(cover)), size):
                union = frozenset().union(*[cover[j] for j in J])
                self.cells.append((size - 1, J, union))
        self.nlevels = len(cover)
        self._retracts = {}
        self._cellsets = {}
        # cellset(e) reads e[i] only through e[i] < 0 and g[i] <= e[i] for
        # relation exponents g >= 0: raising e[i] by one changes it only when
        # e[i] reaches a threshold, and e[i] clamped to [-1, max] keys it
        self.thresholds = [frozenset({0}.union(g[i] for g in self.rels))
                           for i in range(stack.nvars)]
        self._caps = [max(th) for th in self.thresholds]

    def cellset(self, e):
        """The cells where the Laurent exponent tuple e survives."""
        e = tuple(-1 if x < 0 else min(x, c) for x, c in zip(e, self._caps))
        cached = self._cellsets.get(e)
        if cached is not None:
            return cached
        neg = frozenset(i for i, x in enumerate(e) if x < 0)
        alive = []
        for ci, (_, _, union) in enumerate(self.cells):
            if not neg <= union:
                continue
            dead = False
            for g in self.rels:
                if all(g[i] <= e[i] for i in range(len(e)) if i not in union):
                    dead = True
                    break
            if not dead:
                alive.append(ci)
        out = frozenset(alive)
        self._cellsets[e] = out
        return out

    def retract(self, cellset):
        if cellset in self._retracts:
            return self._retracts[cellset]
        field = self.field
        per_level = {}
        for ci in sorted(cellset):
            lvl, J, _ = self.cells[ci]
            per_level.setdefault(lvl, []).append((J, ci))
        dims = []
        level_index = []
        for lvl in range(self.nlevels):
            cells = sorted(per_level.get(lvl, []))
            level_index.append({J: k for k, (J, _) in enumerate(cells)})
            dims.append(len(cells))
        maps = []
        for lvl in range(self.nlevels - 1):
            src = sorted(per_level.get(lvl, []))
            mat = field.zeros(dims[lvl + 1], dims[lvl])
            for col, (J, _) in enumerate(src):
                for extra in range(self.nlevels):
                    if extra in J:
                        continue
                    J2 = tuple(sorted(J + (extra,)))
                    k = level_index[lvl + 1].get(J2)
                    if k is None:
                        continue
                    pos = J2.index(extra)
                    mat[k, col] = field.neg(field.one) if pos % 2 else field.one
            maps.append(mat)
        ret = _build_retract(field, dims, maps)
        cell_order = [ci for lvl in range(self.nlevels) for (_, ci) in sorted(per_level.get(lvl, []))]
        val = (ret, dims, cell_order)
        self._retracts[cellset] = val
        return val


def _contributing_patterns(types):
    """For a free module the strand pattern depends only on the negative
    support of the exponent; return the sign patterns with homology."""
    if getattr(types, "_contributing", None) is not None:
        return types._contributing
    n1 = types.stack.nvars
    out = []
    for mask in range(1 << n1):
        nu = frozenset(i for i in range(n1) if mask & (1 << i))
        probe = tuple(-1 if i in nu else 0 for i in range(n1))
        cs = types.cellset(probe)
        if not cs:
            continue
        ret, _, _ = types.retract(cs)
        if ret.i.shape[1]:
            out.append(nu)
    types._contributing = out
    return out


def _monomial_transfer(pres, stack, window, field, t, h_sign, types=None):
    """Transfer pipeline decomposed along Laurent exponent strands."""
    from .laurent import _laurent_exponents, signed_exponents

    rels = pres.monomial_exponents() if pres.entries else []
    if types is None:
        types = _StrandTypes(stack, field, stack.cover, rels)
    gshift = pres.gen_degrees[0]
    all_vars = frozenset(range(stack.nvars))

    def source_exponents(inner):
        if rels:
            return _laurent_exponents(stack, inner, all_vars, t)
        # free module: only sign patterns whose strand carries homology,
        # each a bounded polytope enumerated exactly (no exponent cap)
        out = []
        for nu in _contributing_patterns(types):
            out.extend(signed_exponents(stack, inner, nu))
        out.sort()
        return out

    gens = []
    sources = []  # (exponent, cellset, homology embedding)
    offset_of = {}  # the exponent fixes the degree, so it keys the generators
    for a in window.points():
        for e in source_exponents(deg_sub(a, gshift)):
            cs = types.cellset(e)
            if not cs:
                continue
            ret = types.retract(cs)[0]
            if ret.i.shape[1] == 0:
                continue
            offset_of[e] = len(gens)
            for lvl in ret.hlabels:
                gens.append(OmegaTwist(deg_neg(a), lvl))
            sources.append((e, cs, ret.i))
    # The walk runs on plain ints. Its state maps each nonzero strand row to
    # that row's values over the source's homology basis; one step applies
    # p2 T and h_sign h2 T, precomposed per pattern pair, where T is the signed
    # cell transport. Both vanish on mat where T does, so T mat is never formed.
    mod = field.p if isinstance(field, GF) else None
    pair_maps = {}

    def step_maps(cs_src, cs2):
        """(p2 T, h_sign h2 T) from the strand pattern cs_src to cs2,
        column-sparse: per source row, its (target row, coeff) terms."""
        ret2, _, order2 = types.retract(cs2)
        idx2 = {ci: k for k, ci in enumerate(order2)}
        p_rows, h_rows = ret2.p.tolist(), ret2.h.tolist()
        pt, ht = [], []
        for ci in types.retract(cs_src)[2]:
            k = idx2.get(ci)
            sgn = -1 if types.cells[ci][0] % 2 else 1
            pt.append(() if k is None else
                      tuple((r, sgn * row[k]) for r, row in enumerate(p_rows) if row[k]))
            ht.append(() if k is None else
                      tuple((r, sgn * h_sign * row[k]) for r, row in enumerate(h_rows) if row[k]))
        hit = pair_maps[cs_src, cs2] = (pt, ht)
        return hit

    def apply(cols, mat):
        acc = {}
        for j, vals in mat.items():
            for r, c in cols[j]:
                row = acc.get(r)
                acc[r] = ([c * v for v in vals] if row is None
                          else [x + c * v for x, v in zip(row, vals)])
        out = {}
        for r, row in acc.items():
            if mod is not None:
                row = [x % mod for x in row]
            if any(row):
                out[r] = row
        return out

    entries = {}
    thresholds = types.thresholds
    # per exterior monomial: (i, sign, product) for each x_i it can take
    moves = [[(i,) + ext_mul(1 << i, mono) for i in range(stack.nvars) if not mono >> i & 1]
             for mono in range(1 << stack.nvars)]

    def walk(src_off, ecur, cs_cur, mat, mono, sign):
        for i, msign, mmono in moves[mono]:
            e2 = ecur[:i] + (ecur[i] + 1,) + ecur[i + 1:]
            cs2 = types.cellset(e2) if e2[i] in thresholds[i] else cs_cur
            pt, ht = pair_maps.get((cs_cur, cs2)) or step_maps(cs_cur, cs2)
            tgt_off = offset_of.get(e2)
            if tgt_off is not None:
                _add_block(entries, field, tgt_off, src_off,
                           sorted(apply(pt, mat).items()), mmono, sign * msign)
            cont = apply(ht, mat)
            if cont:
                walk(src_off, e2, cs2, cont, mmono, sign * msign)

    for e, cs, i_mat in sources:
        start = {r: row for r, row in enumerate(i_mat.tolist()) if any(row)}
        walk(offset_of[e], e, cs, start, 0, 1)
    return gens, entries


def fm_transform(pres, stack, window, field, t=None, h_sign=-1):
    """The Cech Fourier-Mukai construction of the Tate resolution on any
    projective toric stack: build the bicomplex columns, contract each onto
    its homology, and transfer the horizontal differential. The exponent
    bound is doubled adaptively until the table stabilizes. Monomial
    presentations run on the per-exponent strand decomposition."""

    shared_types = None
    if pres.is_monomial():
        rels = pres.monomial_exponents() if pres.entries else []
        shared_types = _StrandTypes(stack, field, stack.cover, rels)

    def build(tt):
        if shared_types is not None:
            return _monomial_transfer(pres, stack, window, field, tt, h_sign,
                                      types=shared_types)
        data = _FMData(stack, field, pres, window, tt)
        return _transfer(data, h_sign)

    def table_of(gens):
        return socle_readoff(stack, gens)

    if t is not None:
        gens, entries = build(t)
    elif shared_types is not None and not pres.entries:
        # a free module's strands are enumerated without an exponent bound,
        # so every t gives the same transfer and one build is exact
        gens, entries = build(T_START)
    else:
        from .cohomology import exponent_floor

        start = max(max(exponent_floor(stack, a) for a in window.points()), T_START)
        tt = min(start, T_CAP)
        prev = None
        while tt <= T_CAP:
            gens, entries = build(tt)
            cur = table_of(gens)
            if prev is not None and cur == prev:
                break
            prev = cur
            tt *= 2
        else:
            if prev is None or table_of(build(T_CAP)[0]) != prev:
                raise StabilizationError("Fourier-Mukai table did not stabilize up to t = %d" % T_CAP)
    # labels contribute to columns below them, so completeness needs the
    # downward subset-sum reach inside the recorded window
    sums = set(stack.subset_sums())
    safe = {a for a in window.points() if all(deg_sub(a, s) in window for s in sums)}
    dm = FreeDiffModule(stack, field, gens, entries, safe=safe, validate=True)
    table = socle_readoff(stack, dm.gens)
    return TateResult(dm, table, "fm", window)


def cech_totalization_dm(pres, stack, window, field, t):
    """The uncontracted totalization of the Cech bicomplex as an explicit
    free differential module (small windows only; used for cross-checks
    against the transferred minimal model)."""
    cx = CechComplex(stack, field, pres, stack.cover, t)
    gens = []
    index = {}
    for a in window.points():
        for level in range(len(stack.cover)):
            for cell in cx.cells_at(level):
                loc = cx.localized[cell[2]]
                n = loc.dim(a)
                index[(a, cell[1])] = len(gens)
                gens.extend([OmegaTwist(deg_neg(a), level)] * n)
    entries = {}
    for a in window.points():
        # vertical Cech differential: constants
        for level in range(len(stack.cover) - 1):
            for cell in cx.cells_at(level):
                loc = cx.localized[cell[2]]
                n = loc.dim(a)
                if n == 0:
                    continue
                base_s = index[(a, cell[1])]
                J = cell[1]
                for extra in range(len(stack.cover)):
                    if extra in J:
                        continue
                    J2 = tuple(sorted(J + (extra,)))
                    pos = J2.index(extra)
                    sign = -1 if pos % 2 else 1
                    tgt_cell = next(c for c in cx.cells_at(level + 1) if c[1] == J2)
                    block = cx.restriction_block(a, cell, tgt_cell)
                    _add_block(entries, field, index[(a, J2)], base_s,
                               enumerate(block), 0, sign)
        # horizontal maps: x_i (x) e_i with the row sign
        for i in range(stack.nvars):
            b = deg_add(a, stack.var_degrees[i])
            if b not in window:
                continue
            for level in range(len(stack.cover)):
                for cell in cx.cells_at(level):
                    loc = cx.localized[cell[2]]
                    if loc.dim(a) == 0 or loc.dim(b) == 0:
                        continue
                    block = cx.multiplication_block(a, i, cell)
                    if level % 2 == 1:
                        block = field.reduce(-block)
                    _add_block(entries, field, index[(b, cell[1])],
                               index[(a, cell[1])], enumerate(block), 1 << i, 1)
    sums = set(stack.subset_sums())
    safe = {a for a in window.points() if all(deg_sub(a, s) in window for s in sums)}
    return FreeDiffModule(stack, field, gens, entries, safe=safe, validate=True)


def check_exactness_property(dm, stack, subset):
    """Thm-level exactness: for an irrelevant subset I the restriction to
    E_I stays exact on the safe region. Returns True/False, or the string
    'not-applicable' when I is not irrelevant."""
    if not is_irrelevant_subset(stack, subset):
        return "not-applicable"
    restricted = tensor_EI(dm, subset)
    for a in sorted(restricted.safe):
        if _homology_column_unchecked(restricted, a):
            return False
    return True


def head_submodule(dm):
    """The sub-differential-module spanned by the auxiliary-level-0
    generators (minimality makes it closed under the differential)."""
    keep = [t for t, tw in enumerate(dm.gens) if tw.aux == 0]
    remap = {t: k for k, t in enumerate(keep)}
    gens = [dm.gens[t] for t in keep]
    entries = {}
    for (s, t), elem in dm.entries.items():
        if s in remap and t in remap:
            entries[(remap[s], remap[t])] = dict(elem)
        elif t in remap and s not in remap:
            raise AssertionError("differential leaves the head: filtration violated")
    return FreeDiffModule(dm.stack, dm.field, gens, entries, safe=dm.safe, validate=False)


def check_R_embedding(result, module):
    """The head of the Tate resolution is R of the section module: the
    aux-0 generator dims must match the table's H^0 row, and the head's
    homology columns agree with those of R(module) wherever the module and
    its section module coincide (above the degree where H^1_B dies; the
    embedding precondition H^0_B(M) = 0 is checked)."""
    stack = module.stack
    window_degs = [a for a in module.window.points()]
    if not h0b_vanishes(module, window_degs):
        raise PreconditionError("H^0_B(M) does not vanish on the window")
    head = head_submodule(result.T)
    for (i, a), v in result.table.items():
        if i == 0:
            got = sum(1 for tw in head.gens if tw.cl == deg_neg(a))
            if got != v:
                return False
    # sections agree with M above the top degree where H^1_B is nonzero
    oracle = CechOracle(module)
    agree_floor = None
    for a in sorted(window_degs, key=stack.theta):
        if oracle.local_dims(tuple(a))[1]:
            agree_floor = None
        elif agree_floor is None:
            agree_floor = stack.theta(a)
    if agree_floor is None:
        raise PreconditionError("H^1_B(M) does not vanish anywhere on the window")
    w = stack.theta(stack.total_degree)
    dm = R(module)
    common = [a for a in sorted(set(head.safe) & set(dm.safe))
              if stack.theta(a) - w >= agree_floor]
    for a in common:
        if _homology_column_unchecked(head, a) != _homology_column_unchecked(dm, a):
            return False
    return True


def beilinson_U(dm, stack, module_degrees, label_floor=None):
    """The Beilinson functor on a windowed Tate module: keep the generators
    whose socle label is effective-negative (down to the recorded floor),
    restrict their columns to degrees a with -a effective, and apply L.

    Column truncations of an exact module are exact, so the finite shadow
    of the degree restriction in the functor's definition is taken on
    generators; the homology then reproduces the section dimensions on the
    requested module degrees."""
    from .bgg import L
    from .toric import cone_contains

    def eff_neg(a):
        return cone_contains(stack.eff, stack.theta, deg_neg(tuple(a)))

    keep = []
    for t, tw in enumerate(dm.gens):
        label = deg_neg(tw.cl)
        if not eff_neg(label):
            continue
        if label_floor is not None and stack.theta(label) < label_floor:
            continue
        keep.append(t)
    remap = {t: k for k, t in enumerate(keep)}
    gens = [dm.gens[t] for t in keep]
    entries = {}
    for (s, t), elem in dm.entries.items():
        if s in remap and t in remap:
            entries[(remap[s], remap[t])] = dict(elem)
    sub = FreeDiffModule(stack, dm.field, gens, entries, safe=[], validate=False)
    cols = set()
    sums = set(stack.subset_sums())
    for tw in gens:
        label = deg_neg(tw.cl)
        for s in sums:
            a = deg_add(label, s)
            if eff_neg(a):
                cols.add(a)
    cols = sorted(cols, key=lambda a: (stack.theta(a), a))
    return L(sub, module_degrees, col_degrees=cols)
