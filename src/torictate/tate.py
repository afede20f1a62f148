"""Tate resolutions on toric stacks.

Two constructions are provided. For weighted projective stacks (Cl = Z) the
resolution is the mapping cone of the minimal free resolution of R applied
to a suitable truncation, made minimal. For a general stack it is computed
from the Cech model of the noncommutative Fourier-Mukai transform: the
totalization of the Cech bicomplex is contracted onto its column homology
by homotopy transfer, which yields the minimal differential module whose
generators tabulate all twisted sheaf cohomology; the table needs only the
column homology dimensions. For a monomial presentation they are counted
per strand pattern, and the generator list is built only when a result's
gens or T is read; the dense path reads them off strand ranks. One walk,
_walk, sums the transfer series, on the exact strands of a monomial
presentation or the dense Cech strands of any other, when the module
itself is read.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .bgg import R
from .cohomology import CechOracle, T_START, _stabilize, fast_table_state, h0b_vanishes
from .diffmod import (EMatrix, FreeDiffModule, _add_block, _homology_column_unchecked, minimize,
                      restrict, tensor_EI)
from .dmres import tate_cone
from .errors import PreconditionError
from .exterior import OmegaTwist, Runs, ext_mul, socle_readoff
from .laurent import (CechComplex, MonomialStrands, _build_retract, count_exponents,
                      reach_floors, signed_exponents)
from .linalg import GF
from .toric import Window, cone_contains, deg_add, deg_neg, deg_sub, is_irrelevant_subset


class TateResult:
    """A minimal Tate differential module and the cohomology table read off
    its generators' twists. The table is computed up front. build() returns
    the generators and a function that makes the module T from them; it
    runs when gens or T is first read, and gens and T are cached from then
    on. On the Fourier-Mukai path of a monomial presentation the table is
    counted pattern by pattern and the generators are built only here; on
    that path making T runs the transfer walk and validates the result."""

    def __init__(self, table, build):
        self.table = table
        self._build = build
        self._make_T = None

    @cached_property
    def gens(self):
        gens, self._make_T = self._build()
        self._build = None
        return gens

    @cached_property
    def T(self):
        gens = self.gens
        dm = self._make_T(gens)
        self._make_T = None
        return dm

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
    for a in range(max(d, lo), hi + 1):
        v = trunc.dim((a,))
        got = table.get((0, (a,)), 0)
        if got != v:
            raise AssertionError("section row mismatch at %d: %d vs %d" % (a, got, v))
    return TateResult(table, lambda: (minimal.gens, lambda gens: minimal))


def _walk(field, gens, nvars, sources, step):
    """The perturbation series sum p d (-h d)^k i of the homotopy transfer,
    as an EMatrix over the runs of gens. sources yields (key, generator
    offset, i of the source strand); step(key, i, mat) moves mat along
    x_i (x) e_i and returns None where nothing arrives, else (next key,
    target generator offset or None, the matrix p T mat, -h T mat or None
    when zero)."""
    # per exterior monomial: (i, sign, product) for each x_i it can take
    moves = [[(i,) + ext_mul(1 << i, mono) for i in range(nvars) if not mono >> i & 1]
             for mono in range(1 << nvars)]
    runs = Runs(gens)
    d = EMatrix(field)

    def rec(src_off, key, mat, mono, sign):
        for i, msign, mmono in moves[mono]:
            out = step(key, i, mat)
            if out is None:
                continue
            key2, tgt_off, block, cont = out
            if tgt_off is not None:
                _add_block(d, runs, tgt_off, src_off, block, mmono, sign * msign)
            if cont is not None:
                rec(src_off, key2, cont, mmono, sign * msign)

    for key, src_off, mat in sources:
        rec(src_off, key, mat, 0, 1)
    return d


# -- dense Cech strands -------------------------------------------------------

def _transfer(pres, stack, window, field, t):
    """Homotopy transfer on the dense Cech strands of pres at exponent bound
    t: returns the cohomology table of the generators, read off the strand
    homology at each window degree, and build(), which returns the
    generators and walk(); walk() returns the differential of the minimal
    module as an EMatrix over the runs of the generators. A strand reads
    only its own degree's pieces, so each window degree is ranked on a Cech
    complex of its own; build() makes the one complex the walk steps
    through. Walk keys are degrees; a strand's retract is built the first
    time the walk reaches its degree, a horizontal block once per (degree,
    variable)."""
    def cech():
        return CechComplex(stack, field, pres, stack.cover, t)

    gens = []
    gen_offset = {}
    sources = []
    for a in window.points():
        gen_offset[a] = len(gens)
        for level, n in enumerate(cech().strand_homology(a, extended=False)):
            gens.extend([OmegaTwist(deg_neg(a), level)] * n)
        if len(gens) > gen_offset[a]:
            sources.append(a)

    def build():
        cx = cech()
        retracts = {}
        blocks = {}

        def retract(b):
            ret = retracts.get(b)
            if ret is None:
                ret = retracts[b] = _build_retract(field, *cx.strand(b, extended=False))
            return ret

        def step(c, i, mat):
            b = deg_add(c, stack.var_degrees[i])
            block = blocks.get((c, i))
            if block is None:
                block = blocks[c, i] = cx.horizontal_block(c, i)
            moved = field.matmul(block, mat)
            if not np.any(moved):
                return None
            ret = retract(b)
            tgt_off = gen_offset.get(b)
            cont = field.reduce(-field.matmul(ret.h, moved))
            return (b, tgt_off, None if tgt_off is None else field.matmul(ret.p, moved),
                    cont if np.any(cont) else None)

        def walk():
            return _walk(field, gens, stack.nvars,
                         ((a, gen_offset[a], retract(a).i) for a in sources), step)

        return gens, walk

    return socle_readoff(stack, gens), build


# -- monomial strand pipeline -------------------------------------------------

def _monomial_transfer(pres, stack, window, field):
    """Transfer pipeline decomposed along Laurent exponent strands: returns
    the cohomology table and build(). The table counts, at each window
    degree, the exponents of every pattern whose strand carries homology,
    once per homology label of the pattern's retract; each pattern's
    exponents are counted over the whole window at once (count_exponents),
    not enumerated. build() enumerates the exponents of the (degree,
    pattern) pairs with a nonzero count and returns the generators, one per
    homology vector of a source exponent's strand, in exponent order within
    each degree, and walk(), which returns the transferred differential as
    an EMatrix over the runs of the generators."""
    types = MonomialStrands(stack, field, pres, stack.cover)
    degrees = window.points()
    inners = [deg_sub(a, types.gshift) for a in degrees]
    counted = [(pattern, cs, count_exponents(stack, inners, pattern))
               for pattern, _, cs in types.contributing(False)]
    table = {}
    regions = []  # per window degree: (cellset, pattern) of each pattern met
    for k, a in enumerate(degrees):
        found = []
        for pattern, cs, ns in counted:
            if ns[k]:
                for lvl in types.retract(cs)[0].hlabels:
                    table[lvl, a] = table.get((lvl, a), 0) + ns[k]
                found.append((cs, pattern))
        regions.append((a, inners[k], found))
    # The walk runs on plain ints. Its state maps each nonzero strand row to
    # that row's values over the source's homology basis; one step applies
    # p2 T and -h2 T, precomposed per pattern pair, where T is the signed
    # cell transport. Both vanish on mat where T does, so T mat is never formed.
    mod = field.p if isinstance(field, GF) else None
    pair_maps = {}

    def step_maps(cs_src, cs2):
        """(p2 T, -h2 T, rows of p2) from the strand pattern cs_src to cs2,
        the maps column-sparse: per source row, its (target row, coeff)
        terms."""
        ret2, order2 = types.retract(cs2)
        idx2 = {ci: k for k, ci in enumerate(order2)}
        p_rows, h_rows = ret2.p.tolist(), ret2.h.tolist()
        pt, ht = [], []
        for ci in types.retract(cs_src)[1]:
            k = idx2.get(ci)
            sgn = -1 if types.cells[ci][0] % 2 else 1
            pt.append(() if k is None else
                      tuple((r, sgn * row[k]) for r, row in enumerate(p_rows) if row[k]))
            ht.append(() if k is None else
                      tuple((r, -sgn * row[k]) for r, row in enumerate(h_rows) if row[k]))
        pair_maps[cs_src, cs2] = (pt, ht, len(p_rows))
        return pair_maps[cs_src, cs2]

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

    def dense(rows, n):
        ncols = len(next(iter(rows.values()))) if rows else 0
        out = [[0] * ncols for _ in range(n)]
        for r, row in rows.items():
            out[r] = row
        return field.array(out).reshape(n, ncols)

    def build():
        gens = []
        sources = []  # (exponent, cellset, homology embedding)
        offset_of = {}  # the exponent fixes the degree, so it keys the generators
        for a, inner, found in regions:
            # a pattern's cellset is that of every exponent of its region
            for e, cs in sorted((e, cs) for cs, pattern in found
                                for e in signed_exponents(stack, inner, pattern)):
                ret = types.retract(cs)[0]
                offset_of[e] = len(gens)
                for lvl in ret.hlabels:
                    gens.append(OmegaTwist(deg_neg(a), lvl))
                sources.append((e, cs, ret.i))

        def step(key, i, mat):
            ecur, cs_cur = key
            e2 = ecur[:i] + (ecur[i] + 1,) + ecur[i + 1:]
            cs2 = types.cellset(e2) if e2[i] in types.thresholds[i] else cs_cur
            pt, ht, npt = pair_maps.get((cs_cur, cs2)) or step_maps(cs_cur, cs2)
            tgt_off = offset_of.get(e2)
            return ((e2, cs2), tgt_off, None if tgt_off is None else dense(apply(pt, mat), npt),
                    apply(ht, mat) or None)

        def walk():
            return _walk(field, gens, stack.nvars,
                         (((e, cs), offset_of[e], {r: row for r, row in enumerate(i_mat.tolist())
                                                   if any(row)})
                          for e, cs, i_mat in sources), step)

        return gens, walk

    return table, build


def fm_transform(pres, stack, window, field):
    """The Cech Fourier-Mukai construction of the Tate resolution on any
    projective toric stack: build the bicomplex columns and contract each
    onto its homology. The generators are that column homology, and the
    table is read off their twists. A monomial presentation runs once on
    the exact per-pattern strand decomposition: its table is counted once
    per pattern over the whole window, and no exponent is enumerated until
    the generators are built. Any other runs on the
    dense Cech complex at exponent bound t, doubled adaptively from the
    largest theta reach floor (laurent.reach_floors) over the window until
    the table stabilizes (StabilizationError if it has not by t = T_CAP); a
    pass only ranks strands and keeps no piece. The monomial generators are
    built when the result's gens or T is first read; the transferred
    horizontal differential and the safe degrees are computed, and the
    module validated, only when T is."""
    if pres.is_monomial(field):
        table, transfer = _monomial_transfer(pres, stack, window, field)
    else:
        latest = []

        def table_at(tt):
            latest[:] = [_transfer(pres, stack, window, field, tt)]
            return latest[0][0]

        table = _stabilize(table_at, start=max([T_START] + [max(reach_floors(stack, stack.theta, a))
                                                             for a in window.points()]))
        transfer = latest[0][1]

    def build():
        gens, walk = transfer()
        return gens, lambda gens: FreeDiffModule(stack, field, gens, walk(),
                                                 safe=safe_degrees(stack, window), validate=True)

    return TateResult(table, build)


def safe_degrees(stack, window):
    """The window degrees whose columns are complete: labels contribute to
    columns below them, so a - s must stay inside the window for every
    subset sum s. Per coordinate, that shrinks the window by the largest
    and the smallest subset sum; listed in window.points() order."""
    smin, smax = stack.subset_sum_hull()
    lo = deg_add(window.lo, smax)
    hi = deg_add(window.hi, smin)
    return Window(lo, hi).points() if all(l <= h for l, h in zip(lo, hi)) else []


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
    twist = dm.runs.twist
    if any(twist[s].aux and not twist[t].aux for s, t, _, _ in dm.d.items()):
        raise AssertionError("differential leaves the head: filtration violated")
    runs, d = restrict(dm.runs, dm.d, [r for r, tw in enumerate(twist) if tw.aux == 0])
    return FreeDiffModule(dm.stack, dm.field, runs, d, safe=dm.safe, validate=False)


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


def beilinson_U(dm, stack, module_degrees):
    """The Beilinson functor on a windowed Tate module: keep the generators
    whose socle label is effective-negative, restrict their columns to
    degrees a with -a effective, and apply L.

    Column truncations of an exact module are exact, so the finite shadow
    of the degree restriction in the functor's definition is taken on
    generators; the homology then reproduces the section dimensions on the
    requested module degrees."""
    from .bgg import L

    def eff_neg(a):
        return cone_contains(stack.eff, stack.theta, deg_neg(tuple(a)))

    runs, d = restrict(dm.runs, dm.d, [r for r, tw in enumerate(dm.runs.twist)
                                       if eff_neg(deg_neg(tw.cl))])
    sub = FreeDiffModule(stack, dm.field, runs, d, safe=[], validate=False)
    cols = set()
    sums = set(stack.subset_sums())
    for tw in runs.twist:
        label = deg_neg(tw.cl)
        for s in sums:
            a = deg_add(label, s)
            if eff_neg(a):
                cols.add(a)
    cols = sorted(cols, key=lambda a: (stack.theta(a), a))
    return L(sub, module_degrees, col_degrees=cols)
