"""Minimal free resolutions of differential E-modules by killing cycles
degree by degree.

Scanning the grading levels from the top of the window downwards, each
level adds one generator per homology class of the mapping cone of the
partial comparison map; the differential of a new generator lands in
strictly higher levels, so the result is a free flag, and no constant
entries ever appear, so it is minimal as built.

A cone column's blocks are linalg.Entries, never dense: the entry arrays
of the target's block, of eps and of -d on F, placed by
diffmod.column_entries. Each is ranked by linalg.rank, which alone
chooses the route (signed-graph components, peeling and elimination of
the core, or elimination alone for a small block). A kernel basis (the
canonical one of the rref, linalg.kernel_basis) and the
class representatives chosen from it are taken only at a cone degree
(a; j) with classes left to kill, cols(j) - rank(j) > rank(j + 1), and
there F's generators grow by one run. The representatives are the kernel
columns, in policy order, that forward insertion after d_in's columns
keeps (linalg.independent_columns): the pivots of rref([d_in | K]),
kept as an Entries. F's differential and the comparison map eps are
EMatrix blocks from those runs, to F's runs and to the target's: as a run
is added, the representatives' entries are split into one Entries per
(target run, monomial), with no dense column.

`_IncrementalRank`, the greedy independence test of
smodule.presentation_from_span, inserts each vector as a sparse row into
the field's one forward elimination (linalg.GF.insert / QQ.insert).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .diffmod import DMMorphism, EMatrix, FreeDiffModule, _slice_homology, column_entries, cone
from .exterior import OmegaTwist, Runs, Slice, column_slices
from .linalg import Entries, independent_columns, rank
from .toric import deg_sub


class _IncrementalRank:
    """Greedy independence tests: the vectors added so far, kept as the
    pivot rows of the field's sparse forward elimination."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    def add(self, vec):
        """Insert if independent; returns True when the rank grew."""
        nz = np.flatnonzero(vec)
        return self.field.insert(self.pivots, dict(zip(nz.tolist(), vec[nz].tolist())), min)


class ResolutionState:
    """A free flag F with comparison map eps towards the resolved module."""

    def __init__(self, target, floor, ceiling):
        self.target = target
        self.stack = target.stack
        self.field = target.field
        self.floor = floor
        self.ceiling = ceiling
        self.runs = Runs()
        self.gens = self.runs.gens
        self.rounds = []
        self.d = EMatrix(self.field)  # F -> F
        self.eps = EMatrix(self.field)  # F -> target, keyed by the target's runs
        self.top_hit = False

    # -- column machinery for F ----------------------------------------------

    def f_column_slices(self, a):
        # uncached: F's generators grow while the resolution runs
        return column_slices(self.stack, self.runs, tuple(a))

    # -- cone columns ---------------------------------------------------------

    def cone_column(self, a):
        """Slices and blocks of cone(eps) at degree a: slice j is
        D_j(a) ++ F_{j-1}(a), and blocks[j], an Entries, maps it to slice
        j - 1 by [[d_D, eps], [0, -d_F]]."""
        field = self.field
        d_slices = self.target.column_slices(a)
        f_slices = self.f_column_slices(a)
        js = sorted(set(d_slices) | {j + 1 for j in f_slices})
        empty = Slice()
        slices = {}
        for j in js:
            slices[j] = (d_slices.get(j, empty), f_slices.get(j - 1, empty))
        blocks = {}
        for j in js:
            dsl, fsl = slices[j]
            dtgt, ftgt = slices.get(j - 1, (empty, empty))
            nd, md = len(dsl), len(dtgt)
            parts = [column_entries(field, self.eps, fsl, dtgt, at=(0, nd)),
                     column_entries(field, self.d, fsl, ftgt, sign=-1, at=(md, nd))]
            if nd and md:
                block = self.target.column_block(a, dsl, dtgt)
                parts.append((block.ri, block.ci, block.vals))
            blocks[j] = Entries(field, md + len(ftgt), nd + len(fsl), *map(np.concatenate, zip(*parts)))
        return slices, blocks

    def cone_homology_dims(self, a):
        return _slice_homology(*self.cone_column(a))

    # -- generator insertion --------------------------------------------------

    def _add_run(self, a, j, z, dsl, fsl, round_index):
        """Add the run of generators killing the classes that are the
        columns of the Entries z at cone degree (a; j): the eps of each is
        its class's D-part, its differential minus its F-part."""
        t = self.runs.append(OmegaTwist(deg_sub(self.stack.total_degree, a), self.stack.nvars - j),
                             z.cols)
        self.rounds += [round_index] * z.cols
        _write_columns(self.eps, dsl, z, t, 0)
        _write_columns(self.d, fsl, -z, t, len(dsl))

    def free_module(self, safe):
        return FreeDiffModule(self.stack, self.field, self.runs, self.d,
                              safe=safe, validate=True)


def _write_columns(emat, sl, z, t, lo):
    """Store the columns of the Entries z, whose rows lo.. are the labels of
    the Slice sl, as the blocks of emat from run t: the rows of a segment's
    monomial m are its e_m block to the segment's run."""
    at = z.ri - lo
    for s, _, size, monos, off in sl.segs:
        mine = np.flatnonzero((at >= off) & (at < off + size * len(monos)))
        gen, k = np.divmod(at[mine] - off, len(monos))
        ci, vals = z.ci[mine], z.vals[mine]
        for mi, m in enumerate(monos):
            sel = k == mi
            emat.put(s, t, m, Entries(emat.field, size, z.cols, gen[sel], ci[sel], vals[sel]))


def _select_representatives(field, ker, d_in, policy):
    """Columns of ker, a kernel basis of the outgoing map, completing the
    image of d_in to a basis of the homology, greedily in the given order,
    as the columns of an Entries. ker and d_in are dense arrays or
    Entries."""
    if not isinstance(ker, Entries):
        ker = Entries.of(field, ker)
    if policy == "last":
        ker = Entries(field, ker.rows, ker.cols, ker.ri, ker.cols - 1 - ker.ci, ker.vals)
    picked = independent_columns(field, d_in, ker)
    keep = np.isin(ker.ci, picked)
    return Entries(field, ker.rows, len(picked), ker.ri[keep], np.searchsorted(picked, ker.ci[keep]),
                   ker.vals[keep])


def min_free_resolution(target, floor, ceiling=None, policy="first", degrees=None):
    """Resolve a differential module by descending-level cycle killing.

    target: a FreeDiffModule, or any object with its column surface
    (stack, field, safe, column_slices, column_block) whose column slices
    are exterior.Slice segments over runs of its generators, on whose
    labels E acts by wedge, as eps is applied to them through
    column_entries, and whose column_block gives a linalg.Entries.
    floor/ceiling: grading-functional bounds on the levels scanned; degrees
    defaults to the target's safe set clipped to [floor, ceiling].

    Returns a ResolutionState; its free_module() is minimal and a free flag,
    and cone(eps) has no homology at the scanned degrees."""
    stack = target.stack
    theta = stack.theta
    if degrees is None:
        degrees = sorted(target.safe)
    degrees = [tuple(a) for a in degrees if floor <= theta(a) and (ceiling is None or theta(a) <= ceiling)]
    if ceiling is None:
        ceiling = max((theta(a) for a in degrees), default=floor)
    levels = {}
    for a in degrees:
        levels.setdefault(theta(a), []).append(a)
    state = ResolutionState(target, floor, ceiling)
    for round_index, lv in enumerate(sorted(levels, reverse=True)):
        for a in sorted(levels[lv]):
            slices, blocks = state.cone_column(a)
            ranks = {j: rank(d_out) for j, d_out in blocks.items()}
            new = {}
            for j in sorted(slices):
                d_out = blocks[j]
                if d_out.cols - ranks[j] == ranks.get(j + 1, 0):
                    continue  # the image of d_in is the whole kernel
                d_in = blocks.get(j + 1)
                if d_in is None:
                    d_in = Entries.zeros(state.field, d_out.cols, 0)
                # a class at cone degree (a; j) has its D-part in D_j(a)
                # and its F-part in F_{j-1}(a); the kernel is looked up on
                # linalg at call time, so a wrapper of it sees every call
                new[j] = _select_representatives(state.field, linalg.kernel_basis(d_out),
                                                 d_in, policy)
            for j, z in new.items():
                state._add_run(a, j, z, *slices[j], round_index)
                if lv == ceiling:
                    state.top_hit = True
    return state


def verify_quasi_iso(state, degrees=None):
    """cone(eps) has vanishing homology at every scanned degree."""
    theta = state.stack.theta
    if degrees is None:
        degrees = [a for a in sorted(state.target.safe)
                   if state.floor <= theta(a) <= state.ceiling]
    for a in degrees:
        if state.cone_homology_dims(tuple(a)):
            return False
    return True


def tate_cone(state, safe):
    """cone(F -> D) as a FreeDiffModule (target must be free)."""
    f = state.free_module(safe=safe)
    eps = DMMorphism(f, state.target, state.eps, validate=True)
    return cone(eps)
