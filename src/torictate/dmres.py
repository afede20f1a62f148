"""Minimal free resolutions of differential E-modules by killing cycles
degree by degree.

Scanning the grading levels from the top of the window downwards, each
level adds one generator per homology class of the mapping cone of the
partial comparison map; the differential of a new generator lands in
strictly higher levels, so the result is a free flag, and no constant
entries ever appear, so it is minimal as built.
"""

from __future__ import annotations

import numpy as np

from .diffmod import DMMorphism, FreeDiffModule, _slice_homology, column_matrix, cone
from .exterior import OmegaTwist, column_basis, column_slices
from .linalg import _kernel_arr, independent_columns
from .toric import deg_sub


class _IncrementalRank:
    """Row-echelon accumulator for greedy independence tests."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.rows = []  # (pivot index, normalized row)

    def reduce(self, vec):
        v = np.array(vec, copy=True)
        for piv, row in self.rows:
            c = v[piv]
            if c != self.field.zero:
                v = self.field.reduce(v - c * row)
        return v

    def add(self, vec):
        """Insert if independent; returns True when the rank grew."""
        v = self.reduce(vec)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        v = self.field.reduce(v * self.field.inv(v[piv]))
        self.rows.append((piv, v))
        return True


class ResolutionState:
    """A free flag F with comparison map eps towards the resolved module."""

    def __init__(self, target, floor, ceiling):
        self.target = target
        self.stack = target.stack
        self.field = target.field
        self.floor = floor
        self.ceiling = ceiling
        self.gens = []
        self.rounds = []
        self.entries = {}
        self._out = {}
        self.eps_vecs = []  # per generator: dict D-column-label -> coeff
        self.top_hit = False

    # -- column machinery for F ----------------------------------------------

    def f_column_slices(self, a):
        # uncached: F's generators grow while the resolution runs
        return column_slices(self.stack, self.gens, column_basis(self.stack, self.gens, tuple(a)))

    def eps_vector(self, t, mono):
        """eps(basis element (t, e_mono)) as a label -> coeff dict in the
        target's column at gen_degree(t) - deg(mono)."""
        vec = self.eps_vecs[t]
        a = deg_sub(self.stack.total_degree, self.gens[t].cl)
        mono_left = mono
        i = 0
        while mono_left:
            if mono_left & 1:
                vec = self.target.right_action_vec(vec, a, i)
                a = deg_sub(a, self.stack.var_degrees[i])
            mono_left >>= 1
            i += 1
        return vec

    def eps_block(self, src, tgt_labels):
        field = self.field
        idx = {lab: k for k, lab in enumerate(tgt_labels)}
        mat = field.zeros(len(tgt_labels), len(src))
        for col, (t, m) in enumerate(src):
            for lab, c in self.eps_vector(t, m).items():
                k = idx.get(lab)
                if k is not None:
                    mat[k, col] = field.add(mat[k, col], c)
        return mat

    # -- cone columns ---------------------------------------------------------

    def cone_column(self, a):
        """Slices and blocks of cone(eps) at degree a: slice j is
        D_j(a) ++ F_{j-1}(a)."""
        field = self.field
        d_slices = self.target.column_slices(a)
        f_slices = self.f_column_slices(a)
        js = sorted(set(d_slices) | {j + 1 for j in f_slices})
        slices = {}
        for j in js:
            slices[j] = (d_slices.get(j, []), f_slices.get(j - 1, []))
        blocks = {}
        for j in js:
            dsl, fsl = slices[j]
            dtgt, ftgt = slices.get(j - 1, ([], []))
            nd, nf = len(dsl), len(fsl)
            md, mf = len(dtgt), len(ftgt)
            mat = field.zeros(md + mf, nd + nf)
            if nd and md:
                mat[:md, :nd] = self.target.column_block(a, dsl, dtgt)
            if nf and md:
                mat[:md, nd:] = self.eps_block(fsl, dtgt)
            if nf and mf:
                mat[md:, nd:] = field.reduce(-column_matrix(field, self.entries, self._out, fsl, ftgt))
            blocks[j] = mat
        return slices, blocks

    def cone_homology_dims(self, a):
        slices, blocks = self.cone_column(a)
        return _slice_homology(self.field, slices, blocks)

    # -- generator insertion --------------------------------------------------

    def _add_generator(self, a, j, z_d, z_f, d_tgt_labels, f_tgt_labels, round_index):
        field = self.field
        t = len(self.gens)
        self.gens.append(OmegaTwist(deg_sub(self.stack.total_degree, a), self.stack.nvars - j))
        self.rounds.append(round_index)
        vec = {}
        for k, lab in enumerate(d_tgt_labels):
            c = z_d[k]
            if c != field.zero:
                vec[lab] = c
        self.eps_vecs.append(vec)
        by_gen = {}
        for k, (s, m) in enumerate(f_tgt_labels):
            c = z_f[k]
            if c != field.zero:
                by_gen.setdefault(s, {})[m] = field.neg(c)
        for s, elem in by_gen.items():
            self.entries[(s, t)] = elem
            self._out.setdefault(t, []).append(s)

    def free_module(self, safe):
        return FreeDiffModule(self.stack, self.field, self.gens, self.entries,
                              safe=safe, validate=True)

    def morphism_entries(self):
        """eps as sparse E-entries (requires the target to be free)."""
        field = self.field
        out = {}
        for t, vec in enumerate(self.eps_vecs):
            by_gen = {}
            for (s, u), c in vec.items():
                by_gen.setdefault(s, {})[u] = c
            for s, elem in by_gen.items():
                out[(s, t)] = elem
        return out


def _select_representatives(field, ker, d_in, policy):
    """Columns of ker, a kernel basis of the outgoing map, completing the
    image of d_in to a basis of the homology, greedily in the given order."""
    if policy == "last":
        ker = ker[:, ::-1]
    return [ker[:, c] for c in independent_columns(field, d_in, ker)]


def min_free_resolution(target, floor, ceiling=None, policy="first", degrees=None):
    """Resolve a differential module by descending-level cycle killing.

    target: a FreeDiffModule (or any object with the same column surface).
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
            kers = {j: _kernel_arr(state.field, d_out) for j, d_out in blocks.items()}
            new = []
            for j in sorted(slices):
                d_in = blocks.get(j + 1)
                if d_in is None:
                    d_in = state.field.zeros(blocks[j].shape[1], 0)
                    rank_in = 0
                else:
                    rank_in = d_in.shape[1] - kers[j + 1].shape[1]
                if kers[j].shape[1] == rank_in:
                    continue  # the image of d_in is the whole kernel
                dsl, fsl = slices[j]
                nd = len(dsl)
                for vec in _select_representatives(state.field, kers[j], d_in, policy):
                    # the class lives at cone degree (a; j): its D-part in
                    # D_j(a), its F-part in F_{j-1}(a)
                    z_d_col = vec[:nd]
                    z_f_col = vec[nd:]
                    new.append((j, z_d_col, z_f_col, dsl, fsl))
            for j, z_d_col, z_f_col, dsl, fsl in new:
                state._add_generator(a, j, z_d_col, z_f_col, dsl, fsl, round_index)
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
    eps = DMMorphism(f, state.target, state.morphism_entries(), validate=True)
    return cone(eps)
