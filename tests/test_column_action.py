"""`diffmod.column_entries` is the one place an exterior matrix acts on a
column basis. These tests keep earlier hand-written actions as references:
the walk over {(target, source): {monomial: coeff}} entries that
the column action was before the differential was stored as blocks over twist
runs, the scan of every generator that column_basis was, the
element-by-element `L` and the right-multiplied comparison vectors of the
cycle-killing resolution. They require the same labels, matrices,
resolutions and Tate cones entry for entry."""

import pytest

from torictate.bgg import L, ModuleComplex, R, R_complex
from torictate.diffmod import DMMorphism, _slice_homology, cone, minimize, tensor_EI
from torictate.dmres import (ResolutionState, _select_representatives, min_free_resolution,
                             tate_cone)
from torictate.exterior import OmegaTwist, column_basis, ext_mul, mul_sign, popcount
from torictate.linalg import GF, QQ, Mat, _kernel_arr
from torictate.smodule import GradedComplex, Presentation, monomial_basis, realize, truncate
from torictate.tate import beilinson_U, tate_weighted
from torictate.toric import Window, deg_sub, projective_space, weighted_projective

from dictform import dict_module, dict_morphism, entries_of

FIELDS = [GF(), GF(2147483647), QQ()]


def _scan_basis(stack, gens, a, varmask=None):
    """column_basis as a scan of every generator."""
    table = stack.subsets_by_sum()
    out = []
    for t, tw in enumerate(gens):
        need = deg_sub(deg_sub(stack.total_degree, tw.cl), a)
        out += [(t, m) for m in table.get(need, ()) if varmask is None or not m & ~varmask]
    return out


def _scan_slices(stack, gens, basis):
    out = {}
    for t, m in basis:
        out.setdefault(stack.nvars - gens[t].aux - popcount(m), []).append((t, m))
    return out


def _walk_matrix(field, entries, src, tgt):
    """The column action as a walk over the entries dict, one entry at a time."""
    out = {}
    for s, t in entries:
        out.setdefault(t, []).append(s)
    idx = {lab: k for k, lab in enumerate(tgt)}
    mat = field.zeros(len(tgt), len(src))
    for col, (t, m) in enumerate(src):
        for s in out.get(t, ()):
            for u, c in entries[(s, t)].items():
                r = ext_mul(u, m)
                k = None if r is None else idx.get((s, r[1]))
                if k is not None:
                    mat[k, col] = field.add(mat[k, col], c if r[0] > 0 else field.neg(c))
    return mat


def _labels(slices):
    return {j: list(sl) for j, sl in slices.items()}


def _reference_L(dm, module_degrees, col_degrees, mask=None):
    """L with the x_i (x) e_i and del actions applied element by element."""
    stack = dm.stack
    field = dm.field
    use_mask = (1 << stack.nvars) - 1 if mask is None else sum(1 << i for i in set(mask))
    slices = {a: _labels(dm.column_slices(a)) for a in col_degrees}
    entries = entries_of(dm)
    out = {}
    for s2, t in entries:
        out.setdefault(t, []).append(s2)
    cx = GradedComplex(field)
    bases = {}
    js = sorted({j for a in col_degrees for j in slices[a]})
    for c in module_degrees:
        for j in js:
            basis = []
            for a in col_degrees:
                sl = slices[a].get(j)
                if not sl or stack.theta(deg_sub(c, a)) < 0:
                    continue
                for mono in monomial_basis(stack, deg_sub(c, a)):
                    basis += [(a, mono, k) for k in range(len(sl))]
            bases[(j, c)] = basis
            cx.set_dim(j, c, len(basis))
    for c in module_degrees:
        for j in js:
            src = bases.get((j, c), [])
            tgt = bases.get((j - 1, c), [])
            if not src or not tgt:
                continue
            tindex = {key: r for r, key in enumerate(tgt)}
            tgt_slice_index = {a: {lab: k for k, lab in enumerate(slices[a][j - 1])}
                               for a in col_degrees if slices[a].get(j - 1)}
            m = field.zeros(len(tgt), len(src))
            for col, (a, mono, k) in enumerate(src):
                t, mu = slices[a][j][k]
                for i in range(stack.nvars):
                    smap = tgt_slice_index.get(deg_sub(a, stack.var_degrees[i]))
                    rr = ext_mul(1 << i, mu)
                    if not use_mask >> i & 1 or smap is None or rr is None:
                        continue
                    k2 = smap.get((t, rr[1]))
                    newmono = tuple(x + (idx == i) for idx, x in enumerate(mono))
                    r = None if k2 is None else tindex.get((deg_sub(a, stack.var_degrees[i]), newmono, k2))
                    if r is not None:
                        v = field.one if rr[0] > 0 else field.neg(field.one)
                        m[r, col] = field.add(m[r, col], v)
                smap = tgt_slice_index.get(a)
                if smap is None:
                    continue
                for s2 in out.get(t, ()):
                    for u, cval in entries[(s2, t)].items():
                        rr = None if u & ~dm.varmask else ext_mul(u, mu)
                        k2 = None if rr is None else smap.get((s2, rr[1]))
                        r = None if k2 is None else tindex.get((a, mono, k2))
                        if r is not None:
                            v = cval if rr[0] < 0 else field.neg(cval)
                            m[r, col] = field.add(m[r, col], v)
            cx.set_map(j, c, Mat(field, m))
    return cx


def _printed(cx):
    return (sorted(cx.dims.items()),
            sorted((key, repr(m.a.tolist())) for key, m in cx.maps.items()))


def _modules(stack):
    x = [tuple(int(k == i) for k in range(stack.nvars)) for i in range(stack.nvars)]
    return {"S": Presentation.free([(0,)]),
            "S/(x0)": Presentation.quotient(stack, [x[0]]),
            "S/(x0^2,x1^2)": Presentation.quotient(stack, [(2,) + (0,) * (stack.nvars - 1),
                                                           (0, 2) + (0,) * (stack.nvars - 2)])}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("mask", [None, (0, 2)])
@pytest.mark.parametrize("stack_name", ["P(1,1,2)", "P2"])
def test_l_matches_elementwise_reference(field, mask, stack_name):
    stack = weighted_projective(1, 1, 2) if stack_name == "P(1,1,2)" else projective_space(2)
    module_degrees = [(c,) for c in range(0, 4)]
    for name, pres in _modules(stack).items():
        dm = R(realize(pres, stack, Window((0,), (8,)), field))
        cols = sorted(dm.safe, key=lambda a: (stack.theta(a), a))
        want = _reference_L(dm, module_degrees, cols, mask)
        assert _printed(L(dm, module_degrees, col_degrees=cols, mask=mask)) == _printed(want), name


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_beilinson_u_matches_elementwise_reference(field, monkeypatch):
    import torictate.bgg as bgg

    p112 = weighted_projective(1, 1, 2)
    res = tate_weighted(Presentation.free([(0,)]), p112, Window((-4,), (4,)), field)
    module_degrees = [(c,) for c in range(0, 6)]
    got = beilinson_U(res.T, p112, module_degrees)
    monkeypatch.setattr(bgg, "L", lambda dm, degs, col_degrees: _reference_L(dm, degs, col_degrees))
    assert _printed(got) == _printed(beilinson_U(res.T, p112, module_degrees))


class _ReferenceState:
    """The free flag F with eps kept as one target-column vector per
    generator, applied to e_mono by right multiplication one variable at a
    time."""

    def __init__(self, target):
        self.target, self.stack, self.field = target, target.stack, target.field
        self.gens, self.rounds, self.entries, self.eps_vecs = [], [], {}, []
        self.target_entries = entries_of(target)
        self.top_hit = False

    def eps_block(self, src, tgt_labels):
        field = self.field
        idx = {lab: k for k, lab in enumerate(tgt_labels)}
        mat = field.zeros(len(tgt_labels), len(src))
        for col, (t, mono) in enumerate(src):
            vec = self.eps_vecs[t]
            for i in range(self.stack.nvars):
                if mono >> i & 1:
                    vec = {(s, u | 1 << i): c if mul_sign(u, 1 << i) > 0 else field.neg(c)
                           for (s, u), c in vec.items()
                           if not u >> i & 1 and self.target.varmask >> i & 1}
            for lab, c in vec.items():
                if lab in idx:
                    mat[idx[lab], col] = field.add(mat[idx[lab], col], c)
        return mat

    def cone_column(self, a):
        field = self.field
        d_slices = _labels(self.target.column_slices(a))
        f_slices = _scan_slices(self.stack, self.gens, _scan_basis(self.stack, self.gens, a))
        js = sorted(set(d_slices) | {j + 1 for j in f_slices})
        slices = {j: (d_slices.get(j, []), f_slices.get(j - 1, [])) for j in js}
        blocks = {}
        for j in js:
            (dsl, fsl), (dtgt, ftgt) = slices[j], slices.get(j - 1, ([], []))
            mat = field.zeros(len(dtgt) + len(ftgt), len(dsl) + len(fsl))
            md, nd = len(dtgt), len(dsl)
            mat[:md, :nd] = _walk_matrix(field, self.target_entries, dsl, dtgt)
            mat[:md, nd:] = self.eps_block(fsl, dtgt)
            mat[md:, nd:] = field.reduce(-_walk_matrix(field, self.entries, fsl, ftgt))
            blocks[j] = mat
        return slices, blocks

    def add_generator(self, a, j, z_d, z_f, dsl, fsl, round_index):
        field = self.field
        t = len(self.gens)
        self.gens.append(OmegaTwist(deg_sub(self.stack.total_degree, a), self.stack.nvars - j))
        self.rounds.append(round_index)
        self.eps_vecs.append({lab: z_d[k] for k, lab in enumerate(dsl) if z_d[k] != field.zero})
        by_gen = {}
        for k, (s, m) in enumerate(fsl):
            if z_f[k] != field.zero:
                by_gen.setdefault(s, {})[m] = field.neg(z_f[k])
        for s, elem in by_gen.items():
            self.entries[(s, t)] = elem

    def morphism_entries(self):
        out = {}
        for t, vec in enumerate(self.eps_vecs):
            for (s, u), c in vec.items():
                out.setdefault((s, t), {})[u] = c
        return out


def _reference_resolution(target, floor, policy):
    theta = target.stack.theta
    degrees = [a for a in sorted(target.safe) if floor <= theta(a)]
    ceiling = max((theta(a) for a in degrees), default=floor)
    state = _ReferenceState(target)
    levels = sorted({theta(a) for a in degrees}, reverse=True)
    for round_index, lv in enumerate(levels):
        for a in [a for a in degrees if theta(a) == lv]:
            slices, blocks = state.cone_column(a)
            kers = {j: _kernel_arr(state.field, d_out) for j, d_out in blocks.items()}
            new = []
            for j in sorted(slices):
                d_in = blocks.get(j + 1, state.field.zeros(blocks[j].shape[1], 0))
                nd = len(slices[j][0])
                for vec in _select_representatives(state.field, kers[j], d_in, policy).dense().T:
                    new.append((j, vec[:nd], vec[nd:]) + slices[j])
            for j, z_d, z_f, dsl, fsl in new:
                state.add_generator(a, j, z_d, z_f, dsl, fsl, round_index)
                state.top_hit |= lv == ceiling
    return state


@pytest.mark.parametrize("field", [GF(), QQ()], ids=repr)
@pytest.mark.parametrize("policy", ["first", "last"])
@pytest.mark.parametrize("module", ["S", "S/(x0^2,x1^2)>=2"])
def test_resolution_and_tate_cone_match_reference(field, policy, module):
    p112 = weighted_projective(1, 1, 2)
    m = realize(_modules(p112)["S/(x0^2,x1^2)" if "x0" in module else "S"], p112,
                Window((0,), (10,)), field)
    dm = R(truncate(m, 2) if module.endswith(">=2") else m)
    state = min_free_resolution(dm, floor=-2, policy=policy)
    ref = _reference_resolution(dm, -2, policy)
    assert state.gens
    safe = [(a,) for a in range(-2, 7)]
    free = state.free_module(safe)
    got = (state.gens, state.rounds, entries_of(free), entries_of(DMMorphism(free, dm, state.eps)),
           state.top_hit)
    assert got == (ref.gens, ref.rounds, ref.entries, ref.morphism_entries(), ref.top_hit)
    ref_free = dict_module(p112, field, ref.gens, ref.entries, safe=safe)
    want = cone(dict_morphism(ref_free, dm, ref.morphism_entries()))
    assert entries_of(tate_cone(state, safe)) == entries_of(want)
    for a in safe:
        assert _slice_homology(*state.cone_column(a)) == {}


def _r_complex(field):
    """R of the complex [S(-1) --x0--> S] on P(1,1,2): the complex's map
    enters as constant blocks, so the module is not minimal."""
    p112 = weighted_projective(1, 1, 2)
    window = Window((0,), (8,))
    s0 = realize(Presentation.free([(0,)]), p112, window, field)
    s1 = realize(Presentation.free([(1,)]), p112, window, field)
    maps = {}
    for a in window.points():
        rows = {tuple(lab): k for k, lab in enumerate(s0.basis_labels(a).tolist())}
        m = field.zeros(s0.dim(a), s1.dim(a))
        for c, (_, *e) in enumerate(s1.basis_labels(a).tolist()):
            m[rows[(0, e[0] + 1, *e[1:])], c] = field.one
        maps[a] = Mat(field, m)
    return R_complex(ModuleComplex({0: s0, 1: s1}, {1: maps}))


def _cases(field):
    """R of a P(1,1,2) module, the Tate cone of its resolution, R of the
    complex [S(-1) --x0--> S] minimized, and R restricted to E_I."""
    p112 = weighted_projective(1, 1, 2)
    dm = R(realize(_modules(p112)["S/(x0^2,x1^2)"], p112, Window((0,), (8,)), field))
    tc = tate_cone(min_free_resolution(dm, floor=-2), [(a,) for a in range(-2, 5)])
    minimal, cancelled = minimize(_r_complex(field), report=True)
    assert cancelled and minimal.d
    return p112, {"R": dm, "tate cone": tc, "minimized": minimal, "tensor_EI": tensor_EI(dm, (0, 2))}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_column_complex_matches_dict_walk(field):
    stack, cases = _cases(field)
    for name, dm in cases.items():
        entries = entries_of(dm)
        assert entries, name
        for a in [(x,) for x in range(-4, 11)]:
            want = _scan_slices(stack, dm.gens, _scan_basis(stack, dm.gens, a, dm.varmask))
            slices, blocks = dm.column_complex(a)
            assert _labels(slices) == want, (name, a)
            for j, src in want.items():
                ref = _walk_matrix(field, entries, src, want.get(j - 1, []))
                b = blocks[j]
                got = b.dense()
                assert got.tolist() == ref.tolist(), (name, a, j)


def test_column_basis_by_runs_matches_scan(gf):
    stack, cases = _cases(gf)
    gens = cases["tate cone"].gens
    # the cone's generators interleave twists: one Cl part recurs in runs
    # apart from each other
    cls = [tw.cl for k, tw in enumerate(gens) if k == 0 or tw != gens[k - 1]]
    assert len(cls) > len(set(cls))
    for a in [(x,) for x in range(-6, 12)]:
        for mask in (None, 0b101, 0b011, 0):
            want = _scan_basis(stack, gens, a, mask)
            assert column_basis(stack, gens, a, mask) == want
            assert column_basis(stack, cases["tate cone"].runs, a, mask) == want
        t = cases["tensor_EI"]
        assert column_basis(stack, t.runs, a, t.varmask) == _scan_basis(stack, cases["R"].gens, a, 0b101)


def test_f_column_slices_match_scan_while_f_grows(gf, monkeypatch):
    stack, cases = _cases(gf)
    sizes = []
    slices = ResolutionState.f_column_slices

    def checked(self, a):
        got = slices(self, a)
        assert _labels(got) == _scan_slices(stack, self.gens, _scan_basis(stack, self.gens, a))
        sizes.append(len(self.gens))
        return got

    monkeypatch.setattr(ResolutionState, "f_column_slices", checked)
    min_free_resolution(cases["R"], floor=-2)
    assert len(set(sizes)) > 3
