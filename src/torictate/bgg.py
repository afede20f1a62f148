"""The multigraded BGG functors between graded S-modules and differential
E-modules, with the Betti-number readout through exterior homology.

R sends a realized module M to the free differential module with dim M_a
generators omega_E(-a; 0) per window degree a and differential assembled
from the multiplication matrices tensored with the dual exterior variables;
its column homology at (a; j) computes Tor_j(M, k)_a. L goes back, sending
a windowed differential module to a complex of degreewise modules. R_I and
the variable mask on L restrict the differential to a subset of variables.
"""

from __future__ import annotations

import numpy as np

from .diffmod import FreeDiffModule, _add_block, _homology_column_unchecked
from .exterior import OmegaTwist, ext_mul
from .linalg import Mat, _rank_arr
from .smodule import GradedComplex, monomial_basis
from .toric import deg_add, deg_neg, deg_sub, degrees_within


def _full_mask(stack):
    return (1 << stack.nvars) - 1


def _r_safe_set(module):
    """Degrees where every contributor to the column of R(module) is known:
    all downward subset-sum shifts land in the window or below the support
    floor (where pieces vanish) or in a truncated-away piece. Enumerated
    over the window expanded by twice the subset-sum hull, which covers
    every degree the resolution and Tate machinery scan."""
    stack = module.stack
    sums = set(stack.subset_sums())
    r = stack.r
    smin = [min(s[k] for s in sums) for k in range(r)]
    smax = [max(s[k] for s in sums) for k in range(r)]
    box = module.window.expand(
        tuple(2 * (smin[k] - smax[k]) for k in range(r)),
        tuple(2 * (smax[k] - smin[k]) for k in range(r)))
    out = set()
    for b in box.points():
        if all(module.piece_known(deg_sub(b, s)) for s in sums):
            out.add(b)
    return out


def R(module, mask=None):
    """The BGG functor on a realized module (homological degree 0)."""
    return R_complex(ModuleComplex({0: module}, {}), mask)


def R_I(module, subset):
    """Same generators as R(module); differential restricted to i in I."""
    return R(module, mask=subset)


class ModuleComplex:
    """A bounded complex of realized modules with degreewise maps:
    terms[j] is a DegreewiseModule and maps[j][a] the matrix
    terms[j].piece(a) -> terms[j-1].piece(a)."""

    def __init__(self, terms, maps):
        self.terms = dict(terms)
        self.maps = {j: dict(m) for j, m in maps.items()}


def R_complex(cx, mask=None):
    """R of a bounded complex: generators omega_E(-a; -j), degrees in
    (theta, a) order, with the horizontal differential x_i (x) e_i over the
    variables of the mask (default all) signed by (-1)^j, and the vertical
    differential given by the (constant) matrices of the complex maps."""
    some = next(iter(cx.terms.values()))
    stack, field = some.stack, some.field
    use = range(stack.nvars) if mask is None else sorted(set(mask))
    degrees = {j: sorted(mod.window.points(), key=lambda x: (stack.theta(x), x))
               for j, mod in cx.terms.items()}
    gens = []
    index = {}
    for j in sorted(cx.terms):
        for a in degrees[j]:
            index[(j, a)] = len(gens)
            gens.extend([OmegaTwist(deg_neg(a), -j)] * cx.terms[j].dim(a))
    entries = {}
    for j in sorted(cx.terms):
        mod = cx.terms[j]
        sign = -1 if j % 2 else 1
        for a in degrees[j]:
            if mod.dim(a) == 0:
                continue
            base = index[(j, a)]
            for i in use:
                b = deg_add(a, stack.var_degrees[i])
                if (j, b) in index:
                    _add_block(entries, field, index[(j, b)], base,
                               enumerate(mod.mult_matrix(i, a).a), 1 << i, sign)
            m = cx.maps.get(j, {}).get(a)
            if m is not None and (j - 1, a) in index:
                _add_block(entries, field, index[(j - 1, a)], base,
                           enumerate(m.a if isinstance(m, Mat) else m), 0, 1)
    safe = None
    for j, mod in cx.terms.items():
        s = _r_safe_set(mod)
        safe = s if safe is None else (safe & s)
    return FreeDiffModule(stack, field, gens, entries, safe=safe or set())


def L(dm, module_degrees, col_degrees=None, mask=None):
    """The left adjoint on a windowed differential module: term j at module
    degree c is the sum over column degrees a of S_{c-a} tensor D_{(a; j)},
    with differential s (x) d -> sum x_i s (x) e_i d - s (x) del(d).

    col_degrees defaults to the safe set of dm; the caller is responsible
    for passing every column that can contribute when exact homology at the
    requested module degrees is needed."""
    stack = dm.stack
    field = dm.field
    use_mask = _full_mask(stack) if mask is None else sum(1 << i for i in set(mask))
    if col_degrees is None:
        col_degrees = sorted(dm.safe)
    col_degrees = [tuple(a) for a in col_degrees]
    slices = {a: dm.column_slices(a) for a in col_degrees}
    cx = GradedComplex(field)
    bases = {}
    js = sorted({j for a in col_degrees for j in slices[a]})
    module_degrees = [tuple(c) for c in module_degrees]
    for c in module_degrees:
        for j in js:
            basis = []
            for a in col_degrees:
                sl = slices[a].get(j)
                if not sl:
                    continue
                if stack.theta(deg_sub(c, a)) < 0:
                    continue
                for mono in monomial_basis(stack, deg_sub(c, a)):
                    for k in range(len(sl)):
                        basis.append((a, mono, k))
            bases[(j, c)] = basis
            cx.set_dim(j, c, len(basis))
    for c in module_degrees:
        for j in js:
            src = bases.get((j, c), [])
            tgt = bases.get((j - 1, c), [])
            if not src or not tgt:
                continue
            tindex = {key: r for r, key in enumerate(tgt)}
            tgt_slice_index = {}
            for a in col_degrees:
                sl = slices[a].get(j - 1)
                if sl:
                    tgt_slice_index[a] = {lab: k for k, lab in enumerate(sl)}
            m = field.zeros(len(tgt), len(src))
            for col, (a, mono, k) in enumerate(src):
                t, mu = slices[a][j][k]
                mm = use_mask
                i = 0
                while mm:
                    if mm & 1:
                        b = deg_sub(a, stack.var_degrees[i])
                        smap = tgt_slice_index.get(b)
                        if smap is not None:
                            rr = ext_mul(1 << i, mu)
                            if rr is not None:
                                sign, um = rr
                                k2 = smap.get((t, um))
                                if k2 is not None:
                                    newmono = tuple(x + (1 if idx == i else 0) for idx, x in enumerate(mono))
                                    r = tindex.get((b, newmono, k2))
                                    if r is not None:
                                        v = field.one if sign > 0 else field.neg(field.one)
                                        m[r, col] = field.add(m[r, col], v)
                    mm >>= 1
                    i += 1
                smap = tgt_slice_index.get(a)
                if smap is not None:
                    for s2 in dm._out.get(t, ()):
                        elem = dm.entries[(s2, t)]
                        for u, cval in elem.items():
                            if u & ~dm.varmask:
                                continue
                            rr = ext_mul(u, mu)
                            if rr is None:
                                continue
                            sign, um = rr
                            k2 = smap.get((s2, um))
                            if k2 is None:
                                continue
                            r = tindex.get((a, mono, k2))
                            if r is None:
                                continue
                            v = cval if sign < 0 else field.neg(cval)
                            m[r, col] = field.add(m[r, col], v)
            cx.set_map(j, c, Mat(field, m))
    return cx


def betti_table(module, degrees=None):
    """Multigraded Betti numbers via exterior homology: entry (j, a) is the
    column homology of R(module) at (a; j). Valid on the safe region only."""
    dm = R(module)
    degrees = sorted(dm.safe) if degrees is None else [tuple(a) for a in degrees]
    out = {}
    for a in degrees:
        if a not in dm.safe:
            continue
        for j, h in _homology_column_unchecked(dm, a).items():
            out[(j, a)] = h
    return out


def minimal_generator_dims(module, a):
    """dim M_a minus the dimension of the span of the x_i M_{a - deg x_i}."""
    stack = module.stack
    field = module.field
    cols = []
    for i in range(stack.nvars):
        b = deg_sub(a, stack.var_degrees[i])
        m = module.mult_matrix(i, b)
        if m.cols:
            cols.append(m.a)
    if not cols:
        return module.dim(a)
    stacked = np.concatenate(cols, axis=1)
    return module.dim(a) - _rank_arr(field, stacked)


def roundtrip_check(module, module_degrees):
    """Adjunction round trip: H_0(L(R(M)))_c has the dimension of M_c and
    the other homology vanishes, for each requested module degree c. Every
    column degree that can contribute at c must be safe (or known zero)."""
    dm = R(module)
    stack = module.stack
    module_degrees = [tuple(c) for c in module_degrees]
    floor = module.floor_theta
    for c in module_degrees:
        for s in degrees_within(stack.var_degrees, stack.theta, stack.theta(c) - floor):
            a = deg_sub(c, s)
            if stack.theta(a) < floor:
                continue
            if a not in dm.safe:
                raise ValueError("column %r contributing at %r is not safe; enlarge the window" % (a, c))
    cols = sorted(dm.safe, key=lambda a: (stack.theta(a), a))
    cx = L(dm, module_degrees, col_degrees=cols)
    for c in module_degrees:
        for j in cx.js():
            h = cx.homology(j, c)
            want = module.dim(c) if j == 0 else 0
            if h != want:
                return False
    return True
