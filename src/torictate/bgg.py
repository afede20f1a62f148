"""The multigraded BGG functors between graded S-modules and differential
E-modules, with the Betti-number readout through exterior homology.

R sends a realized module M to the free differential module with dim M_a
generators omega_E(-a; 0) per window degree a, one run per degree, and
differential sum_i e_i (x) x_i: the multiplication by x_i from degree a,
the entries of the moved basis labels (rows of an int64 table) that the
module's image_entries reads off (mult_entries), is stored as the e_i
block between the runs of a and a + deg x_i, with no dense matrix.
Its column homology at (a; j) computes Tor_j(M, k)_a. L goes back, sending
a windowed differential module to a complex of degreewise modules, whose
blocks are Kronecker products of multiplication by x_i with the column
matrices (diffmod.column_matrix) of e_i and of the differential; the x_i
factor locates each product in the target's exponent table with
smodule._locate (_times_x). R_I and the variable mask on L restrict the
differential to a subset of variables.
"""

from __future__ import annotations

import numpy as np

from .diffmod import EMatrix, FreeDiffModule, _homology_column_unchecked, column_matrix
from .exterior import OmegaTwist, Runs
from .linalg import Entries, Mat
from .smodule import GradedComplex, _locate, monomial_array
from .toric import deg_add, deg_neg, deg_sub, degrees_within


def _r_safe_set(module):
    """Degrees where every contributor to the column of R(module) is known:
    all downward subset-sum shifts land in the window or below the support
    floor (where pieces vanish) or in a truncated-away piece. Enumerated
    over the window expanded by twice the subset-sum hull, which covers
    every degree the resolution and Tate machinery scan."""
    stack = module.stack
    sums = set(stack.subset_sums())
    smin, smax = stack.subset_sum_hull()
    width = deg_sub(smax, smin)
    box = module.window.expand(tuple(-2 * x for x in width), tuple(2 * x for x in width))
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
    runs = Runs()
    index = {}  # (j, a) -> the run of its generators
    for j in sorted(cx.terms):
        for a in degrees[j]:
            if cx.terms[j].dim(a):
                index[(j, a)] = runs.append(OmegaTwist(deg_neg(a), -j), cx.terms[j].dim(a))
    d = EMatrix(field)
    for j in sorted(cx.terms):
        mod = cx.terms[j]
        for a in degrees[j]:
            t = index.get((j, a))
            if t is None:
                continue
            for i in use:
                s = index.get((j, deg_add(a, stack.var_degrees[i])))
                if s is not None:
                    m = mod.mult_entries(i, a)
                    d.put(s, t, 1 << i, -m if j % 2 else m)
            m = cx.maps.get(j, {}).get(a)
            if m is not None and (j - 1, a) in index:
                m = m.a if isinstance(m, Mat) else field.array(m)
                d.put(index[(j - 1, a)], t, 0, Entries.of(field, m))
    safe = None
    for j, mod in cx.terms.items():
        s = _r_safe_set(mod)
        safe = s if safe is None else (safe & s)
    return FreeDiffModule(stack, field, runs, d, safe=safe or set())


def L(dm, module_degrees, col_degrees=None, mask=None):
    """The left adjoint on a windowed differential module: term j at module
    degree c is the sum over column degrees a of S_{c-a} tensor D_{(a; j)},
    with differential s (x) d -> sum x_i s (x) e_i d - s (x) del(d).

    Its block from column a to column b is the sum of kron(x_i, e_i) over
    the variables i of the mask (default all) with b = a - deg x_i, minus
    kron(1, del) when b = a; e_i and del act through column_matrix.

    col_degrees defaults to the safe set of dm; the caller is responsible
    for passing every column that can contribute when exact homology at the
    requested module degrees is needed."""
    stack = dm.stack
    field = dm.field
    use = range(stack.nvars) if mask is None else sorted(set(mask))
    if col_degrees is None:
        col_degrees = sorted(dm.safe)
    col_degrees = [tuple(a) for a in col_degrees]
    slices = {a: dm.column_slices(a) for a in col_degrees}
    js = sorted({j for a in col_degrees for j in slices[a]})
    # e_i as an EMatrix: identity blocks on the runs the columns meet
    eye = {r: Entries.of(field, field.array(np.eye(dm.runs.size[r], dtype=np.int64)))
           for a in col_degrees for sl in slices[a].values() for r, *_ in sl.segs}
    wedge = [EMatrix(field, {r: {(r, 1 << i): e} for r, e in eye.items()}) for i in range(stack.nvars)]
    module_degrees = [tuple(c) for c in module_degrees]
    cx = GradedComplex(field)
    blocks = {}  # (j, c) -> {a: (offset, monomials, slice)}, monomial-major
    for c in module_degrees:
        for j in js:
            off = 0
            blocks[(j, c)] = {}
            for a in col_degrees:
                sl = slices[a].get(j)
                if sl and stack.theta(deg_sub(c, a)) >= 0:
                    monos = monomial_array(stack, deg_sub(c, a))
                    blocks[(j, c)][a] = (off, monos, sl)
                    off += len(monos) * len(sl)
            cx.set_dim(j, c, off)
    for c in module_degrees:
        for j in js:
            if not cx.dim(j, c) or not cx.dim(j - 1, c):
                continue
            tgt = blocks[(j - 1, c)]
            m = field.zeros(cx.dim(j - 1, c), cx.dim(j, c))
            for a, (soff, monos, sl) in blocks[(j, c)].items():
                cols = slice(soff, soff + len(monos) * len(sl))
                if a in tgt:
                    toff, _, tsl = tgt[a]
                    d = np.kron(np.eye(len(monos), dtype=np.int64),
                                column_matrix(field, dm.d, sl, tsl))
                    m[toff:toff + d.shape[0], cols] -= d
                for i in use:
                    b = deg_sub(a, stack.var_degrees[i])
                    if b in tgt:
                        toff, tmonos, tsl = tgt[b]
                        x = np.kron(_times_x(monos, tmonos, i), column_matrix(field, wedge[i], sl, tsl))
                        m[toff:toff + x.shape[0], cols] += x
            cx.set_map(j, c, Mat(field, m))
    return cx


def _times_x(src, tgt, i):
    """The 0/1 matrix of multiplication by x_i from the exponents src to
    the exponents tgt (rows of int64 tables), each product located in tgt."""
    x = np.zeros((len(tgt), len(src)), dtype=np.int64)
    x[_locate(tgt, src + np.eye(1, src.shape[1], i, dtype=np.int64)), np.arange(len(src))] = 1
    return x


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
