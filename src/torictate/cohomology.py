"""Independent Cech local-cohomology oracle, closed-form line-bundle checks,
the fast exterior-resolution cohomology table, 0-regularity, and the
Betti-degree bound verifiers.

The oracle works from localization strands of the presentation. Its
monomial path runs on the Cech cell-pattern engine (laurent.MonomialStrands)
that the Fourier-Mukai monomial path runs on too; it is exact, with no
exponent bound and no stabilization. Its dense path builds its own
localized pieces, restriction maps and ranks, monomial presentations too
(force_dense), and shares only the Cech signs (laurent.cech_cells) with that
engine; the fast path works from minimal free resolutions of differential
modules. Neither shares anything else with the engine past basic linear
algebra, so their agreement with it is meaningful evidence of correctness.
The dense path and the realized module do share Presentation.piece and
GradedPieces.image_entries, which the engine never calls.
"""

from __future__ import annotations

from .bgg import R, betti_table
from .dmres import min_free_resolution
from .errors import PreconditionError, StabilizationError, WindowTooSmall
from .laurent import CechComplex, MonomialStrands
from .smodule import monomial_basis, realize, truncate
from .toric import Window, deg_neg, deg_sub, weights_degI, weights_zgraded

T_START = 2
T_CAP = 64


def _stabilize(compute, start=T_START):
    """Adaptive doubling of the dense path's exponent bound: compute at t = start,
    2 start, ..., with T_CAP as the last value, and return the first value
    equal to the one before it; StabilizationError when none is. The
    degree-derived reach of a class enters through the oracle's
    per-variable floors (laurent.reach_floors), and through start in
    fm_transform, not through the doubling."""
    prev = None
    t = min(start, T_CAP)
    while True:
        cur = compute(t)
        if prev is not None and cur == prev:
            return cur
        if t == T_CAP:
            raise StabilizationError("Cech exponent bound did not stabilize up to t = %d" % T_CAP)
        prev = cur
        t = min(2 * t, T_CAP)


class CechOracle:
    """Cech strands of a realized module over the irrelevant cover (or a
    custom cover, e.g. the variables of a primitive collection). Monomial
    presentations run on the exact per-pattern strand decomposition, one
    pass per degree. The dense path handles the rest, doubling its exponent
    bound t until the dimensions stabilize; each inverted exponent may also
    reach down to the reach floor (laurent.reach_floors) of grading, theta
    by default. A strand reads only its own degree's pieces, so each
    (degree, t) gets a Cech complex of its own, dropped once it is ranked."""

    def __init__(self, module, cover=None, force_dense=False, grading=None):
        self.module = module
        self.stack = module.stack
        self.field = module.field
        self.cover = [frozenset(c) for c in (cover if cover is not None else self.stack.cover)]
        self.grading = grading if grading is not None else self.stack.theta
        self._strands = None
        if module.pres.is_monomial(self.field) and not force_dense:
            self._strands = MonomialStrands(self.stack, self.field, module.pres,
                                            self.cover, shift=module.shift)

    def _dims(self, a, extended):
        if self._strands is not None:
            return self._strands.strand_homology(a, extended, keep=self.module.kept)
        return _stabilize(lambda tt: CechComplex(
            self.stack, self.field, self.module.pres, self.cover, tt, shift=self.module.shift,
            module_piece=self.module, grading=self.grading).strand_homology(a, extended=extended))

    def local_dims(self, a):
        """All H^i_B(M)_a at once (i = 0 .. #cover)."""
        return self._dims(a, True)

    def sheaf_dims(self, a):
        """All H^i(X, M~(a)) at once (i = 0 .. #cover - 1)."""
        return self._dims(a, False)


def local_cohomology_oracle(module, stack, a, i):
    """dim H^i_B(M)_a via the extended Cech strand on the generators of B."""
    oracle = CechOracle(module)
    dims = oracle.local_dims(tuple(a))
    return dims[i] if 0 <= i < len(dims) else 0


def sheaf_cohomology_oracle(module, stack, a, i):
    """dim H^i(X, M~(a)) via the (non-extended) Cech strand."""
    oracle = CechOracle(module)
    dims = oracle.sheaf_dims(tuple(a))
    return dims[i] if 0 <= i < len(dims) else 0


def oracle_table(module, stack, degrees):
    """The oracle's cohomology table over the given degrees."""
    oracle = CechOracle(module)
    table = {}
    for a in degrees:
        for i, v in enumerate(oracle.sheaf_dims(tuple(a))):
            if v:
                table[(i, tuple(a))] = v
    return table


def weighted_closed_forms(stack, a):
    """(h^0, h^n) for O(a) on a weighted projective stack: the monomial
    count at a, and by duality the count at -a - w."""
    if stack.r != 1:
        raise PreconditionError("closed forms require r = 1")
    w = stack.total_degree
    h0 = len(monomial_basis(stack, tuple(a)))
    hn = len(monomial_basis(stack, deg_sub(deg_neg(a), w)))
    return h0, hn


def h0b_vanishes(module, degrees):
    """True when H^0_B(M) vanishes at every listed degree."""
    oracle = CechOracle(module)
    for a in degrees:
        if module.dim(a) == 0:
            continue
        if oracle.local_dims(tuple(a))[0]:
            return False
    return True


def default_truncation(pres, stack):
    """max(0, largest generator/relation theta-degree) - the documented
    heuristic; a bad choice fails loudly through the H^0_B check."""
    theta = stack.theta
    cand = [0]
    cand += [theta(d) for d in pres.gen_degrees]
    cand += [theta(d) for d in pres.rel_degrees]
    return max(cand)


def fast_table_state(pres, stack, window, field, d=None):
    """Algorithm state shared by the fast table and the weighted Tate
    construction: the truncated realized module, its R, and the minimal
    free resolution down to the window floor. A resolution generator of
    auxiliary twist 1 at a >= d is a class of H^1_B(M_{>=d})_a, so the
    section rows at a >= d cannot be read off the truncation:
    PreconditionError."""
    if stack.r != 1:
        raise PreconditionError("the exterior fast path requires r = 1 (Cl = Z)")
    w = stack.total_degree[0]
    if d is None:
        d = default_truncation(pres, stack)
    lo, hi = window.lo[0], window.hi[0]
    hi_m = max(hi, w, d + w)
    # the module window must reach below the resolution floor so the scan
    # range is fully inside the certified degree set
    lo_m = min(d, 0, lo)
    module = realize(pres, stack, Window((lo_m,), (hi_m,)), field)
    trunc = truncate(module, d)
    check_degrees = [(x,) for x in range(d, hi_m + 1)]
    if not h0b_vanishes(trunc, check_degrees):
        raise PreconditionError("H^0_B of the truncation at %d does not vanish; raise the truncation" % d)
    dm = R(trunc)
    floor = lo + w
    state = min_free_resolution(dm, floor=floor)
    if state.top_hit:
        raise WindowTooSmall("homology of the truncation reaches the window ceiling; enlarge the window")
    above = [-tw.cl[0] for tw in state.gens if tw.aux == 1 and -tw.cl[0] >= d]
    if above:
        raise PreconditionError("H^1_B of the truncation at %d does not vanish at %d, so its sections "
                                "there are not read off the module; raise the truncation" % (d, max(above)))
    return d, trunc, dm, state


def cohomology_table_fast(pres, stack, window, field, d=None):
    """Sheaf cohomology of M~ over the window: H^0 rows at a >= d read off
    the module, everything else read off the generator twists of the
    minimal free resolution (a generator omega_E(-a; i+1) is one dimension
    of H^i(X, M~(a)))."""
    d, trunc, dm, state = fast_table_state(pres, stack, window, field, d=d)
    lo, hi = window.lo[0], window.hi[0]
    table = {}
    for a in range(max(d, lo), hi + 1):
        v = trunc.dim((a,))
        if v:
            table[(0, (a,))] = v
    for tw in state.gens:
        a = deg_neg(tw.cl)
        i = tw.aux - 1
        if i < 0:
            raise AssertionError("resolution generator with auxiliary twist 0")
        if lo <= a[0] <= hi:
            key = (i, a)
            table[key] = table.get(key, 0) + 1
    return table


def _vanishes_above(oracle, degrees, deg, upper):
    """True when H^i_B(M)_a = 0 for every listed degree a and every i with
    deg(a) >= -upper[i - 1], up to the cover length and the number of
    variables (past either, H^i_B vanishes); a degree where no i is checked
    is skipped."""
    top = min(len(oracle.cover), oracle.stack.nvars)
    for a in degrees:
        z = deg(a)
        checked = [i for i in range(top + 1) if z >= -upper[i - 1]]
        if checked:
            dims = oracle.local_dims(a)
            if any(dims[i] for i in checked):
                return False
    return True


def is_0_regular(module, stack):
    """The local-cohomology vanishing (H^i_B M)_d = 0 for d >= -w^{i-1},
    checked up to the module's top degree plus w + 3 (two stabilization rows)."""
    if stack.r != 1:
        raise PreconditionError("0-regularity in this form requires r = 1")
    w, upper, _ = weights_zgraded(stack)
    tops = [stack.theta(a) for a in module.window.points() if module.dim(a)]
    dmax = (max(tops) if tops else 0) + w + 1
    return _vanishes_above(CechOracle(module), [(d,) for d in range(-upper[stack.nvars], dmax + 3)],
                           lambda a: a[0], upper)


def is_deg_I_0_regular(module, stack, collection_vars, cl_degrees):
    """deg_I 0-regularity: H^i of the Cech complex on the collection's
    variables must vanish in every Cl-degree a with deg_I(a) >= -w^{i-1}_I,
    checked over the supplied window of Cl-degrees."""
    pc = stack.collection(collection_vars)
    oracle = CechOracle(module, cover=[frozenset([i]) for i in sorted(pc.vars)], grading=pc.deg)
    return _vanishes_above(oracle, [tuple(a) for a in cl_degrees], pc.deg,
                           weights_degI(stack, collection_vars))


class BoundReport:
    def __init__(self, checked, violations):
        self.checked = checked
        self.violations = violations

    @property
    def ok(self):
        return not self.violations


def check_betti_bounds_weighted(module, stack, degrees=None, require_nonneg_generation=False):
    """Every nonzero beta_{i,a} satisfies a < w^{i+1} (and i <= a when the
    module is generated in degrees >= 0). Requires 0-regularity."""
    if not is_0_regular(module, stack):
        raise PreconditionError("module is not 0-regular")
    w, upper, _ = weights_zgraded(stack)
    bt = betti_table(module, degrees=degrees)
    violations = []
    for (i, a), v in sorted(bt.items()):
        if v <= 0:
            continue
        if a[0] >= upper[i + 1]:
            violations.append(((i, a), "a >= w^%d = %d" % (i + 1, upper[i + 1])))
        if require_nonneg_generation and a[0] < i:
            violations.append(((i, a), "a < i"))
    return BoundReport(sorted(bt.items()), violations)


def check_betti_bounds_multigraded(module, stack, collection_vars, degrees, regularity_degrees=None):
    """Every nonzero beta_{j,a} satisfies deg_I(a) < w^{j+1}_I. The module
    must be deg_I 0-regular (checked on the window)."""
    pc = stack.collection(collection_vars)
    if regularity_degrees is None:
        regularity_degrees = degrees
    if not is_deg_I_0_regular(module, stack, collection_vars, regularity_degrees):
        raise PreconditionError("module is not deg_I 0-regular for %r" % (sorted(pc.vars),))
    upper = weights_degI(stack, collection_vars)
    bt = betti_table(module, degrees=degrees)
    violations = []
    for (j, a), v in sorted(bt.items()):
        if v <= 0:
            continue
        if pc.deg(a) >= upper[j + 1]:
            violations.append(((j, a), "deg_I(a) >= w^%d_I = %d" % (j + 1, upper[j + 1])))
    return BoundReport(sorted(bt.items()), violations)
