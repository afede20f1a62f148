import itertools

import numpy as np
import pytest

from torictate import cohomology, laurent
from torictate.cohomology import (CechOracle, check_betti_bounds_multigraded,
                                  check_betti_bounds_weighted,
                                  cohomology_table_fast, is_0_regular,
                                  is_deg_I_0_regular, local_cohomology_oracle,
                                  oracle_table, sheaf_cohomology_oracle,
                                  weighted_closed_forms)
from torictate.errors import PreconditionError, StabilizationError
from torictate.laurent import CechComplex, MonomialStrands, reach_floors
from torictate.smodule import (Poly, Presentation, generated_truncation,
                               monomial_basis, presentation_from_span, realize,
                               truncate, twist)
from torictate.toric import Window, deg_add, deg_sub, points


def free_s(stack, gf, lo, hi):
    return realize(Presentation.free([(0,) * stack.r]), stack, Window(lo, hi), gf)


def test_local_cohomology_p1(p1, gf):
    s = free_s(p1, gf, (-6,), (6,))
    assert local_cohomology_oracle(s, p1, (-2,), 2) == 1
    assert local_cohomology_oracle(s, p1, (0,), 2) == 0
    assert local_cohomology_oracle(s, p1, (-2,), 0) == 0


def test_local_cohomology_residue_field(p112, gf):
    k = realize(Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                p112, Window((-3,), (3,)), gf)
    assert local_cohomology_oracle(k, p112, (0,), 0) == 1
    for a in (-1, 1, 2):
        assert local_cohomology_oracle(k, p112, (a,), 0) == 0
    for i in (1, 2, 3):
        assert local_cohomology_oracle(k, p112, (0,), i) == 0


def test_local_cohomology_p112_top(p112, gf):
    s = free_s(p112, gf, (-8,), (8,))
    assert local_cohomology_oracle(s, p112, (-4,), 3) == 1
    assert local_cohomology_oracle(s, p112, (-3,), 3) == 0


def test_sheaf_oracle_line_bundles(p1, p112, p156, gf):
    s = free_s(p1, gf, (-6,), (6,))
    assert sheaf_cohomology_oracle(s, p1, (3,), 0) == 4
    s2 = free_s(p112, gf, (-8,), (8,))
    assert sheaf_cohomology_oracle(s2, p112, (-4,), 2) == 1
    s3 = free_s(p156, gf, (-14,), (14,))
    assert sheaf_cohomology_oracle(s3, p156, (-12,), 2) == 1


def test_weighted_closed_forms(p112):
    assert weighted_closed_forms(p112, (2,)) == (4, 0)
    assert weighted_closed_forms(p112, (-4,)) == (0, 1)
    assert weighted_closed_forms(p112, (-1,)) == (0, 0)


def test_serre_duality_against_oracle(p112, p12, p156, gf):
    for stack in (p112, p12, p156):
        w = stack.total_degree[0]
        s = free_s(stack, gf, (-2 * w,), (2 * w,))
        oracle = CechOracle(s)
        n = stack.nvars - 1
        for a in range(-2 * w, 2 * w + 1, max(1, w // 3)):
            h0, hn = weighted_closed_forms(stack, (a,))
            dims = oracle.sheaf_dims((a,))
            assert dims[0] == h0
            assert dims[n] == hn


def test_monomial_and_dense_oracles_agree(p112, hirz3, gf):
    # the monomial path shares its cell-pattern engine with the
    # Fourier-Mukai transfer, so the dense path is its independent check;
    # Hirzebruch-3 adds a rank-2 class group and a four-set cover
    pres = Presentation.quotient(p112, [(2, 0, 0), (0, 1, 1)])
    cases = [(realize(pres, p112, Window((-6,), (6,)), gf), Window((-5,), (5,)))]
    for pres in (Presentation.free([(0, 0)]), Presentation.quotient(hirz3, [(1, 1, 0, 0)])):
        cases.append((realize(pres, hirz3, Window((-4, -3), (4, 3)), gf),
                      Window((-2, -1), (2, 1))))
    for m, degrees in cases:
        fast = CechOracle(m)
        slow = CechOracle(m, force_dense=True)
        assert fast._strands is not None and slow._strands is None
        for a in degrees.points():
            assert fast.local_dims(a) == slow.local_dims(a)
            assert fast.sheaf_dims(a) == slow.sheaf_dims(a)


def reference_dims(oracle, a, extended, bound):
    """The oracle's dims at a from every Laurent exponent of the degree with
    e_i >= -bound, each classified by its own cellset and module cell."""
    types, stack = oracle._strands, oracle.stack
    inner = deg_sub(deg_add(a, types.shift), types.gshift)
    live = extended and oracle.module.kept(a)
    out = [0] * (types.nlevels + (1 if extended else 0))
    for e in points(stack.var_degrees, stack.theta, inner, [-bound] * stack.nvars,
                    [None] * stack.nvars):
        cs = types.cellset(e)
        alive = live and types.module_alive(e)
        if cs or alive:
            hom = types.homology(alive, cs)
            for i, h in enumerate(hom if extended else hom[1:]):
                out[i] += h
    return out


def test_monomial_oracle_matches_exponent_count(p112, p12, p1p1, hirz3, gf, rng):
    # the monomial oracle counts pattern regions; the reference counts the
    # exponents one by one down to -24 (-48 gives the same dims here), so
    # a pattern region counted wrong or missed shows
    cases = []
    for stack, degrees in ((p112, Window((-5,), (5,))), (p12, Window((-5,), (5,))),
                           (p1p1, Window((-2, -2), (2, 2))), (hirz3, Window((-2, -1), (2, 1)))):
        for _ in range(3):
            rels = [tuple(rng.randint(0, 5) for _ in range(stack.nvars))
                    for _ in range(rng.randint(1, 3))]
            pres = Presentation.quotient(stack, [g for g in rels if any(g)] or [(5,) * stack.nvars])
            cases.append((realize(pres, stack, degrees, gf), degrees))
    cases.append((truncate(cases[0][0], 2), cases[0][1]))
    for module, degrees in cases:
        oracle = CechOracle(module)
        for a in degrees.points():
            assert oracle.local_dims(a) == reference_dims(oracle, a, True, 24)
            assert oracle.sheaf_dims(a) == reference_dims(oracle, a, False, 24)


def test_stabilize_raises_when_no_two_bounds_agree():
    visited = []

    def compute(t):
        visited.append(t)
        return t

    with pytest.raises(StabilizationError):
        cohomology._stabilize(compute)
    assert visited == [2, 4, 8, 16, 32, 64]
    visited.clear()
    with pytest.raises(StabilizationError):
        cohomology._stabilize(compute, start=3)
    assert visited == [3, 6, 12, 24, 48, 64]
    # the first value equal to its predecessor is returned
    assert cohomology._stabilize(lambda t: min(t, 8)) == 8
    assert cohomology._stabilize(lambda t: min(t, 32), start=24) == 32  # 24, 48, 64


def assert_maps_compose_to_zero(field, mats):
    for m0, m1 in zip(mats, mats[1:]):
        if m0.size and m1.size:
            assert not np.any(field.reduce(field.matmul(m1, m0)))


def test_oracle_strands_square_to_zero(p112, hirz3, gf):
    # ranks alone cannot see a wrong sign in a Cech map of rank <= 1, so
    # both oracle paths are checked for d o d = 0 directly
    for pres in (Presentation.free([(0, 0)]), Presentation.quotient(hirz3, [(1, 1, 0, 0)])):
        types = MonomialStrands(hirz3, gf, pres, hirz3.cover)
        for e in itertools.product(*[range(-1, cap + 1) for cap in types._caps]):
            cs = types.cellset(e)
            for alive in {types.module_alive(e), False}:
                assert_maps_compose_to_zero(gf, types._pattern_complex(alive, cs)[1])
    pres = Presentation.quotient(p112, [Poly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 2))])])
    module = realize(pres, p112, Window((-4,), (4,)), gf)
    cx = CechComplex(p112, gf, pres, p112.cover, 4, module_piece=module)
    for a in range(-4, 5):
        dims, mats = cx.strand((a,), extended=True)
        assert sum(dims) and len(mats) == 3
        assert_maps_compose_to_zero(gf, mats)


def test_fast_table_p112(p112, gf):
    table = cohomology_table_fast(Presentation.free([(0,)]), p112,
                                  Window((-8,), (8,)), gf)
    for a in range(0, 9):
        assert table.get((0, (a,)), 0) == len(monomial_basis(p112, (a,)))
    assert table.get((2, (-4,)), 0) == 1
    assert table.get((2, (-6,)), 0) == 4
    assert all(table.get((1, (a,)), 0) == 0 for a in range(-8, 9))


def test_fast_table_equals_oracle_p112(p112, gf):
    w = Window((-8,), (8,))
    table = cohomology_table_fast(Presentation.free([(0,)]), p112, w, gf)
    s = free_s(p112, gf, (-12,), (12,))
    ot = oracle_table(s, p112, [(a,) for a in range(-8, 9)])
    for a in range(-8, 9):
        for i in range(0, 3):
            assert table.get((i, (a,)), 0) == ot.get((i, (a,)), 0)


def test_fast_table_genus_one(p112, gf):
    f = Poly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 2))])
    pres = Presentation.quotient(p112, [f])
    table = cohomology_table_fast(pres, p112, Window((-6,), (6,)), gf)
    assert table.get((1, (0,)), 0) == 1
    assert table.get((1, (-1,)), 0) == 2
    assert table.get((2, (0,)), 0) == 0


def test_fast_table_p2_twist(p2, gf):
    # O(-3) on P^2 via the module S(-3): classical table
    table = cohomology_table_fast(Presentation.free([(3,)]), p2, Window((-6,), (6,)), gf)
    # H^0(S(-3)~(a)) = h^0(O(a-3)), H^2 via duality
    for a in range(-6, 7):
        want0 = len(monomial_basis(p2, (a - 3,)))
        assert table.get((0, (a,)), 0) == want0
    assert table.get((2, (0,)), 0) == 1  # h^2(O(-3)) = 1


def test_fast_table_deep_window(p112, gf):
    # the resolution floor tracks the requested window however deep it goes
    table = cohomology_table_fast(Presentation.free([(0,)]), p112,
                                  Window((-20,), (4,)), gf)
    for a in range(-20, 5):
        h0, h2 = weighted_closed_forms(p112, (a,))
        assert table.get((0, (a,)), 0) == h0
        assert table.get((2, (a,)), 0) == h2


def test_fast_table_field_generic(p12, gf, qq):
    from torictate.tate import tate_weighted

    a = tate_weighted(Presentation.free([(0,)]), p12, Window((-5,), (5,)), gf)
    b = tate_weighted(Presentation.free([(0,)]), p12, Window((-5,), (5,)), qq)
    assert a.table == b.table


def test_is_0_regular(p156, p112, gf):
    s = free_s(p156, gf, (0,), (18,))
    assert is_0_regular(s, p156)
    pres = Presentation.quotient(p156, [(1, 0, 0), (0, 1, 0)])
    n = realize(pres, p156, Window((0,), (24,)), gf)
    m = twist(truncate(n, 4), (4,))
    assert is_0_regular(m, p156)
    # the residue field itself is 0-regular (its socle sits in degree 0,
    # below the i = 0 threshold), but shifting the socle to degree 1 breaks
    # the H^0_B vanishing condition
    k = realize(Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                p112, Window((-4,), (4,)), gf)
    assert is_0_regular(k, p112)
    kshift = realize(
        Presentation([(1,)], [(2,), (2,), (3,)],
                     {(0, 0): Poly([(1, (1, 0, 0))]),
                      (0, 1): Poly([(1, (0, 1, 0))]),
                      (0, 2): Poly([(1, (0, 0, 1))])}),
        p112, Window((-4,), (4,)), gf)
    assert not is_0_regular(kshift, p112)


def test_betti_bounds_weighted_p156(p156, gf):
    pres = Presentation.quotient(p156, [(1, 0, 0), (0, 1, 0)])
    n = realize(pres, p156, Window((0,), (24,)), gf)
    m = twist(truncate(n, 4), (4,))
    report = check_betti_bounds_weighted(m, p156, require_nonneg_generation=True)
    assert report.ok
    degrees = dict(report.checked)
    assert degrees[(0, (2,))] == 1 and degrees[(2, (8,))] == 1


def test_betti_bounds_weighted_p2_truncation(p2, gf):
    # standard grading: the truncation S_{>=2}(2) has a linear resolution
    s = free_s(p2, gf, (-2,), (8,))
    m = twist(truncate(s, 2), (2,))
    report = check_betti_bounds_weighted(m, p2, require_nonneg_generation=True)
    assert report.ok
    for (i, a), v in report.checked:
        if v:
            assert a[0] == i  # linear strand


def test_betti_bounds_reject_irregular(p112, gf):
    kshift = realize(
        Presentation([(1,)], [(2,), (2,), (3,)],
                     {(0, 0): Poly([(1, (1, 0, 0))]),
                      (0, 1): Poly([(1, (0, 1, 0))]),
                      (0, 2): Poly([(1, (0, 0, 1))])}),
        p112, Window((-4,), (4,)), gf)
    with pytest.raises(PreconditionError):
        check_betti_bounds_weighted(kshift, p112)


def test_multigraded_bounds_hirzebruch(hirz3, gf):
    pres = Presentation.quotient(hirz3, [(1, 1, 0, 0)])
    n = realize(pres, hirz3, Window((-12, -2), (10, 8)), gf)
    span = generated_truncation(n, (2, 3), Window((-6, -1), (5, 4)))
    from torictate.bgg import betti_table

    bt = betti_table(span, degrees=[(a, b) for a in range(-4, 4) for b in range(-1, 4)])
    rel_degs = sorted({a for (j, a) in bt if j == 1})
    spres = presentation_from_span(span, rel_degs)
    m = realize(spres, hirz3, Window((-6, -1), (5, 4)), gf)
    degs = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    for subset in ({0, 2}, {1, 3}):
        report = check_betti_bounds_multigraded(
            m, hirz3, subset,
            degrees=[(a, b) for a in range(-4, 4) for b in range(-1, 4)],
            regularity_degrees=degs)
        assert report.ok


def test_multigraded_bounds_p1xp1_trivial(p1p1, gf):
    s = free_s(p1p1, gf, (-2, -2), (3, 3))
    degs = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    for subset in ({0, 2}, {1, 3}):
        report = check_betti_bounds_multigraded(s, p1p1, subset,
                                                degrees=degs, regularity_degrees=degs)
        assert report.ok
        assert dict(report.checked).get((0, (0, 0))) == 1


def test_multigraded_bounds_koszul_hypersurfaces(hirz3, gf):
    # S/(x3 - x0^3 x1, x2): Koszul resolution S <- S(0,-1)+S(-1,0) <- S(-1,-1)
    f = Poly([(1, (0, 0, 0, 1)), (-1, (3, 1, 0, 0))])
    pres = Presentation.quotient(hirz3, [f, (0, 0, 1, 0)])
    m = realize(pres, hirz3, Window((-8, -2), (8, 6)), gf)
    from torictate.bgg import betti_table

    bt = betti_table(m, degrees=[(a, b) for a in range(-3, 3) for b in range(-1, 3)])
    want = {(0, (0, 0)): 1, (1, (0, 1)): 1, (1, (1, 0)): 1, (2, (1, 1)): 1}
    assert bt == want
    degs = [(x, y) for x in range(-4, 5) for y in range(-2, 4)]
    for subset in ({0, 2}, {1, 3}):
        report = check_betti_bounds_multigraded(m, hirz3, subset,
                                                degrees=list(bt), regularity_degrees=degs)
        assert report.ok


def test_deg_I_regularity_detects_failure(hirz3, gf):
    # S(-x)-style twist: a shifted free module violates the vanishing window
    m = realize(Presentation.free([(4, 0)]), hirz3, Window((-4, -2), (8, 4)), gf)
    degs = [(x, y) for x in range(-3, 8) for y in range(-2, 4)]
    assert not is_deg_I_0_regular(m, hirz3, {0, 2}, degs)


def test_euler_characteristic_quasi_polynomial(p112, p12, gf):
    # chi computed from the oracle table agrees with the closed-form count
    # across three periods of the weight lcm
    import math

    for stack in (p112, p12):
        w = stack.total_degree[0]
        weights = [d[0] for d in stack.var_degrees]
        lcm = 1
        for x in weights:
            lcm = lcm * x // math.gcd(lcm, x)
        s = free_s(stack, gf, (-3 * lcm - w,), (3 * lcm + w,))
        oracle = CechOracle(s)
        n = stack.nvars - 1
        for a0 in range(0, lcm):
            vals = []
            for k in range(3):
                a = a0 + k * lcm
                dims = oracle.sheaf_dims((a,))
                chi = sum((-1) ** i * dims[i] for i in range(n + 1))
                want = len(monomial_basis(stack, (a,))) + (-1) ** n * len(monomial_basis(stack, (-a - w,)))
                vals.append((chi, want))
            for chi, want in vals:
                assert chi == want


def test_reach_floors_match_the_three_rules_they_replace(p112, p156, p1p1, hirz1, hirz3):
    # the oracle's theta floors, the deg_I regularity floors and the
    # Fourier-Mukai start bound, as they were written before one rule
    # served all three
    def oracle_floors(stack, inner):
        reach = abs(stack.theta(inner)) + stack.theta(stack.total_degree)
        return [reach // stack.theta(d) + 1 for d in stack.var_degrees]

    def deg_I_floors(stack, pc, inner):
        reach = abs(pc.deg(inner)) + sum(pc.values[i] for i in pc.vars)
        return [reach // pc.values[i] + 1 if i in pc.vars else 1 for i in range(stack.nvars)]

    def exponent_floor(stack, a):
        minw = min(stack.theta(d) for d in stack.var_degrees)
        return (abs(stack.theta(a)) + stack.theta(stack.total_degree)) // minw + 1

    for stack in (p112, p156, p1p1, hirz1, hirz3):
        for a in itertools.product(range(-9, 10), repeat=stack.r):
            floors = reach_floors(stack, stack.theta, a)
            assert floors == oracle_floors(stack, a)
            assert max(floors) == exponent_floor(stack, a)
            for pc in stack.primitive_collections:
                assert reach_floors(stack, pc.deg, a) == deg_I_floors(stack, pc, a)
    assert hirz1.primitive_collections and hirz3.primitive_collections


def _enumeration_cases(p112, hirz3, p1p1):
    """(stack, presentation, cover, grading, degrees) of dense Cech complexes:
    P(1,1,2) with generators in degrees 0 and 1 and a relation in degree 1
    beside the genus-one relation, so that two of its four enumeration
    degrees coincide; Hirzebruch-3 module H; the (1,1) curve on P1xP1
    without a grading, as the Fourier-Mukai table builds it; and the
    Hirzebruch-3 primitive collection {x0, x2}, whose cover leaves x1 and x3
    uninverted in every cell."""
    x = lambda *e: Poly([(1, e)])
    two_gens = Presentation([(0,), (1,)], [(4,), (1,)], {
        (0, 0): Poly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 2))]),
        (0, 1): x(1, 0, 0), (1, 1): Poly([(-1, (0, 0, 0))])})
    pc = hirz3.collection({0, 2})
    box = lambda r: list(itertools.product(range(-1, 2), repeat=r))
    return [(p112, two_gens, p112.cover, p112.theta, box(1)),
            (hirz3, Presentation.quotient(hirz3, [(1, 1, 0, 0)]), hirz3.cover, hirz3.theta, box(2)),
            (p1p1, Presentation.quotient(p1p1, [Poly([(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])]),
             p1p1.cover, None, box(2)),
            (hirz3, Presentation.quotient(hirz3, [(1, 1, 0, 0)]), [{0}, {2}], pc.deg, box(2))]


def _enumeration_degrees(pres, a):
    return {deg_sub(a, d) for d in pres.gen_degrees + pres.rel_degrees}


def test_masked_cell_exponents_match_their_own_enumeration(p112, hirz3, p1p1, gf):
    # every cell's exponents, masked from the union cell's enumeration, are
    # the rows its own _laurent_exponents call returns, in the same order
    masked = 0
    for stack, pres, cover, grading, degrees in _enumeration_cases(p112, hirz3, p1p1):
        for t in (2, 4):
            cx = CechComplex(stack, gf, pres, cover, t, grading=grading)
            for a in degrees:
                floors = None if grading is None else reach_floors(stack, grading, a)
                for inverted, loc in cx.localized.items():
                    for d in _enumeration_degrees(pres, a):
                        got = loc.boxes.exponents(inverted, a, d)
                        want = laurent._laurent_exponents(stack, d, inverted, t, floors)
                        assert got.tolist() == want.tolist()
                        union = laurent._laurent_exponents(stack, d, cx.cells[-1][2], t, floors)
                        masked += len(union) > len(want)
    assert masked


def test_a_strand_enumerates_once_per_distinct_degree(p112, hirz3, p1p1, gf, monkeypatch):
    # one strand reads the pieces of every cell at its degree, and
    # enumerates each degree its presentation asks for at most once, for
    # the union of the cover: every generator degree, and the relation
    # degrees where a generator has exponents
    calls = []
    enumerate_ = laurent._laurent_exponents

    def counted(stack, d, inverted, t, floors=None):
        calls.append((d, frozenset(inverted)))
        return enumerate_(stack, d, inverted, t, floors)

    monkeypatch.setattr(laurent, "_laurent_exponents", counted)
    full = 0
    for stack, pres, cover, grading, degrees in _enumeration_cases(p112, hirz3, p1p1):
        union = frozenset().union(*cover)
        for a in degrees:
            del calls[:]
            CechComplex(stack, gf, pres, cover, 2, grading=grading).strand_homology(a, extended=False)
            want = _enumeration_degrees(pres, a)
            assert len(calls) == len(set(calls)) and {inv for _, inv in calls} == {union}
            assert {deg_sub(a, g) for g in pres.gen_degrees} <= {d for d, _ in calls} <= want
            full += {d for d, _ in calls} == want
    assert full and len(_enumeration_degrees(_enumeration_cases(p112, hirz3, p1p1)[0][1], (0,))) == 3
