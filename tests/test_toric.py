import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from torictate import toric
from torictate.toric import (PositiveGrading, PrimitiveCollection, ToricStack, Window, cone_contains,
                             cone_members,
                             count_points, deg_add, degrees_within, hirzebruch,
                             is_irrelevant_subset, points,
                             weights_degI, weights_zgraded)


def test_irrelevant_single_product_generator():
    # with one generator of full support (B principal, a "cox pair" input),
    # any single variable hits it
    x = ToricStack(r=1, var_degrees=[(1,), (1,), (2,)],
                   irrelevant_supports=[{0, 1, 2}], theta=(1,))
    assert is_irrelevant_subset(x, {0})


def test_irrelevant_weighted_needs_all_vars(p112):
    # B is the maximal ideal: its generator x_1 has support disjoint from {0}
    assert not is_irrelevant_subset(p112, {0})
    assert is_irrelevant_subset(p112, {0, 1, 2})


def test_irrelevant_hirzebruch(hirz3):
    assert is_irrelevant_subset(hirz3, {0, 2})
    assert is_irrelevant_subset(hirz3, {1, 3})
    # generator x2 x3 has support {2, 3}, disjoint from {0, 1}
    assert not is_irrelevant_subset(hirz3, {0, 1})


def test_irrelevant_full_and_empty(p112, hirz3):
    for x in (p112, hirz3):
        assert is_irrelevant_subset(x, set(range(x.nvars)))
        assert not is_irrelevant_subset(x, set())


def test_irrelevant_rejects_bad_index(p112):
    with pytest.raises(IndexError):
        is_irrelevant_subset(p112, {7})


def test_cone_contains_zero(p12):
    assert cone_contains(p12.eff, p12.theta, (0,))


def test_cone_contains_z_graded(p12):
    assert cone_contains(p12.eff, p12.theta, (5,))
    assert not cone_contains(p12.eff, p12.theta, (-1,))


def test_cone_contains_hirzebruch():
    hz = hirzebruch(3)
    from torictate.toric import EffCone

    cone = EffCone([(1, 0), (-3, 1), (0, 1)])
    assert cone_contains(cone, hz.theta, (-3, 1))
    assert not cone_contains(cone, hz.theta, (-4, 1))


def test_cone_closed_under_generators(hirz3, rng):
    pts = [(rng.randrange(-3, 4), rng.randrange(0, 3)) for _ in range(10)]
    for d in pts:
        if cone_contains(hirz3.eff, hirz3.theta, d):
            for g in hirz3.eff.generators:
                assert cone_contains(hirz3.eff, hirz3.theta, deg_add(d, g))


def test_cone_negative_theta(p112, rng):
    for _ in range(10):
        d = (rng.randrange(-8, 0),)
        if p112.theta(d) < 0:
            assert not cone_contains(p112.eff, p112.theta, d)


def test_weights_p156(p156):
    w, up, lo = weights_zgraded(p156)
    assert w == 12
    assert up[1] == 6 and up[2] == 11 and up[3] == 12 and up[4] == 13
    assert up[-1] == -1 and up[0] == 0
    assert lo[-1] == -1 and lo[0] == 0 and lo[1] == 1


def test_weights_p2(p2):
    w, up, lo = weights_zgraded(p2)
    assert w == 3
    for i in range(1, 4):
        assert up[i] == i


def test_weights_p112(p112):
    w, up, _ = weights_zgraded(p112)
    assert w == 4
    assert up[1] == 2 and up[2] == 3 and up[3] == 4


def test_weights_reject_multigraded(hirz3):
    with pytest.raises(ValueError):
        weights_zgraded(hirz3)


def test_weights_degI_hirzebruch(hirz3):
    up = weights_degI(hirz3, {0, 2})
    assert up[1] == 1 and up[2] == 2
    # both collections have the same maximum 2
    up2 = weights_degI(hirz3, {1, 3})
    assert up2[2] == 2
    assert max(up.values()) == 2 and max(up2.values()) == 2


def test_weights_degI_singleton():
    # P(1,1,3)-style model: B = (x1) cap (x0,x2,x3), collection {1} with
    # deg_I from the functional (-1, 0)
    x = ToricStack(
        r=2,
        var_degrees=[(1, 0), (-1, 1), (1, 0), (0, 1)],
        irrelevant_supports=[{1}, {0, 2, 3}],
        theta=(1, 2),
        primitive_collections=[({1}, (-1, 1, -1, 0))],
    )
    up = weights_degI(x, {1})
    assert up[1] == 1


def test_weights_degI_unknown(hirz3):
    with pytest.raises(KeyError):
        weights_degI(hirz3, {0, 1})


def test_deg_I_sign_validation():
    with pytest.raises(ValueError):
        hirzebruch_bad = ToricStack(
            r=2,
            var_degrees=[(1, 0), (-3, 1), (1, 0), (0, 1)],
            irrelevant_supports=[{0, 1}, {0, 3}, {1, 2}, {2, 3}],
            theta=(1, 4),
            primitive_collections=[({0, 2}, (1, 1, 1, 0))],
        )


def test_deg_I_functional_validation():
    # x0 and x2 have equal degrees, so deg_I must agree on them
    with pytest.raises(ValueError):
        ToricStack(
            r=2,
            var_degrees=[(1, 0), (-3, 1), (1, 0), (0, 1)],
            irrelevant_supports=[{0, 1}, {0, 3}, {1, 2}, {2, 3}],
            theta=(1, 4),
            primitive_collections=[({0, 2}, (1, -3, 2, 0))],
        )


def test_deg_I_functional_on_rank_deficient_degrees():
    # the degrees span a line: the functional is fixed on it, and its free
    # coordinate is 0
    from fractions import Fraction

    degrees = [(1, 1), (2, 2), (1, 1)]
    pc = PrimitiveCollection({0, 1, 2}, (1, 2, 1), degrees)
    assert pc.functional == (Fraction(1), Fraction(0))
    assert pc.deg((3, 3)) == 3
    with pytest.raises(ValueError, match="not induced by a linear functional"):
        PrimitiveCollection({0, 1, 2}, (1, 3, 1), degrees)


def test_deg_I_evaluates_on_degrees(hirz3):
    pc = hirz3.collection({0, 2})
    assert pc.deg((1, 0)) == 1
    assert pc.deg((-3, 1)) == -3
    assert pc.deg((5, 2)) == 5
    pc2 = hirz3.collection({1, 3})
    assert pc2.deg((5, 2)) == 2


def test_theta_positivity_enforced():
    with pytest.raises(ValueError):
        ToricStack(r=1, var_degrees=[(1,), (0,)], irrelevant_supports=[{0}, {1}], theta=(1,))


def test_window_validation():
    with pytest.raises(ValueError):
        Window((0, 0), (1,))
    with pytest.raises(ValueError):
        Window((2,), (1,))


# -- lattice points ------------------------------------------------------------

BOX = 5  # brute-force reach on a side that points() leaves unbounded

_sides = st.one_of(
    st.tuples(st.integers(-3, 0), st.integers(0, 3)),
    st.tuples(st.integers(-3, 3), st.none()),
    st.tuples(st.none(), st.integers(-3, 3)),
    st.just((0, None)),    # a nonnegative variable of signed_exponents
    st.just((None, -1)),   # an inverted, negative one
)

_one_sided = st.one_of(st.tuples(st.integers(-3, 3), st.none()),
                       st.tuples(st.none(), st.integers(-3, 3)))


_two_sided = st.tuples(st.integers(-3, 0), st.integers(0, 3))


@st.composite
def _problems(draw):
    # up to four coordinates over one or two degree rows, with one to four
    # targets. Two shapes have n - r in {1, 2}: in "one-sided" every
    # coordinate is bounded on one side only (the mixed-sign regions that
    # interval tightening alone may leave open), in "finite" on both, so
    # brute force over the bounds counts every point
    shape = draw(st.sampled_from(["any", "one-sided", "finite"]))
    entry = st.integers(-2, 2)
    if shape == "any":
        r, n = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    else:
        r = draw(st.integers(1, 2))
        n = r + draw(st.integers(1, 2))
    if r == 2 and shape == "any" and draw(st.booleans()):
        # rank-deficient: every degree a multiple of one vector
        u = draw(st.tuples(entry, entry))
        degrees = [tuple(c * x for x in u) for c in draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))]
    else:
        degrees = [draw(st.tuples(*[entry] * r)) for _ in range(n)]
    theta = draw(st.tuples(*[st.integers(-2, 2)] * r))
    targets = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * r), min_size=1, max_size=4))
    sides = [draw({"any": _sides, "one-sided": _one_sided, "finite": _two_sided}[shape])
             for _ in range(n)]
    return degrees, theta, targets, [l for l, _ in sides], [h for _, h in sides]


def _brute(degrees, target, lower, upper):
    box = [range(-BOX if l is None else l, (BOX if h is None else h) + 1)
           for l, h in zip(lower, upper)]
    return [e for e in itertools.product(*box)
            if all(sum(c * d[k] for c, d in zip(e, degrees)) == t for k, t in enumerate(target))]


def _rank(degrees):
    """The rank of the degree vectors (r <= 2)."""
    if len(degrees[0]) == 2 and any(a * d - b * c for (a, b), (c, d) in itertools.combinations(degrees, 2)):
        return 2
    return 1 if any(any(d) for d in degrees) else 0


def _recedes(degrees, lower, upper):
    """Some nonzero v with sum v_i degrees[i] = 0 keeps every finite side, so
    a nonempty region is unbounded (r <= 2 and entries in [-2, 2] keep the
    minimal such v inside [-8, 8])."""
    box = [range(-8 if l is None else 0, (8 if u is None else 0) + 1) for l, u in zip(lower, upper)]
    return any(any(v) and all(sum(c * d[k] for c, d in zip(v, degrees)) == 0 for k in range(len(degrees[0])))
               for v in itertools.product(*box))


@settings(max_examples=300, deadline=None)
@given(_problems())
def test_points_matches_brute_force(problem):
    degrees, theta, targets, lower, upper = problem
    for target in targets:
        try:
            got = points(degrees, PositiveGrading(theta), target, lower, upper)
        except ArithmeticError:
            # the theta row bounds every coordinate when theta is positive on
            # the degrees and every coordinate has a lower bound; up to two
            # coordinates beyond the rank of the degrees are bounded exactly
            # by projecting the solved ones' bounds, so only an unbounded
            # region raises; elsewhere a bounded region may be left open
            if len(degrees) - _rank(degrees) in (1, 2):
                assert _recedes(degrees, lower, upper)
            else:
                assert None in lower or any(PositiveGrading(theta)(d) <= 0 for d in degrees)
            continue
        assert not (got and _recedes(degrees, lower, upper))
        assert got == sorted(set(got))
        for e in got:
            assert all(sum(c * d[k] for c, d in zip(e, degrees)) == t for k, t in enumerate(target))
            assert all((l is None or l <= x) and (h is None or x <= h) for l, x, h in zip(lower, e, upper))
        assert [e for e in got if all(abs(x) <= BOX for x in e)] == \
            [e for e in _brute(degrees, target, lower, upper) if all(abs(x) <= BOX for x in e)]


@settings(max_examples=300, deadline=None)
@given(_problems())
def test_count_points_matches_brute_force_and_points(problem):
    degrees, theta, targets, lower, upper = problem
    theta = PositiveGrading(theta)
    enumerated = []
    for target in targets:
        try:
            enumerated.append(len(points(degrees, theta, target, lower, upper)))
        except ArithmeticError:
            enumerated = None
            break
    try:
        got = count_points(degrees, theta, targets, lower, upper)
    except ArithmeticError:
        # a window-wide count raises only through points on one target
        assert enumerated is None
        return
    assert got == enumerated
    if None not in lower + upper:
        sums = Counter(tuple(sum(c * d[k] for c, d in zip(e, degrees)) for k in range(len(targets[0])))
                       for e in itertools.product(*[range(l, h + 1) for l, h in zip(lower, upper)]))
        assert got == [sums[tuple(t)] for t in targets]


def test_points_and_count_points_solve_exactly_beyond_int64():
    # coordinates near 2^40 of degrees near 2^21 make degrees near 2^62, past
    # what int64 is proven to hold: the solve runs in Python ints
    big, deg = 1 << 40, 1 << 21
    degrees, theta = [(3 * deg,), (2 * deg,)], PositiveGrading((1,))
    lower, upper = [big, big - 3], [big + 6, big + 3]
    box = list(itertools.product(range(big, big + 7), range(big - 3, big + 4)))
    sums = Counter(3 * a * deg + 2 * b * deg for a, b in box)
    targets = [(t,) for t in sorted(sums)[::3]] + [(5 * big * deg + 1,), (5 * big * deg - 1000 * deg,)]
    assert count_points(degrees, theta, targets, lower, upper) == [sums[t] for t, in targets]
    assert any(sums[t] > 1 for t, in targets)
    for t, in targets:
        got = points(degrees, theta, (t,), lower, upper)
        assert got == [e for e in box if 3 * e[0] * deg + 2 * e[1] * deg == t]
        assert all(type(x) is int for e in got for x in e)


def test_count_points_counts_in_int64_over_a_window(monkeypatch):
    # P(1,1,2): the monomials of each degree, counted for a window at once
    # in int64 with no call to points
    degrees, theta = [(1,), (1,), (2,)], PositiveGrading((1,))
    targets = [(a,) for a in range(-3, 12)]
    want = [len(points(degrees, theta, t, [0] * 3, [None] * 3)) for t in targets]
    assert want[3:6] == [1, 2, 4]
    monkeypatch.setattr(toric, "points", None)
    assert count_points(degrees, theta, targets, [0] * 3, [None] * 3) == want


def test_points_bounds_two_branching_coordinates_by_projection():
    # rank 2 in four coordinates: interval tightening leaves the two
    # branching coordinates open, and each solved coordinate's bounds,
    # affine in both, bound them only together
    degrees, theta = [(2, 2), (2, 0), (2, 1), (2, 2)], PositiveGrading((1, 2))
    lower, upper = [-2, None, None, 1], [None, 2, 0, None]
    want = [(-2, 1, 0, 1), (-2, 2, -2, 2), (-1, 2, -2, 1)]
    assert want == [e for e in _brute(degrees, (0, -2), lower, upper)]
    assert points(degrees, theta, (0, -2), lower, upper) == want
    assert count_points(degrees, theta, [(0, -2)], lower, upper) == [3]


def test_points_solves_through_a_non_unimodular_pivot():
    # every invertible 2 x 2 minor of these degrees is +-2 or 4, so each
    # solve divides, and targets of mixed parity have no points
    degs = [(2, 0), (0, 2), (1, 1), (1, 1)]
    theta = PositiveGrading((1, 1))
    for target in itertools.product(range(7), repeat=2):
        want = _brute(degs, target, [0] * 4, [6] * 4)
        assert points(degs, theta, target, [0] * 4, [None] * 4) == want


def test_points_bounds_one_branching_coordinate_by_the_solved_ones():
    # every coordinate has a one-sided bound and each row leaves another
    # coordinate open, so interval tightening alone bounds none of them;
    # the solved coordinates, affine in the branching one, bound it
    got = points([(-1, 1), (-2, 1), (1, 2)], PositiveGrading((0, 2)), (4, 2),
                 [0, None, 0], [None, -1, None])
    assert got == [(3, -3, 1), (8, -6, 0)]


def test_points_unbounded_region_raises():
    with pytest.raises(ArithmeticError):
        points([(1,), (1,)], PositiveGrading((1,)), (0,), [0, None], [None, -1])


def test_points_of_a_thin_region():
    # ten points in a region whose branching box is far larger than the
    # region; checked against a solve of e0 and e1 for each (e2, e3, e4):
    # e0 = (22 - 8 e2 + 6 e3 - 3 e4) / 5 and e1 = (24 - e2 + 7 e3 + 4 e4) / 5,
    # and e0 >= -12 with e2 >= 0 and e4 >= -2 gives e3 >= -14
    degrees = [(2, 1), (-1, -3), (3, 1), (-1, 3), (2, 3)]
    lower, upper = [-12, 0, 0, None, -2], [None, None, 2, -6, 23]
    want = []
    for e2, e3, e4 in itertools.product(range(0, 3), range(-14, -5), range(-2, 24)):
        n0, n1 = 22 - 8 * e2 + 6 * e3 - 3 * e4, 24 - e2 + 7 * e3 + 4 * e4
        if n0 % 5 == 0 and n1 % 5 == 0 and n0 // 5 >= -12 and n1 >= 0:
            want.append((n0 // 5, n1 // 5, e2, e3, e4))
    got = points(degrees, PositiveGrading((-1, 3)), (4, -10), lower, upper)
    assert len(got) == 10 and got == sorted(want)
    assert all(sum(c * d[k] for c, d in zip(e, degrees)) == t for e in got for k, t in enumerate((4, -10)))


def test_points_and_count_points_at_the_old_node_cap():
    # P2 at degree 1500: C(1502, 2) monomials, over half of what points
    # keeps, in a branching box twice as large
    degrees, theta = [(1,), (1,), (1,)], PositiveGrading((1,))
    want = math.comb(1502, 2)
    assert count_points(degrees, theta, [(1500,)], [0] * 3, [None] * 3) == [want]
    got = points(degrees, theta, (1500,), [0] * 3, [None] * 3)
    assert len(got) == want == 1_127_251
    assert got[0] == (0, 0, 1500) and got[-1] == (1500, 0, 0)
    assert len(set(got)) == want and got == sorted(got)


def test_count_points_of_a_simplex_far_smaller_than_its_box():
    # P6 at degree 26 has C(32, 6) monomials in a branching box of 27^6,
    # 427 times as many points: the halved boxes follow the simplex
    degrees, theta = [(1,)] * 7, PositiveGrading((1,))
    assert count_points(degrees, theta, [(26,)], [0] * 7, [None] * 7) == [math.comb(32, 6)]


def _sums(gens, theta, cap):
    """Every sum c . gens with c_i <= cap // theta(gens[i]), repeats kept."""
    return [tuple(sum(c * g[k] for c, g in zip(cs, gens)) for k in range(len(gens[0])))
            for cs in itertools.product(*[range(cap // theta(g) + 1) for g in gens])]


@pytest.mark.parametrize("name", ["p12", "p112", "hirz3"])
def test_cone_members_match_cone_contains(name, request):
    # one count over the distinct degrees answers as one solve per degree
    # does, repeats and degrees outside the effective cone included
    stack = request.getfixturevalue(name)
    box = list(itertools.product(*[range(-4, 5)] * stack.r))
    degrees = box + box[::3]
    got = cone_members(stack.eff, stack.theta, degrees)
    assert got == [cone_contains(stack.eff, stack.theta, d) for d in degrees]
    assert True in got and False in got
    assert cone_members(stack.eff, stack.theta, []) == []


@pytest.mark.parametrize("name", ["p12", "p112", "hirz3"])
def test_cone_contains_and_degrees_within_match_brute_force(name, request):
    stack = request.getfixturevalue(name)
    theta, cap = stack.theta, 6
    reach = set(_sums(stack.eff.generators, theta, 3 * cap))
    for d in itertools.product(*[range(-cap, cap + 1)] * stack.r):
        if theta(d) <= 3 * cap:
            assert cone_contains(stack.eff, theta, d) == (d in reach), d
    for gens in (stack.eff.generators, stack.var_degrees):
        want = sorted({d for d in _sums(gens, theta, cap) if theta(d) <= cap},
                      key=lambda d: (theta(d), d))
        assert degrees_within(gens, theta, cap) == want
        assert degrees_within(gens, theta, -1) == []


@pytest.mark.parametrize("name", ["p1", "p2", "p12", "p112", "p156", "hirz1", "hirz3", "p1p1"])
def test_subset_sum_hull_is_the_least_and_largest_subset_sum(name, request):
    stack = request.getfixturevalue(name)
    sums = stack.subset_sums()
    assert stack.subset_sum_hull() == (tuple(min(s[k] for s in sums) for k in range(stack.r)),
                                       tuple(max(s[k] for s in sums) for k in range(stack.r)))
