import numpy as np
import pytest

from torictate import linalg
from torictate.bgg import R
from torictate.diffmod import check_minimal, check_square_zero, homology_column
from torictate.dmres import (_select_representatives, min_free_resolution,
                             tate_cone, verify_quasi_iso)
from torictate.exterior import OmegaTwist, Slice
from torictate.linalg import GF, QQ, Entries, Mat, independent_columns, kernel_basis, rank
from torictate.smodule import Presentation, realize, truncate
from torictate.toric import Window

from dictform import entries_of
from test_diffmod import commutes


class PointTarget:
    """The residue field as a one-element differential module at (0; 0):
    its column at 0 is one Slice segment, run 0 with the monomial 1."""

    def __init__(self, stack, field):
        self.stack = stack
        self.field = field
        self.safe = frozenset((x,) for x in range(-8, 1))

    def column_slices(self, a):
        if tuple(a) == (0,) * self.stack.r:
            point = Slice()
            point.add(0, 0, 1, [0])
            return {0: point}
        return {}

    def column_block(self, a, src, tgt):
        return Entries.zeros(self.field, len(tgt), len(src))


def test_resolution_of_exact_module_is_zero(p1, gf):
    m = realize(Presentation.free([(0,)]), p1, Window((0,), (8,)), gf)
    dm = R(m)
    # R(S) has homology only at degree 0; above the floor 1 nothing remains
    state = min_free_resolution(dm, floor=1)
    assert state.gens == []


@pytest.mark.parametrize("field", [GF(), QQ()], ids=["gf", "qq"])
def test_kernel_only_where_a_run_is_added(field, p112, monkeypatch):
    # every cone block is ranked; a kernel is taken only at a cone degree
    # (a; j) with a class left to kill, where exactly one run is added
    m = realize(Presentation.free([(0,)]), p112, Window((0,), (10,)), field)
    dm = R(truncate(m, 2))
    calls = []
    kernel = linalg.kernel_basis

    def counted_kernel(mat):
        calls.append(mat.cols)
        return kernel(mat)

    monkeypatch.setattr(linalg, "kernel_basis", counted_kernel)
    state = min_free_resolution(dm, floor=-2)
    assert state.gens and len(calls) == len(state.runs.start)


def test_resolution_of_residue_field_p1(p1, gf):
    # frozen by hand: resolving k over the exterior algebra on two variables
    # adds generators with ranks 1, 2, 3 at levels 0, -1, -2 and twists
    # omega_E(2;2), omega_E(3;2)^2, omega_E(4;2)^3
    target = PointTarget(p1, gf)
    state = min_free_resolution(target, floor=-2, ceiling=0)
    from collections import Counter

    got = Counter(state.gens)
    assert got == Counter({OmegaTwist((2,), 2): 1,
                           OmegaTwist((3,), 2): 2,
                           OmegaTwist((4,), 2): 3})
    assert verify_quasi_iso(state)
    f = state.free_module(safe=[])
    assert check_minimal(f)
    # free flag: differentials point to earlier rounds
    for (s, t) in entries_of(f):
        assert state.rounds[s] < state.rounds[t]


def test_resolution_stacky_point_tail(p112, gf):
    # R(M) for the stacky-point section module: the resolution generators
    # carry the truncation and duality tail (frozen from the worked example)
    pres = Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0)])
    m = realize(pres, p112, Window((0,), (10,)), gf)
    dm = R(m)
    state = min_free_resolution(dm, floor=-4)
    from collections import Counter

    got = Counter(state.gens)
    # expected: omega_E(2;1), omega_E(4;1), omega_E(6;1), omega_E(8;1) --
    # one per even tail degree reachable above the floor
    want = Counter({OmegaTwist((2,), 1): 1, OmegaTwist((4,), 1): 1,
                    OmegaTwist((6,), 1): 1, OmegaTwist((8,), 1): 1})
    assert got == want
    assert verify_quasi_iso(state)


def test_resolution_of_r_s_p112_tail(p112, gf):
    # resolving R(S) on P(1,1,2): a single generator omega_E(4;3) at the
    # head of the tail, then the Serre-dual pattern below
    m = realize(Presentation.free([(0,)]), p112, Window((0,), (10,)), gf)
    dm = R(m)
    state = min_free_resolution(dm, floor=-2)
    counts = {}
    for tw in state.gens:
        counts[tw] = counts.get(tw, 0) + 1
    assert counts[OmegaTwist((4,), 3)] == 1
    # h^2(O(-5)) = h^0(O(1)) = 2: generator omega_E(5; 3) twice
    assert counts[OmegaTwist((5,), 3)] == 2
    assert counts[OmegaTwist((6,), 3)] == 4
    assert verify_quasi_iso(state)
    assert check_minimal(state.free_module(safe=[]))


def test_resolution_comparison_is_chain_map(p112, gf):
    from torictate.diffmod import DMMorphism

    pres = Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0)])
    m = realize(pres, p112, Window((0,), (8,)), gf)
    dm = R(m)
    state = min_free_resolution(dm, floor=-2)
    f = state.free_module(safe=[])
    eps = DMMorphism(f, dm, state.eps)
    assert commutes(eps)


def test_cone_gives_exact_tate_shape(p112, gf):
    m = realize(Presentation.free([(0,)]), p112, Window((0,), (10,)), gf)
    dm = R(m)
    state = min_free_resolution(dm, floor=-2)
    safe = [(a,) for a in range(-2, 7)]
    t = tate_cone(state, safe=safe)
    assert check_square_zero(t)
    for a in safe:
        assert homology_column(t, a) == {}


def test_uniqueness_of_generator_multisets(p112, p12, rng):
    # two representative-selection policies give identical generator
    # degree multisets on random monomial quotients
    from collections import Counter

    gf = GF()
    for trial in range(10):
        stack = p112 if trial % 2 == 0 else p12
        nrel = rng.randrange(0, 3)
        rels = []
        for _ in range(nrel):
            e = tuple(rng.randrange(0, 3) for _ in range(stack.nvars))
            if any(e):
                rels.append(e)
        pres = Presentation.quotient(stack, rels) if rels else Presentation.free([(0,)])
        m = realize(pres, stack, Window((0,), (10,)), gf)
        dm = R(m)
        s1 = min_free_resolution(dm, floor=-2, policy="first")
        s2 = min_free_resolution(dm, floor=-2, policy="last")
        assert Counter(s1.gens) == Counter(s2.gens)


def test_resolution_rejects_nothing_but_flags_top(p1, gf):
    # homology at the very top scanned level sets the window warning flag
    target = PointTarget(p1, gf)
    state = min_free_resolution(target, floor=0, ceiling=0)
    assert state.top_hit


class _GreedyRank:
    """The one-vector-at-a-time echelon accumulator that picked homology
    representatives before independent_columns, kept as the reference."""

    def __init__(self, field):
        self.field = field
        self.rows = []

    def add(self, vec):
        v = np.array(vec, copy=True)
        for piv, row in self.rows:
            c = v[piv]
            if c != self.field.zero:
                v = self.field.reduce(v - c * row)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        self.rows.append((piv, self.field.reduce(v * self.field.inv(v[piv]))))
        return True


def _greedy_select(field, d_out, d_in, policy):
    ker = kernel_basis(Mat(field, d_out)).a
    acc = _GreedyRank(field)
    for c in range(d_in.shape[1]):
        acc.add(d_in[:, c])
    order = range(ker.shape[1])
    if policy == "last":
        order = reversed(list(order))
    return [ker[:, c] for c in order if acc.add(ker[:, c])]


def _random_matrix(field, rng, rows, cols, rank_cap):
    """A rows x cols matrix of rank at most rank_cap with small entries,
    some columns repeated or zero."""
    k = rng.randrange(0, rank_cap + 1)
    left = field.array([[rng.randrange(-3, 4) for _ in range(k)] for _ in range(rows)]).reshape(rows, k)
    right = field.array([[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(k)]).reshape(k, cols)
    m = field.matmul(left, right) if k else field.zeros(rows, cols)
    for c in range(cols):
        if c and rng.random() < 0.2:
            m[:, c] = m[:, rng.randrange(0, c)]
        elif rng.random() < 0.1:
            m[:, c] = field.zero
    return m


@pytest.mark.parametrize("field", [GF(), GF(2147483647), QQ()], ids=repr)
def test_independent_columns_matches_greedy_accumulator(field, rng):
    for _ in range(120):
        n = rng.randrange(0, 7)
        base = _random_matrix(field, rng, n, rng.randrange(0, 5), 4)
        cand = _random_matrix(field, rng, n, rng.randrange(0, 6), 5)
        acc = _GreedyRank(field)
        for c in range(base.shape[1]):
            acc.add(base[:, c])
        want = [c for c in range(cand.shape[1]) if acc.add(cand[:, c])]
        assert independent_columns(field, base, cand) == want


@pytest.mark.parametrize("field", [GF(), GF(2147483647), QQ()], ids=repr)
@pytest.mark.parametrize("policy", ["first", "last"])
def test_select_representatives_matches_greedy_loop(field, policy, rng):
    for _ in range(80):
        n = rng.randrange(0, 8)
        d_out = _random_matrix(field, rng, rng.randrange(0, 6), n, 4)
        ker = kernel_basis(Mat(field, d_out)).a
        # d_in: combinations of kernel vectors, with dependent columns
        coeffs = _random_matrix(field, rng, ker.shape[1], rng.randrange(0, 6), ker.shape[1])
        d_in = field.matmul(ker, coeffs) if ker.shape[1] else field.zeros(n, coeffs.shape[1])
        got = _select_representatives(field, ker, d_in, policy)
        want = _greedy_select(field, d_out, d_in, policy)
        assert [v.tolist() for v in got] == [v.tolist() for v in want]
        assert len(got) == ker.shape[1] - rank(Mat(field, d_in))
