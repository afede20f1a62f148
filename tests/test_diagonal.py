import pytest
from hypothesis import given, settings, strategies as st

from torictate import diagonal, linalg, toric
from torictate.diagonal import (DiagComplex, ExplicitBigradedComplex, build_F,
                                build_F_prime_weighted, check_acyclicity,
                                check_H0_diagonal, hirzebruch1_diagonal,
                                hirzebruch1_report)
from torictate.errors import PreconditionError
from torictate.linalg import GF, QQ, peel, signed_graph_rank, sparse_rank
from torictate.smodule import monomial_basis
from torictate.toric import cone_contains, deg_add


def bids(lo, hi):
    return [((d,), (e,)) for d in range(lo, hi + 1) for e in range(lo, hi + 1)]


def hirz1_bids(lo, hi):
    box = [(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)]
    return [(p, q) for p in box for q in box]


def reference_columns(cx, i, bid):
    """The columns of d_i at bid by label lookup: each image term's target
    basis label is built and looked up in the target basis."""
    field = cx.field
    index = {lab: k for k, lab in enumerate(cx.basis(i - 1, bid))}
    cols = []
    if isinstance(cx, ExplicitBigradedComplex):
        by_col = {}
        for (row, kk), terms in cx.matrices.get(i, {}).items():
            by_col.setdefault(kk, []).append((row, terms))
        for (k, ex, ey) in cx.basis(i, bid):
            col = {}
            for row, terms in by_col.get(k, ()):
                for coeff, tx, ty in terms:
                    lab = (row,
                           tuple(a + b for a, b in zip(ex, tx)),
                           tuple(a + b for a, b in zip(ey, ty)))
                    j = index.get(lab)
                    if j is not None:
                        nv = field.add(col.get(j, field.zero), field.of(coeff))
                        if nv == field.zero:
                            col.pop(j, None)
                        else:
                            col[j] = nv
            cols.append(col)
        return cols
    stack = cx.stack
    for (mask, a, ex, ey) in cx.basis(i, bid):
        col = {}
        sign = 1
        for tvar in range(stack.nvars):
            bit = 1 << tvar
            if not (mask & bit):
                continue
            rest = mask & ~bit
            lab = (rest, a, ex, tuple(x + (1 if k == tvar else 0) for k, x in enumerate(ey)))
            k = index.get(lab)
            if k is not None:
                col[k] = field.add(col.get(k, field.zero), field.of(sign))
            a2 = deg_add(a, stack.var_degrees[tvar])
            lab2 = (rest, a2, tuple(x + (1 if k == tvar else 0) for k, x in enumerate(ex)), ey)
            k2 = index.get(lab2)
            if k2 is not None:
                col[k2] = field.sub(col.get(k2, field.zero), field.of(sign))
            sign = -sign
        cols.append({k: v for k, v in col.items() if v != field.zero})
    return cols


def union_rank(cx, i, bids):
    """The rank of d_i on the block-diagonal union of bids, as one run."""
    return diagonal._Map(cx, i, bids).rank(range(len(bids)))


def composes_to_zero(field, inner, outer):
    """d_{i-1} d_i = 0 on realized sparse columns."""
    for col in outer:
        acc = {}
        for mid, c in col.items():
            for tgt, v in inner[mid].items():
                acc[tgt] = field.add(acc.get(tgt, field.zero), field.mul(c, v))
        if any(v != field.zero for v in acc.values()):
            return False
    return True


def test_build_f_p1_strands(p1, gf):
    cx = build_F(p1, gf)
    # at bidegree ((1,),(1,)): F_1 summands S'(a, -a-b) with b from one
    # exterior variable; direct count of basis elements
    basis = cx.basis(1, ((1,), (1,)))
    assert len(basis) > 0
    for (mask, a, ex, ey) in basis:
        assert bin(mask).count("1") == 1
    assert cx.check_square_zero([((1,), (1,)), ((2,), (2,))])


def test_build_f_p12_term_shapes(p12, gf):
    # the F_1 column contains S'(0,-2)+S'(0,-1) and S'(1,-3)+S'(1,-2):
    # у-twists -a-b for (a, b) with a in Eff and b a variable degree
    cx = build_F(p12, gf)
    seen = set()
    for (mask, a, ex, ey) in cx.basis(1, ((1,), (3,))):
        b = p12.mask_degree(mask)
        seen.add((a[0], -a[0] - b[0]))
    for want in [(0, -2), (0, -1), (1, -3), (1, -2)]:
        assert want in seen


def test_build_f_empty_window(p12, gf):
    cx = build_F(p12, gf)
    assert cx.dim(0, ((-1,), (0,))) == 0


def test_f_prime_strand_bound(p12, gf):
    # only strands with deg(T) < w - a survive (w = 3)
    cx = build_F_prime_weighted(p12, gf)
    for (mask, a, ex, ey) in cx.basis(1, ((2,), (4,))):
        assert p12.theta(p12.mask_degree(mask)) < 3 - a[0]


def test_f_prime_p1_shape(p1, gf):
    cx = build_F_prime_weighted(p1, gf)
    # w = 2: strands d < 2; the top term F_2 keeps only deg(T) = 2 < 2 - a:
    # impossible, so F_2 vanishes
    for bid in bids(0, 3):
        assert cx.dim(2, bid) == 0
    assert check_acyclicity(cx, bids(0, 4))
    assert check_H0_diagonal(cx, bids(0, 4))


def test_f_prime_p2_strand_count(p2, gf):
    cx = build_F_prime_weighted(p2, gf)
    strands = set()
    for (mask, a, ex, ey) in cx.basis(0, ((2,), (2,))):
        strands.add(a[0])
    assert strands == {0, 1, 2}


def test_f_prime_requires_r1(hirz3, gf):
    with pytest.raises(PreconditionError):
        build_F_prime_weighted(hirz3, gf)


def test_acyclicity_p12(p12, gf):
    cx = build_F_prime_weighted(p12, gf)
    assert check_acyclicity(cx, bids(0, 6))


def test_acyclicity_full_f_p1(p1, gf):
    cx = build_F(p1, gf)
    assert check_acyclicity(cx, bids(0, 6))
    assert check_H0_diagonal(cx, bids(0, 6))


def test_acyclicity_detects_mutation(p12, gf):
    bid = ((2,), (3,))
    assert build_F_prime_weighted(p12, gf).homology(1, bid) == 0

    class DropsATerm(DiagComplex):
        # d(e_t u^a) = y_t u^a, its x-term dropped, for each variable t: the
        # first differential's rank drops, so the kernel inflates and
        # acyclicity fails
        def _terms(self, key):
            out = super()._terms(key)
            return out[:1] if bin(key[0]).count("1") == 1 else out

    cx = DropsATerm(p12, gf, keep=build_F_prime_weighted(p12, gf).keep)
    assert check_acyclicity(cx, [bid], report=True) == (False, (1, bid))


def test_h0_diagonal_p12(p12, gf):
    cx = build_F_prime_weighted(p12, gf)
    assert cx.homology(0, ((2,), (3,))) == len(monomial_basis(p12, (5,))) == 3
    assert cx.homology(0, ((0,), (0,))) == 1
    assert check_H0_diagonal(cx, bids(0, 6))


def test_h0_excludes_noneffective_second_coordinate(p12, gf):
    cx = build_F_prime_weighted(p12, gf)
    # d' = -1 is excluded by convention, so the check passes regardless
    assert check_H0_diagonal(cx, [((2,), (-1,))])


def test_h0_diagonal_tests_membership_in_one_count(p12, gf, monkeypatch):
    # the d' of every bidegree, one outside the effective cone among them,
    # are tested by one count_points; the kept bidegrees are those with
    # cone_contains(d'), so the answer is the one of the kept list alone
    cx = build_F_prime_weighted(p12, gf)
    mixed = bids(0, 4) + [((2,), (-1,)), ((1,), (-3,))]
    kept = [bid for bid in mixed if cone_contains(p12.eff, p12.theta, bid[1])]
    assert len(kept) == len(mixed) - 2
    calls = []
    count = toric.count_points

    def counted(*args):
        calls.append(args[2])
        return count(*args)

    monkeypatch.setattr(toric, "count_points", counted)
    assert check_H0_diagonal(cx, mixed)
    assert len(calls) == 1 and sorted(calls[0]) == sorted({bid[1] for bid in mixed})
    monkeypatch.undo()
    assert check_H0_diagonal(cx, kept)


def test_f_and_f_prime_agree_in_positive_homology(p12, gf):
    full = build_F(p12, gf)
    fin = build_F_prime_weighted(p12, gf)
    for bid in bids(0, 4):
        for i in (1, 2):
            assert full.homology(i, bid) == fin.homology(i, bid) == 0


def test_h0_of_f_and_f_prime_agree(p12, gf):
    full = build_F(p12, gf)
    fin = build_F_prime_weighted(p12, gf)
    for bid in bids(0, 5):
        assert full.homology(0, bid) == fin.homology(0, bid)
    assert check_H0_diagonal(full, bids(0, 5))


def test_koszul_self_duality_term_count(p12, gf):
    # the number of exterior summands at fixed (a, strand) is binomial(n+1, i)
    cx = build_F(p12, gf)
    bid = ((2,), (4,))
    per = {}
    for (mask, a, ex, ey) in cx.basis(1, bid):
        per.setdefault((a, mask), 0)
    masks = {m for (_, m) in per}
    assert all(bin(m).count("1") == 1 for m in masks)


def test_hirzebruch1_matrix_is_the_printed_one(gf):
    # frozen: the 5 x 10 presentation matrix entry pattern
    cx = hirzebruch1_diagonal(gf)
    m1 = cx.matrices[1]

    def entry(r, c):
        terms = m1.get((r, c))
        if terms is None:
            return None
        (coeff, tx, ty), = terms
        var = ("x", tx.index(1)) if any(tx) else ("y", ty.index(1))
        return (coeff, var)

    printed = {
        (0, 0): (1, ("y", 0)), (0, 1): (1, ("y", 1)), (0, 2): (1, ("y", 2)), (0, 3): (1, ("y", 3)),
        (1, 0): (-1, ("x", 0)), (1, 2): (-1, ("x", 2)), (1, 6): (1, ("y", 1)), (1, 9): (1, ("y", 3)),
        (2, 1): (-1, ("x", 1)), (2, 4): (1, ("y", 0)), (2, 7): (1, ("y", 2)),
        (3, 3): (-1, ("x", 3)), (3, 4): (-1, ("x", 0)), (3, 5): (1, ("y", 0)),
        (3, 6): (-1, ("x", 1)), (3, 7): (-1, ("x", 2)), (3, 8): (1, ("y", 2)),
        (4, 5): (-1, ("x", 0)), (4, 8): (-1, ("x", 2)), (4, 9): (-1, ("x", 3)),
    }
    got = {key: entry(*key) for key in m1}
    assert got == printed


def test_hirzebruch1_square_zero_and_acyclic_small(gf):
    rep = hirzebruch1_report(gf, 0, 2)
    assert rep["square_zero"] and rep["acyclic_positive"] and rep["h0_hilbert"]


def test_hirzebruch1_rational_mode_small():
    rep = hirzebruch1_report(QQ(), 0, 2)
    assert rep["square_zero"] and rep["acyclic_positive"] and rep["h0_hilbert"]


def test_hirzebruch1_h0_deep(gf):
    cx = hirzebruch1_diagonal(gf)
    for d in [(2, 2), (3, 3)]:
        for dp in [(2, 2), (2, 3)]:
            want = len(monomial_basis(cx.stack, deg_add(d, dp)))
            assert cx.homology(0, (d, dp)) == want


@pytest.mark.parametrize("field", [GF(), QQ()], ids=["gf", "qq"])
def test_hirzebruch1_block_columns_match_label_lookup(field):
    # columns read off the entry arrays, and ranks by components or by
    # elimination, against label lookup and sparse_rank
    cx = hirzebruch1_diagonal(field)
    for bid in hirz1_bids(0, 2):
        for i in (1, 2, 3):
            ref = reference_columns(cx, i, bid)
            assert cx.sparse_columns(i, bid) == ref
            assert union_rank(cx, i, [bid]) == sparse_rank(field, ref)


@pytest.mark.parametrize("build", [build_F, build_F_prime_weighted])
def test_koszul_block_columns_match_label_lookup(p12, build):
    for field in (GF(), QQ()):
        cx = build(p12, field)
        for bid in bids(0, 5):
            for i in range(1, p12.nvars + 2):
                ref = reference_columns(cx, i, bid)
                assert cx.sparse_columns(i, bid) == ref
                assert union_rank(cx, i, [bid]) == sparse_rank(field, ref)


def _counting_sparse_rank(monkeypatch):
    calls = []

    def counted(field, rows):
        calls.append(len(rows))
        return sparse_rank(field, rows)

    monkeypatch.setattr(linalg, "sparse_rank", counted)
    return calls


@pytest.mark.parametrize("field", [GF(), GF(2147483647), QQ()], ids=repr)
@pytest.mark.parametrize("change", ["none", "coefficient 2", "one entry", "three entries"])
def test_rank_route(p1, field, change, monkeypatch):
    # d_1 of F on P1 is a signed graph and is ranked by components; a
    # coefficient 2, a column with one entry or one with three sends it to
    # sparse_rank. Either way the rank is sparse_rank's on the same columns.
    # Its 40 entries are under linalg.SMALL_ENTRIES, so the threshold is
    # lowered for the graph route to be taken
    monkeypatch.setattr(linalg, "SMALL_ENTRIES", 0)

    class Changed(DiagComplex):
        def _terms(self, key):
            out = super()._terms(key)
            if key[0] != 1:
                return out
            (yk, ys, yx, yy), xterm = out
            if change == "coefficient 2":
                return [(yk, 2 * ys, yx, yy), xterm]
            if change == "one entry":
                return [xterm]
            if change == "three entries":
                return out + [(yk, ys, yx, (0, 1))]  # y1 has the degree of y0
            return out

    cx = Changed(p1, field)
    bid = ((2,), (2,))
    cols = cx.sparse_columns(1, bid)
    assert (cols == reference_columns(cx, 1, bid)) == (change == "none")
    calls = _counting_sparse_rank(monkeypatch)
    assert union_rank(cx, 1, [bid]) == sparse_rank(field, cols)
    assert len(calls) == (change != "none")


def test_hirzebruch1_second_map_is_eliminated(gf, monkeypatch):
    # d_2 of the Hirzebruch-1 resolution has four terms per column, so at a
    # bidegree deep enough for every term to land it is no signed graph; it
    # peels completely, and sparse_rank is handed an empty core
    cx = hirzebruch1_diagonal(gf)
    calls = _counting_sparse_rank(monkeypatch)
    bid = ((2, 2), (2, 2))
    e = diagonal._Map(cx, 2, [bid]).entries([0])
    peeled, core = peel(e.ri, e.ci, cx.dim(1, bid), cx.dim(2, bid))
    assert peeled == cx.dim(2, bid) > 0 and not core.any()
    assert cx.homology(1, bid) == 0
    assert calls == [0]


def test_a_small_diagonal_run_is_eliminated_whole(p1, gf, monkeypatch):
    # d_1 of F on P1 at (2, 2) is a signed graph of 40 entries, at most
    # linalg.SMALL_ENTRIES: linalg.rank hands all its columns to sparse_rank
    # and counts no components
    cx, bid = DiagComplex(p1, gf), ((2,), (2,))
    dmap = diagonal._Map(cx, 1, [bid])
    assert dmap.graph.tolist() == [True]
    assert len(dmap.entries([0]).vals) == 40 <= linalg.SMALL_ENTRIES
    graphs = []
    monkeypatch.setattr(linalg, "signed_graph_rank", lambda *args: graphs.append(args) or None)
    calls = _counting_sparse_rank(monkeypatch)
    cols = reference_columns(cx, 1, bid)
    assert dmap.rank([0]) == sparse_rank(gf, cols)
    assert calls == [len(cols)] and graphs == []


def test_hirzebruch1_square_zero_per_bidegree(gf):
    cx = hirzebruch1_diagonal(gf)
    for bid in hirz1_bids(0, 2):
        assert composes_to_zero(gf, cx.sparse_columns(1, bid), cx.sparse_columns(2, bid))


def test_hirzebruch1_square_zero_rejects_inhomogeneous_term(gf):
    # the realization drops a term of the wrong bidegree, so every realized
    # composition still vanishes; only the symbolic check sees it
    cx = hirzebruch1_diagonal(gf)
    assert cx.check_square_zero()
    cx.matrices[2][(1, 0)] = cx.matrices[2][(1, 0)] + [(1, (2, 0, 0, 0), (0, 0, 0, 0))]
    assert not cx.check_square_zero()
    for bid in hirz1_bids(0, 2):
        assert composes_to_zero(gf, cx.sparse_columns(1, bid), cx.sparse_columns(2, bid))


def test_hirzebruch1_square_zero_rejects_wrong_twist(gf):
    # x0 times a whole column still composes to zero, but no longer has
    # the bidegree of the column's twist
    cx = hirzebruch1_diagonal(gf)
    m2 = cx.matrices[2]
    for key in [k for k in m2 if k[1] == 0]:
        m2[key] = [(c, deg_add(tx, (1, 0, 0, 0)), ty) for c, tx, ty in m2[key]]
    assert not cx.check_square_zero()


def test_hirzebruch1_square_zero_rejects_sign_flip(gf):
    cx = hirzebruch1_diagonal(gf)
    (c, tx, ty), = cx.matrices[2][(1, 0)]
    cx.matrices[2][(1, 0)] = [(-c, tx, ty)]
    assert not cx.check_square_zero()


# -- ranks over a list of bidegrees ----------------------------------------------

FIELDS = [GF(), GF(2147483647), QQ()]
# +-1, other values, and values that are +-1 mod one prime only
COEFFICIENTS = [1, -1, 2, -3, 32002, 32004, 2147483646]


def _degree(stack, e):
    return tuple(sum(k * d[j] for k, d in zip(e, stack.var_degrees)) for j in range(stack.r))


@st.composite
def explicit_complexes(draw):
    """Twists of F_0, F_1, F_2 on P1 x P1 or Hirzebruch-1 and maps d_1, d_2
    with 1-4 image terms per column (no complex: d_1 d_2 need not vanish).
    A column's first term, 1 or a variable in x and in y, fixes its twist;
    column 0 and half the others start as a signed-graph edge: +-1 on two
    monomials of the same bidegree into one row. Further terms are
    homogeneous where a monomial of the right bidegree exists, else they
    never land. Some terms repeat an earlier one with a coefficient that
    cancels it in every field or mod 32003 only."""
    stack = draw(st.sampled_from([toric.p1xp1(), toric.hirzebruch(1)]))
    n = stack.nvars
    variables = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    linear = st.sampled_from([(0,) * n] + variables)
    coefficient = st.sampled_from(COEFFICIENTS)
    twists = {0: [(_degree(stack, draw(linear)), _degree(stack, draw(linear)))
                  for _ in range(draw(st.integers(1, 3)))]}
    matrices = {}
    for i in (1, 2):
        rows, cols, entries = twists[i - 1], [], {}
        for col in range(draw(st.integers(1, 3))):
            # column 0 is an edge on row 0 (x0 and x2 have one degree on
            # both stacks), so that a bidegree where the other columns are
            # empty is a signed graph
            first = 0 if col == 0 else draw(st.integers(0, len(rows) - 1))
            tx = draw(st.sampled_from(variables[::2]) if col == 0 else linear)
            ty = draw(linear)
            vx, vy = deg_add(rows[first][0], _degree(stack, tx)), deg_add(rows[first][1], _degree(stack, ty))
            cols.append((vx, vy))
            twins = [(a, b) for a in monomial_basis(stack, _degree(stack, tx))
                     for b in monomial_basis(stack, _degree(stack, ty)) if (a, b) != (tx, ty)]
            if col == 0 or twins and draw(st.booleans()):
                # +-1 on two monomials of the same bidegree
                unit = st.sampled_from([1, -1])
                terms = [(first, draw(unit), tx, ty), (first, draw(unit)) + draw(st.sampled_from(twins))]
            else:
                terms = [(first, draw(coefficient), tx, ty)]
            for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
                r = draw(st.integers(0, len(rows) - 1))
                xs = monomial_basis(stack, tuple(a - b for a, b in zip(vx, rows[r][0])))
                ys = monomial_basis(stack, tuple(a - b for a, b in zip(vy, rows[r][1])))
                tx = draw(st.sampled_from(xs)) if xs else draw(linear)
                ty = draw(st.sampled_from(ys)) if ys else draw(linear)
                terms.append((r, draw(coefficient), tx, ty))
            if draw(st.integers(0, 3)) == 0:
                r, c, tx, ty = draw(st.sampled_from(terms))
                terms.append((r, draw(st.sampled_from([-c, 32003 - c])), tx, ty))
            for r, c, tx, ty in terms:
                entries.setdefault((r, col), []).append((c, tx, ty))
        twists[i], matrices[i] = cols, entries
    return stack, twists, matrices


def _bidegree_lists(r, lo, hi):
    deg = st.tuples(*[st.integers(lo, hi)] * r)
    return st.lists(st.tuples(deg, deg), min_size=1, max_size=8)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=explicit_complexes(), bids=_bidegree_lists(2, 0, 3))
def test_explicit_ranks_over_a_bidegree_list(field, data, bids):
    stack, twists, matrices = data
    cx = ExplicitBigradedComplex(stack, field, twists, matrices)
    for i in (1, 2, 3):
        want = sum(sparse_rank(field, reference_columns(cx, i, b)) for b in bids)
        assert union_rank(cx, i, bids) == want


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(stack=st.sampled_from([toric.projective_space(1), toric.weighted_projective(1, 2)]),
       build=st.sampled_from([build_F, build_F_prime_weighted]), bids=_bidegree_lists(1, -1, 5))
def test_koszul_ranks_over_a_bidegree_list(field, stack, build, bids):
    cx = build(stack, field)
    for i in range(1, stack.nvars + 2):
        want = sum(sparse_rank(field, reference_columns(cx, i, b)) for b in bids)
        assert union_rank(cx, i, bids) == want


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_run_mixes_graph_and_other_bidegrees(field, monkeypatch):
    # a coefficient 2 in column u0 g1 of the Hirzebruch-1 d_1: the bidegrees
    # where that column's block is empty are still ranked by components,
    # together, and the others by elimination, together. The graph
    # bidegrees hold 40 entries, under linalg.SMALL_ENTRIES, so the threshold
    # is lowered for the graph route to be taken; graphs records the calls
    # that the component count answers
    monkeypatch.setattr(linalg, "SMALL_ENTRIES", 0)
    cx = hirzebruch1_diagonal(field)
    cx.matrices[1][(1, 6)] = [(2, (0,) * 4, (0, 1, 0, 0))]
    bids = [((0, 0), (0, 0)), ((2, 2), (2, 2)), ((1, 1), (2, 0)), ((3, 2), (2, 3))]
    dmap = diagonal._Map(cx, 1, bids)
    assert dmap.graph.tolist() == [True, False, True, False]
    graphs = []

    def counted(*args):
        rk = signed_graph_rank(*args)
        if rk is not None:
            graphs.append(args[3])
        return rk

    monkeypatch.setattr(linalg, "signed_graph_rank", counted)
    calls = _counting_sparse_rank(monkeypatch)
    want = sum(sparse_rank(field, reference_columns(cx, 1, b)) for b in bids)
    calls.clear()
    assert dmap.rank(range(len(bids))) == want
    assert graphs == [cx.dim(1, bids[0]) + cx.dim(1, bids[2])] and len(calls) == 1


def test_acyclicity_locates_a_defect_past_the_first_run(p12, gf, monkeypatch):
    # a term of d_1 dropped for a = 3 only: the first failing (i, bid) of a
    # scan bidegree by bidegree lies inside a run past the first, not at its
    # start, and check_acyclicity finds the same one
    monkeypatch.setattr(diagonal, "_RUN_ENTRIES", 200)

    class DropsLate(DiagComplex):
        def _terms(self, key):
            out = super()._terms(key)
            return out[:1] if bin(key[0]).count("1") == 1 and key[1] == (3,) else out

    cx = DropsLate(p12, gf)
    box = [((c,), (d,)) for d in range(7) for c in range(7)]
    degrees = range(1, p12.nvars + 1)
    scan = next((i, bid) for bid in box for i in degrees if cx.homology(i, bid))
    runs = [run for run, _ in cx._homologies(box, degrees)]
    k = next(k for k, run in enumerate(runs) if scan[1] in run)
    assert k > 0 and runs[k][0] != scan[1]
    assert check_acyclicity(cx, box, report=True) == (False, scan)
    assert check_acyclicity(cx, box) is False
    assert check_acyclicity(build_F(p12, gf), box, report=True) == (True, None)
