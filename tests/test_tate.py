import gc
import itertools
import json
import os
import re
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from torictate import laurent, linalg, tate
from torictate.cli import main, parse_input
from torictate.cohomology import CechOracle, cohomology_table_fast, oracle_table
from torictate.diffmod import (EMatrix, FreeDiffModule, _add_block, _summed, check_minimal,
                               check_square_zero, homology_column, minimize)
from torictate.errors import PreconditionError, StabilizationError
from torictate.exterior import OmegaTwist, Runs, socle_readoff
from torictate.laurent import CechComplex
from torictate.linalg import GF, QQ
from torictate.smodule import (Poly, Presentation, monomial_basis, realize)
from torictate.tate import (beilinson_U, check_exactness_property, check_R_embedding,
                            fm_transform, head_submodule, safe_degrees, tate_weighted)
from torictate.toric import Window, deg_add, deg_neg, deg_sub, weighted_projective

from dictform import dict_module, entries_of


def cech_totalization_dm(pres, stack, window, field, t):
    """The uncontracted totalization of the Cech bicomplex as an explicit
    free differential module (small windows only; used for cross-checks
    against the transferred minimal model): the strands' Cech maps are
    vertical, and the horizontal blocks carry x_i (x) e_i."""
    cx = CechComplex(stack, field, pres, stack.cover, t)
    runs = Runs()
    sums = {}
    offsets = {}  # per degree: the offset of each level of its strand
    for a in window.points():
        dims, mats = cx.strand(a, extended=False)
        offsets[a] = [len(runs.gens)]
        for level, n in enumerate(dims):
            if n:
                runs.append(OmegaTwist(deg_neg(a), level), n)
            offsets[a].append(len(runs.gens))
        for level, m in enumerate(mats):
            _add_block(sums, runs, offsets[a][level + 1], offsets[a][level], field.array(m), 0, 1)
    for a in window.points():
        for i in range(stack.nvars):
            b = deg_add(a, stack.var_degrees[i])
            if b in window:
                _add_block(sums, runs, offsets[b][0], offsets[a][0],
                           cx.horizontal_block(a, i), 1 << i, 1)
    return FreeDiffModule(stack, field, runs, _summed(field, sums), safe=safe_degrees(stack, window),
                          validate=True)


def counted(gens):
    return Counter(gens)


def test_tate_weighted_p112_structure_sheaf(p112, gf):
    res = tate_weighted(Presentation.free([(0,)]), p112, Window((-8,), (8,)), gf)
    cnt = counted(res.T.gens)
    assert cnt[OmegaTwist((4,), 2)] == 1
    assert cnt[OmegaTwist((0,), 0)] == 1
    assert cnt[OmegaTwist((-1,), 0)] == 2
    assert cnt[OmegaTwist((-2,), 0)] == 4
    # single tail-to-head map via e0 e1 e2
    head = [i for i, tw in enumerate(res.T.gens) if tw == OmegaTwist((0,), 0)]
    tail = [i for i, tw in enumerate(res.T.gens) if tw == OmegaTwist((4,), 2)]
    entry = entries_of(res.T).get((head[0], tail[0]))
    assert entry is not None and set(entry) == {0b111}
    assert check_minimal(res.T)
    assert check_square_zero(res.T)


def test_tate_weighted_stacky_point(p112, gf):
    pres = Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0)])
    res = tate_weighted(pres, p112, Window((-6,), (6,)), gf)
    for a in range(-6, 7):
        assert res.entry(0, (a,)) == (1 if a % 2 == 0 else 0)
        assert res.entry(1, (a,)) == 0
        assert res.entry(2, (a,)) == 0


def test_tate_weighted_genus_one(p112, gf):
    f = Poly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 2))])
    res = tate_weighted(Presentation.quotient(p112, [f]), p112, Window((-6,), (6,)), gf)
    cnt = counted(res.T.gens)
    assert [cnt[OmegaTwist((j,), 1)] for j in range(0, 4)] == [1, 2, 4, 6]
    assert res.entry(1, (0,)) == 1


def test_tate_table_is_readoff(p112, gf):
    res = tate_weighted(Presentation.free([(0,)]), p112, Window((-6,), (6,)), gf)
    full = socle_readoff(p112, res.T.gens)
    for key, v in res.table.items():
        assert full[key] == v


def test_tate_weighted_exactness(p112, p12, gf):
    for stack in (p112, p12):
        res = tate_weighted(Presentation.free([(0,)]), stack, Window((-8,), (8,)), gf)
        for a in sorted(res.T.safe):
            assert homology_column(res.T, a) == {}


def test_tate_weighted_equals_oracle(p112, gf):
    res = tate_weighted(Presentation.free([(0,)]), p112, Window((-8,), (8,)), gf)
    s = realize(Presentation.free([(0,)]), p112, Window((-12,), (12,)), gf)
    ot = oracle_table(s, p112, [(a,) for a in range(-8, 9)])
    for a in range(-8, 9):
        for i in range(0, 3):
            assert res.entry(i, (a,)) == ot.get((i, (a,)), 0)


def test_filtration_block_triangular(p112, gf):
    # the differential of a minimal Tate module never raises the auxiliary
    # level of generators
    res = tate_weighted(Presentation.free([(0,)]), p112, Window((-8,), (8,)), gf)
    for (s, t) in entries_of(res.T):
        assert res.T.gens[s].aux <= res.T.gens[t].aux


def test_fm_p1_classical(p1, gf):
    res = fm_transform(Presentation.free([(0,)]), p1, Window((-5,), (5,)), gf)
    for a in range(-5, 6):
        assert res.entry(0, (a,)) == max(0, a + 1)
        assert res.entry(1, (a,)) == max(0, -a - 1)
    assert check_square_zero(res.T, degrees=sorted(res.T.safe))


@pytest.mark.parametrize("weights", [(1, 1, 2), (1, 2), (1, 5, 6)])
def test_weighted_tate_table_is_the_fast_table_in_the_window(weights, gf):
    # the section rows are checked inside the window only, so a window whose
    # low end is above the truncation has a Tate table too, and both tables
    # stop at the window
    stack = weighted_projective(*weights)
    x0 = (1,) + (0,) * (len(weights) - 1)
    for pres in (Presentation.free([(0,)]), Presentation.quotient(stack, [x0])):
        for lo, hi, d in itertools.product(range(-2, 4), range(0, 5), (None, 1, 3)):
            if lo <= hi:
                window = Window((lo,), (hi,))
                assert tate_weighted(pres, stack, window, gf, d=d).table == \
                    cohomology_table_fast(pres, stack, window, gf, d=d), (pres, lo, hi, d)


def test_fm_matches_weighted_p112(p112, gf):
    fm = fm_transform(Presentation.free([(0,)]), p112, Window((-6,), (6,)), gf)
    tw = tate_weighted(Presentation.free([(0,)]), p112, Window((-8,), (8,)), gf)
    for a in range(-6, 7):
        for i in range(0, 3):
            assert fm.entry(i, (a,)) == tw.entry(i, (a,))


def test_fm_dense_path_matches_strand_path(p112, hirz3):
    # T through the dense walk (the path of non-monomial presentations) and
    # through the strand walk: the same generators, and each a minimal
    # exact differential module on its safe degrees; on P(1,1,2) the window
    # reaches H^2 at -4, whose map to H^0 needs the walk's continuation
    for pres, stack, window, t in ((Presentation.free([(0,)]), p112, Window((-4,), (4,)), 4),
                                   (hirz3_H(hirz3), hirz3, Window((-2, -1), (3, 1)), 2)):
        for field in (GF(), QQ()):
            strand = fm_transform(pres, stack, window, field).T
            _, build = tate._transfer(pres, stack, window, field, t)
            gens, walk = build()
            dense = FreeDiffModule(stack, field, gens, walk(), safe=tate.safe_degrees(stack, window),
                                   validate=True)
            assert Counter(dense.gens) == Counter(strand.gens)
            for T in (strand, dense):
                assert T.safe and check_square_zero(T) and check_minimal(T)
                assert all(homology_column(T, a) == {} for a in sorted(T.safe))


def test_fm_hirzebruch_against_oracle(hirz3, gf):
    res = fm_transform(Presentation.free([(0, 0)]), hirz3, Window((-5, -4), (5, 4)), gf)
    s = realize(Presentation.free([(0, 0)]), hirz3, Window((-12, -8), (12, 10)), gf)
    ot = oracle_table(s, hirz3, sorted(res.T.safe))
    for a in sorted(res.T.safe):
        for i in range(0, 3):
            assert res.entry(i, a) == ot.get((i, a), 0)
    assert check_square_zero(res.T, degrees=sorted(res.T.safe))
    for a in sorted(res.T.safe):
        assert homology_column(res.T, a) == {}


def test_exactness_properties_p1xp1(p1p1, gf):
    res = fm_transform(Presentation.free([(0, 0)]), p1p1, Window((-4, -4), (4, 4)), gf)
    assert check_exactness_property(res.T, p1p1, {0, 2}) is True
    assert check_exactness_property(res.T, p1p1, {1, 3}) is True
    assert check_exactness_property(res.T, p1p1, {0, 1}) == "not-applicable"


def test_exactness_properties_hirzebruch(hirz3, gf):
    res = fm_transform(Presentation.free([(0, 0)]), hirz3, Window((-5, -4), (5, 4)), gf)
    assert check_exactness_property(res.T, hirz3, {0, 2}) is True
    assert check_exactness_property(res.T, hirz3, {1, 3}) is True
    assert check_exactness_property(res.T, hirz3, {0, 1}) == "not-applicable"


def test_exactness_full_subset_weighted(p112, gf):
    res = tate_weighted(Presentation.free([(0,)]), p112, Window((-6,), (6,)), gf)
    assert check_exactness_property(res.T, p112, {0, 1, 2}) is True


def test_minimize_of_cech_totalization(p1, gf):
    # the explicit totalization minimizes to the classical generator multiset
    phi = cech_totalization_dm(Presentation.free([(0,)]), p1, Window((-4,), (4,)), gf, 8)
    assert check_square_zero(phi, degrees=sorted(phi.safe))
    mini = minimize(phi)
    cnt = counted(tw for tw in mini.gens if -4 <= -tw.cl[0] <= 4)
    for a in range(-4, 5):
        want0 = max(0, a + 1)
        want1 = max(0, -a - 1)
        assert cnt[OmegaTwist((-a,), 0)] == want0
        assert cnt[OmegaTwist((-a,), 1)] == want1
    # homology columns on the safe region are unchanged: still exact
    for a in sorted(phi.safe):
        assert homology_column(phi, a) == {}


def test_r_embedding(p112, gf):
    res = tate_weighted(Presentation.free([(0,)]), p112, Window((-8,), (8,)), gf)
    m = realize(Presentation.free([(0,)]), p112, Window((0,), (8,)), gf)
    assert check_R_embedding(res, m)
    pres = Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0)])
    res2 = tate_weighted(pres, p112, Window((-6,), (6,)), gf)
    m2 = realize(pres, p112, Window((0,), (8,)), gf)
    assert check_R_embedding(res2, m2)


def test_r_embedding_precondition(p112, gf):
    res = tate_weighted(Presentation.free([(0,)]), p112, Window((-6,), (6,)), gf)
    # a module with B-torsion: S/(x0, x1, x2^2) has finite length
    tors = realize(Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0), (0, 0, 2)]),
                   p112, Window((0,), (6,)), gf)
    with pytest.raises(PreconditionError):
        check_R_embedding(res, tors)


def test_head_submodule_closed(p112, gf):
    res = tate_weighted(Presentation.free([(0,)]), p112, Window((-8,), (8,)), gf)
    head = head_submodule(res.T)
    assert all(tw.aux == 0 for tw in head.gens)


def test_head_submodule_rejects_a_map_out_of_the_head(p112, gf):
    # an aux-0 generator whose differential reaches an aux-(-1) generator
    gens = [OmegaTwist((0,), 0), OmegaTwist((-1,), -1), OmegaTwist((-1,), 0)]
    with pytest.raises(AssertionError):
        head_submodule(dict_module(p112, gf, gens, {(1, 0): {0b001: 1}}, validate=False))
    # the reverse direction, into the head, is dropped with its source
    head = head_submodule(dict_module(p112, gf, gens, {(2, 1): {0b001: 1}}, validate=False))
    assert head.gens == [gens[0], gens[2]] and not head.d


def test_beilinson_u_p1(p1, gf):
    res = tate_weighted(Presentation.free([(0,)]), p1, Window((-10,), (8,)), gf)
    cx = beilinson_U(res.T, p1, [(c,) for c in range(0, 6)])
    for c in range(0, 6):
        for j in cx.js():
            want = c + 1 if j == 0 else 0
            assert cx.homology(j, (c,)) == want


def test_beilinson_u_p12(p12, gf):
    res = tate_weighted(Presentation.free([(0,)]), p12, Window((-10,), (8,)), gf)
    cx = beilinson_U(res.T, p12, [(c,) for c in range(0, 6)])
    for c in range(0, 6):
        for j in cx.js():
            want = len(monomial_basis(p12, (c,))) if j == 0 else 0
            assert cx.homology(j, (c,)) == want


def test_beilinson_u_zero(p1, gf):
    empty = FreeDiffModule(p1, gf, [], EMatrix(gf), safe=[])
    cx = beilinson_U(empty, p1, [(0,), (1,)])
    assert all(cx.dim(j, (c,)) == 0 for j in cx.js() for c in [(0,), (1,)])


def test_fm_monomial_quotient_matches_weighted(p112, gf):
    # the stacky point through the strand pipeline's quotient branch
    pres = Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0)])
    fm = fm_transform(pres, p112, Window((-4,), (4,)), gf)
    tw = tate_weighted(pres, p112, Window((-6,), (6,)), gf)
    for a in range(-4, 5):
        for i in range(0, 3):
            assert fm.entry(i, (a,)) == tw.entry(i, (a,))


def genus_one(stack):
    # the genus-one hypersurface module on P(1,1,2), a non-monomial relation
    return Presentation.quotient(stack, [Poly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 2))])])


def test_fm_nonmonomial_dense(p112, gf):
    # the genus-one hypersurface module through the dense Cech pipeline
    pres = genus_one(p112)
    res = fm_transform(pres, p112, Window((-3,), (3,)), gf)
    tw = tate_weighted(pres, p112, Window((-6,), (6,)), gf)
    for a in range(-3, 4):
        for i in range(0, 3):
            assert res.entry(i, (a,)) == tw.entry(i, (a,))


def hirz3_H(stack):
    # module H of fixtures/hirz3.tate: S / (x0 x1)
    return Presentation.quotient(stack, [(1, 1, 0, 0)])


def recorded_strand_types(monkeypatch):
    """Make every MonomialStrands built in tate append itself to the list."""
    made = []

    class Recording(laurent.MonomialStrands):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(tate, "MonomialStrands", Recording)
    return made


def assert_retract_identities(field, ret):
    """u h + h u = 1 - i p, p i = 1, p h = 0, h i = 0 and h h = 0, where u
    is the strand's Cech differential."""
    total = sum(ret.dims)
    u = field.zeros(total, total)
    for lvl, m in enumerate(ret.maps):
        if ret.dims[lvl] and ret.dims[lvl + 1]:
            u[ret.offsets[lvl + 1]:ret.offsets[lvl + 2], ret.offsets[lvl]:ret.offsets[lvl + 1]] = m

    def zero(m):
        return not np.any(field.reduce(m))

    mul = field.matmul
    i, p, h = ret.i, ret.p, ret.h
    assert zero(mul(u, h) + mul(h, u) - np.eye(total, dtype=np.int64) + mul(i, p))
    assert zero(mul(p, i) - np.eye(p.shape[0], dtype=np.int64))
    assert zero(mul(p, h)) and zero(mul(h, i)) and zero(mul(h, h))


def test_strand_retract_identities(hirz3, p1p1, gf, monkeypatch):
    # the transfer walk precomposes p and h with the cell transport, which
    # relies on these identities for every cached pattern retract; reading T
    # runs the walk, which builds the retracts of the sources and of the
    # patterns it reaches (a pattern without homology is never a source).
    # The oracle ranks the same pattern complex instead of contracting it,
    # so both routes must find the same homology per Cech level.
    made = recorded_strand_types(monkeypatch)
    fm_transform(hirz3_H(hirz3), hirz3, Window((-2, -1), (2, 1)), gf).T
    fm_transform(Presentation.free([(0, 0)]), p1p1, Window((-3, -3), (3, 3)), gf).T
    assert [len(types._retracts) for types in made] == [11, 16]
    for types in made:
        for cs, (ret, _) in types._retracts.items():
            assert_retract_identities(gf, ret)
            assert types.homology(False, cs)[1:] == \
                [ret.hlabels.count(lvl) for lvl in range(types.nlevels)]


def test_strand_retract_eliminates_each_map_once(hirz3, gf, monkeypatch):
    # a retract reads a level's pivots and kernel off one rref of its map;
    # the only other eliminations are the change of basis (an rref) and,
    # where the kernel is nonzero, the choice of homology representatives
    # (independent_columns, by forward insertion)
    echelon, choose, build = linalg._echelon, laurent.independent_columns, laurent._build_retract
    built = []  # (dims, maps, eliminations while building)
    inside = []

    def counting_echelon(*args):
        if inside:
            inside[-1] += 1
        return echelon(*args)

    def counting_choice(field, base, candidates):
        if inside and candidates.shape[1]:
            inside[-1] += 1
        return choose(field, base, candidates)

    def recording_build(field, dims, maps):
        inside.append(0)
        try:
            return build(field, dims, maps)
        finally:
            built.append((dims, maps, inside.pop()))

    monkeypatch.setattr(linalg, "_echelon", counting_echelon)
    monkeypatch.setattr(laurent, "independent_columns", counting_choice)
    monkeypatch.setattr(laurent, "_build_retract", recording_build)
    fm_transform(hirz3_H(hirz3), hirz3, Window((-2, -1), (2, 1)), gf).T
    monkeypatch.undo()
    assert len(built) == 11
    for dims, maps, calls in built:
        want = 0
        for lvl, n in enumerate(dims):
            if n:
                u = maps[lvl] if lvl < len(dims) - 1 else gf.zeros(0, n)
                want += 2 + (len(linalg.rref(gf, u)[1]) < n)
        assert calls == want


@pytest.mark.parametrize("field", [GF(), GF(2**31 - 1), QQ()], ids=["gf32003", "gf2^31-1", "qq"])
def test_dense_retract_identities(field, p112, hirz3):
    # the dense transfer walk relies on the same identities for the retract
    # of every degree it can reach: the window expanded by the subset sums
    for pres, stack, window, t in ((genus_one(p112), p112, Window((-2,), (2,)), 2),
                                   (hirz3_H(hirz3), hirz3, Window((-1, -1), (1, 1)), 2)):
        cx = laurent.CechComplex(stack, field, pres, stack.cover, t)
        sums = stack.subset_sums()
        box = window.expand(tuple(map(min, zip(*sums))), tuple(map(max, zip(*sums))))
        rets = [laurent._build_retract(field, *cx.strand(a, extended=False))
                for a in box.points()]
        assert any(ret.i.shape[1] for ret in rets) and any(np.any(ret.h) for ret in rets)
        for ret in rets:
            assert_retract_identities(field, ret)


def test_dense_walk_builds_each_horizontal_block_once(p112, gf, monkeypatch):
    # the walk reaches a (degree, variable) pair from many sources; its
    # block is built on the first visit only
    calls = []
    block = laurent.CechComplex.horizontal_block

    def counted_block(self, a, i):
        calls.append((a, i))
        return block(self, a, i)

    monkeypatch.setattr(laurent.CechComplex, "horizontal_block", counted_block)
    _, build = tate._transfer(genus_one(p112), p112, Window((-3,), (3,)), gf, 8)
    _, walk = build()
    assert walk()
    assert calls and len(calls) == len(set(calls))


def test_dense_pieces_live_as_long_as_their_strand(monkeypatch):
    # a dense strand reads only its own degree's localized pieces: once the
    # oracle has answered a window, or the Fourier-Mukai table is read, no
    # LocalizedModule is left alive, though the oracle and the result are
    with open(os.path.join(os.path.dirname(__file__), "..", "fixtures", "p1p1-curves.tate")) as fh:
        stack, field, modules = parse_input(json.load(fh))
    alive = weakref.WeakSet()
    made = []
    init = laurent.LocalizedModule.__init__

    def registered(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.add(self)
        made.append(None)

    monkeypatch.setattr(laurent.LocalizedModule, "__init__", registered)
    window = Window((-1, -1), (1, 1))
    oracle = CechOracle(realize(modules["C1"], stack, window, field))
    assert any(any(oracle.sheaf_dims(a)) for a in window.points())
    gc.collect()
    assert made and not alive
    before = len(made)
    result = fm_transform(modules["C2"], stack, window, field)
    assert result.table
    gc.collect()
    assert len(made) > before and not alive


def test_strand_cellset_clamp_and_thresholds(hirz3, gf):
    # cellset keys its cache by a clamped exponent, and the transfer walk
    # keeps the current pattern while no coordinate crosses a threshold;
    # both are checked against the cell-survival rule on unclamped exponents
    types = laurent.MonomialStrands(
        hirz3, gf, Presentation.quotient(hirz3, [(1, 1, 0, 0), (0, 2, 0, 3)]), hirz3.cover)

    def survivors(e):
        neg = {i for i, x in enumerate(e) if x < 0}
        return frozenset(ci for ci, (_, _, union) in enumerate(types.cells)
                         if neg <= union and not any(
                             all(g[i] <= e[i] for i in range(4) if i not in union)
                             for g in types.rels))

    for e in itertools.product(range(-2, 5), repeat=4):
        assert types.cellset(e) == survivors(e)
        for i in range(4):
            e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
            if e2[i] not in types.thresholds[i]:
                assert survivors(e2) == survivors(e)


def test_fm_transform_builds_the_monomial_transfer_once(hirz3, p1p1, gf, monkeypatch):
    # a monomial presentation's strands are enumerated exactly, pattern by
    # pattern, so fm_transform builds its transfer once, with or without
    # relations, instead of comparing exponent bounds
    calls = []
    inner = tate._monomial_transfer

    def counted_transfer(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tate, "_monomial_transfer", counted_transfer)
    for pres, stack, window in ((Presentation.free([(0, 0)]), p1p1, Window((-3, -3), (3, 3))),
                                (hirz3_H(hirz3), hirz3, Window((-2, -1), (2, 1)))):
        calls.clear()
        assert fm_transform(pres, stack, window, gf).gens
        assert len(calls) == 1


def _per_exponent_gens(pres, stack, window, field):
    """The monomial generators as the transfer built them before the table
    was counted: per window degree, per source exponent in sorted order, one
    per homology label of the exponent's pattern retract."""
    types = laurent.MonomialStrands(stack, field, pres, stack.cover)
    gens = []
    for a in window.points():
        inner = deg_sub(a, types.gshift)
        for e in sorted(e for pattern, _, _ in types.contributing(False)
                        for e in laurent.signed_exponents(stack, inner, pattern)):
            ret = types.retract(types.cellset(e))[0]
            gens += [OmegaTwist(deg_neg(a), lvl) for lvl in ret.hlabels]
    return gens


@pytest.mark.parametrize("field", [GF(), QQ()], ids=["gf", "qq"])
def test_monomial_table_is_counted_and_gens_built_on_read(field, hirz3, p1p1, monkeypatch):
    # the table counts each contributing pattern's exponents: no exponent's
    # cellset is looked up and no generator is built until gens is read
    callers, twists = [], []
    cellset = laurent.MonomialStrands.cellset

    def recording_cellset(self, e):
        callers.append(sys._getframe(1).f_code.co_name)
        return cellset(self, e)

    def counted_twist(*args):
        twists.append(args)
        return OmegaTwist(*args)

    monkeypatch.setattr(laurent.MonomialStrands, "cellset", recording_cellset)
    monkeypatch.setattr(tate, "OmegaTwist", counted_twist)
    for pres, stack, window in ((hirz3_H(hirz3), hirz3, Window((-2, -1), (2, 1))),
                                (Presentation.free([(0, 0)]), p1p1, Window((-3, -3), (3, 3)))):
        callers.clear()
        twists.clear()
        res = fm_transform(pres, stack, window, field)
        assert res.table
        assert set(callers) == {"contributing"} and twists == []
        assert res.gens == _per_exponent_gens(pres, stack, window, field)
        assert len(twists) == len(res.gens)
        assert res.table == socle_readoff(stack, res.gens)


def test_fm_dense_path_matches_strand_path_with_relation(hirz3, gf):
    # rank-2 class group with a monomial relation: the strand walk and the
    # dense Cech pipeline give the same generators and socle table
    pres = hirz3_H(hirz3)
    window = Window((-1, -1), (1, 1))
    strand_table, strand_build = tate._monomial_transfer(pres, hirz3, window, gf)
    dense_table, dense_build = tate._transfer(pres, hirz3, window, gf, 2)
    strand_gens, dense_gens = strand_build()[0], dense_build()[0]
    assert strand_gens
    assert Counter(strand_gens) == Counter(dense_gens)
    assert strand_table == dense_table == socle_readoff(hirz3, strand_gens)
    assert dense_table == socle_readoff(hirz3, dense_gens)


def test_cohomology_command_skips_the_transfer_walk(monkeypatch, capsys):
    # the table is read off the generators: the command builds them once and
    # never walks the transfer or builds the differential module
    calls = []
    transfer = tate._monomial_transfer
    init = FreeDiffModule.__init__

    def counted_transfer(*args, **kwargs):
        calls.append("transfer")
        return transfer(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls.append("module")
        init(self, *args, **kwargs)

    monkeypatch.setattr(tate, "_monomial_transfer", counted_transfer)
    monkeypatch.setattr(FreeDiffModule, "__init__", counted_init)
    monkeypatch.setattr(tate, "_add_block", lambda *args: calls.append("block"))
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "p1p1.tate")
    assert main(["cohomology", path]) == 0
    assert capsys.readouterr().out.startswith("0 0,0 1\n")
    assert calls == ["transfer"]


@pytest.mark.parametrize("field", [GF(), QQ()], ids=["gf", "qq"])
def test_fm_result_builds_T_once_from_its_gens(field, hirz3, p1p1, p112):
    # T is built on first read and cached; its generators are the ones the
    # table was read off
    cases = [(Presentation.free([(0, 0)]), hirz3, Window((-5, -4), (5, 4))),
             (Presentation.free([(0, 0)]), p1p1, Window((-3, -3), (3, 3))),
             (hirz3_H(hirz3), hirz3, Window((-2, -1), (2, 1))),
             (genus_one(p112), p112, Window((-2,), (2,)))]
    for pres, stack, window in cases:
        res = fm_transform(pres, stack, window, field)
        assert res.T is res.T
        assert res.gens == res.T.gens
        assert res.table == socle_readoff(stack, res.T.gens)


def test_dense_table_builds_no_retract_and_T_builds_each_once(p1p1, gf, monkeypatch, capsys):
    # the dense table is read off the strand ranks: the cohomology command
    # and a result's table build no retract; reading T builds the retract of
    # each degree its walk reaches, once
    curve = Presentation.quotient(p1p1, [Poly([(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1)),
                                               (1, (0, 1, 1, 0))])])
    degree_of = {}  # id of a strand's maps -> (degree, maps kept alive so the id stays theirs)
    built = []
    strand, build = laurent.CechComplex.strand, laurent._build_retract

    def recording_strand(self, a, extended):
        dims, maps = strand(self, a, extended)
        degree_of[id(maps)] = (a, maps)
        return dims, maps

    def recording_build(field, dims, maps):
        built.append(degree_of[id(maps)][0])
        return build(field, dims, maps)

    monkeypatch.setattr(laurent.CechComplex, "strand", recording_strand)
    for module in (laurent, tate):
        monkeypatch.setattr(module, "_build_retract", recording_build)
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "p1p1-curves.tate")
    assert main(["cohomology", path, "--module", "C1", "--window", "-1:1,-1:1"]) == 0
    assert capsys.readouterr().out
    res = fm_transform(curve, p1p1, Window((0, 0), (1, 1)), gf)
    assert res.table and built == []
    assert res.T.d
    assert built and len(built) == len(set(built))


@pytest.mark.parametrize("name", ["p1", "p2", "p12", "p112", "p156", "hirz1", "hirz3", "p1p1"])
def test_safe_degrees_is_the_window_shrunk_by_the_subset_sums(name, request, rng):
    # the degrees a with a - s in the window for every subset sum s, in
    # window order, as the comprehension over the window listed them
    stack = request.getfixturevalue(name)
    sums = set(stack.subset_sums())
    for _ in range(20):
        lo = [rng.randrange(-12, 4) for _ in range(stack.r)]
        window = Window(lo, [l + rng.randrange(0, 16) for l in lo])
        want = [a for a in window.points() if all(deg_sub(a, s) in window for s in sums)]
        assert tate.safe_degrees(stack, window) == want


def test_monomial_table_enumerates_no_exponent_until_gens_is_read(monkeypatch):
    # the table of fixtures/hirz3.tate's module H is counted pattern by
    # pattern; reading gens enumerates the exponents, and their Counter is
    # the one the tate command prints (tests/pinned) and equals the table
    with open(os.path.join(os.path.dirname(__file__), "..", "fixtures", "hirz3.tate")) as fh:
        stack, field, modules = parse_input(json.load(fh))
    calls = []
    enumerate_ = laurent.signed_exponents

    def counted(*args):
        calls.append(args)
        return enumerate_(*args)

    # tate holds its own binding of the name, as the bench tracer patches both
    monkeypatch.setattr(laurent, "signed_exponents", counted)
    monkeypatch.setattr(tate, "signed_exponents", counted)
    res = fm_transform(modules["H"], stack, Window((-2, -1), (2, 1)), field)
    assert res.table and calls == []
    gens = Counter((tw.aux, tw.cl) for tw in res.gens)
    assert calls
    with open(os.path.join(os.path.dirname(__file__), "pinned", "tate_hirz3_H.out")) as fh:
        pinned = {(int(u), tuple(int(x) for x in cl.split(","))): int(n)
                  for cl, u, n in re.findall(r"omega_E\(([-\d,]+); (\d+)\)\^(\d+)", fh.read())}
    assert gens == pinned
    assert {(u, deg_neg(cl)): n for (u, cl), n in gens.items()} == res.table


def test_count_exponents_counts_signed_exponents_and_raises_as_they_do(p1, hirz3):
    # an unbounded pattern (x0^e0 x1^e1 with e0 >= 0 > e1 in degree 0 on P1)
    # exits 4 when counted as when enumerated
    degrees = [(a,) for a in range(-4, 3)]
    unbounded = ((0, None), (None, -1))
    with pytest.raises(StabilizationError):
        laurent.signed_exponents(p1, (0,), unbounded)
    with pytest.raises(StabilizationError):
        laurent.count_exponents(p1, degrees, unbounded)
    # e0 + e1 = a with e0, e1 <= -1
    assert laurent.count_exponents(p1, degrees, ((None, -1), (None, -1))) == [3, 2, 1, 0, 0, 0, 0]
    pattern = ((0, None), (None, -1), (0, 2), (0, None))
    degrees = Window((-4, -2), (4, 2)).points()
    want = [len(laurent.signed_exponents(hirz3, d, pattern)) for d in degrees]
    assert any(want) and laurent.count_exponents(hirz3, degrees, pattern) == want
