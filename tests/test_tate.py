import itertools
from collections import Counter

import numpy as np
import pytest

from torictate import tate
from torictate.cohomology import oracle_table
from torictate.diffmod import (check_minimal, check_square_zero,
                               homology_column, minimize)
from torictate.errors import PreconditionError
from torictate.exterior import OmegaTwist, socle_readoff
from torictate.smodule import (Poly, Presentation, monomial_basis, realize)
from torictate.tate import (beilinson_U, cech_totalization_dm,
                            check_exactness_property, check_R_embedding,
                            fm_transform, head_submodule, tate_weighted)
from torictate.toric import Window


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
    entry = res.T.entries.get((head[0], tail[0]))
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
    for (s, t) in res.T.entries:
        assert res.T.gens[s].aux <= res.T.gens[t].aux


def test_fm_p1_classical(p1, gf):
    res = fm_transform(Presentation.free([(0,)]), p1, Window((-5,), (5,)), gf)
    for a in range(-5, 6):
        assert res.entry(0, (a,)) == max(0, a + 1)
        assert res.entry(1, (a,)) == max(0, -a - 1)
    assert check_square_zero(res.T, degrees=sorted(res.T.safe))


def test_fm_matches_weighted_p112(p112, gf):
    fm = fm_transform(Presentation.free([(0,)]), p112, Window((-6,), (6,)), gf)
    tw = tate_weighted(Presentation.free([(0,)]), p112, Window((-8,), (8,)), gf)
    for a in range(-6, 7):
        for i in range(0, 3):
            assert fm.entry(i, (a,)) == tw.entry(i, (a,))


def test_fm_dense_path_matches_strand_path(p112, gf):
    # the dense pipeline (used for non-monomial presentations) agrees with
    # the strand pipeline on a structure sheaf
    strand = fm_transform(Presentation.free([(0,)]), p112, Window((-4,), (4,)), gf)
    dense = fm_transform(Presentation.free([(0,)]), p112, Window((-4,), (4,)), gf, t=8)
    from torictate.tate import _FMData, _transfer
    data = _FMData(p112, gf, Presentation.free([(0,)]), Window((-4,), (4,)), 8)
    gens, entries = _transfer(data, -1)
    assert Counter(gens) == Counter(strand.T.gens)


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
    from torictate.diffmod import FreeDiffModule

    empty = FreeDiffModule(p1, gf, [], {}, safe=[])
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


def test_fm_nonmonomial_dense(p112, gf):
    # the genus-one hypersurface module through the dense Cech pipeline
    f = Poly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 2))])
    pres = Presentation.quotient(p112, [f])
    res = fm_transform(pres, p112, Window((-3,), (3,)), gf, t=8)
    tw = tate_weighted(pres, p112, Window((-6,), (6,)), gf)
    for a in range(-3, 4):
        for i in range(0, 3):
            assert res.entry(i, (a,)) == tw.entry(i, (a,))


def hirz3_H(stack):
    # module H of fixtures/hirz3.tate: S / (x0 x1)
    return Presentation.quotient(stack, [(1, 1, 0, 0)])


def recorded_strand_types(monkeypatch):
    """Make every _StrandTypes built in tate append itself to the list."""
    made = []

    class Recording(tate._StrandTypes):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(tate, "_StrandTypes", Recording)
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

    i, p, h = ret.i, ret.p, ret.h
    assert zero(u @ h + h @ u - np.eye(total, dtype=np.int64) + i @ p)
    assert zero(p @ i - np.eye(p.shape[0], dtype=np.int64))
    assert zero(p @ h) and zero(h @ i) and zero(h @ h)


def test_strand_retract_identities(hirz3, p1p1, gf, monkeypatch):
    # the transfer walk precomposes p and h with the cell transport, which
    # relies on these identities for every cached pattern retract
    made = recorded_strand_types(monkeypatch)
    fm_transform(hirz3_H(hirz3), hirz3, Window((-2, -1), (2, 1)), gf, t=4)
    fm_transform(Presentation.free([(0, 0)]), p1p1, Window((-3, -3), (3, 3)), gf)
    assert len(made) == 2
    for types in made:
        assert types._retracts
        for ret, _, _ in types._retracts.values():
            assert_retract_identities(gf, ret)


def test_strand_cellset_clamp_and_thresholds(hirz3, gf):
    # cellset keys its cache by a clamped exponent, and the transfer walk
    # keeps the current pattern while no coordinate crosses a threshold;
    # both are checked against the cell-survival rule on unclamped exponents
    types = tate._StrandTypes(hirz3, gf, hirz3.cover, [(1, 1, 0, 0), (0, 2, 0, 3)])

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


def test_free_module_transfer_is_independent_of_t(hirz3, p1p1, gf, monkeypatch):
    # a free module's strands are enumerated without an exponent bound, so
    # fm_transform builds its transfer once instead of comparing t = 2, 4
    for stack, window in ((p1p1, Window((-3, -3), (3, 3))), (hirz3, Window((-4, -3), (4, 3)))):
        pres = Presentation.free([(0, 0)])
        assert tate._monomial_transfer(pres, stack, window, gf, 2, -1) == \
            tate._monomial_transfer(pres, stack, window, gf, 8, -1)
    calls = []
    inner = tate._monomial_transfer

    def counted_transfer(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tate, "_monomial_transfer", counted_transfer)
    fm_transform(Presentation.free([(0, 0)]), p1p1, Window((-3, -3), (3, 3)), gf)
    assert len(calls) == 1


def test_fm_dense_path_matches_strand_path_with_relation(hirz3, gf):
    # rank-2 class group with a monomial relation: the strand walk and the
    # dense Cech pipeline give the same generators and socle table
    pres = hirz3_H(hirz3)
    window = Window((-1, -1), (1, 1))
    strand_gens, _ = tate._monomial_transfer(pres, hirz3, window, gf, 2, -1)
    dense_gens, _ = tate._transfer(tate._FMData(hirz3, gf, pres, window, 2), -1)
    assert strand_gens
    assert Counter(strand_gens) == Counter(dense_gens)
    assert socle_readoff(hirz3, strand_gens) == socle_readoff(hirz3, dense_gens)
