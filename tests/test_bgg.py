import numpy as np

from torictate.bgg import (L, ModuleComplex, R, R_complex, R_I, betti_table,
                           roundtrip_check)
from torictate.diffmod import EMatrix, FreeDiffModule, check_square_zero, homology_column
from torictate.exterior import OmegaTwist, column_basis
from torictate.linalg import Mat, rank
from torictate.smodule import (Poly, Presentation, koszul_complex,
                               monomial_basis, realize, truncate, twist)
from torictate.toric import Window, deg_sub

from dictform import entries_of


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
    return module.dim(a) - rank(Mat(field, stacked))


def free_s(stack, gf, lo, hi):
    return realize(Presentation.free([(0,) * stack.r]), stack, Window(lo, hi), gf)


def test_r_of_k(p112, gf):
    k = realize(Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                p112, Window((0,), (4,)), gf)
    dm = R(k)
    assert [tw for tw in dm.gens] == [OmegaTwist((0,), 0)]
    assert entries_of(dm) == {}


def test_r_gen_counts_p1(p1, gf):
    dm = R(free_s(p1, gf, (0,), (6,)))
    for a in range(0, 7):
        count = sum(1 for tw in dm.gens if tw.cl == (-a,))
        assert count == a + 1


def test_r_square_zero(p112, gf):
    f = Poly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 2))])
    m = realize(Presentation.quotient(p112, [f]), p112, Window((0,), (7,)), gf)
    dm = R(m)
    assert check_square_zero(dm)


def test_r_hirzebruch_multiplicities(hirz3, gf):
    # frozen from the displayed R(S) diagram: counts along the row through
    # omega_E(0,-1) and at omega_E, omega_E(-1,0)
    m = free_s(hirz3, gf, (-4, 0), (2, 2))
    dm = R(m)

    def count(cl):
        return sum(1 for tw in dm.gens if tw.cl == cl)

    # generators live at omega_E(-a; 0) for a with dim S_a > 0
    assert count((3, -1)) == 1   # a = (-3, 1)
    assert count((2, -1)) == 2
    assert count((1, -1)) == 3
    assert count((0, -1)) == 5
    assert count((-1, -1)) == 7
    assert count((0, 0)) == 1
    assert count((-1, 0)) == 2


def test_r_i_full_equals_r(p112, gf):
    m = free_s(p112, gf, (0,), (5,))
    assert entries_of(R_I(m, {0, 1, 2})) == entries_of(R(m))


def test_r_i_empty_kills_differential(p112, gf):
    m = free_s(p112, gf, (0,), (5,))
    dm = R_I(m, set())
    assert entries_of(dm) == {}
    assert dm.gens == R(m).gens


def test_r_i_p1xp1_first_block(p1p1, gf):
    # I = {0, 2}: from omega_E the differential is the column (e0, e2)^t
    # into omega_E(-1,0)^2
    m = free_s(p1p1, gf, (0, 0), (2, 2))
    dm = R_I(m, {0, 2})
    src = [i for i, tw in enumerate(dm.gens) if tw.cl == (0, 0)]
    tgt = [i for i, tw in enumerate(dm.gens) if tw.cl == (-1, 0)]
    assert len(src) == 1 and len(tgt) == 2
    ent = entries_of(dm)
    entries = [ent.get((t, src[0])) for t in tgt]
    assert sorted(str(sorted(e)) for e in entries if e) == ["[1]", "[4]"]  # e0 and e2


def test_l_of_omega_matches_koszul(p112, gf):
    # L(omega_E(0; 0)) is the Koszul complex on the variables
    dm = FreeDiffModule(p112, gf, [OmegaTwist((0,), 0)], EMatrix(gf),
                        safe=[(a,) for a in range(0, 5)])
    cols = [(a,) for a in range(0, 5)]
    module_degrees = [(c,) for c in range(0, 5)]
    cx = L(dm, module_degrees, col_degrees=cols)
    kz = koszul_complex(p112, Window((0,), (4,)), gf)
    for c in module_degrees:
        for j in range(0, 4):
            assert cx.dim(j, c) == kz.dim(j, c)
        for j in range(0, 4):
            if c == (0,) and j == 0:
                assert cx.homology(j, c) == 1
            else:
                assert cx.homology(j, c) == kz.homology(j, c)


def test_l_of_residue_field_is_s(p112, gf):
    # D = k in degree (0; 0): restrict E(0; 0) = omega_E(w; n+1) to its
    # generator column; L gives S concentrated in homological degree 0
    n1 = p112.nvars
    w = p112.total_degree
    dm = FreeDiffModule(p112, gf, [OmegaTwist(w, n1)], EMatrix(gf),
                        safe=[(a,) for a in range(-1, 6)])
    assert column_basis(p112, dm.runs, (0,)) == [(0, 0)]
    cx = L(dm, [(c,) for c in range(0, 5)], col_degrees=[(0,)])
    for c in range(0, 5):
        assert cx.dim(0, (c,)) == len(monomial_basis(p112, (c,)))
        assert cx.homology(0, (c,)) == cx.dim(0, (c,))


def test_l_of_omega_twist_is_truncated_koszul(p12, gf):
    # U-style: omega_E(d; 0) restricted to column degrees <= 0 gives the
    # truncated strand K_d(d): term j is the sum of S(d - b) over subsets
    # with degree sum b <= d and |S| = j
    d = 2
    dm = FreeDiffModule(p12, gf, [OmegaTwist((d,), 0)], EMatrix(gf),
                        safe=[(a,) for a in range(-4, 3)])
    cols = [(a,) for a in range(-4, 1)]
    module_degrees = [(c,) for c in range(0, 4)]
    cx = L(dm, module_degrees, col_degrees=cols)
    table = p12.subsets_by_sum()
    for c in module_degrees:
        for j in range(0, 3):
            want = 0
            for b, masks in table.items():
                if b[0] <= d:
                    for mk in masks:
                        if bin(mk).count("1") == j:
                            want += len(monomial_basis(p12, (c[0] + d - b[0],)))
            assert cx.dim(j, c) == want


def test_betti_table_free_module(p112, gf):
    m = free_s(p112, gf, (0,), (6,))
    bt = betti_table(m)
    assert bt == {(0, (0,)): 1}


def test_betti_hypersurface(p112, gf):
    f = Poly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 2))])
    m = realize(Presentation.quotient(p112, [f]), p112, Window((0,), (9,)), gf)
    bt = betti_table(m)
    assert bt == {(0, (0,)): 1, (1, (4,)): 1}


def test_betti_p156_truncation(p156, gf):
    # frozen from the worked resolution S(-2) <- S(-3) + S(-7) <- S(-8)
    pres = Presentation.quotient(p156, [(1, 0, 0), (0, 1, 0)])
    n = realize(pres, p156, Window((0,), (24,)), gf)
    m = twist(truncate(n, 4), (4,))
    bt = betti_table(m)
    assert bt == {(0, (2,)): 1, (1, (3,)): 1, (1, (7,)): 1, (2, (8,)): 1}


def test_betti_hirzebruch_truncation(hirz3, gf):
    # the submodule generated by the degree-(2,3) piece of S/(x0 x1),
    # relabeled so the six generators sit in degree (0, 0); frozen from a
    # hand check (the 6 -> 4 multiplication by x1 forces two syzygies in
    # degree (-3, 1)) plus this machinery
    from torictate.smodule import generated_truncation

    pres = Presentation.quotient(hirz3, [(1, 1, 0, 0)])
    n = realize(pres, hirz3, Window((-12, -2), (10, 8)), gf)
    m = generated_truncation(n, (2, 3), Window((-6, -1), (5, 4)))
    degrees = [(a, b) for a in range(-4, 4) for b in range(-1, 4)]
    bt = betti_table(m, degrees=[d for d in degrees])
    want = {
        (0, (0, 0)): 6,
        (1, (-3, 1)): 2, (1, (0, 1)): 3, (1, (1, 0)): 5,
        (2, (-2, 1)): 1, (2, (1, 1)): 3,
    }
    assert bt == want


def test_betti_hirzebruch_truncation_type2_grading():
    # the published table for this example (generators S(2,-1)^2 etc) is
    # reproduced exactly when x1 has degree (-2, 1)
    from torictate.linalg import GF
    from torictate.smodule import generated_truncation
    from torictate.toric import ToricStack

    gf = GF()
    hz2 = ToricStack(r=2, var_degrees=[(1, 0), (-2, 1), (1, 0), (0, 1)],
                     irrelevant_supports=[{0, 1}, {0, 3}, {1, 2}, {2, 3}],
                     theta=(1, 3))
    pres = Presentation.quotient(hz2, [(1, 1, 0, 0)])
    n = realize(pres, hz2, Window((-12, -2), (10, 8)), gf)
    m = generated_truncation(n, (2, 3), Window((-6, -1), (5, 4)))
    degrees = [(a, b) for a in range(-4, 4) for b in range(-1, 4)]
    bt = betti_table(m, degrees=[d for d in degrees])
    want = {
        (0, (0, 0)): 6,
        (1, (-2, 1)): 2, (1, (0, 1)): 3, (1, (1, 0)): 5,
        (2, (-1, 1)): 1, (2, (1, 1)): 3,
    }
    assert bt == want


def test_betti_row_zero_is_minimal_generators(p156, gf, rng):
    pres = Presentation.quotient(p156, [(2, 1, 0), (0, 0, 1)])
    m = realize(pres, p156, Window((0,), (24,)), gf)
    bt = betti_table(m)
    for a in range(0, 12):
        want = minimal_generator_dims(m, (a,))
        assert bt.get((0, (a,)), 0) == want


def test_cor_2_15_column_envelope(p112, gf):
    # total homology over a column of R(M) is bounded by that of R_I(M)
    pres = Presentation.quotient(p112, [(2, 1, 0)])
    m = realize(pres, p112, Window((0,), (8,)), gf)
    full = R(m)
    for subset in ({0, 1}, {0, 2}, {2}):
        part = R_I(m, subset)
        for a in [(0,), (1,), (2,), (3,)]:
            if a in full.safe and a in part.safe:
                hf = sum(homology_column(full, a).values())
                hp = sum(homology_column(part, a).values())
                assert hf <= hp


def test_r_complex_two_term(p112, gf):
    # C = [S(-1) --x0--> S] is quasi-isomorphic to S/x0: H(R(C)) matches
    # the Betti table of S/x0 (Koszul: beta_{0,0} = 1, beta_{1,1} = 1)
    w = Window((0,), (6,))
    s = free_s(p112, gf, (0,), (6,))
    s1 = realize(Presentation.free([(1,)]), p112, w, gf)
    maps = {}
    for a in range(0, 7):
        src = s1.dim((a,))
        tgt = s.dim((a,))
        m = gf.zeros(tgt, src)
        tgt_labels = {tuple(lab): i for i, lab in enumerate(s.basis_labels((a,)).tolist())}
        for c, (g, *e) in enumerate(s1.basis_labels((a,)).tolist()):
            lab = (0, e[0] + 1, e[1], e[2])
            m[tgt_labels[lab], c] = 1
        maps[(a,)] = Mat(gf, m)
    cx = ModuleComplex({0: s, 1: s1}, {1: maps})
    dm = R_complex(cx)
    assert check_square_zero(dm)
    quotient = realize(Presentation.quotient(p112, [(1, 0, 0)]), p112, w, gf)
    want = betti_table(quotient)
    got = {}
    for a in sorted(dm.safe):
        for j, h in homology_column(dm, a).items():
            got[(j, a)] = h
    for key, val in want.items():
        assert got.get(key, 0) == val


def test_roundtrip_rejects_insufficient_window(p112, gf):
    m = free_s(p112, gf, (0,), (4,))
    # degree 7 needs safe columns through theta = 7; the window ends at 4
    import pytest as _pytest

    with _pytest.raises(ValueError):
        roundtrip_check(m, [(7,)])


def test_roundtrip_k(p112, gf):
    k = realize(Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                p112, Window((0,), (6,)), gf)
    assert roundtrip_check(k, [(0,), (1,), (2,)])


def test_roundtrip_s_p12(p12, gf):
    m = free_s(p12, gf, (0,), (6,))
    assert roundtrip_check(m, [(0,), (1,), (2,), (3,)])


def test_roundtrip_stacky_point(p112, gf):
    m = realize(Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0)]),
                p112, Window((0,), (8,)), gf)
    assert roundtrip_check(m, [(0,), (1,), (2,), (3,), (4,)])
