import numpy as np
import pytest

from torictate import smodule
from torictate.bgg import _times_x
from torictate.diagonal import _BlockComplex
from torictate.dmres import _IncrementalRank
from torictate.laurent import ExponentBoxes, LocalizedModule
from torictate.linalg import GF, QQ, Entries, _kernel_arr, rref, solve_in_span
from torictate.smodule import (DegreewiseModule, Poly, Presentation,
                               generated_truncation, koszul_complex,
                               monomial_array, monomial_basis, presentation_from_span, realize,
                               truncate, twist)
from torictate.toric import Window, deg_add, deg_sub, deg_zero


def verify_multiplication_commutes(module, degrees=None):
    """Check mult(j, a + deg x_i) mult(i, a) = mult(i, a + deg x_j) mult(j, a)
    wherever all pieces lie in the window."""
    stack = module.stack
    degrees = degrees if degrees is not None else module.window.points()
    for a in degrees:
        for i in range(stack.nvars):
            for j in range(i + 1, stack.nvars):
                ai = deg_add(a, stack.var_degrees[i])
                aj = deg_add(a, stack.var_degrees[j])
                ab = deg_add(ai, stack.var_degrees[j])
                if not all(module.in_window(x) for x in (a, ai, aj, ab)):
                    continue
                lhs = module.mult_matrix(j, ai) @ module.mult_matrix(i, a)
                rhs = module.mult_matrix(i, aj) @ module.mult_matrix(j, a)
                if lhs != rhs:
                    return False
    return True


def test_monomial_basis_p112(p112):
    basis = monomial_basis(p112, (2,))
    assert basis == [(0, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]
    assert len(basis) == 4


def test_monomial_basis_degree_zero(p112, hirz3):
    assert monomial_basis(p112, (0,)) == [(0, 0, 0)]
    assert monomial_basis(hirz3, (0, 0)) == [(0, 0, 0, 0)]


def test_monomial_basis_negative(p112):
    assert monomial_basis(p112, (-1,)) == []


def test_monomial_counts_p112(p112):
    # frozen counts for P(1,1,2): dim S_a for a = 0..8
    want = [1, 2, 4, 6, 9, 12, 16, 20, 25]
    got = [len(monomial_basis(p112, (a,))) for a in range(9)]
    assert got == want


def test_realize_free_module(p112, gf, rng):
    m = realize(Presentation.free([(0,)]), p112, Window((0,), (8,)), gf)
    for _ in range(6):
        a = (rng.randrange(0, 9),)
        assert m.dim(a) == len(monomial_basis(p112, a))


def test_realize_stacky_point(p112, gf):
    pres = Presentation.quotient(p112, [(1, 0, 0), (0, 1, 0)])
    m = realize(pres, p112, Window((0,), (8,)), gf)
    for a in range(9):
        assert m.dim((a,)) == (1 if a % 2 == 0 else 0)


def test_realize_hirzebruch_hypersurface(hirz3, gf):
    # M = S/(x0 x1): dim M_(1,1) = dim S_(1,1) - dim S_(3,0) = 7 - 4 = 3
    pres = Presentation.quotient(hirz3, [(1, 1, 0, 0)])
    m = realize(pres, hirz3, Window((-4, -1), (4, 2)), gf)
    assert m.dim((1, 1)) == 3
    assert m.dim((1, 0)) == 2


def test_hypersurface_piece_dims(p112, gf):
    # S/(f) with deg f = 4: dim(M_a) = dim S_a - dim S_{a-4}
    f = Poly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 2))])
    pres = Presentation.quotient(p112, [f])
    m = realize(pres, p112, Window((0,), (8,)), gf)
    for a in range(9):
        want = len(monomial_basis(p112, (a,))) - len(monomial_basis(p112, (a - 4,)))
        assert m.dim((a,)) == want


def test_multiplication_commutes(p112, hirz3, gf):
    f = Poly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 2))])
    m = realize(Presentation.quotient(p112, [f]), p112, Window((0,), (6,)), gf)
    assert verify_multiplication_commutes(m)
    m2 = realize(Presentation.quotient(hirz3, [(1, 1, 0, 0)]), hirz3,
                 Window((-3, 0), (3, 2)), gf)
    assert verify_multiplication_commutes(m2)


def test_truncate_s_at_zero(p112, gf):
    m = realize(Presentation.free([(0,)]), p112, Window((-4,), (4,)), gf)
    t = truncate(m, 0)
    for a in range(-4, 5):
        want = m.dim((a,)) if a >= 0 else 0
        assert t.dim((a,)) == want


def test_truncate_below_support_is_identity(p112, gf):
    m = realize(Presentation.free([(2,)]), p112, Window((0,), (6,)), gf)
    t = truncate(m, 1)
    for a in range(0, 7):
        assert t.dim((a,)) == m.dim((a,))


def test_truncate_twist_p156_example(p156, gf):
    # N = S/(x0, x1) on P(1,5,6): N_{>=4}(4) has pieces k in degrees 2, 8, 14
    pres = Presentation.quotient(p156, [(1, 0, 0), (0, 1, 0)])
    n = realize(pres, p156, Window((0,), (20,)), gf)
    m = twist(truncate(n, 4), (4,))
    dims = {a: m.dim((a,)) for a in range(-2, 16)}
    assert dims[2] == 1 and dims[8] == 1 and dims[14] == 1
    assert all(v == 0 for a, v in dims.items() if a not in (2, 8, 14))


def test_truncate_realize_commute(p112, gf):
    pres = Presentation.quotient(p112, [(1, 2, 0)])
    w = Window((0,), (6,))
    m1 = truncate(realize(pres, p112, w, gf), 3)
    m2 = truncate(DegreewiseModule(p112, gf, pres, w), 3)
    for a in range(0, 7):
        assert m1.dim((a,)) == m2.dim((a,))


def test_twist_identities(p112, gf):
    m = realize(Presentation.free([(0,)]), p112, Window((0,), (6,)), gf)
    t0 = twist(m, (0,))
    for a in range(0, 7):
        assert t0.dim((a,)) == m.dim((a,))
    t = twist(twist(m, (2,)), (-2,))
    for a in range(0, 7):
        assert t.dim((a,)) == m.dim((a,))


def test_twist_on_p1(p1, gf):
    m = realize(Presentation.free([(0,)]), p1, Window((-3,), (3,)), gf)
    t = twist(m, (-1,))
    assert t.dim((1,)) == m.dim((0,)) == 1


def test_inhomogeneous_entry_rejected(p112, gf):
    bad = Poly([(1, (1, 0, 0)), (1, (0, 0, 1))])
    with pytest.raises(ValueError):
        pres = Presentation.quotient(p112, [bad])
        realize(pres, p112, Window((0,), (3,)), gf)


def test_koszul_complex_p1(p1, gf):
    w = Window((0,), (5,))
    kx = koszul_complex(p1, w, gf)
    for a in w.points():
        for j in kx.js():
            m1, m0 = kx.map(j + 1, a), kx.map(j, a)
            assert not (m1.cols and m0.rows) or (m0 @ m1).is_zero()
        # H_0 = k in degree 0 only; higher homology vanishes everywhere
        assert kx.homology(0, a) == (1 if a == (0,) else 0)
        for j in (1, 2):
            assert kx.homology(j, a) == 0


def test_koszul_term_twists_p12(p12, gf):
    # K_1 = S(-1) + S(-2): at degree a the piece is S_{a-1} + S_{a-2}
    kx = koszul_complex(p12, Window((0,), (6,)), gf)
    for a in range(0, 7):
        want = len(monomial_basis(p12, (a - 1,))) + len(monomial_basis(p12, (a - 2,)))
        assert kx.dim(1, (a,)) == want


def test_koszul_exactness_p112(p112, gf):
    kx = koszul_complex(p112, Window((0,), (7,)), gf)
    for a in range(0, 8):
        for j in (1, 2, 3):
            assert kx.homology(j, (a,)) == 0
        assert kx.homology(0, (a,)) == (1 if a == 0 else 0)


def test_localized_piece_without_inversion_matches_degreewise(p112, hirz3, gf):
    # both classes build their pieces through Presentation.piece, for a
    # non-monomial relation (genus one) and a monomial one (module H)
    genus_one = Presentation.quotient(p112, [Poly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 2))])])
    for pres, stack, window in ((genus_one, p112, Window((-2,), (9,))),
                                (Presentation.quotient(hirz3, [(1, 1, 0, 0)]), hirz3,
                                 Window((-1, -1), (4, 3)))):
        deg = realize(pres, stack, window, gf)
        loc = LocalizedModule(stack, gf, pres, (), ExponentBoxes(stack, (), 2))
        for a in window.points():
            basis = deg.basis_labels(a)
            assert np.array_equal(loc.basis_labels(a), basis) and loc.dim(a) == deg.dim(a) == len(basis)
            assert np.array_equal(loc.piece(a)[0], deg.piece(a)[0])
            for m in (loc, deg):
                coords = Entries(gf, m.dim(a), len(basis), *m.image_entries(a, basis)).dense()
                assert (coords == np.eye(len(basis), dtype=coords.dtype)).all()


def test_image_rejects_a_label_outside_the_piece(p112, gf):
    # a label below the exponent box of a localized piece has no coordinates
    loc = LocalizedModule(p112, gf, Presentation.free([(0,)]), {0}, ExponentBoxes(p112, {0}, 2))
    inside = Entries(gf, loc.dim((0,)), 1, *loc.image_entries((0,), np.array([[0, -2, 2, 0]])))
    assert inside.dense().shape == (loc.dim((0,)), 1)
    with pytest.raises(ArithmeticError):
        loc.image_entries((0,), np.array([[0, -3, 3, 0]]))


def path_span(span, b):
    """SpanSubmodule._span as a product of x_i multiplications along each
    monomial, variable by variable."""
    field, stack, inner = span.field, span.stack, span.inner
    cols = []
    for d in span.gen_degrees:
        shift = deg_sub(b, d)
        if stack.theta(shift) < 0 or inner.dim(d) == 0:
            continue
        for mono in monomial_basis(stack, shift):
            m = field.zeros(inner.dim(d), inner.dim(d))
            for k in range(inner.dim(d)):
                m[k, k] = field.one
            pos = d
            for i, e in enumerate(mono):
                for _ in range(e):
                    m = field.matmul(inner.mult_matrix(i, pos).a, m)
                    pos = deg_add(pos, stack.var_degrees[i])
            cols.append(m)
    val = np.concatenate(cols, axis=1) if cols else field.zeros(inner.dim(b), 0)
    return rref(field, val.T)[0].T


def path_presentation(span, rel_degrees):
    """presentation_from_span with path-product evaluations, one solve per
    monomial, and dense multiples of the relations chosen so far."""
    stack, field = span.stack, span.field
    zero = deg_zero(stack.r)
    ngens = span.dim(zero)
    rel_degs, chosen, entries = [], [], {}
    for b in sorted((tuple(x) for x in rel_degrees), key=lambda d: (stack.theta(d), d)):
        tgt = span._span(b)
        cols, labels = [], []
        for mu in monomial_basis(stack, b):
            mat = field.zeros(ngens, ngens)
            for k in range(ngens):
                mat[k, k] = field.one
            pos = zero
            for i, e in enumerate(mu):
                for _ in range(e):
                    mat = field.matmul(span.inner.mult_matrix(i, pos).a, mat)
                    pos = deg_add(pos, stack.var_degrees[i])
            coords = solve_in_span(field, tgt, mat)
            for k in range(ngens):
                cols.append(coords[:, k])
                labels.append((k, mu))
        if not cols:
            continue
        index = {lab: k for k, lab in enumerate(labels)}
        ker = _kernel_arr(field, np.stack(cols, axis=1))
        if ker.shape[1] == 0:
            continue
        acc = _IncrementalRank(field)
        for cdeg, vec in chosen:
            shift = deg_sub(b, cdeg)
            if stack.theta(shift) < 0:
                continue
            for m in monomial_basis(stack, shift):
                mult = field.zeros(len(labels), 1)[:, 0]
                ok = True
                for (k, mu), coeff in vec.items():
                    j = index.get((k, tuple(x + y for x, y in zip(mu, m))))
                    if j is None:
                        ok = False
                        break
                    mult[j] = field.add(mult[j], coeff)
                if ok:
                    acc.add(mult)
        for c in range(ker.shape[1]):
            if not acc.add(ker[:, c]):
                continue
            vec = {}
            relj = len(rel_degs)
            rel_degs.append(b)
            for pos_idx, lab in enumerate(labels):
                v = ker[pos_idx, c]
                if v != field.zero:
                    coeff = v.item() if hasattr(v, "item") else v
                    vec[lab] = coeff
                    poly = entries.get((lab[0], relj))
                    entries[(lab[0], relj)] = Poly((poly.terms if poly else []) + [(coeff, lab[1])])
            chosen.append((b, vec))
    return Presentation([zero] * ngens, rel_degs, entries)


@pytest.mark.parametrize("field", [GF(), QQ()], ids=["gf", "qq"])
def test_span_and_its_presentation_match_path_products(field, hirz3):
    # the Hirzebruch-3 example of the acceptance suite: S / (x0 x1)
    # truncated at (2, 3), with its first syzygy degrees
    n = realize(Presentation.quotient(hirz3, [(1, 1, 0, 0)]), hirz3,
                Window((-12, -2), (10, 8)), field)
    span = generated_truncation(n, (2, 3), Window((-6, -1), (5, 4)))
    for b in Window((-4, -1), (3, 3)).points():
        assert np.array_equal(span._span(b), path_span(span, b))
    rel_degs = [(-3, 1), (0, 1), (1, 0)]
    got = presentation_from_span(span, rel_degs)
    want = path_presentation(span, rel_degs)
    assert got.rel_degrees == want.rel_degrees and len(got.rel_degrees) == 10
    assert got.gen_degrees == want.gen_degrees
    assert {k: p.terms for k, p in got.entries.items()} == \
        {k: p.terms for k, p in want.entries.items()}


@pytest.mark.parametrize("scale", [1, 1 << 40], ids=["small", "past-2^62"])
def test_locate_matches_a_dict_lookup(rng, scale):
    # rows are found by their exact keys; with entries spread over 2^40, the
    # mixed radix passes 2^62 from the second column on, and the keys are
    # renumbered by rank before each further digit
    for _ in range(40):
        n, cols = rng.randrange(1, 30), rng.randrange(1, 6)
        draw = lambda: tuple(rng.randrange(-3, 4) * scale + rng.randrange(-1, 2) for _ in range(cols))
        table = list({draw() for _ in range(n)})
        queries = [rng.choice(table) if rng.random() < 0.5 else draw() for _ in range(rng.randrange(0, 40))]
        index = {row: k for k, row in enumerate(table)}
        got = smodule._locate(np.array(table, dtype=np.int64),
                              np.array(queries, dtype=np.int64).reshape(-1, cols))
        assert got.tolist() == [index.get(q, -1) for q in queries]
    # and an empty table, which holds none of the last table's rows
    rows = np.array(table, dtype=np.int64)
    assert smodule._locate(rows[:0], rows).tolist() == [-1] * len(rows)


@pytest.mark.parametrize("name, window", [("p112", Window((-1,), (6,))),
                                          ("p1p1", Window((-1, -1), (2, 3)))])
def test_monomial_maps_match_a_tuple_and_dict_construction(request, gf, name, window):
    # koszul_complex's maps, bgg._times_x and _BlockComplex._shift, entry for
    # entry, against maps built from monomial_basis tuples and index dicts
    stack = request.getfixturevalue(name)
    n = stack.nvars
    kx = koszul_complex(stack, window, gf)
    for a in window.points():
        basis = [[(mask, e) for mask in range(1 << n) if bin(mask).count("1") == j
                  for e in monomial_basis(stack, deg_sub(a, stack.mask_degree(mask)))] for j in range(n + 1)]
        for j in range(1, n + 1):
            index = {lab: k for k, lab in enumerate(basis[j - 1])}
            want = gf.zeros(len(basis[j - 1]), len(basis[j]))
            for col, (mask, e) in enumerate(basis[j]):
                for k, i in enumerate(i for i in range(n) if mask >> i & 1):
                    want[index[(mask & ~(1 << i), e[:i] + (e[i] + 1,) + e[i + 1:])], col] = gf.of((-1) ** k)
            assert kx.map(j, a).a.shape == want.shape and (kx.map(j, a).a == want).all()
    cx = _BlockComplex(stack, gf)
    for d in window.points():
        for i in range(n):
            src, tgt = monomial_basis(stack, d), monomial_basis(stack, deg_add(d, stack.var_degrees[i]))
            want = np.zeros((len(tgt), len(src)), dtype=np.int64)
            index = {e: k for k, e in enumerate(tgt)}
            for col, e in enumerate(src):
                want[index[e[:i] + (e[i] + 1,) + e[i + 1:]], col] = 1
            got = _times_x(monomial_array(stack, d), monomial_array(stack, deg_add(d, stack.var_degrees[i])), i)
            assert got.shape == want.shape and (got == want).all()
    # the shift maps of the monomials of theta-degree at most 2, between
    # any two window degrees: empty unless td is the degree of the products
    shifts = [t for c in window.points() if 0 <= stack.theta(c) <= 2 for t in monomial_basis(stack, c)]
    for t in shifts:
        for d in window.points():
            for td in window.points():
                where = {e: k for k, e in enumerate(monomial_basis(stack, td))}
                moved = (tuple(x + y for x, y in zip(e, t)) for e in monomial_basis(stack, d))
                want = np.array([(j, where[e]) for j, e in enumerate(moved) if e in where],
                                dtype=np.int64).reshape(-1, 2).T
                got = cx._shift(d, t, td)
                assert got.shape == want.shape and (got == want).all()
