import pytest

from torictate.bgg import R
from torictate.diffmod import (DMMorphism, EComplex, FreeDiffModule,
                               check_minimal, check_square_zero, cone, fold,
                               homology_column, minimize, tensor_EI, unfold)
from torictate.exterior import OmegaTwist, elem_add, elem_mul, elem_scale
from torictate.smodule import Presentation, realize
from torictate.toric import Window


def _compose_entries(a, b, field):
    """Entrywise product of sparse E-matrices (left-multiplication model:
    (a b)[s][t] = sum_m a[s][m] * b[m][t])."""
    by_src = {}
    for (s, t), elem in a.items():
        by_src.setdefault(t, []).append((s, elem))
    out = {}
    for (m, t), belem in b.items():
        for s, aelem in by_src.get(m, ()):
            prod = elem_mul(aelem, belem, field)
            if prod:
                cur = out.get((s, t))
                out[(s, t)] = elem_add(cur, prod, field) if cur else prod
    return {k: v for k, v in out.items() if v}


def commutes(f):
    """Whether a DMMorphism is a chain map: f d = d' f on every entry."""
    field = f.source.field
    lhs = _compose_entries(f.entries, f.source.entries, field)
    rhs = _compose_entries(f.target.entries, f.entries, field)
    for key in set(lhs) | set(rhs):
        if elem_add(lhs.get(key, {}), elem_scale(rhs.get(key, {}), field.neg(field.one), field), field):
            return False
    return True


def free_s(stack, gf, lo, hi):
    return realize(Presentation.free([(0,) * stack.r]), stack, Window(lo, hi), gf)


def test_square_zero_zero_differential(p1, gf):
    d = FreeDiffModule(p1, gf, [OmegaTwist((0,), 0)], {}, safe=[(0,), (1,)])
    assert check_square_zero(d)


def test_square_zero_single_variable_chain(p1, gf):
    # two-step chain through the same e_0: composite hits e0 e0 = 0
    gens = [OmegaTwist((0,), 0), OmegaTwist((-1,), 0), OmegaTwist((-2,), 0)]
    entries = {(1, 0): {0b01: 1}, (2, 1): {0b01: 1}}
    d = FreeDiffModule(p1, gf, gens, entries, safe=[(a,) for a in range(0, 5)])
    assert check_square_zero(d)


def test_square_zero_detects_failure(p1, gf):
    # e1 then e0: composite e1 e0 != 0
    gens = [OmegaTwist((0,), 0), OmegaTwist((-1,), 0), OmegaTwist((-2,), 0)]
    entries = {(1, 0): {0b01: 1}, (2, 1): {0b10: 1}}
    d = FreeDiffModule(p1, gf, gens, entries, safe=[(a,) for a in range(0, 5)])
    assert not check_square_zero(d)


def test_homology_zero_differential_counts_column(p1, gf):
    d = FreeDiffModule(p1, gf, [OmegaTwist((0,), 0)], {}, safe=[(1,)])
    h = homology_column(d, (1,))
    # omega_E on P^1 at degree 1: two monomials at aux 1
    assert h == {1: 2}


def test_homology_r_of_s_on_p1(p1, gf):
    dm = R(free_s(p1, gf, (0,), (8,)))
    assert (1,) in dm.safe and (0,) in dm.safe
    assert homology_column(dm, (1,)) == {}
    assert homology_column(dm, (0,)) == {0: 1}


def test_homology_outside_safe_rejected(p1, gf):
    dm = R(free_s(p1, gf, (0,), (4,)))
    with pytest.raises(ValueError):
        homology_column(dm, (9,))


def test_tensor_full_set_is_identity(p112, gf):
    dm = R(free_s(p112, gf, (0,), (5,)))
    t = tensor_EI(dm, {0, 1, 2})
    assert t.entries == dm.entries
    assert [len(t.column_basis((a,))) for a in range(3)] == \
        [len(dm.column_basis((a,))) for a in range(3)]


def test_tensor_empty_set_kills_differential(p112, gf):
    dm = R(free_s(p112, gf, (0,), (5,)))
    t = tensor_EI(dm, set())
    assert t.entries == {}
    # columns reduce to the generator monomial only
    assert all(m == 0 for _, m in t.column_basis((2,)))


def test_tensor_hirzebruch_keeps_horizontal_arrows(hirz3, gf):
    m = realize(Presentation.free([(0, 0)]), hirz3, Window((-3, 0), (3, 2)), gf)
    dm = R(m)
    t = tensor_EI(dm, {0, 2})
    # surviving entries multiply only by e0, e2, i.e. move degree by (1, 0)
    for (s, tt), elem in t.entries.items():
        for mono in elem:
            assert mono in (0b001, 0b100)


def test_morphism_commutes_check(p1, gf):
    dm = R(free_s(p1, gf, (0,), (5,)))
    n = len(dm.gens)
    ident = DMMorphism(dm, dm, {(i, i): {0: 1} for i in range(n)})
    assert commutes(ident)
    # scaling a single generator breaks the chain-map identity
    bad_entries = {(i, i): {0: 1} for i in range(n)}
    bad_entries[(0, 0)] = {0: 2}
    bad = DMMorphism(dm, dm, bad_entries)
    assert not commutes(bad)


def test_cone_of_identity_is_exact(p1, gf):
    dm = R(free_s(p1, gf, (0,), (6,)))
    n = len(dm.gens)
    ident = {(i, i): {0: 1} for i in range(n)}
    c = cone(DMMorphism(dm, dm, ident))
    for a in sorted(c.safe):
        assert homology_column(c, a) == {}


def test_cone_of_zero_is_direct_sum(p1, gf):
    dm = R(free_s(p1, gf, (0,), (6,)))
    c = cone(DMMorphism(dm, dm, {}))
    for a in [(0,), (1,), (2,)]:
        if a not in c.safe:
            continue
        hc = homology_column(c, a)
        hd = homology_column(dm, a)
        want = {}
        for j, v in hd.items():
            want[j] = want.get(j, 0) + v
        for j, v in hd.items():
            want[j + 1] = want.get(j + 1, 0) + v
        assert hc == {k: v for k, v in want.items() if v}


def test_cone_envelope(p112, gf, rng):
    # |dim H(cone) - dim H(D') - dim H(D)(0;-1)| stays within the long-exact bound
    pres = Presentation.quotient(p112, [(2, 0, 0)])
    m = realize(pres, p112, Window((0,), (6,)), gf)
    dm = R(m)
    c = cone(DMMorphism(dm, dm, {}))
    for a in [(1,), (2,)]:
        if a not in c.safe:
            continue
        hc = homology_column(c, a)
        hd = homology_column(dm, a)
        for j in set(hc) | set(hd) | {jj + 1 for jj in hd}:
            lhs = abs(hc.get(j, 0) - hd.get(j, 0) - hd.get(j - 1, 0))
            assert lhs <= hd.get(j - 1, 0) + hd.get(j, 0)


def test_check_minimal(p1, gf):
    d0 = FreeDiffModule(p1, gf, [OmegaTwist((0,), 0)], {}, safe=[])
    assert check_minimal(d0)
    gens = [OmegaTwist((0,), 0), OmegaTwist((-1,), 0)]
    d1 = FreeDiffModule(p1, gf, gens, {(1, 0): {0b01: 1}}, safe=[])
    assert check_minimal(d1)
    # a constant entry runs from aux twist u to u + 1
    gens2 = [OmegaTwist((0,), 0), OmegaTwist((0,), 1)]
    d2 = FreeDiffModule(p1, gf, gens2, {(1, 0): {0: 1}}, safe=[])
    assert not check_minimal(d2)


def test_minimize_already_minimal(p1, gf):
    dm = R(free_s(p1, gf, (0,), (5,)))
    out, cancelled = minimize(dm, report=True)
    assert cancelled == 0
    assert out.gens == dm.gens


def test_minimize_unit_pair(p1, gf):
    gens = [OmegaTwist((0,), 0), OmegaTwist((0,), 1)]
    d = FreeDiffModule(p1, gf, gens, {(1, 0): {0: 1}}, safe=[])
    out = minimize(d)
    assert out.gens == []


def test_minimize_preserves_homology_random(p112, gf, rng):
    # random square-zero modules built as cones of random morphisms between
    # zero-differential free modules
    for _ in range(8):
        gens_a = [OmegaTwist((rng.randrange(0, 3),), rng.randrange(0, 2)) for _ in range(3)]
        gens_b = [OmegaTwist((rng.randrange(0, 3),), rng.randrange(0, 2)) for _ in range(3)]
        a = FreeDiffModule(p112, gf, gens_a, {}, safe=[])
        b = FreeDiffModule(p112, gf, gens_b, {}, safe=[])
        entries = {}
        table = p112.subsets_by_sum()
        from torictate.exterior import entry_degree
        from torictate.toric import deg_neg

        for s in range(3):
            for t in range(3):
                cl, aux = entry_degree(p112, gens_a[t], gens_b[s], shift_aux=0)
                for mono in table.get(deg_neg(cl), []):
                    if -bin(mono).count("1") == aux and rng.random() < 0.7:
                        entries.setdefault((s, t), {})[mono] = rng.randrange(1, gf.p)
        safe = [(x,) for x in range(-2, 6)]
        c = cone(DMMorphism(a, b, entries))
        c = FreeDiffModule(p112, gf, c.gens, c.entries, safe=safe)
        assert check_square_zero(c)
        mini = minimize(c)
        for deg in safe:
            assert homology_column(c, deg) == homology_column(mini, deg)


def test_minimize_and_tensor_commute_on_homology(p112, gf):
    pres = Presentation.quotient(p112, [(1, 1, 0)])
    m = realize(pres, p112, Window((0,), (6,)), gf)
    dm = R(m)
    subset = {0, 2}
    a_then = minimize(tensor_EI(dm, subset))
    then_a = tensor_EI(minimize(dm), subset)
    for a in [(0,), (1,), (2,)]:
        if a in dm.safe:
            assert homology_column(a_then, a) == homology_column(then_a, a)


# -- fold / unfold -----------------------------------------------------------

def test_fold_zero_complex(p1, gf):
    d = fold(p1, gf, EComplex({}, {}))
    assert d.gens == [] and d.entries == {}


def test_fold_single_term(p1, gf):
    cx = EComplex({0: [0, -1]}, {})
    d = fold(p1, gf, cx)
    assert d.entries == {}
    assert len(d.gens) == 2
    back = unfold(d)
    assert back == cx


def test_fold_unfold_random(p1, p2, gf, rng):
    for trial in range(20):
        stack = p1 if trial % 2 == 0 else p2
        n1 = stack.nvars
        terms = {}
        diffs = {}
        nterms = rng.randrange(1, 4)
        prev = None
        for j in range(nterms):
            terms[j] = [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 3))]
        for j in range(1, nterms):
            d = {}
            for s in range(len(terms[j - 1])):
                for t in range(len(terms[j])):
                    # entry degree in E: target twist - source twist decides
                    # the monomial size; pick matching monomials at random
                    need = terms[j][t] - terms[j - 1][s]
                    if 0 < need <= n1 and rng.random() < 0.6:
                        mono = 0
                        choices = list(range(n1))
                        rng.shuffle(choices)
                        for i in choices[:need]:
                            mono |= 1 << i
                        d[(s, t)] = {mono: rng.randrange(1, gf.p)}
            if d:
                diffs[j] = d
        # keep only chain maps that square to zero: filter by checking
        cx = EComplex(terms, diffs)
        dm = fold(stack, gf, cx)
        if not check_square_zero(dm, degrees=[(a,) for a in range(-6, 7)]):
            # drop the deeper map to force d^2 = 0
            cx = EComplex(terms, {j: d for j, d in diffs.items() if j <= 1})
            dm = fold(stack, gf, cx)
        assert unfold(dm) == cx
        refold = fold(stack, gf, unfold(dm))
        assert refold.gens == dm.gens and refold.entries == dm.entries


def test_fold_rejects_nonstandard(p12, gf):
    with pytest.raises(ValueError):
        fold(p12, gf, EComplex({0: [0]}, {}))


def test_unfold_koszul_dual_shape(p1, gf):
    # R(S) on P^1 is the fold of a linear complex: unfold must succeed and
    # refold reproduces it up to reordering the generators
    dm = R(free_s(p1, gf, (0,), (4,)))
    cx = unfold(dm)
    refold = fold(p1, gf, cx)
    assert sorted(refold.gens) == sorted(dm.gens)
    assert unfold(refold) == cx
    for a in [(0,), (1,), (2,)]:
        dm2 = FreeDiffModule(p1, gf, refold.gens, refold.entries, safe=dm.safe)
        assert homology_column(dm2, a) == homology_column(dm, a)


INHOMOGENEOUS = [
    # e0 e2 has Cl-degree 3, not 1
    ([OmegaTwist((0,), 0), OmegaTwist((-1,), 0)], {0b101: 1}),
    # one monomial of the entry is right, the next is not
    ([OmegaTwist((0,), 0), OmegaTwist((-1,), 0)], {0b001: 1, 0b100: 1}),
    # the right Cl-degree with the wrong auxiliary degree
    ([OmegaTwist((0,), 0), OmegaTwist((-1,), 1)], {0b001: 1}),
    # a bit beyond the three variables
    ([OmegaTwist((0,), 0), OmegaTwist((-1,), 0)], {0b1000: 1}),
]


@pytest.mark.parametrize("gens, elem", INHOMOGENEOUS)
def test_inhomogeneous_entry_rejected(p112, gf, gens, elem):
    with pytest.raises(ValueError):
        FreeDiffModule(p112, gf, gens, {(1, 0): elem})
    assert FreeDiffModule(p112, gf, gens, {(1, 0): elem}, validate=False).entries


@pytest.mark.parametrize("gens, elem", INHOMOGENEOUS)
def test_inhomogeneous_morphism_entry_rejected(p112, gf, gens, elem):
    # the same entries at shift 0: a degree-0 morphism into the twists one
    # auxiliary degree lower
    source = FreeDiffModule(p112, gf, gens, {})
    target = FreeDiffModule(p112, gf, [OmegaTwist(tw.cl, tw.aux - 1) for tw in gens], {})
    with pytest.raises(ValueError):
        DMMorphism(source, target, {(1, 0): elem})
    assert DMMorphism(source, target, {(1, 0): elem}, validate=False).entries


def test_homogeneous_entries_accepted(p112, gf):
    # e0 and e1 both have degree 1; e2 has degree 2 and fits the next twist
    gens = [OmegaTwist((0,), 0), OmegaTwist((-1,), 0), OmegaTwist((-2,), 0)]
    entries = {(1, 0): {0b001: 1, 0b010: 2}, (2, 0): {0b100: 1}}
    source = FreeDiffModule(p112, gf, gens, entries)
    # and as a degree-0 morphism into the twists one auxiliary degree lower
    target = FreeDiffModule(p112, gf, [OmegaTwist(tw.cl, tw.aux - 1) for tw in gens], {})
    assert DMMorphism(source, target, entries).entries == entries
