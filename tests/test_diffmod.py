from collections import Counter

import pytest

from torictate import diffmod
from torictate.bgg import R
from torictate.diffmod import (EComplex, FreeDiffModule, check_minimal, check_square_zero, cone,
                               fold, homology_column, minimize, tensor_EI, unfold)
from torictate.exterior import OmegaTwist, column_basis, entry_degree, ext_mul
from torictate.linalg import GF, QQ, invert
from torictate.smodule import Presentation, realize
from torictate.toric import Window, deg_neg, projective_space, weighted_projective

from dictform import dict_module, dict_morphism, entries_of
from test_column_action import _modules, _r_complex
from test_tate import cech_totalization_dm


# -- E-matrices as {(target, source): {monomial: coeff}} dicts ---------------

def elem_scale(x, c, field):
    if c == field.zero:
        return {}
    return {m: field.mul(v, c) for m, v in x.items()}


def elem_add(x, y, field):
    out = dict(x)
    for m, v in y.items():
        s = field.add(out.get(m, field.zero), v)
        if s == field.zero:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def elem_mul(x, y, field):
    """Product in E of sparse elements {monomial: coeff}."""
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            r = ext_mul(m1, m2)
            if r is None:
                continue
            sign, m = r
            c = field.mul(c1, c2)
            if sign < 0:
                c = field.neg(c)
            s = field.add(out.get(m, field.zero), c)
            if s == field.zero:
                out.pop(m, None)
            else:
                out[m] = s
    return out


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
    lhs = _compose_entries(entries_of(f), entries_of(f.source), field)
    rhs = _compose_entries(entries_of(f.target), entries_of(f), field)
    for key in set(lhs) | set(rhs):
        if elem_add(lhs.get(key, {}), elem_scale(rhs.get(key, {}), field.neg(field.one), field), field):
            return False
    return True


def minimize_pairwise(module):
    """minimize as it was on the dict form: cancel one unit (constant)
    entry at a time, smallest (target, source) first, until none remain;
    returns (module, pairs cancelled)."""
    field = module.field
    alive = set(range(len(module.gens)))
    rows = {}
    cols = {}
    ent = entries_of(module)
    for (s, t) in ent:
        rows.setdefault(s, set()).add(t)
        cols.setdefault(t, set()).add(s)
    cancelled = 0
    while True:
        piv = min(((s, t) for (s, t), elem in ent.items() if 0 in elem), default=None)
        if piv is None:
            break
        a, b = piv
        lam_inv = field.inv(ent[piv][0])
        row_a = [(t, dict(ent[(a, t)])) for t in rows.get(a, set()) if t != b and t in alive]
        col_b = [(s, dict(ent[(s, b)])) for s in cols.get(b, set()) if s != a and s in alive]
        for g in (a, b):
            for t in rows.pop(g, set()):
                ent.pop((g, t), None)
                cols.get(t, set()).discard(g)
            for s in cols.pop(g, set()):
                ent.pop((s, g), None)
                rows.get(s, set()).discard(g)
            alive.discard(g)
        for s, left in col_b:
            for t, right in row_a:
                prod = elem_mul(left, right, field)
                if not prod:
                    continue
                corr = elem_scale(prod, field.neg(lam_inv), field)
                new = elem_add(ent.get((s, t), {}), corr, field)
                if new:
                    ent[(s, t)] = new
                    rows.setdefault(s, set()).add(t)
                    cols.setdefault(t, set()).add(s)
                else:
                    ent.pop((s, t), None)
                    rows.get(s, set()).discard(t)
                    cols.get(t, set()).discard(s)
        cancelled += 1
    keep = sorted(alive)
    remap = {t: k for k, t in enumerate(keep)}
    out = dict_module(module.stack, field, [module.gens[t] for t in keep],
                      {(remap[s], remap[t]): elem for (s, t), elem in ent.items()},
                      safe=module.safe, varmask=module.varmask, validate=False)
    return out, cancelled


def free_s(stack, gf, lo, hi):
    return realize(Presentation.free([(0,) * stack.r]), stack, Window(lo, hi), gf)


def test_square_zero_zero_differential(p1, gf):
    d = dict_module(p1, gf, [OmegaTwist((0,), 0)], {}, safe=[(0,), (1,)])
    assert check_square_zero(d)


def test_square_zero_single_variable_chain(p1, gf):
    # two-step chain through the same e_0: composite hits e0 e0 = 0
    gens = [OmegaTwist((0,), 0), OmegaTwist((-1,), 0), OmegaTwist((-2,), 0)]
    entries = {(1, 0): {0b01: 1}, (2, 1): {0b01: 1}}
    d = dict_module(p1, gf, gens, entries, safe=[(a,) for a in range(0, 5)])
    assert check_square_zero(d)


def test_square_zero_detects_failure(p1, gf):
    # e1 then e0: composite e1 e0 != 0
    gens = [OmegaTwist((0,), 0), OmegaTwist((-1,), 0), OmegaTwist((-2,), 0)]
    entries = {(1, 0): {0b01: 1}, (2, 1): {0b10: 1}}
    d = dict_module(p1, gf, gens, entries, safe=[(a,) for a in range(0, 5)])
    assert not check_square_zero(d)


def test_homology_zero_differential_counts_column(p1, gf):
    d = dict_module(p1, gf, [OmegaTwist((0,), 0)], {}, safe=[(1,)])
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
    assert entries_of(t) == entries_of(dm)
    assert [len(column_basis(p112, t.runs, (a,), t.varmask)) for a in range(3)] == \
        [len(column_basis(p112, dm.runs, (a,), dm.varmask)) for a in range(3)]


def test_tensor_empty_set_kills_differential(p112, gf):
    dm = R(free_s(p112, gf, (0,), (5,)))
    t = tensor_EI(dm, set())
    assert entries_of(t) == {}
    # columns reduce to the generator monomial only
    assert all(m == 0 for _, m in column_basis(p112, t.runs, (2,), t.varmask))


def test_tensor_hirzebruch_keeps_horizontal_arrows(hirz3, gf):
    m = realize(Presentation.free([(0, 0)]), hirz3, Window((-3, 0), (3, 2)), gf)
    dm = R(m)
    t = tensor_EI(dm, {0, 2})
    # surviving entries multiply only by e0, e2, i.e. move degree by (1, 0)
    for (s, tt), elem in entries_of(t).items():
        for mono in elem:
            assert mono in (0b001, 0b100)


def test_morphism_commutes_check(p1, gf):
    dm = R(free_s(p1, gf, (0,), (5,)))
    n = len(dm.gens)
    ident = dict_morphism(dm, dm, {(i, i): {0: 1} for i in range(n)})
    assert commutes(ident)
    # scaling a single generator breaks the chain-map identity
    bad_entries = {(i, i): {0: 1} for i in range(n)}
    bad_entries[(0, 0)] = {0: 2}
    bad = dict_morphism(dm, dm, bad_entries)
    assert not commutes(bad)


def test_cone_of_identity_is_exact(p1, gf):
    dm = R(free_s(p1, gf, (0,), (6,)))
    n = len(dm.gens)
    ident = {(i, i): {0: 1} for i in range(n)}
    c = cone(dict_morphism(dm, dm, ident))
    for a in sorted(c.safe):
        assert homology_column(c, a) == {}


def test_cone_of_zero_is_direct_sum(p1, gf):
    dm = R(free_s(p1, gf, (0,), (6,)))
    c = cone(dict_morphism(dm, dm, {}))
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
    c = cone(dict_morphism(dm, dm, {}))
    for a in [(1,), (2,)]:
        if a not in c.safe:
            continue
        hc = homology_column(c, a)
        hd = homology_column(dm, a)
        for j in set(hc) | set(hd) | {jj + 1 for jj in hd}:
            lhs = abs(hc.get(j, 0) - hd.get(j, 0) - hd.get(j - 1, 0))
            assert lhs <= hd.get(j - 1, 0) + hd.get(j, 0)


def test_check_minimal(p1, gf):
    d0 = dict_module(p1, gf, [OmegaTwist((0,), 0)], {}, safe=[])
    assert check_minimal(d0)
    gens = [OmegaTwist((0,), 0), OmegaTwist((-1,), 0)]
    d1 = dict_module(p1, gf, gens, {(1, 0): {0b01: 1}}, safe=[])
    assert check_minimal(d1)
    # a constant entry runs from aux twist u to u + 1
    gens2 = [OmegaTwist((0,), 0), OmegaTwist((0,), 1)]
    d2 = dict_module(p1, gf, gens2, {(1, 0): {0: 1}}, safe=[])
    assert not check_minimal(d2)


def test_minimize_already_minimal(p1, gf):
    dm = R(free_s(p1, gf, (0,), (5,)))
    out, cancelled = minimize(dm, report=True)
    assert cancelled == 0
    assert out.gens == dm.gens


def test_minimize_unit_pair(p1, gf):
    gens = [OmegaTwist((0,), 0), OmegaTwist((0,), 1)]
    d = dict_module(p1, gf, gens, {(1, 0): {0: 1}}, safe=[])
    out = minimize(d)
    assert out.gens == []


def _random_cone(stack, field, rng):
    """The cone of a random morphism between zero-differential free modules
    on three random twists each: square-zero, with constant blocks wherever
    a twist recurs."""
    gens_a = [OmegaTwist((rng.randrange(0, 3),), rng.randrange(0, 2)) for _ in range(3)]
    gens_b = [OmegaTwist((rng.randrange(0, 3),), rng.randrange(0, 2)) for _ in range(3)]
    a = dict_module(stack, field, gens_a, {}, safe=[])
    b = dict_module(stack, field, gens_b, {}, safe=[])
    entries = {}
    table = stack.subsets_by_sum()
    top = getattr(field, "p", 10)
    for s in range(3):
        for t in range(3):
            cl, aux = entry_degree(stack, gens_a[t], gens_b[s], shift_aux=0)
            for mono in table.get(deg_neg(cl), []):
                if -bin(mono).count("1") == aux and rng.random() < 0.7:
                    entries.setdefault((s, t), {})[mono] = field.of(rng.randrange(1, top))
    c = cone(dict_morphism(a, b, entries))
    return FreeDiffModule(stack, field, c.runs, c.d, safe=[(x,) for x in range(-2, 6)])


def _rank3_module(stack, field, rng):
    """On P^1: the cone of a morphism between zero-differential modules with
    one constant block, 4 x 4 of rank 3 with a dependent third row. Random
    e_i blocks run into its target run and out of its source run, and an
    e_0 e_1 block joins the other two runs, which the cancellation
    corrects."""
    cst = [[1, 2, 0, 1], [0, 1, 1, 1], [1, 3, 1, 2], [2, 0, 1, 0]]
    gens_a = [OmegaTwist((0,), 0)] * 4 + [OmegaTwist((1,), 1)] * 2
    gens_b = [OmegaTwist((0,), 0)] * 4 + [OmegaTwist((-1,), -1)] * 2

    def coeff():
        return field.of(rng.randrange(1, 10))

    entries = {}
    for s in range(6):
        for t in range(6):
            if s < 4 and t < 4:
                elem = {0: field.of(cst[s][t])} if cst[s][t] else {}
            elif s < 4 or t < 4:
                elem = {0b01: coeff(), 0b10: coeff()}
            else:
                elem = {0b11: coeff()}
            if elem:
                entries[(s, t)] = elem
    a = dict_module(stack, field, gens_a, {})
    b = dict_module(stack, field, gens_b, {})
    c = cone(dict_morphism(a, b, entries))
    return FreeDiffModule(stack, field, c.runs, c.d, safe=[(x,) for x in range(-3, 4)])


def test_minimize_preserves_homology_random(p112, gf, rng):
    # random square-zero modules built as cones of random morphisms between
    # zero-differential free modules
    for _ in range(8):
        c = _random_cone(p112, gf, rng)
        assert check_square_zero(c)
        mini = minimize(c)
        for deg in sorted(c.safe):
            assert homology_column(c, deg) == homology_column(mini, deg)


def test_minimize_cancels_a_constant_block_at_once(p1, gf, rng, monkeypatch):
    # the rank-3 block is cancelled by one inversion of a 3 x 3 square
    calls = []

    def counted_invert(field, a):
        calls.append(a.shape)
        return invert(field, a)

    monkeypatch.setattr(diffmod, "invert", counted_invert)
    module = _rank3_module(p1, gf, rng)
    assert [u for _, _, u, _ in module.d.items()].count(0) == 1
    out, cancelled = minimize(module, report=True)
    assert cancelled == 3 and calls == [(3, 3)]
    assert check_minimal(out) and len(out.gens) == len(module.gens) - 6


def _minimize_cases(field, rng):
    p1, p112 = projective_space(1), weighted_projective(1, 1, 2)
    yield "Cech S on P1", cech_totalization_dm(Presentation.free([(0,)]), p1, Window((-4,), (4,)),
                                               field, 8)
    yield "Cech S/(x0^2,x1^2) on P112", cech_totalization_dm(
        _modules(p112)["S/(x0^2,x1^2)"], p112, Window((-4,), (4,)), field, 4)
    yield "R_complex", _r_complex(field)
    yield "rank 3", _rank3_module(p1, field, rng)
    for k in range(8):
        yield "cone %d" % k, _random_cone(p112, field, rng)


@pytest.mark.parametrize("field", [GF(), GF(2147483647), QQ()], ids=repr)
def test_minimize_matches_pairwise_reference(field, rng):
    # a block at a time cancels as many pairs as one unit at a time, to the
    # same generators and the same homology on the safe degrees
    for name, module in _minimize_cases(field, rng):
        got, cancelled = minimize(module, report=True)
        want, pairs = minimize_pairwise(module)
        assert cancelled == pairs, name
        assert Counter(got.gens) == Counter(want.gens), name
        assert check_minimal(got) and check_square_zero(got), name
        for a in sorted(module.safe):
            assert homology_column(got, a) == homology_column(want, a) == homology_column(module, a), \
                (name, a)


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
    assert d.gens == [] and entries_of(d) == {}


def test_fold_single_term(p1, gf):
    cx = EComplex({0: [0, -1]}, {})
    d = fold(p1, gf, cx)
    assert entries_of(d) == {}
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
        assert refold.gens == dm.gens and entries_of(refold) == entries_of(dm)


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
        dm2 = dict_module(p1, gf, refold.gens, entries_of(refold), safe=dm.safe)
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
        dict_module(p112, gf, gens, {(1, 0): elem})
    assert entries_of(dict_module(p112, gf, gens, {(1, 0): elem}, validate=False))


@pytest.mark.parametrize("gens, elem", INHOMOGENEOUS)
def test_inhomogeneous_morphism_entry_rejected(p112, gf, gens, elem):
    # the same entries at shift 0: a degree-0 morphism into the twists one
    # auxiliary degree lower
    source = dict_module(p112, gf, gens, {})
    target = dict_module(p112, gf, [OmegaTwist(tw.cl, tw.aux - 1) for tw in gens], {})
    with pytest.raises(ValueError):
        dict_morphism(source, target, {(1, 0): elem})
    assert entries_of(dict_morphism(source, target, {(1, 0): elem}, validate=False))


def test_homogeneous_entries_accepted(p112, gf):
    # e0 and e1 both have degree 1; e2 has degree 2 and fits the next twist
    gens = [OmegaTwist((0,), 0), OmegaTwist((-1,), 0), OmegaTwist((-2,), 0)]
    entries = {(1, 0): {0b001: 1, 0b010: 2}, (2, 0): {0b100: 1}}
    source = dict_module(p112, gf, gens, entries)
    # and as a degree-0 morphism into the twists one auxiliary degree lower
    target = dict_module(p112, gf, [OmegaTwist(tw.cl, tw.aux - 1) for tw in gens], {})
    assert entries_of(dict_morphism(source, target, entries)) == entries
