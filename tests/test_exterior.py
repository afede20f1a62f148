import itertools

from torictate.exterior import (OmegaTwist, column_basis, ext_mul, mul_sign, popcount,
                                socle_readoff)
from torictate.toric import deg_neg, deg_sub


def generator_degree(stack, tw):
    """Degree of the module generator of omega_E(cl; aux)."""
    return deg_sub(stack.total_degree, tw.cl), stack.nvars - tw.aux


def socle_degree(tw):
    return deg_neg(tw.cl), -tw.aux


def basis_degree(stack, tw, mask):
    """(Cl-degree, aux degree) of the basis vector e_mask of the summand."""
    cl = deg_sub(deg_sub(stack.total_degree, tw.cl), stack.mask_degree(mask))
    aux = stack.nvars - tw.aux - popcount(mask)
    return cl, aux


def test_ext_mul_antisymmetry():
    assert ext_mul(0b01, 0b10) == (1, 0b11)   # e0 e1 = +e0e1
    assert ext_mul(0b10, 0b01) == (-1, 0b11)  # e1 e0 = -e0e1


def test_ext_mul_square_zero():
    assert ext_mul(0b01, 0b01) is None


def test_ext_mul_pair_times_single():
    assert ext_mul(0b011, 0b100) == (1, 0b111)  # (e0e1) e2 = +e0e1e2


def test_ext_mul_associative_and_graded_commutative():
    # exhaustive for 4 variables
    masks = range(16)
    for a, b in itertools.product(masks, repeat=2):
        r1 = ext_mul(a, b)
        r2 = ext_mul(b, a)
        if a & b:
            assert r1 is None and r2 is None
            continue
        s1, m1 = r1
        s2, m2 = r2
        assert m1 == m2
        want = (-1) ** (popcount(a) * popcount(b))
        assert s1 == want * s2
    for a, b, c in itertools.product(masks, repeat=3):
        if a & b or (a | b) & c:
            continue
        s_ab, m_ab = ext_mul(a, b)
        s1, m1 = ext_mul(m_ab, c)
        s_bc, m_bc = ext_mul(b, c)
        s2, m2 = ext_mul(a, m_bc)
        assert m1 == m2 and s_ab * s1 == s_bc * s2


def test_omega_degrees_p1(p1):
    # w = 2, n + 1 = 2 for P^1
    tw = OmegaTwist((0,), 0)
    assert socle_degree(tw) == ((0,), 0)
    assert generator_degree(p1, tw) == ((2,), 2)
    assert basis_degree(p1, tw, 0b11) == ((0,), 0)
    assert basis_degree(p1, tw, 0b00) == ((2,), 2)


def test_column_basis_omega_p1(p1):
    gens = [OmegaTwist((0,), 0)]
    # socle column (paper convention: omega_E spans degrees 0 .. w)
    assert column_basis(p1, gens, (0,)) == [(0, 0b11)]
    # generator column at w = +2, monomial the empty set
    assert column_basis(p1, gens, (2,)) == [(0, 0b00)]
    assert column_basis(p1, gens, (-2,)) == []
    assert len(column_basis(p1, gens, (1,))) == 2


def test_column_basis_empty_module(p1):
    assert column_basis(p1, [], (0,)) == []


def test_column_sizes_formula(p112, rng):
    gens = [OmegaTwist((rng.randrange(-3, 4),), rng.randrange(0, 3)) for _ in range(5)]
    table = p112.subsets_by_sum()
    from torictate.toric import deg_sub

    for _ in range(8):
        a = (rng.randrange(-6, 7),)
        want = sum(
            len(table.get(deg_sub(deg_sub(p112.total_degree, tw.cl), a), []))
            for tw in gens)
        assert len(column_basis(p112, gens, a)) == want


def test_socle_readoff_single(p1):
    assert socle_readoff(p1, [OmegaTwist((0,), 0)]) == {(0, (0,)): 1}


def test_socle_readoff_p112_structure_sheaf(p112):
    gens = ([OmegaTwist((4,), 2), OmegaTwist((0,), 0)]
            + [OmegaTwist((-1,), 0)] * 2 + [OmegaTwist((-2,), 0)] * 4)
    table = socle_readoff(p112, gens)
    assert table[(2, (-4,))] == 1
    assert table[(0, (0,))] == 1
    assert table[(0, (1,))] == 2
    assert table[(0, (2,))] == 4


def test_socle_readoff_genus_one_tail(p112):
    assert socle_readoff(p112, [OmegaTwist((0,), 1)]) == {(1, (0,)): 1}


def test_socle_readoff_round_trip(p112, rng):
    # building one generator omega_E(-a; i) per table unit recovers the table
    table = {}
    for _ in range(6):
        key = (rng.randrange(0, 3), (rng.randrange(-4, 5),))
        table[key] = table.get(key, 0) + rng.randrange(1, 3)
    gens = []
    for (i, a), n in table.items():
        from torictate.toric import deg_neg

        gens += [OmegaTwist(deg_neg(a), i)] * n
    assert socle_readoff(p112, gens) == table


def test_mul_sign_transpositions():
    assert mul_sign(0b100, 0b011) == 1  # e2 (e0e1): two transpositions
    assert mul_sign(0b010, 0b101) == -1  # e1 (e0e2): one transposition
