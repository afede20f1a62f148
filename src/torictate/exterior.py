"""The Koszul-dual exterior algebra E with its Cl + Z grading.

Monomials are variable subsets stored as bitmasks; elements are sparse
coefficient dicts. Free modules are sums of twists omega_E(c; u) of the
dual module omega_E = Hom_k(E, k) ~ E(-w; -n-1), where w is the sum of the
variable degrees. All degree bookkeeping goes through these twist labels:
the summand omega_E(c; u) has its socle in degree (-c; -u) and its module
generator in degree (w - c; n + 1 - u).

Internally a twist omega_E(c; u) is the free module E(c - w; u - n - 1)
with monomial basis {e_T}; the basis vector e_T of a summand sits in degree
(w - c - deg(e_T's variables); n + 1 - u - |T|). Maps between free modules
act by left multiplication by elements of E.
"""

from __future__ import annotations

from typing import NamedTuple

from .toric import deg_neg, deg_sub


def popcount(mask):
    return bin(mask).count("1")


def mul_sign(u, t):
    """Sign of e_U * e_T for disjoint bitmasks: (-1)^(number of pairs
    i in U, j in T with i > j)."""
    sign = 1
    m = u
    while m:
        i = (m & -m).bit_length() - 1
        lower = t & ((1 << i) - 1)
        if popcount(lower) & 1:
            sign = -sign
        m &= m - 1
    return sign


def ext_mul(m1, m2):
    """Product of exterior monomials: None if they share a variable, else
    (sign, union)."""
    if m1 & m2:
        return None
    return mul_sign(m1, m2), m1 | m2


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
    """Product in E of sparse elements."""
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


def elem_mask_filter(x, varmask):
    """Delete monomials using variables outside varmask (the E_I quotient)."""
    return {m: c for m, c in x.items() if not (m & ~varmask)}


class OmegaTwist(NamedTuple):
    """Label for the free summand omega_E(cl; aux)."""

    cl: tuple
    aux: int


def entry_degree(stack, source_tw, target_tw, shift_aux=-1):
    """Required (Cl, aux) degree in E of a matrix entry source -> target for
    a map of total degree (0; shift_aux); the Cl part equals the degree sum
    of each monomial's variables negated."""
    cl = deg_sub(target_tw.cl, source_tw.cl)
    aux = target_tw.aux - source_tw.aux + shift_aux
    return cl, aux


def column_basis(stack, gens, a, varmask=None):
    """The k-basis of the Cl-degree-a slice of the free module on the twists
    gens, as (generator index, monomial bitmask) pairs: generators in order,
    each with the monomials (inside varmask) of its column, looked up once
    per distinct twist."""
    table = stack.subsets_by_sum()
    monos = {}  # Cl part of a twist -> the monomials of its column
    out = []
    for t, tw in enumerate(gens):
        ms = monos.get(tw.cl)
        if ms is None:
            need = deg_sub(deg_sub(stack.total_degree, tw.cl), a)
            ms = monos[tw.cl] = [m for m in table.get(need, ())
                                 if varmask is None or not m & ~varmask]
        out += [(t, m) for m in ms]
    return out


def column_slices(stack, gens, basis):
    """A column basis split by auxiliary degree: dict aux -> basis list."""
    out = {}
    for t, m in basis:
        out.setdefault(stack.nvars - gens[t].aux - popcount(m), []).append((t, m))
    return out


def socle_readoff(stack, generators):
    """Cohomology-table readout of a minimal module's generators: each
    omega_E(-a; i) increments entry (i, a)."""
    table = {}
    for tw in generators:
        key = (tw.aux, deg_neg(tw.cl))
        table[key] = table.get(key, 0) + 1
    return table
