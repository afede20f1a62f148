"""The Koszul-dual exterior algebra E with its Cl + Z grading.

Monomials are variable subsets stored as bitmasks. Free modules are sums
of twists omega_E(c; u) of the dual module omega_E = Hom_k(E, k) ~
E(-w; -n-1), where w is the sum of the variable degrees. All degree
bookkeeping goes through these twist labels: the summand omega_E(c; u) has
its socle in degree (-c; -u) and its module generator in degree
(w - c; n + 1 - u).

Internally a twist omega_E(c; u) is the free module E(c - w; u - n - 1)
with monomial basis {e_T}; the basis vector e_T of a summand sits in degree
(w - c - deg(e_T's variables); n + 1 - u - |T|). Maps between free modules
act by left multiplication by elements of E.

A free module's generators are kept in Runs of consecutive generators of
one twist. The basis of a Cl-degree column is read off the runs whose Cl
part reaches that degree, as Slices: per auxiliary degree, (run x
monomials) index ranges.
"""

from __future__ import annotations

from bisect import bisect_right
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


class Runs:
    """The generators of a free module in runs of consecutive generators of
    one twist: run r is the size[r] generators from start[r] on, each of
    twist twist[r]. by_cl lists the runs of each Cl part in order, so that a
    column looks up only the runs with monomials at its degree. Runs(gens)
    makes the runs maximal; append adds a run even where the last run has
    the same twist."""

    def __init__(self, gens=()):
        self.gens = []
        self.start, self.size, self.twist = [], [], []
        self.by_cl = {}
        for tw in gens:
            if self.twist and self.twist[-1] == tw:
                self.size[-1] += 1
                self.gens.append(tw)
            else:
                self.append(tw, 1)

    def append(self, tw, n):
        """Add n generators of twist tw as a new run; returns its index."""
        r = len(self.start)
        self.start.append(len(self.gens))
        self.size.append(n)
        self.twist.append(tw)
        self.by_cl.setdefault(tw.cl, []).append(r)
        self.gens.extend([tw] * n)
        return r

    def cover(self, g0, g1):
        """(run, lo, hi, off) for each run meeting the generators g0 .. g1 - 1:
        the run's generators lo .. hi - 1, counted in the run, are those
        from off on, counted from g0."""
        r = max(bisect_right(self.start, g0) - 1, 0)
        while r < len(self.start) and self.start[r] < g1:
            lo = max(g0 - self.start[r], 0)
            hi = min(g1 - self.start[r], self.size[r])
            if lo < hi:
                yield r, lo, hi, self.start[r] + lo - g0
            r += 1

    def column(self, stack, a, varmask=None):
        """The runs with monomials in the Cl-degree-a column, in order, each
        as (run, its column's monomials inside varmask)."""
        top = deg_sub(stack.total_degree, a)
        hit = []
        for need, monos in stack.subsets_by_sum().items():
            runs = self.by_cl.get(deg_sub(top, need))
            if runs and varmask is not None:
                monos = [m for m in monos if not m & ~varmask]
            if runs and monos:
                hit += [(r, monos) for r in runs]
        hit.sort(key=lambda x: x[0])
        return hit


class Slice:
    """Labels (generator, monomial) of one auxiliary degree of a column, as
    segments (run, first generator, run size, monomials, offset): a segment
    holds its run's generators times its monomials, generator-major, from
    index offset on."""

    def __init__(self):
        self.segs = []
        self.n = 0

    def add(self, r, first, size, monos):
        self.segs.append((r, first, size, monos, self.n))
        self.n += size * len(monos)

    def __len__(self):
        return self.n

    def __iter__(self):
        for _, first, size, monos, _ in self.segs:
            for g in range(first, first + size):
                for m in monos:
                    yield g, m


def column_basis(stack, gens, a, varmask=None):
    """The k-basis of the Cl-degree-a slice of the free module on the twists
    gens (a list or Runs), as (generator index, monomial bitmask) pairs:
    generators in order, each with the monomials (inside varmask) of its
    column."""
    runs = gens if isinstance(gens, Runs) else Runs(gens)
    return [(g, m) for r, monos in runs.column(stack, a, varmask)
            for g in range(runs.start[r], runs.start[r] + runs.size[r]) for m in monos]


def column_slices(stack, runs, a, varmask=None):
    """The degree-a column of the free module on runs split by auxiliary
    degree: dict aux -> Slice."""
    out = {}
    for r, monos in runs.column(stack, a, varmask):
        base = stack.nvars - runs.twist[r].aux
        parts = {}
        for m in monos:
            parts.setdefault(base - popcount(m), []).append(m)
        for j, part in parts.items():
            out.setdefault(j, Slice()).add(r, runs.start[r], runs.size[r], part)
    return out


def socle_readoff(stack, generators):
    """Cohomology-table readout of a minimal module's generators: each
    omega_E(-a; i) increments entry (i, a)."""
    table = {}
    for tw in generators:
        key = (tw.aux, deg_neg(tw.cl))
        table[key] = table.get(key, 0) + 1
    return table
