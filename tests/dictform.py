"""Free differential E-modules and their morphisms in the dict form
{(target, source): {monomial: coeff}}, one entry per pair of generators,
for building small cases by hand and for comparing against references
that walk entries one at a time."""

import numpy as np

from torictate.diffmod import DMMorphism, FreeDiffModule, _from_entries
from torictate.exterior import Runs


def dict_module(stack, field, gens, entries, **kw):
    """The FreeDiffModule on the twists gens with the dict differential entries."""
    runs = Runs(gens)
    return FreeDiffModule(stack, field, runs, _from_entries(field, runs, runs, entries), **kw)


def dict_morphism(source, target, entries, **kw):
    """The DMMorphism with the dict entries (rows: target gens, cols: source gens)."""
    return DMMorphism(source, target, _from_entries(source.field, target.runs, source.runs, entries),
                      **kw)


def entries_of(x):
    """The dict form of a FreeDiffModule's differential or of a DMMorphism."""
    if isinstance(x, DMMorphism):
        rows, cols, emat = x.target.runs, x.source.runs, x.m
    else:
        rows = cols = x.runs
        emat = x.d
    out = {}
    for s, t, u, block in emat.items():
        vals = block.tolist()
        for i, k in zip(*np.nonzero(block)):
            out.setdefault((rows.start[s] + int(i), cols.start[t] + int(k)), {})[u] = vals[i][k]
    return out
