"""Per-layer tracing from outside the program.

Wraps the public entry points of the torictate modules with spans that
record calls and self time (span time minus the time covered by child
spans), plus a few work counts. Layer names are module-qualified entry point
names, so a later change can show in which module a saving lands.

Wrapping patches every torictate module namespace bound to the same function
object, because `from .linalg import rref` copies the name. Helpers called
millions of times per pass (toric.deg_*, exterior.ext_mul/mul_sign, GF scalar
ops) stay unwrapped; their cost shows up as their callers' self time.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _freeze(x):
    """A hashable stand-in for an argument; objects count by identity."""
    if x is None or isinstance(x, (int, str, float, bool)):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, (set, frozenset)):
        return frozenset(_freeze(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in x.items()))
    return ("id", id(x))


def _points_distinct(tr, layer, args, kwargs, result):
    tr.extra[layer + ".points"] += len(result)
    tr.seen[layer].add(_freeze((args, kwargs)))


def _points(tr, layer, args, kwargs, result):
    tr.extra[layer + ".points"] += len(result)


def _cells_rref(tr, layer, args, kwargs, result):
    tr.extra[layer + ".cells"] += int(np.size(args[1]))


def _cells_kernel(tr, layer, args, kwargs, result):
    tr.extra[layer + ".cells"] += args[0].rows * args[0].cols


def _nnz(tr, layer, args, kwargs, result):
    tr.extra[layer + ".nnz"] += sum(len(r) for r in args[1])


def _gens(tr, layer, args, kwargs, result):
    tr.extra[layer + ".gens"] += len(result.gens)


def _cancelled(tr, layer, args, kwargs, result):
    if isinstance(result, tuple):
        tr.extra[layer + ".cancelled"] += result[1]


def _in_dims(tr, layer, args, kwargs, result):
    if tr.dims_depth:
        tr.strands_in_dims += 1


# (layer, targets, extra counts, hook). A target is "module.function" or
# "module.Class.method" under torictate.
LAYERS = [
    ("laurent._laurent_exponents", ["laurent._laurent_exponents"], ("points", "distinct_frac"), _points_distinct),
    ("laurent.signed_exponents", ["laurent.signed_exponents"], ("points", "distinct_frac"), _points_distinct),
    ("laurent.LocalizedModule.piece", ["laurent.LocalizedModule.piece"], (), None),
    ("laurent.MonomialStrands.strand_homology", ["laurent.MonomialStrands.strand_homology"], (), _in_dims),
    ("laurent.CechComplex.strand_homology", ["laurent.CechComplex.strand_homology"], (), _in_dims),
    ("cohomology.oracle_table", ["cohomology.oracle_table"], (), None),
    ("cohomology.is_deg_I_0_regular", ["cohomology.is_deg_I_0_regular"], (), None),
    ("cohomology.fast_table_state", ["cohomology.fast_table_state"], (), None),
    ("smodule.monomial_basis", ["smodule.monomial_basis"], ("points",), _points),
    ("smodule.DegreewiseModule.piece", ["smodule.DegreewiseModule.piece"], (), None),
    ("smodule.realize", ["smodule.realize"], (), None),
    ("linalg.rref", ["linalg.rref"], ("cells",), _cells_rref),
    ("linalg.kernel_basis", ["linalg.kernel_basis"], ("cells",), _cells_kernel),
    ("linalg.RowReducer", ["linalg.RowReducer.__init__", "linalg.RowReducer.reduce_rows"], (), None),
    ("linalg.solve_in_span", ["linalg.solve_in_span"], (), None),
    ("linalg.invert", ["linalg.invert"], (), None),
    ("linalg.sparse_rank", ["linalg.sparse_rank"], ("nnz",), _nnz),
    ("dmres.min_free_resolution", ["dmres.min_free_resolution"], ("gens",), _gens),
    ("dmres._IncrementalRank.add", ["dmres._IncrementalRank.add"], (), None),
    ("dmres.tate_cone", ["dmres.tate_cone"], (), None),
    ("bgg.R", ["bgg.R"], ("gens",), _gens),
    ("bgg.betti_table", ["bgg.betti_table"], (), None),
    ("diffmod.minimize", ["diffmod.minimize"], ("cancelled",), _cancelled),
    ("exterior.socle_readoff", ["exterior.socle_readoff"], (), None),
    ("diffmod.FreeDiffModule.__init__", ["diffmod.FreeDiffModule.__init__"], (), None),
    ("diffmod.homology_column", ["diffmod.homology_column"], (), None),
    ("tate._monomial_transfer", ["tate._monomial_transfer"], (), None),
    ("tate.fm_transform", ["tate.fm_transform"], (), None),
    ("tate.tate_weighted", ["tate.tate_weighted"], (), None),
    ("diagonal.sparse_columns", ["diagonal.DiagComplex.sparse_columns",
                                 "diagonal.ExplicitBigradedComplex.sparse_columns"], (), None),
    ("diagonal.check_square_zero", ["diagonal.DiagComplex.check_square_zero",
                                    "diagonal.ExplicitBigradedComplex.check_square_zero"], (), None),
    ("diagonal.homology", ["diagonal.DiagComplex.homology",
                           "diagonal.ExplicitBigradedComplex.homology"], (), None),
    ("diagonal.check_acyclicity", ["diagonal.check_acyclicity"], (), None),
    ("diagonal.check_H0_diagonal", ["diagonal.check_H0_diagonal"], (), None),
    ("cli.parse_input", ["cli.parse_input"], (), None),
]

# Counted but not spanned: the entry points of one Cech stabilization.
DIMS_TARGETS = ["cohomology.CechOracle.local_dims", "cohomology.CechOracle.sheaf_dims"]
PASSES_METRIC = "cohomology.CechOracle.passes_per_degree"


def layer_metrics():
    """(name, unit, better) of every per-layer metric the tracer reports."""
    out = []
    for layer, _, extras, _ in LAYERS:
        out.append((layer + ".calls", "count", "lower"))
        out.append((layer + ".self_s", "s", "lower"))
        for e in extras:
            if e == "distinct_frac":
                out.append((layer + ".distinct_frac", "ratio", "higher"))
            else:
                out.append((layer + "." + e, "count", "lower"))
    out.append((PASSES_METRIC, "count", "lower"))
    return out


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "torictate" or name.startswith("torictate."))]


def _resolve(target):
    """Return [(owner, attribute)] bindings of a target's function object."""
    parts = target.split(".")
    module = sys.modules["torictate." + parts[0]]
    if len(parts) == 3:
        cls = getattr(module, parts[1])
        if parts[2] not in cls.__dict__:
            raise LookupError("%s is not defined on the class itself" % target)
        return [(cls, parts[2])]
    fn = getattr(module, parts[1])
    return [(m, name) for m in _modules() for name, v in list(vars(m).items()) if v is fn]


class Tracer:
    """Installs span wrappers on the layers, collects their statistics and
    puts every original back on restore()."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)
        self.seen = defaultdict(set)
        self.distinct = defaultdict(int)
        self.command_calls = {}
        self._calls_before = {}
        self.dims_depth = 0
        self.dims_calls = 0
        self.strands_in_dims = 0
        self._stack = []
        self._patched = []

    def _span(self, layer, fn, hook):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                calls[layer] += 1
                self_s[layer] += dur - frame[0]
            if hook is not None:
                hook(self, layer, args, kwargs, result)
            return result

        wrapper.bench_layer = layer
        return wrapper

    def _counted_dims(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.dims_depth:
                self.dims_calls += 1
            self.dims_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.dims_depth -= 1

        wrapper.bench_layer = PASSES_METRIC
        return wrapper

    def _patch(self, target, make):
        bindings = _resolve(target)
        if not bindings:
            raise LookupError("no binding found for %s" % target)
        owner, attr = bindings[0]
        original = owner.__dict__[attr]
        wrapped = make(original)
        for owner, attr in bindings:
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def install(self):
        for layer, targets, _, hook in LAYERS:
            for target in targets:
                self._patch(target, lambda fn, layer=layer, hook=hook: self._span(layer, fn, hook))
        for target in DIMS_TARGETS:
            self._patch(target, self._counted_dims)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def end_command(self, cid):
        """Record the command's calls per layer and close the distinct-argument
        window: memoisation inside one CLI invocation can only reuse that
        invocation's own calls."""
        self.command_calls[cid] = {layer: n - self._calls_before.get(layer, 0)
                                   for layer, n in self.calls.items()}
        self._calls_before = dict(self.calls)
        for layer, keys in self.seen.items():
            self.distinct[layer] += len(keys)
        self.seen.clear()

    def metrics(self):
        out = {}
        for layer, _, extras, _ in LAYERS:
            calls = self.calls[layer]
            out[layer + ".calls"] = calls
            out[layer + ".self_s"] = self.self_s[layer]
            for e in extras:
                if e == "distinct_frac":
                    out[layer + ".distinct_frac"] = self.distinct[layer] / calls if calls else 0.0
                else:
                    out[layer + "." + e] = self.extra[layer + "." + e]
        out[PASSES_METRIC] = self.strands_in_dims / self.dims_calls if self.dims_calls else 0.0
        return out


def bindings():
    """{(owner, attribute): object} of every binding the tracer patches."""
    targets = [t for _, ts, _, _ in LAYERS for t in ts] + DIMS_TARGETS
    return {(owner, attr): owner.__dict__[attr] for t in targets for owner, attr in _resolve(t)}


def leftover_wrappers():
    """Names of torictate attributes that still hold a span wrapper."""
    left = []
    for m in _modules():
        for name, v in vars(m).items():
            if hasattr(v, "bench_layer"):
                left.append("%s.%s" % (m.__name__, name))
            if isinstance(v, type) and v.__module__ == m.__name__:
                left += ["%s.%s.%s" % (m.__name__, name, a)
                         for a, f in vars(v).items() if hasattr(f, "bench_layer")]
    return left
