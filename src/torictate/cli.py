"""Command-line surface: a JSON input document describing the stack and its
modules, one subcommand per pipeline, deterministic table or JSON output.

Exit codes: 0 success, 2 schema error, 3 precondition failure, 4 window too
small (including Cech stabilization failures and dense matrices over the
size budget), 5 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .cohomology import (check_betti_bounds_weighted, cohomology_table_fast,
                         is_0_regular, is_deg_I_0_regular, oracle_table)
from .bgg import betti_table
from .diagonal import (build_F_prime_weighted, check_acyclicity,
                       check_H0_diagonal, hirzebruch1_report)
from .errors import (PreconditionError, SchemaError, VerificationError,
                     WindowTooSmall)
from .linalg import GF, QQ
from .smodule import Poly, Presentation, realize
from .tate import fm_transform, safe_degrees, tate_weighted
from .toric import ToricStack, Window, deg_neg, hirzebruch

EXIT_CODES = [
    (SchemaError, 2),
    (PreconditionError, 3),
    (WindowTooSmall, 4),
    (VerificationError, 5),
]
# torictate's own errors are ValueErrors too; parse_input passes them on
# with their exit codes rather than turning them into SchemaError
_OWN_ERRORS = tuple(klass for klass, _ in EXIT_CODES)


def _list(value, where):
    if not isinstance(value, list):
        raise SchemaError("%s must be a list" % where)
    return value


def _objects(value, where):
    if not all(isinstance(v, dict) for v in _list(value, where)):
        raise SchemaError("%s must be a list of objects" % where)
    return value


def _int(value, where):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise SchemaError("%s must be an integer, got %r" % (where, value))


def _ints(value, where, length=None):
    out = [_int(x, where) for x in _list(value, where)]
    if length is not None and len(out) != length:
        raise SchemaError("%s must be a length-%d list" % (where, length))
    return out


def parse_input(document):
    """Validate and load a job document: returns (stack, field, modules).
    Every malformed document raises SchemaError."""
    if not isinstance(document, dict):
        raise SchemaError("input document must be a JSON object")

    def need(key, typ):
        if key not in document:
            raise SchemaError("missing required key %r" % key)
        v = document[key]
        if not isinstance(v, typ):
            raise SchemaError("key %r must be of type %s" % (key, typ.__name__))
        return v

    fielddoc = need("field", dict)
    if "prime" in fielddoc:
        field = GF(_int(fielddoc["prime"], "field.prime"))
    elif fielddoc.get("rationals"):
        field = QQ()
    else:
        raise SchemaError("field must give a prime or rationals")
    r = need("cl_rank", int)
    degrees = []
    for k, v in enumerate(_objects(need("variables", list), "variables")):
        if "degree" not in v:
            raise SchemaError("variables[%d] must be an object with a degree" % k)
        degrees.append(tuple(_ints(v["degree"], "variables[%d].degree" % k, r)))
    supports = []
    for k, s in enumerate(need("irrelevant", list)):
        support = set(_ints(s, "irrelevant[%d]" % k))
        if not support:
            raise SchemaError("irrelevant[%d] must be a nonempty index list" % k)
        supports.append(support)
    theta = _ints(need("theta", list), "theta")
    cover = document.get("cover")
    if cover is not None:
        cover = [set(_ints(c, "cover[%d]" % k)) for k, c in enumerate(_list(cover, "cover"))]
    eff = document.get("effective_cone")
    if eff is not None:
        eff = [tuple(_ints(g, "effective_cone[%d]" % k, r)) for k, g in enumerate(_list(eff, "effective_cone"))]
    pcs = []
    for k, pc in enumerate(_objects(document.get("primitive_collections") or [], "primitive_collections")):
        if "vars" not in pc or "deg_I" not in pc:
            raise SchemaError("primitive_collections[%d] needs vars and deg_I" % k)
        pcs.append((set(_ints(pc["vars"], "primitive_collections[%d].vars" % k)),
                    _ints(pc["deg_I"], "primitive_collections[%d].deg_I" % k)))
    try:
        stack = ToricStack(r=r, var_degrees=degrees, irrelevant_supports=supports,
                           theta=theta, cover=cover or None, eff_generators=eff or None,
                           primitive_collections=pcs)
    except _OWN_ERRORS:
        raise
    except (ValueError, KeyError) as exc:
        raise SchemaError(str(exc))
    modules = {}
    bodies = document.get("modules") or {}
    if not isinstance(bodies, dict):
        raise SchemaError("modules must be an object")
    for name, body in bodies.items():
        if not isinstance(body, dict):
            raise SchemaError("modules[%r] must be an object" % name)
        where = "modules[%r]" % name
        gens = _objects(body.get("generators", [{"degree": [0] * r}]), where + ".generators")
        gen_degrees = [tuple(_ints(g.get("degree"), "%s.generators[%d].degree" % (where, k), r))
                       for k, g in enumerate(gens)]
        rel_degrees = []
        entries = {}
        for j, rel in enumerate(_objects(body.get("relations", []), where + ".relations")):
            rel_degrees.append(tuple(_ints(rel.get("degree"), "%s.relations[%d].degree" % (where, j), r)))
            ent = rel.get("entries")
            if not isinstance(ent, list) or len(ent) != len(gen_degrees):
                raise SchemaError("%s.relations[%d].entries needs one entry per generator" % (where, j))
            for i, terms in enumerate(ent):
                if not terms:
                    continue
                at = "%s.relations[%d].entries[%d]" % (where, j, i)
                if not all(isinstance(t, list) and len(t) == 2 for t in _list(terms, at)):
                    raise SchemaError("%s must list [coefficient, exponents] pairs" % at)
                try:
                    entries[(i, j)] = Poly([(_int(c, at), tuple(_ints(e, at, stack.nvars)))
                                            for c, e in terms])
                except ValueError as exc:
                    raise SchemaError("%s: %s" % (at, exc))
        pres = Presentation(gen_degrees, rel_degrees, entries)
        try:
            pres.validate(stack)
        except _OWN_ERRORS:
            raise
        except ValueError as exc:
            raise SchemaError("modules[%r]: %s" % (name, exc))
        modules[name] = pres
    return stack, field, modules


def _module(stack, modules, name):
    if name == "S":
        return Presentation.free([(0,) * stack.r])
    if name not in modules:
        raise SchemaError("no module named %r in the document" % name)
    return modules[name]


def parse_window(text, r):
    parts = text.split(",")
    if len(parts) != r:
        raise SchemaError("window needs %d ranges, got %r" % (r, text))
    lo, hi = [], []
    for p in parts:
        try:
            a, b = p.split(":")
            lo.append(int(a))
            hi.append(int(b))
        except ValueError:
            raise SchemaError("bad window range %r (expected lo:hi)" % p)
    try:
        return Window(tuple(lo), tuple(hi))
    except ValueError as exc:
        raise SchemaError(str(exc))


def default_window(stack, pres):
    w = max(abs(stack.theta(stack.total_degree)), 1)
    reach = w
    for d in pres.gen_degrees + pres.rel_degrees:
        reach = max(reach, abs(stack.theta(d)))
    smin, smax = stack.subset_sum_hull()
    return Window(tuple(s - reach - 2 for s in smin), tuple(s + reach + 2 for s in smax))


def _deg(a):
    return ",".join(str(x) for x in a)


def _render(table, stack, fmt, kind, text):
    """A table keyed by (index, degree): its nonzero entries (index, degree,
    value), in (index, theta, degree) order, as JSON or through text."""
    entries = sorted(((i, tuple(a), v) for (i, a), v in table.items() if v),
                     key=lambda t: (t[0], stack.theta(t[1]), t[1]))
    if fmt == "json":
        return json.dumps({"kind": kind,
                           "entries": [[i, list(a), int(v)] for i, a, v in entries]},
                          sort_keys=True)
    return text(entries)


def format_table(table, stack, window, fmt):
    def text(entries):
        if stack.r != 1 or window is None:
            return "\n".join("%d %s %d" % (i, _deg(a), v) for i, a, v in entries)
        degs = [a for a in range(window.lo[0], window.hi[0] + 1)]
        imax = max((i for i, _, _ in entries), default=0)
        lines = ["i\\a " + " ".join("%5d" % a for a in degs)]
        for i in range(imax + 1):
            row = ["%5s" % (table.get((i, (a,)), 0) or ".") for a in degs]
            lines.append(("%-3d " % i) + " ".join(row))
        return "\n".join(lines)

    return _render(table, stack, fmt, "cohomology", text)


def _diagonal_report(title, square_zero, acyclic, h0, verify):
    """The three diagonal check lines under a title; VerificationError when
    verifying and a check failed."""
    if verify and not (square_zero and acyclic and h0):
        raise VerificationError("diagonal checks failed")
    return "\n".join([title, "square-zero: %s" % square_zero,
                      "acyclic in positive degrees: %s" % acyclic,
                      "H0 matches the diagonal Hilbert function: %s" % h0])


def _looks_like_hirzebruch1(stack):
    """The hard-coded resolution holds for its variable order and ideal only."""
    model = hirzebruch(1)
    return (stack.var_degrees == model.var_degrees and
            set(stack.irrelevant_supports) == set(model.irrelevant_supports))


def run(command, args, stack, field, modules):
    """Execute one subcommand; returns printable output."""
    pres = _module(stack, modules, args.module)
    window = parse_window(args.window, stack.r) if args.window else default_window(stack, pres)
    fmt = args.format
    if command in ("cohomology", "tate", "verify"):
        # the exterior path when Cl = Z, the Cech Fourier-Mukai transform otherwise
        if stack.r == 1:
            build = tate_weighted if command == "tate" else cohomology_table_fast
            result = build(pres, stack, window, field, d=args.truncate)
        else:
            fm = fm_transform(pres, stack, window, field)
            result = fm if command == "tate" else fm.table
    if command == "cohomology":
        return format_table(result, stack, window, fmt)
    if command == "oracle":
        module = realize(pres, stack, window, field)
        table = oracle_table(module, stack, window.points())
        return format_table(table, stack, window, fmt)
    if command == "tate":
        # at Cl rank >= 2 the table counts the generators, which are never
        # built; the Cl = Z generators reach outside the window
        counts = (Counter((tw.aux, tw.cl) for tw in result.gens) if stack.r == 1 else
                  {(i, deg_neg(a)): n for (i, a), n in result.table.items()})
        return _render(counts, stack, fmt,
                       "tate-generators", lambda entries: "\n".join(
                           "omega_E(%s; %d)^%d" % (_deg(c), u, n) for u, c, n in entries))
    if command == "betti":
        module = realize(pres, stack, window, field)
        return _render(betti_table(module), stack, fmt, "betti", lambda entries: "\n".join(
            "beta_%d at %s = %d" % (j, _deg(a), v) for j, a, v in entries))
    if command == "diagonal":
        if stack.r == 1:
            title = "finite diagonal subcomplex on a weighted projective stack"
            if not args.verify:
                return title
            cx = build_F_prime_weighted(stack, field)
            top = max(2, window.hi[0])
            bids = [((d,), (e,)) for d in range(0, top + 1) for e in range(0, top + 1)]
            return _diagonal_report(title, cx.check_square_zero(bids), check_acyclicity(cx, bids),
                                    check_H0_diagonal(cx, bids), True)
        if _looks_like_hirzebruch1(stack):
            rep = hirzebruch1_report(field, 0, 3 if not args.verify else 4)
            return _diagonal_report("hard-coded finite diagonal resolution (Hirzebruch type 1)",
                                    rep["square_zero"], rep["acyclic_positive"], rep["h0_hilbert"],
                                    args.verify)
        raise PreconditionError("finite diagonal subcomplexes are available for r = 1 and the Hirzebruch-1 model only")
    if command == "regularity":
        module = realize(pres, stack, window, field)
        lines = []
        if stack.r == 1:
            reg = is_0_regular(module, stack)
            lines.append("0-regular: %s" % reg)
            if reg:
                report = check_betti_bounds_weighted(module, stack)
                lines.append("betti bound violations: %d" % len(report.violations))
                for v in report.violations:
                    lines.append("  %s" % (v,))
        else:
            if not stack.primitive_collections:
                raise PreconditionError("no primitive collections in the document")
            degs = window.points()
            for pc in stack.primitive_collections:
                reg = is_deg_I_0_regular(module, stack, pc.vars, degs)
                lines.append("deg_I 0-regular for %s: %s" % (sorted(pc.vars), reg))
        return "\n".join(lines)
    if command == "verify":
        module = realize(pres, stack, window, field)
        safe = safe_degrees(stack, window)
        if not safe:
            raise WindowTooSmall("the window has no safe degrees; enlarge it beyond the subset-sum reach")
        otab = oracle_table(module, stack, safe)
        bad = []
        imax = stack.nvars - stack.r
        for a in safe:
            for i in range(imax + 1):
                if result.get((i, tuple(a)), 0) != otab.get((i, tuple(a)), 0):
                    bad.append((i, a))
        if bad:
            raise VerificationError("oracle mismatch at %s" % (bad[:5],))
        path = "exterior" if stack.r == 1 else "Fourier-Mukai"
        return "verified: %s path agrees with the Cech oracle at %d safe degrees" % (path, len(safe))
    raise SchemaError("unknown command %r" % command)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="torictate",
        description="Tate resolutions, sheaf cohomology, Betti tables and diagonal "
                    "resolutions on projective toric stacks, by exact linear algebra.")
    parser.add_argument("command",
                        choices=["cohomology", "tate", "betti", "diagonal", "regularity",
                                 "oracle", "verify"])
    parser.add_argument("input", help="JSON job document")
    parser.add_argument("--module", default="S", help="module name (default: the Cox ring S)")
    parser.add_argument("--window", default=None, help="degree window lo:hi[,lo:hi...]")
    parser.add_argument("--truncate", type=int, default=None, help="truncation degree override")
    parser.add_argument("--format", choices=["table", "json"], default="table")
    parser.add_argument("--prime", type=int, default=None, help="override the document's prime")
    parser.add_argument("--verify", action="store_true", help="run the verification checks")
    argv = list(sys.argv[1:] if argv is None else argv)
    # let "--window -8:8" through even though the value starts with a dash
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--window" and i + 1 < len(argv):
            merged.append("--window=" + argv[i + 1])
            i += 2
            continue
        merged.append(tok)
        i += 1
    args = parser.parse_args(merged)
    try:
        try:
            with open(args.input) as fh:
                document = json.load(fh)
        except OSError as exc:
            raise SchemaError("cannot read input: %s" % exc)
        except json.JSONDecodeError as exc:
            raise SchemaError("input is not valid JSON: %s" % exc)
        stack, field, modules = parse_input(document)
        if args.prime is not None:
            field = GF(args.prime)
        out = run(args.command, args, stack, field, modules)
        print(out)
        return 0
    except MemoryError:
        print("error: out of memory (try a smaller --window)", file=sys.stderr)
        return 4
    except Exception as exc:
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                print("error: %s" % exc, file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
