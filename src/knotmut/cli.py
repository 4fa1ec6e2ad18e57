"""Command-line front end.

Knots are given either as literal spec strings (`braid: 3 | 1 -2 1 -2`,
`pd: X(0,1,2,3) ...`, or a built-in name like `trefoil`) or as a path
to a file with one spec per line.  All polynomial output uses the
canonical ascending text form; `--format json` emits exponent and
coefficient lists; `--format table1` prints two-variable polynomials as
a coefficient grid (rows by the second variable's degree).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .colored import colored_jones
from .budget import ResourceLimitExceeded, time_limit
from .diagram import PlanarDiagram, load_knot_file, parse_knot_spec
from .laurent import LaurentPoly, LaurentPoly2
from .presentations import GroupPresentation
from .quotients import Cover
from .report import ReportOptions, compare_pair, compute_report, routes
from .satellites import cable, whitehead_double
from .tangles import AXES, TangleDecomposition, mutate, rational_tangle


def _load_specs(arg: str):
    if os.path.exists(arg):
        return load_knot_file(arg)
    return [parse_knot_spec(arg)]


def _poly_json(p):
    if isinstance(p, LaurentPoly):
        return {"variable": p.var,
                "terms": sorted([e, c] for e, c in p.coeffs.items())}
    if isinstance(p, LaurentPoly2):
        return {"variables": list(p.vars),
                "terms": sorted([e1, e2, c] for (e1, e2), c in p.coeffs.items())}
    return p


def _degree_step(exponents: list[int]) -> int:
    """2 when all `exponents` share parity (as HOMFLY's do), else 1."""
    return 2 if len({e % 2 for e in exponents}) == 1 else 1


def format_table1(name: str, p: LaurentPoly2) -> str:
    """Coefficient grid: one row per degree of the second variable.

    Rows and cells step each degree by 2 when all its exponents share
    parity, and by 1 otherwise (the Kauffman polynomial's)."""
    lines = [f"{name}:" if name else ":"]
    if not p.coeffs:
        return "\n".join(lines + ["0 0", ""])
    e2s = sorted({e2 for (_, e2) in p.coeffs})
    e1s = sorted({e1 for (e1, _) in p.coeffs})
    gmin = e1s[0]
    step1 = _degree_step(e1s)
    lines.append(f"{e2s[0]} {e2s[-1]}")
    for e2 in range(e2s[0], e2s[-1] + 1, _degree_step(e2s)):
        row = {e1: c for (e1, f2), c in p.coeffs.items() if f2 == e2}
        if not row:
            continue
        lmin, lmax = min(row), max(row)
        cells = []
        for e1 in range(gmin, lmax + 1, step1):
            if e1 < lmin:
                cells.append(" " * 7)
            else:
                cells.append(f"{row.get(e1, 0):7d}")
        lines.append(f"{lmin:4d} {lmax:4d}" + "".join(cells).rstrip())
    lines.append("")
    return "\n".join(lines)


def _emit_poly(name: str, p, fmt: str):
    label = f"{name}: " if name else ""
    if fmt == "json":
        print(json.dumps({"name": name, "polynomial": _poly_json(p)},
                         sort_keys=True))
    elif fmt == "table1" and isinstance(p, LaurentPoly2):
        print(format_table1(name, p))
    else:
        print(f"{label}{p}")


def _emit_pd(d: PlanarDiagram):
    prefix = f"name={d.name} " if d.name else ""
    print(f"{prefix}pd: {d}")


def _at_least(low: int):
    """An argparse type: an integer, refused below `low`."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {value}")
        return value
    return count


def _seconds(text: str) -> float:
    """An argparse type: a finite number of seconds, at least 0."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number of "
                                         f"seconds, at least 0, got {text}")
    return value


_POLYNOMIAL_COMMANDS = ("jones", "alexander", "homfly", "kauffman", "cjones")


def _print_presentation(g: GroupPresentation):
    print(f"generators: {g.ngens}")
    for i, r in enumerate(g.relators, start=1):
        print(f"{i}. {len(r)} [ " + ", ".join(str(x) for x in r) + " ]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="knotmut",
                                 description="exact knot invariants and "
                                             "mutation comparisons")
    ap.add_argument("--format", choices=("text", "json", "table1"),
                    default="text")
    ap.add_argument("--budget-seconds", type=_seconds, default=None,
                    help="time budget of the command, or of each item "
                         "of report and compare")
    sub = ap.add_subparsers(dest="cmd", required=True)
    # options shared by `report` and `compare`: each dest is a
    # ReportOptions field, with its default
    items = argparse.ArgumentParser(add_help=False)
    items.add_argument("--colors", type=_at_least(2),
                       default=ReportOptions.colors,
                       help="colored Jones polynomials from color 3 up "
                            "to this color; color 2 is the jones item, "
                            "so 2 adds no colored item")
    items.add_argument("--quotients", type=_at_least(0),
                       default=ReportOptions.quotients,
                       help="epimorphism counts onto the built-in targets "
                            "up to this order whose abelianization has odd "
                            "order, as the double branched cover's H1 "
                            "has; 0 skips them")
    items.add_argument("--lowindex", type=_at_least(0),
                       default=ReportOptions.lowindex,
                       help="subgroup abelianizations of the double "
                            "branched cover up to this index; 0 skips them")
    items.add_argument("--kernels", type=_at_least(0),
                       default=ReportOptions.kernels,
                       help="abelian invariants of the kernels onto the "
                            "same targets as --quotients, up to this "
                            "order; 0 skips them")
    items.add_argument("--whitehead-p", action="store_true",
                       dest="whitehead_homfly",
                       help="HOMFLY of the 0-framed positive-clasp "
                            "Whitehead double")
    items.add_argument("--cable-p", action="store_true", dest="cable_homfly",
                       help="HOMFLY of the blackboard-framed 2-cable: two "
                            "diagrams of one knot with different writhes "
                            "can read DIFFERENT on it")

    for cmd in _POLYNOMIAL_COMMANDS:
        sub.add_parser(cmd).add_argument("knot")
    sub.choices["cjones"].add_argument("--color", type=_at_least(1), default=2)
    p = sub.add_parser("cable")
    p.add_argument("--strands", type=_at_least(1), default=2)
    p.add_argument("--twists", type=int, default=0)
    p.add_argument("knot")
    p = sub.add_parser("double")
    p.add_argument("--framing", type=int, default=None,
                   help="full twists; the default, minus the writhe, "
                        "gives the 0-framed double")
    p.add_argument("--clasp", type=int, choices=(1, -1), default=1)
    p.add_argument("knot")
    p = sub.add_parser("mutate")
    p.add_argument("--inner", required=True,
                   help="comma-separated twist sequence of the inner tangle")
    p.add_argument("--outer", required=True,
                   help="comma-separated twist sequence of the outer tangle")
    p.add_argument("--axis", choices=AXES, default="horizontal")
    p = sub.add_parser("cover")
    p.add_argument("action", choices=("group",),
                   help="print the double branched cover's group; the "
                        "searches on it are report items")
    p.add_argument("knot")
    p = sub.add_parser("report", parents=[items])
    p.add_argument("knot")
    p = sub.add_parser("compare", parents=[items])
    p.add_argument("knots", nargs="+",
                   help="specs or files; their knots pair up in order")

    args = ap.parse_args(argv)
    # report and compare give each item the whole budget themselves
    whole = args.cmd not in ("report", "compare")
    try:
        with time_limit(args.budget_seconds if whole else None):
            return _dispatch(args)
    except ResourceLimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    fmt = args.format
    if args.cmd in _POLYNOMIAL_COMMANDS:
        for d in _load_specs(args.knot):
            # cjones runs the state sum, the others their report row's engine
            _emit_poly(d.name, colored_jones(d, args.color)
                       if args.cmd == "cjones" else
                       routes(d, ReportOptions())[args.cmd][-1](), fmt)
        return 0

    if args.cmd == "cable":
        for d in _load_specs(args.knot):
            _emit_pd(cable(d, args.strands, args.twists))
        return 0

    if args.cmd == "double":
        for d in _load_specs(args.knot):
            _emit_pd(whitehead_double(d, args.framing, args.clasp))
        return 0

    if args.cmd == "mutate":
        inner = rational_tangle([int(x) for x in args.inner.split(",")])
        outer = rational_tangle([int(x) for x in args.outer.split(",")])
        td = TangleDecomposition(outer, inner)
        original = td.glue("original")
        mutant = mutate(td, args.axis)
        mutant.name = f"mutant-{args.axis}"
        _emit_pd(original)
        _emit_pd(mutant)
        return 0

    if args.cmd == "cover":
        for d in _load_specs(args.knot):
            _print_presentation(Cover(d).presentation)
        return 0

    # report and compare remain; their item flags are ReportOptions' fields
    opts = ReportOptions(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(ReportOptions)})
    if args.cmd == "report":
        for d in _load_specs(args.knot):
            rep = compute_report(d.name, d, opts)
            if fmt == "json":
                print(json.dumps(rep.as_dict(), sort_keys=True))
            else:
                print(f"== {rep.name or 'knot'} ==")
                for key, item in rep.items.items():
                    if fmt == "table1" and isinstance(item.value, LaurentPoly2):
                        print(format_table1(key, item.value))
                    else:
                        print(f"{key}: {item.text()}")
        return 0

    if args.cmd == "compare":
        knots = [d for arg in args.knots for d in _load_specs(arg)]
        if not knots or len(knots) % 2:
            raise ValueError(f"compare needs knots in pairs, got {len(knots)}")
        for left, right in zip(knots[0::2], knots[1::2]):
            res = compare_pair(compute_report(left.name, left, opts),
                               compute_report(right.name, right, opts))
            if fmt == "json":
                print(json.dumps(res.as_dict(), sort_keys=True))
                continue
            print(f"== {res.left.name or 'knot'} vs "
                  f"{res.right.name or 'knot'} ==")
            for key, state in res.per_item.items():
                print(f"{key}: {state}")
            print(f"verdict: {res.verdict}")
        return 0

    raise ValueError(f"unhandled command {args.cmd}")


if __name__ == "__main__":
    sys.exit(main())
