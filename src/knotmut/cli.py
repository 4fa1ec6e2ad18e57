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
import functools
import json
import math
import os
import re
import sys

from .colored import colored_jones
from .alexander import h1_double_cover
from .budget import ResourceLimitExceeded
from .diagram import PlanarDiagram, load_knot_file, parse_knot_spec
from .laurent import LaurentPoly, LaurentPoly2
from .permgroups import (PermGroup, alternating, cyclic, dihedral, psl2,
                         symmetric)
from .presentations import (GroupPresentation, double_cover_presentation,
                            low_index_subgroups, subgroup_abelianization)
from .quotients import epimorphisms, kernel_abelianization
from .report import POLYNOMIALS, ReportOptions, compare_pair, compute_report
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


def format_table1(name: str, p: LaurentPoly2) -> str:
    """Coefficient grid: one row per degree of the second variable."""
    lines = [f"{name}:" if name else ":"]
    if not p.coeffs:
        return "\n".join(lines + ["0 0", ""])
    e2s = sorted({e2 for (_, e2) in p.coeffs})
    e1s = sorted({e1 for (e1, _) in p.coeffs})
    gmin = e1s[0]
    lines.append(f"{e2s[0]} {e2s[-1]}")
    for e2 in range(e2s[0], e2s[-1] + 1, 2):
        row = {e1: c for (e1, f2), c in p.coeffs.items() if f2 == e2}
        if not row:
            continue
        lmin, lmax = min(row), max(row)
        cells = []
        for e1 in range(gmin, lmax + 1, 2):
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


_FAMILIES = {"C": cyclic, "D": dihedral, "A": alternating, "S": symmetric}


@functools.cache
def _target_group(name: str) -> PermGroup:
    """A target group by the name knotmut prints (C5, D3, A5, S4, PSL(2,7))
    or by the long forms Alt(5) and Sym(4)."""
    text = name.replace(" ", "")
    m = (re.fullmatch(r"([CDAS])(\d+)", text)
         or re.fullmatch(r"(Alt|Sym)\((\d+)\)", text))
    if m:
        return _FAMILIES[m[1][0]](int(m[2]))
    m = re.fullmatch(r"PSL\(2,(\d+)\)", text)
    if m:
        return psl2(int(m[1]))
    raise ValueError(f"unknown target group {name!r}")


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
                    help="time budget of each exponential search")
    sub = ap.add_subparsers(dest="cmd", required=True)
    # options shared by `report` and `compare`: each dest is a
    # ReportOptions field, with its default
    items = argparse.ArgumentParser(add_help=False)
    items.add_argument("--colors", type=_at_least(0),
                       default=ReportOptions.colors)
    items.add_argument("--quotients", type=_at_least(0),
                       default=ReportOptions.quotients,
                       help="largest target order; 0 skips the quotients")
    items.add_argument("--lowindex", type=_at_least(0),
                       default=ReportOptions.lowindex)
    items.add_argument("--whitehead-p", action="store_true",
                       dest="whitehead_homfly")
    items.add_argument("--cable-p", action="store_true", dest="cable_homfly")

    for cmd in POLYNOMIALS:
        p = sub.add_parser(cmd)
        p.add_argument("knot")
    p = sub.add_parser("cjones")
    p.add_argument("--color", type=_at_least(1), default=2)
    p.add_argument("knot")
    p = sub.add_parser("cable")
    p.add_argument("--strands", type=_at_least(1), default=2)
    p.add_argument("--twists", type=int, default=0)
    p.add_argument("knot")
    p = sub.add_parser("double")
    p.add_argument("--framing", type=int, default=None,
                   help="full twists; default compensates the writhe")
    p.add_argument("--clasp", type=int, choices=(1, -1), default=1)
    p.add_argument("knot")
    p = sub.add_parser("mutate")
    p.add_argument("--inner", required=True,
                   help="comma-separated twist sequence of the inner tangle")
    p.add_argument("--outer", required=True,
                   help="comma-separated twist sequence of the outer tangle")
    p.add_argument("--axis", choices=AXES, default="horizontal")
    p = sub.add_parser("cover")
    p.add_argument("action", choices=("group", "abelian", "lowindex",
                                      "quotients", "kernel-abelian"))
    p.add_argument("--max", type=_at_least(1), default=3, dest="max_index")
    p.add_argument("--target", default="D3")
    p.add_argument("knot")
    p = sub.add_parser("report", parents=[items])
    p.add_argument("knot")
    p = sub.add_parser("compare", parents=[items])
    p.add_argument("knots", nargs="+",
                   help="specs or files; their knots pair up in order")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except ResourceLimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    fmt = args.format
    budget = args.budget_seconds
    if args.cmd in POLYNOMIALS or args.cmd == "cjones":
        for name, d, _braid in _load_specs(args.knot):
            if args.cmd == "cjones":
                val = colored_jones(d, args.color, budget)
            else:
                val = POLYNOMIALS[args.cmd](d, budget)
            _emit_poly(name or d.name, val, fmt)
        return 0

    if args.cmd == "cable":
        for name, d, _braid in _load_specs(args.knot):
            out = cable(d, args.strands, args.twists)
            out.name = f"{name}-cable{args.strands}" if name else out.name
            _emit_pd(out)
        return 0

    if args.cmd == "double":
        for name, d, _braid in _load_specs(args.knot):
            framing = args.framing if args.framing is not None else -d.writhe()
            out = whitehead_double(d, framing, args.clasp)
            _emit_pd(out)
        return 0

    if args.cmd == "mutate":
        inner = rational_tangle([int(x) for x in args.inner.split(",")])
        outer = rational_tangle([int(x) for x in args.outer.split(",")],
                                start=1000)
        td = TangleDecomposition(outer, inner)
        original = td.glue("original")
        mutant = mutate(td, args.axis)
        mutant.name = f"mutant-{args.axis}"
        _emit_pd(original)
        _emit_pd(mutant)
        return 0

    if args.cmd == "cover":
        for name, d, braid in _load_specs(args.knot):
            if args.action == "abelian":
                print(f"{name or d.name}: {h1_double_cover(d)}")
                continue
            pres = double_cover_presentation(d, braid)
            if args.action == "group":
                _print_presentation(pres)
            elif args.action == "lowindex":
                for table in low_index_subgroups(pres, args.max_index,
                                                 budget_seconds=budget):
                    inv = subgroup_abelianization(pres, table)
                    print(f"index {len(table)}: {inv}")
            else:  # quotients, kernel-abelian
                grp = _target_group(args.target)
                eps = epimorphisms(pres, grp, simplify=False,
                                   budget_seconds=budget)
                if args.action == "quotients":
                    print(f"{name or d.name}: delta_{grp.name} = {len(eps)}")
                    continue
                if not eps:
                    print(f"{name or d.name}: no epimorphism onto {grp.name}")
                # sorted, since the search returns kernels in no set order
                invs = sorted(kernel_abelianization(pres, hom, grp)
                              for hom in eps)
                for i, inv in enumerate(invs, start=1):
                    print(f"{name or d.name}: kernel {i} abelianization {inv}")
        return 0

    # report and compare remain; their item flags are ReportOptions' fields
    opts = ReportOptions(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(ReportOptions)})
    if args.cmd == "report":
        for name, d, braid in _load_specs(args.knot):
            rep = compute_report(name, d, braid, opts)
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
        specs = [spec for arg in args.knots for spec in _load_specs(arg)]
        if not specs or len(specs) % 2:
            raise ValueError(f"compare needs knots in pairs, got {len(specs)}")
        for left, right in zip(specs[0::2], specs[1::2]):
            res = compare_pair(compute_report(*left, opts),
                               compute_report(*right, opts))
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
