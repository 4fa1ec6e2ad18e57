"""Invariant reports and the pair-comparison pipeline.

A report computes a configurable set of invariants for one knot; the
comparison pipeline evaluates two reports item by item.  Every report
item but `cable_homfly` is a mutation invariant, so any item that is
done on both knots and differs excludes mutation.  `cable_homfly` is the
HOMFLY of the blackboard-framed 2-cable, whose framing is the diagram's
writhe, so two diagrams of one knot can differ on it; the verdict still
counts it like the others until the cable is re-framed (ROADMAP item
2a).  Equality never proves mutation, so the strongest negative verdict
is "mutation excluded" and the positive case is always "consistent with
mutation (inconclusive)".
`routes` is the report's table: one row per item, in the order the items
are computed, holding the item's routes in order of preference.  A
route is an engine, which computes the item from the diagram, or a
reading `(source, fn)` of another item's value: `jones` and `alexander`
are read off `homfly` and `cjones_3` off `kauffman`.  Every row ends in
an engine, which the CLI's polynomial commands run.  The colored Jones
items start at `cjones_3`, since J_2 is the `jones` item in q = 1/t
(Kirby & Melvin, Invent. Math. 105, 1991).
The group items share one `quotients.Cover` per knot, built only if one
of them runs, and search the built-in targets, built once per process,
whose abelianization has odd order: `quotients` counts the epimorphisms
onto each target up to a bound on its order, and `kernel_abelian` lists
their kernels' abelian invariants (the paper's sharpest group test) up
to a bound of its own, on the same search per target.  These rows are
the only callers of the `Cover` searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from .alexander import alexander_pd, h1_double_cover
from .bracket import jones
from .budget import ResourceLimitExceeded, time_limit
from .colored import colored_jones
from .diagram import PlanarDiagram
from .permgroups import PermGroup, builtin_targets
from .quotients import Cover
from .skein2 import (alexander_from_homfly, cjones3_from_kauffman, homfly,
                     homfly_2cable, jones_from_homfly, kauffman_f,
                     p_whitehead_plus)

DONE = "done"
SKIPPED = "skipped"           # every item of a link; an engine error raises
LIMITED = "resource-limited"

VERDICT_EXCLUDED = "mutation excluded"
VERDICT_INCONCLUSIVE = "consistent with mutation (inconclusive)"


@dataclass
class ReportOptions:
    colors: int = 2               # colored Jones from N = 3 up to this N
    quotients: int = 0            # delta over built-in targets up to this order
    lowindex: int = 0             # subgroup abelianizations up to this index
    kernels: int = 0              # kernel homology, targets up to this order
    whitehead_homfly: bool = False
    cable_homfly: bool = False
    budget_seconds: float | None = None  # per item, for every search

    def __post_init__(self):
        if self.colors < 2:
            raise ValueError(f"colors must be at least 2, got {self.colors}")


@dataclass
class ReportItem:
    name: str
    status: str
    value: object = None
    detail: str = ""
    elapsed: float = 0.0          # seconds spent computing the item

    def text(self) -> str:
        if self.status != DONE:
            return f"[{self.status}{': ' + self.detail if self.detail else ''}]"
        return str(self.value)


@dataclass
class InvariantReport:
    name: str
    items: dict[str, ReportItem] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "items": {k: {"status": it.status, "value": _jsonable(it.value),
                          "detail": it.detail, "elapsed": it.elapsed}
                      for k, it in self.items.items()},
        }


def _jsonable(v):
    if v is None or isinstance(v, (int, str, bool)):
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return str(v)


def _targets(max_order: int) -> list[PermGroup]:
    """The built-in targets up to `max_order` that a knot's double
    branched cover can map onto: its H1 has odd order det K, and maps
    onto the abelianization of each quotient."""
    return [t for t in builtin_targets(max_order)
            if t.abelianization_order % 2]


def routes(d: PlanarDiagram, opts: ReportOptions) -> dict[str, tuple]:
    """The items that `opts` turns on, each with its routes in order of
    preference: readings `(source, fn)` of another item's value, then
    the engine, called with no argument, that ends every row.  Each
    engine looks its function up in this module when it runs, so a
    patched module attribute is the one called.  The group rows' target
    lists are built here, outside every item's time limit, and only for
    a row that is on."""
    cover = Cover(d)    # one cover for both group items, built on first use
    quotient_targets = _targets(opts.quotients) if opts.quotients else []
    kernel_targets = _targets(opts.kernels) if opts.kernels else []
    table = {
        "homfly": (lambda: homfly(d),),
        "kauffman": (lambda: kauffman_f(d),),
        # V(t) and Delta(t) are P at l = i t^-1, m = i(t^-1/2 - t^1/2) and
        # at l = i, m = i(t^1/2 - t^-1/2) (Freyd et al., Bull. AMS 12, 1985)
        "jones": (("homfly", jones_from_homfly), lambda: jones(d)),
        "alexander": (("homfly", alexander_from_homfly),
                      lambda: alexander_pd(d)),
        # J_K(3) is the Kauffman polynomial at a = q^2, z = q - q^-1
        # (Turaev, Invent. Math. 92, 1988)
        "cjones_3": (("kauffman", cjones3_from_kauffman),
                     lambda: colored_jones(d, 3)),
        **{f"cjones_{n}": (lambda n=n: colored_jones(d, n),)
           for n in range(4, opts.colors + 1)},
        "whitehead_homfly": (lambda: p_whitehead_plus(d),),
        "cable_homfly": (lambda: homfly_2cable(d),),
        "h1_double_cover": (lambda: h1_double_cover(d),),
        "quotients": (lambda: cover.quotients(quotient_targets),),
        "lowindex_abelian": (lambda: cover.lowindex(opts.lowindex),),
        "kernel_abelian": (
            lambda: {t.name: cover.kernel_abelianizations(t)
                     for t in kernel_targets},),
    }
    on = {"cjones_3": opts.colors >= 3,
          "whitehead_homfly": opts.whitehead_homfly,
          "cable_homfly": opts.cable_homfly, "quotients": opts.quotients,
          "lowindex_abelian": opts.lowindex, "kernel_abelian": opts.kernels}
    return {key: row for key, row in table.items() if on.get(key, True)}


def compute_report(name: str, d: PlanarDiagram,
                   options: ReportOptions | None = None) -> InvariantReport:
    """The items of `d` that `options` turns on, sorted by name.

    Each item takes the first of its routes that can run: a reading once
    its source item is done, else the engine that ends its row.  Every
    item of a link is skipped, and each item has a whole
    `budget_seconds` of its own."""
    opts = options or ReportOptions()
    is_knot = d.component_count() == 1
    items = {}
    for key, row in routes(d, opts).items():
        start = perf_counter()
        route = next(r for r in row
                     if callable(r) or items[r[0]].status == DONE)
        if not is_knot:
            item = ReportItem(key, SKIPPED, detail="not a knot")
        else:
            try:
                with time_limit(opts.budget_seconds):
                    item = ReportItem(key, DONE, route() if callable(route)
                                      else route[1](items[route[0]].value))
            except ResourceLimitExceeded as exc:
                item = ReportItem(key, LIMITED, detail=str(exc))
        item.elapsed = perf_counter() - start
        items[key] = item
    return InvariantReport(name or d.name, dict(sorted(items.items())))


EQUAL = "EQUAL"
DIFFERENT = "DIFFERENT"
UNKNOWN = "UNKNOWN"


@dataclass
class ComparisonResult:
    left: InvariantReport
    right: InvariantReport
    per_item: dict[str, str] = field(default_factory=dict)
    verdict: str = VERDICT_INCONCLUSIVE

    def as_dict(self) -> dict:
        return {"left": self.left.as_dict(), "right": self.right.as_dict(),
                "items": dict(self.per_item), "verdict": self.verdict}


def compare_pair(r1: InvariantReport, r2: InvariantReport) -> ComparisonResult:
    """Compare two reports item by item.

    An item missing or not done on either side reads UNKNOWN and decides
    nothing; one done on both sides with different values excludes
    mutation.
    """
    out = ComparisonResult(r1, r2)
    for k in sorted(set(r1.items) | set(r2.items)):
        i1, i2 = r1.items.get(k), r2.items.get(k)
        if i1 is None or i2 is None or i1.status != DONE or i2.status != DONE:
            out.per_item[k] = UNKNOWN
        else:
            out.per_item[k] = EQUAL if i1.value == i2.value else DIFFERENT
    if DIFFERENT in out.per_item.values():
        out.verdict = VERDICT_EXCLUDED
    return out
