"""Invariant reports and the pair-comparison pipeline.

A report computes a configurable set of invariants for one knot; the
comparison pipeline evaluates two reports item by item.  Every report
item is a mutation invariant, so any item that is done on both knots
and differs excludes mutation.  Equality never proves mutation, so the
strongest negative verdict is "mutation excluded" and the positive case
is always "consistent with mutation (inconclusive)".
The group items share one `quotients.Cover` per knot, built only if one
of them runs, and search the built-in targets built once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from .alexander import alexander_pd, h1_double_cover
from .bracket import jones
from .budget import ResourceLimitExceeded, time_limit
from .colored import colored_jones
from .diagram import PlanarDiagram
from .permgroups import builtin_targets
from .quotients import Cover
from .skein2 import (cjones3_from_kauffman, homfly, homfly_2cable, kauffman_f,
                     p_whitehead_plus)

DONE = "done"
SKIPPED = "skipped"           # every item of a link; an engine error raises
LIMITED = "resource-limited"

VERDICT_EXCLUDED = "mutation excluded"
VERDICT_INCONCLUSIVE = "consistent with mutation (inconclusive)"


@dataclass
class ReportOptions:
    colors: int = 2               # colored Jones up to this N
    quotients: int = 0            # delta over built-in targets up to this order
    lowindex: int = 0             # subgroup abelianizations up to this index
    whitehead_homfly: bool = False
    cable_homfly: bool = False
    budget_seconds: float | None = None  # per item, for every search


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


# how each polynomial item is computed from the diagram; each lambda
# looks its engine up in this module when it runs, so a patched module
# attribute is the one called
POLYNOMIALS = {
    "jones": lambda d: jones(d),
    "alexander": lambda d: alexander_pd(d),
    "homfly": lambda d: homfly(d),
    "kauffman": lambda d: kauffman_f(d),
}


def compute_report(name: str, d: PlanarDiagram,
                   options: ReportOptions | None = None) -> InvariantReport:
    opts = options or ReportOptions()
    is_knot = d.component_count() == 1
    report = InvariantReport(name or d.name)

    def add(key, fn):
        start = perf_counter()
        if not is_knot:
            item = ReportItem(key, SKIPPED, detail="not a knot")
        else:
            try:
                with time_limit(opts.budget_seconds):   # a whole budget per item
                    item = ReportItem(key, DONE, fn())
            except ResourceLimitExceeded as exc:
                item = ReportItem(key, LIMITED, detail=str(exc))
        item.elapsed = perf_counter() - start
        report.items[key] = item

    for key, poly in POLYNOMIALS.items():
        add(key, lambda: poly(d))
    if opts.colors >= 2:
        # J_K(2) is the Jones polynomial in q = 1/t (Kirby & Melvin,
        # Invent. Math. 105, 1991): the jones item, with its status
        start = perf_counter()
        j = report.items["jones"]
        report.items["cjones_2"] = ReportItem(
            "cjones_2", j.status,
            j.value.invert_var("q") if j.status == DONE else None, j.detail,
            perf_counter() - start)
    f = report.items["kauffman"]
    for n in range(3, opts.colors + 1):
        if n == 3 and f.status == DONE:
            # J_K(3) is the Kauffman polynomial at a = q^2, z = q - q^-1
            # (Turaev, Invent. Math. 92, 1988); a limited kauffman item
            # leaves color 3 to the state sum
            add("cjones_3", lambda: cjones3_from_kauffman(f.value))
        else:
            add(f"cjones_{n}", lambda: colored_jones(d, n))
    if opts.whitehead_homfly:
        add("whitehead_homfly", lambda: p_whitehead_plus(d))
    if opts.cable_homfly:
        add("cable_homfly", lambda: homfly_2cable(d))

    add("h1_double_cover", lambda: h1_double_cover(d))
    # one cover for both group items, built only if one of them runs
    cover = Cover(d)
    if opts.quotients:
        add("quotients",
            lambda: cover.quotients(builtin_targets(opts.quotients)))
    if opts.lowindex:
        add("lowindex_abelian", lambda: cover.lowindex(opts.lowindex))
    report.items = {k: report.items[k] for k in sorted(report.items)}
    return report


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
