"""Spans and counters around knotmut's public functions, from outside.

`Tracer.install()` replaces each traced function wherever a knotmut
module holds a reference to it (so `knotmut.report.colored_jones` is
traced as well as `knotmut.colored.colored_jones`), and the Laurent
arithmetic methods on their classes.  `uninstall()` puts the originals
back.  Nothing under `src/` is edited.

Each call of a layer function becomes a span: name, start, end, the span
that caused it and the job it ran in.  Self time is the span's duration
minus the time covered by its child spans.  Laurent arithmetic runs
hundreds of thousands of times per job, so it is aggregated (calls, total
and self time) instead of recorded span by span.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter

from knotmut import (alexander, bracket, colored, laurent, matrices,
                     permgroups, presentations, quotients, report,
                     satellites, skein2, tangles)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def _cjones_name(args, kwargs):
    return f"colored.cjones_n{kwargs.get('N', args[1] if len(args) > 1 else '?')}"


def _crossings_in(args, kwargs, result):
    return {"crossings_in": len(args[0].crossings)}


def _tietze_out(args, kwargs, result):
    return {"gens_out": result.ngens,
            "letters_out": sum(len(r) for r in result.relators)}


def _subgroups(args, kwargs, result):
    return {"subgroups": len(result)}


def _found(args, kwargs, result):
    return {"found": len(result)}


# (module, attribute, span name or naming function, result counter)
FUNCTIONS = [
    (report, "compute_report", "report.compute_report", None),
    (report, "compare_pair", "report.compare_pair", None),
    (bracket, "jones", "bracket.jones", None),
    (bracket, "kauffman_bracket", "bracket.kauffman_bracket", _crossings_in),
    (alexander, "alexander_pd", "alexander.alexander_pd", None),
    (alexander, "alexander_braid", "alexander.alexander_braid", None),
    (colored, "colored_jones", _cjones_name, None),
    (satellites, "cable", "satellites.cable", None),
    (satellites, "whitehead_double", "satellites.whitehead_double", None),
    (skein2, "homfly", "skein2.homfly", None),
    (skein2, "kauffman_f", "skein2.kauffman_f", None),
    (skein2, "p_whitehead_plus", "skein2.whitehead_homfly", None),
    (skein2, "homfly_2cable", "skein2.cable_homfly", None),
    (presentations, "knot_group", "presentations.knot_group", None),
    (presentations, "wirtinger_presentation",
     "presentations.wirtinger_presentation", None),
    (presentations, "branched_cover_from_meridians",
     "presentations.branched_cover_from_meridians", None),
    (presentations, "tietze_simplify", "presentations.tietze_simplify",
     _tietze_out),
    (presentations, "low_index_subgroups",
     "presentations.low_index_subgroups", _subgroups),
    (presentations, "subgroup_abelianization",
     "presentations.subgroup_abelianization", None),
    (quotients, "epimorphisms", "quotients.epimorphisms", _found),
    (quotients, "kernel_abelianization", "quotients.kernel_abelianization",
     None),
    (matrices, "abelian_invariants", "matrices.abelian_invariants", None),
    (permgroups, "closure", "permgroups.closure", None),
]

# (class, method, aggregate name)
METHODS = [
    (tangles.TangleDecomposition, "glue", "tangles.glue"),
    (laurent.LaurentPoly, "__mul__", "laurent.mul"),
    (laurent.LaurentPoly, "__rmul__", "laurent.mul"),
    (laurent.LaurentPoly, "__add__", "laurent.add"),
    (laurent.LaurentPoly, "__radd__", "laurent.add"),
    (laurent.LaurentPoly, "exact_div", "laurent.exact_div"),
    (laurent.LaurentPoly2, "__mul__", "laurent.mul"),
    (laurent.LaurentPoly2, "__rmul__", "laurent.mul"),
    (laurent.LaurentPoly2, "__add__", "laurent.add"),
    (laurent.LaurentPoly2, "__radd__", "laurent.add"),
]

AGGREGATED = ("laurent.",)


class Tracer:
    """Records spans and per-name statistics while installed."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[list] = []   # [span id, name, start, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "knotmut" or name.startswith("knotmut.")]
        for module, attr, name, counter in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._patch(cls, attr, self._wrap(original, name, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, counter):
        stack = self._stack
        stats = self.stats
        spans = self.spans
        aggregated = isinstance(name, str) and name.startswith(AGGREGATED)
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, label, perf_counter(), 0.0]
            stack.append(frame)
            err = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += dur
                st = stats.get(label)
                if st is None:
                    st = stats[label] = Stat()
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[3]
                if err is not None:
                    st.errors[err] = st.errors.get(err, 0) + 1
                    if (err == "ResourceLimitExceeded"
                            and label.startswith("skein2.")
                            and not (parent and parent[1].startswith("skein2."))):
                        st.counts["limited"] = st.counts.get("limited", 0) + 1
                elif counter is not None:
                    for k, v in counter(args, kwargs, result).items():
                        st.counts[k] = st.counts.get(k, 0) + v
                if not aggregated:
                    spans.append((sid, parent[0] if parent else None, label,
                                  frame[2], end, tracer.job, err))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- results -----------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def total(self, *names: str) -> float:
        return sum(self.stat(n).total_s for n in names)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, by name, as (value, unit)."""
        s = self.stat
        lau = [n for n in self.stats if n.startswith("laurent.")]
        out = {
            "laurent.mul.calls": (s("laurent.mul").calls, "count"),
            "laurent.add.calls": (s("laurent.add").calls, "count"),
            "laurent.self_s": (sum(s(n).self_s for n in lau), "s"),
            "bracket.kauffman_bracket.calls":
                (s("bracket.kauffman_bracket").calls, "count"),
            "bracket.kauffman_bracket.crossings_in":
                (s("bracket.kauffman_bracket").counts.get("crossings_in", 0),
                 "count"),
            "bracket.kauffman_bracket.self_s":
                (s("bracket.kauffman_bracket").self_s, "s"),
        }
        for n in range(2, 6):
            out[f"colored.cjones_n{n}.s"] = (self.total(f"colored.cjones_n{n}"), "s")
        out["satellites.cable.s"] = (self.total("satellites.cable"), "s")
        for n in ("homfly", "kauffman_f", "whitehead_homfly", "cable_homfly"):
            out[f"skein2.{n}.s"] = (self.total(f"skein2.{n}"), "s")
        out["skein2.limited"] = (sum(st.counts.get("limited", 0)
                                     for n, st in self.stats.items()
                                     if n.startswith("skein2.")), "count")
        out["alexander.alexander_pd.s"] = (self.total("alexander.alexander_pd"), "s")
        out["report.self_s"] = (s("report.compute_report").self_s
                                + s("report.compare_pair").self_s, "s")
        out["presentations.cover.s"] = (self.total(
            "presentations.knot_group", "presentations.wirtinger_presentation",
            "presentations.branched_cover_from_meridians"), "s")
        tz = s("presentations.tietze_simplify")
        out["presentations.tietze_simplify.s"] = (tz.total_s, "s")
        out["presentations.tietze.gens_out"] = (tz.counts.get("gens_out", 0), "count")
        out["presentations.tietze.letters_out"] = (tz.counts.get("letters_out", 0), "count")
        li = s("presentations.low_index_subgroups")
        out["presentations.low_index_subgroups.s"] = (li.total_s, "s")
        out["presentations.low_index_subgroups.subgroups"] = (li.counts.get("subgroups", 0), "count")
        out["presentations.low_index_subgroups.failed"] = (sum(li.errors.values()), "count")
        out["presentations.subgroup_abelianization.s"] = (
            self.total("presentations.subgroup_abelianization"), "s")
        ep = s("quotients.epimorphisms")
        out["quotients.epimorphisms.s"] = (ep.total_s, "s")
        out["quotients.epimorphisms.found"] = (ep.counts.get("found", 0), "count")
        out["quotients.kernel_abelianization.s"] = (
            self.total("quotients.kernel_abelianization"), "s")
        ab = s("matrices.abelian_invariants")
        out["matrices.abelian_invariants.calls"] = (ab.calls, "count")
        out["matrices.abelian_invariants.s"] = (ab.total_s, "s")
        out["permgroups.closure.s"] = (self.total("permgroups.closure"), "s")
        out["tangles.glue.s"] = (self.total("tangles.glue"), "s")
        return out

    def span_records(self) -> list[dict]:
        return [{"id": sid, "parent": parent, "name": name, "start": start,
                 "end": end, "job": job, "error": err}
                for sid, parent, name, start, end, job, err in self.spans]

