"""The benchmark tracer's names exist in knotmut.

`perfbench/tracer.py` patches knotmut functions and methods by name.  A
refactor that deletes or renames one of them fails here, rather than
only when the benchmark runs traced.
"""

import importlib.util
import os
import sys

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, *_ in
                                         tracer.FUNCTIONS],
                         ids=lambda x: getattr(x, "__name__", x))
def test_traced_function_exists(module, attr):
    assert callable(getattr(module, attr, None))


@pytest.mark.parametrize("cls,method", [(c, m) for c, m, _ in
                                        tracer.METHODS],
                         ids=lambda x: getattr(x, "__name__", x))
def test_traced_method_is_own(cls, method):
    # the tracer patches the class attribute, so an inherited method
    # would be traced on the base class instead
    assert method in cls.__dict__


def test_report_engines_are_traced(monkeypatch):
    # the tracer patches module attributes, so the report must reach its
    # engines through them
    from knotmut import report
    from knotmut.budget import ResourceLimitExceeded
    from knotmut.diagram import named_knot

    def traced_report():
        t = tracer.Tracer()
        t.install()
        try:
            r = report.compute_report("trefoil", named_knot("trefoil"),
                                      options=report.ReportOptions(colors=4))
            report.compare_pair(r, r)
        finally:
            t.uninstall()
        return t

    t = traced_report()
    for name in ("report.compute_report", "report.compare_pair",
                 "skein2.homfly", "skein2.kauffman_f", "colored.cjones_n4"):
        assert t.stat(name).calls >= 1, name
    # jones and alexander are read off the homfly item, and colors 2 and 3
    # off the jones and kauffman items, never computed by their engines
    for name in ("bracket.jones", "alexander.alexander_pd",
                 "colored.cjones_n2", "colored.cjones_n3"):
        assert t.stat(name).calls == 0, name

    # a limited homfly item leaves jones and alexander to their engines
    def limited(d):
        raise ResourceLimitExceeded("node budget exhausted")
    monkeypatch.setattr(report, "homfly", limited)
    t = traced_report()
    for name in ("bracket.jones", "alexander.alexander_pd"):
        assert t.stat(name).calls >= 1, name
