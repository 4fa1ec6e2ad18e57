import importlib
import inspect
import pkgutil
import random
from functools import reduce
from operator import or_
from pathlib import Path

import pytest

import knotmut
from knotmut.diagram import BraidWord, braid_closure, parse_pd
from knotmut.quotients import _point_key
from knotmut.tangles import TangleDecomposition, rational_tangle, tangle_sum


PACKAGE = Path(knotmut.__file__).parent


def public_callables(init: bool = False):
    """(name, callable) of every public function and method that a
    knotmut module defines, and with `init` each class's own `__init__`."""
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"knotmut.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)   # static, class
                    public = not attr.startswith("_") or \
                        (init and attr == "__init__")
                    if public and inspect.isfunction(fn):
                        yield f"{module.__name__}.{name}.{attr}", fn


def random_braid(rng: random.Random, max_strands: int = 4,
                 max_letters: int = 10) -> BraidWord:
    n = rng.randint(2, max_strands)
    k = rng.randint(1, max_letters)
    letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                    for _ in range(k))
    return BraidWord(n, letters)


def random_knot_braid(rng: random.Random, max_strands: int = 4,
                      max_letters: int = 10) -> BraidWord:
    """Random braid whose closure is a knot (single component)."""
    for _ in range(500):
        b = random_braid(rng, max_strands, max_letters)
        if b.component_count() == 1:
            return b
    raise RuntimeError("failed to sample a knot braid")


def random_knot_diagram(rng: random.Random, max_strands: int = 4,
                        max_letters: int = 10):
    return braid_closure(random_knot_braid(rng, max_strands, max_letters))


def pd_copy(d):
    """`d` read back from its PD code: the same diagram with no braid, so
    that its cover takes the Wirtinger route."""
    return parse_pd(str(d), d.name)


def walked_components(d) -> int:
    """Components of d counted by walking its arcs along the orientation,
    independently of the count the diagram keeps."""
    nxt = {}
    for (a, b, c, e), pos in zip(d.crossings, d.positive):
        nxt[a] = c
        if pos:
            nxt[e] = b
        else:
            nxt[b] = e
    seen = set()
    n = 0
    for a in nxt:
        if a not in seen:
            n += 1
            while a not in seen:
                seen.add(a)
                a = nxt[a]
    return n + d.free_loops


def homfly_mirror(p):
    """HOMFLY of the mirror image: l is inverted."""
    return type(p)({(-e1, e2): c for (e1, e2), c in p.coeffs.items()}, p.vars)


def table_key(table) -> tuple:
    """A complete coset table up to conjugacy of its subgroup: the point
    key of its generators' columns, which two tables share exactly when
    their actions differ by a relabelling of the cosets."""
    return _point_key(list(zip(*table)), range(len(table)))


def vertical_twist(n):
    return rational_tangle([0, 1, n - 1] if n > 0 else [0, -1, n + 1])


def pretzel_decomposition(p1, p2, p3, p4) -> TangleDecomposition:
    """P(p1, p2, p3, p4) as two tangle sums, the inner one P(p3, p4)."""
    outer = tangle_sum(vertical_twist(p1), vertical_twist(p2))
    inner = tangle_sum(vertical_twist(p3), vertical_twist(p4))
    return TangleDecomposition(outer, inner)


def pretzel(p1, p2, p3, p4):
    """The pretzel knot P(p1, p2, p3, p4), glued from two tangle sums."""
    return pretzel_decomposition(p1, p2, p3, p4).glue(
        f"P({p1},{p2},{p3},{p4})")


def lowest_digit_spy(monkeypatch, module) -> list[bool]:
    """Per call of `module._step` that follows, from any states but the
    first {(): 1}: whether the OR of the packed values has a nonzero
    lowest digit, as it has once `frontier.contract` has shifted out the
    zero digits all states share."""
    seen = []
    step = module._step

    def spy(entry, states, width):
        if states != {(): 1}:
            bits = reduce(or_, states.values(), 0)
            seen.append(bits & ((1 << width) - 1) != 0)
        return step(entry, states, width)

    monkeypatch.setattr(module, "_step", spy)
    return seen


@pytest.fixture
def rng():
    return random.Random(20260823)
