"""The one node and time budget of every exponential search: a caller
sets the deadline with `time_limit`, and each search's `Budget` reads it."""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar

# the default count caps: skein tree nodes, candidate images, coset tables
MAX_NODES = 2_000_000
MAX_IMAGES = 20_000_000
MAX_TABLES = 200_000

# the time.monotonic() reading every search must stop after, or None
_DEADLINE: ContextVar[float | None] = ContextVar("deadline", default=None)


class ResourceLimitExceeded(RuntimeError):
    """A computation exceeded its configured node or time budget."""


@contextmanager
def time_limit(seconds: float | None):
    """Stop every search begun in the block `seconds` from now, or at an
    enclosing limit's deadline if that is earlier.  `None` sets no
    deadline; a NaN `seconds`, which would never stop a search, is refused.
    """
    if seconds is not None and math.isnan(seconds):
        raise ValueError("a time budget must be a number of seconds, got nan")
    deadline = _DEADLINE.get()
    if seconds is not None:
        end = time.monotonic() + seconds
        deadline = end if deadline is None else min(deadline, end)
    token = _DEADLINE.set(deadline)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


class Budget:
    """Stops a search after `max_nodes` steps or at the deadline of the
    enclosing `time_limit`.

    The message counts the steps in `unit` and adds `progress()`, how far
    the search got, when it is given.  A negative (or NaN) `max_nodes` is
    refused, since it would never stop a search.
    """

    __slots__ = ("deadline", "max_nodes", "nodes", "unit", "progress")

    def __init__(self, max_nodes: int | None = None, unit="steps",
                 progress=None):
        if max_nodes is not None and not max_nodes >= 0:
            raise ValueError(f"a node budget must be at least 0, "
                             f"got {max_nodes}")
        self.deadline = _DEADLINE.get()
        # no search reaches sys.maxsize steps
        self.max_nodes = sys.maxsize if max_nodes is None else max_nodes
        self.nodes = 0
        self.unit = unit
        self.progress = progress

    def tick(self):
        if self.nodes >= self.max_nodes:
            self._exhausted("node")
        if self.deadline is not None and time.monotonic() > self.deadline:
            self._exhausted("time")
        self.nodes += 1

    def tick_batch(self, n: int):
        """Count `n` steps at once, as `n` calls of `tick()` would.

        A batch whose last step `tick()` would refuse raises before any
        of it is counted, with the message `tick()` gives; the time is
        checked once, at its start.
        """
        if n and self.nodes + n - 1 >= self.max_nodes:
            self._exhausted("node")
        if self.deadline is not None and time.monotonic() > self.deadline:
            self._exhausted("time")
        self.nodes += n

    def _exhausted(self, what: str):
        msg = f"{what} budget exhausted after {self.nodes} {self.unit}"
        if self.progress is not None:
            msg += f", {self.progress()}"
        raise ResourceLimitExceeded(msg)
