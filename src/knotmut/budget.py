"""The one node and time budget of every exponential search."""

from __future__ import annotations

import math
import sys
import time

# the default count caps: skein tree nodes, candidate images, coset tables
MAX_NODES = 2_000_000
MAX_IMAGES = 20_000_000
MAX_TABLES = 200_000


class ResourceLimitExceeded(RuntimeError):
    """A computation exceeded its configured node or time budget."""


class Budget:
    """Stops a search after `max_nodes` steps or `seconds` of time.

    The message counts the steps in `unit` and adds `progress()`, how far
    the search got, when it is given.  A NaN `seconds` or a negative (or
    NaN) `max_nodes` is refused, since neither would ever stop a search.
    """

    __slots__ = ("deadline", "max_nodes", "nodes", "unit", "progress")

    def __init__(self, seconds: float | None = None,
                 max_nodes: int | None = None, unit="steps", progress=None):
        if seconds is not None and math.isnan(seconds):
            raise ValueError("a time budget must be a number of seconds, "
                             "got nan")
        if max_nodes is not None and not max_nodes >= 0:
            raise ValueError(f"a node budget must be at least 0, "
                             f"got {max_nodes}")
        self.deadline = None if seconds is None else time.monotonic() + seconds
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

    def remaining(self) -> float | None:
        """Seconds left, for a search run in parts under one deadline."""
        return None if self.deadline is None else self.deadline - time.monotonic()

    def _exhausted(self, what: str):
        msg = f"{what} budget exhausted after {self.nodes} {self.unit}"
        if self.progress is not None:
            msg += f", {self.progress()}"
        raise ResourceLimitExceeded(msg)
