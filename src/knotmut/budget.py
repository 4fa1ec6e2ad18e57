"""The one node and time budget of every exponential search."""

from __future__ import annotations

import time


class ResourceLimitExceeded(RuntimeError):
    """A computation exceeded its configured node or time budget."""


class Budget:
    """Stops a search after `max_nodes` steps or `seconds` of time.

    The message counts the steps in `unit` and adds `progress()`, how far
    the search got, when it is given.
    """

    __slots__ = ("deadline", "max_nodes", "nodes", "unit", "progress")

    def __init__(self, seconds: float | None = None,
                 max_nodes: int | None = None, unit="steps", progress=None):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.max_nodes = max_nodes
        self.nodes = 0
        self.unit = unit
        self.progress = progress

    def tick(self):
        if self.nodes == self.max_nodes:
            self._exhausted("node")
        if self.deadline is not None and time.monotonic() > self.deadline:
            self._exhausted("time")
        self.nodes += 1

    def remaining(self) -> float | None:
        """Seconds left, for a search run in parts under one deadline."""
        return None if self.deadline is None else self.deadline - time.monotonic()

    def _exhausted(self, what: str):
        msg = f"{what} budget exhausted after {self.nodes} {self.unit}"
        if self.progress is not None:
            msg += f", {self.progress()}"
        raise ResourceLimitExceeded(msg)
