"""Broken fixture: a scheduler pump raises an undeclared error
(expected: exception-escape on the pump entry point)."""

from ..common.errors import NodeDownError


class Manager:
    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.scheduler.register("heartbeat", self._pump)

    def _pump(self) -> bool:
        raise NodeDownError("node1")
