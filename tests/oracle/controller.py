"""The GNNerator Controller (Sec III-C).

Coordinates the Dense and Graph Engines so *either* can be the producer:

* **dense-first** (GraphSAGE-Pool): Graph Engine fetches stall on the
  ``out:`` tokens the Dense Engine signals per finished source interval;
* **graph-first** (GCN, GraphSAGE): Dense Engine fetches stall on the
  ``agg:`` tokens the Graph Engine's writeback signals per finished
  destination-interval block.

The controller also owns the double-buffer credit semaphores and the
fetch-to-compute handoff channels of both engines. Tokens are
level-sensitive one-shot events ("the controller reads the state of the
respective computing engines"), credits count buffer halves.
"""

from __future__ import annotations

from repro.compiler.ir import CHANNELS, DOUBLE_BUFFER_CREDITS

from .kernel import Environment, SimulationError
from .queues import Semaphore, Store, TokenTable


class Controller:
    """Synchronisation fabric shared by all six unit processes."""

    def __init__(self, env: Environment,
                 credits: int = DOUBLE_BUFFER_CREDITS) -> None:
        if credits <= 0:
            raise SimulationError("need at least one buffer credit")
        self.env = env
        self.tokens = TokenTable(env)
        self._credits = {channel: Semaphore(env, initial=credits)
                         for channel in CHANNELS}
        self._channels = {channel: Store(env, capacity=max(credits, 1))
                          for channel in CHANNELS}

    def credit(self, channel: str) -> Semaphore:
        try:
            return self._credits[channel]
        except KeyError:
            raise SimulationError(f"unknown channel {channel!r}") from None

    def channel(self, channel: str) -> Store:
        try:
            return self._channels[channel]
        except KeyError:
            raise SimulationError(f"unknown channel {channel!r}") from None

    def signal(self, token: str) -> None:
        self.tokens.signal(token)

    def wait(self, token: str):
        return self.tokens.wait(token)
