"""Synchronisation primitives built on the DES kernel.

* :class:`Resource` — mutual exclusion with FIFO arbitration (the shared
  DRAM channel, the systolic array, ...).
* :class:`Store` — a bounded FIFO of items; the double-buffer handoff
  between a Fetch unit and a Compute unit is a ``Store`` of capacity 1
  (one shard in flight while the next is prefetched).
* :class:`Semaphore` — counting tokens; the GNNerator Controller's
  producer/consumer state signals are semaphores keyed by name.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .kernel import Environment, Event, SimulationError


class Resource:
    """A server with ``capacity`` concurrent slots and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiting: deque[Event] = deque()

    def request(self) -> Event:
        """Returns an event that triggers when a slot is granted."""
        grant = self.env.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            grant.trigger()
        else:
            self._waiting.append(grant)
        return grant

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release without matching request")
        if self._waiting:
            grant = self._waiting.popleft()
            grant.trigger()
        else:
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        return len(self._waiting)


class Store:
    """A bounded FIFO channel of items between producer/consumer processes.

    ``put`` blocks when full; ``get`` blocks when empty. Capacity 1
    between a prefetcher and a consumer models double buffering: the
    consumer works out of one half while the producer fills the other.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        """Event that triggers once the item is accepted."""
        done = self.env.event()
        if self._getters:
            getter = self._getters.popleft()
            getter.trigger(item)
            done.trigger()
        elif len(self._items) < self.capacity:
            self._items.append(item)
            done.trigger()
        else:
            self._putters.append((done, item))
        return done

    def get(self) -> Event:
        """Event that triggers with the next item."""
        ready = self.env.event()
        if self._items:
            item = self._items.popleft()
            if self._putters:
                done, queued = self._putters.popleft()
                self._items.append(queued)
                done.trigger()
            ready.trigger(item)
        else:
            self._getters.append(ready)
        return ready

    def __len__(self) -> int:
        return len(self._items)


class Semaphore:
    """Counting semaphore: ``signal`` adds tokens, ``wait`` consumes one."""

    def __init__(self, env: Environment, initial: int = 0) -> None:
        if initial < 0:
            raise SimulationError("initial count cannot be negative")
        self.env = env
        self.count = initial
        self._waiting: deque[Event] = deque()

    def signal(self, amount: int = 1) -> None:
        for _ in range(amount):
            if self._waiting:
                self._waiting.popleft().trigger()
            else:
                self.count += 1

    def wait(self) -> Event:
        """Event that triggers once a token is available (and consumed)."""
        acquired = self.env.event()
        if self.count > 0:
            self.count -= 1
            acquired.trigger()
        else:
            self._waiting.append(acquired)
        return acquired


class TokenTable:
    """Named one-shot completion tokens (the Controller's state registers).

    A producer ``signal``-s a token name once; any number of consumers can
    ``wait`` on it, before or after the signal. Unlike a semaphore, a
    token is level-sensitive: once signalled it stays signalled, matching
    "the controller reads the state of the Dense Engine" (Sec III-C).
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._events: dict[str, Event] = {}

    def _event(self, name: str) -> Event:
        if name not in self._events:
            self._events[name] = self.env.event()
        return self._events[name]

    def signal(self, name: str) -> None:
        event = self._event(name)
        if not event.triggered:
            event.trigger()

    def wait(self, name: str) -> Event:
        return self._event(name)

    def is_signalled(self, name: str) -> bool:
        return name in self._events and self._events[name].triggered
