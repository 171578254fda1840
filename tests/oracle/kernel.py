"""Discrete-event simulation kernel with cycle-granularity time.

A lightweight, dependency-free process-based DES in the style of SimPy:
processes are generators that ``yield`` events; the environment advances
simulated time (integer cycles) from event to event. It defines the
timing semantics the coalesced replay (``repro.sim.coalesce``) mirrors
— see DESIGN.md §3 and §5.

Example
-------
>>> env = Environment()
>>> def worker(env, results):
...     yield env.timeout(10)
...     results.append(env.now)
>>> results = []
>>> env.process(worker(env, results))    # doctest: +ELLIPSIS
<Process ...>
>>> env.run()
>>> results
[10]
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Generator, Iterable

# Kernel misuse (negative delays, double triggers, ...) raises the
# simulator's own error type, so callers catch one class for both.
from repro.sim.coalesce import SimulationError


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* with an optional value; every process waiting
    on it resumes with that value. Triggering twice is an error.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.triggered = False
        self.value: Any = None
        self._waiters: list["Process"] = []

    def trigger(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        for process in self._waiters:
            self.env._schedule_resume(process, value)
        self._waiters.clear()
        return self

    def succeed(self, value: Any = None) -> "Event":
        """Alias for :meth:`trigger` (SimPy-compatible spelling)."""
        return self.trigger(value)

    def _wait(self, process: "Process") -> None:
        if self.triggered:
            self.env._schedule_resume(process, self.value)
        else:
            self._waiters.append(process)


class Timeout(Event):
    """An event that triggers ``delay`` cycles after creation."""

    def __init__(self, env: "Environment", delay: int,
                 value: Any = None) -> None:
        super().__init__(env)
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.delay = int(delay)
        env._schedule_trigger(self, self.delay, value)


class AllOf(Event):
    """Triggers once every child event has triggered."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._pending = 0
        events = list(events)
        for event in events:
            if event.triggered:
                continue
            self._pending += 1
            event._waiters.append(_Notifier(self))
        if self._pending == 0:
            self.trigger([e.value for e in events])
        else:
            self._children = events

    def _child_done(self) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.trigger([e.value for e in self._children])


class AnyOf(Event):
    """Triggers as soon as one child event triggers."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        events = list(events)
        for event in events:
            if event.triggered:
                self.trigger(event.value)
                return
        for event in events:
            event._waiters.append(_Notifier(self, any_mode=True))


class _Notifier:
    """Adapter letting composite events sit in a child's waiter list."""

    def __init__(self, parent: Event, any_mode: bool = False) -> None:
        self.parent = parent
        self.any_mode = any_mode

    def _resume(self, value: Any) -> None:
        if self.any_mode:
            if not self.parent.triggered:
                self.parent.trigger(value)
        else:
            self.parent._child_done()


class Process(Event):
    """A running generator; also an event that triggers on completion."""

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = "process") -> None:
        super().__init__(env)
        self.generator = generator
        self.name = name
        env._schedule_resume(self, None)

    def _resume(self, value: Any) -> None:
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event")
        target._wait(self)

    def __repr__(self) -> str:
        state = "done" if self.triggered else "running"
        return f"<Process {self.name} ({state})>"


class Environment:
    """Owns the event queue and simulated time (integer cycles).

    Scheduling is split into two lanes: a heap for future timestamps and
    a FIFO deque for zero-delay actions (the bulk of DES traffic —
    every resume and token signal). FIFO order is exactly what the old
    single-heap (time, sequence) ordering gave these actions, because a
    zero-delay action scheduled at time ``t`` always carries a larger
    sequence number than any heap entry that matures at ``t`` (those
    were pushed before ``t`` was reached): heap entries for the current
    timestamp drain first, then the deque, with appends landing at the
    back exactly as rising sequence numbers used to.
    """

    def __init__(self) -> None:
        self.now = 0
        self._queue: list[tuple[int, int, Any, Any]] = []
        self._fast: deque[tuple[Any, Any]] = deque()
        self._sequence = 0

    # -- scheduling internals ------------------------------------------
    def _push(self, delay: int, action: Any, value: Any) -> None:
        if delay == 0:
            self._fast.append((action, value))
            return
        self._sequence += 1
        heapq.heappush(self._queue,
                       (self.now + delay, self._sequence, action, value))

    def _schedule_resume(self, process: Process, value: Any) -> None:
        self._push(0, ("resume", process), value)

    def _schedule_trigger(self, event: Event, delay: int,
                          value: Any) -> None:
        self._push(delay, ("trigger", event), value)

    # -- public API ----------------------------------------------------
    def process(self, generator: Generator[Event, Any, Any],
                name: str = "process") -> Process:
        """Register a generator as a process; returns it (an Event)."""
        return Process(self, generator, name=name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def run(self, until: int | None = None) -> None:
        """Process events until the queues drain (or ``until`` cycles).

        Raises :class:`SimulationError` on deadlock if processes remain
        suspended when the queue empties — detected by callers via
        un-triggered process events.
        """
        queue, fast = self._queue, self._fast
        while queue or fast:
            # Heap entries maturing *now* precede the zero-delay lane
            # (they were scheduled earlier); otherwise the zero-delay
            # lane runs before time may advance.
            if queue and (not fast or queue[0][0] <= self.now):
                time, _, action, value = queue[0]
                if until is not None and time > until:
                    self.now = until
                    return
                heapq.heappop(queue)
                self.now = time
            else:
                action, value = fast.popleft()
            kind, target = action
            if kind == "trigger":
                if not target.triggered:
                    target.trigger(value)
            else:  # "resume"
                target._resume(value)
        if until is not None:
            self.now = until
