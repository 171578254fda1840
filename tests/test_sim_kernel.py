"""Unit tests for the oracle's discrete-event kernel (``tests/oracle/kernel.py``)."""

import pytest

from tests.oracle.kernel import Environment, SimulationError


class TestTimeouts:
    def test_single_timeout(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(10)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [10]

    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(3)
            yield env.timeout(4)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [7]

    def test_parallel_processes_interleave(self):
        env = Environment()
        log = []

        def proc(env, delay, tag):
            yield env.timeout(delay)
            log.append((env.now, tag))

        env.process(proc(env, 5, "b"))
        env.process(proc(env, 2, "a"))
        env.run()
        assert log == [(2, "a"), (5, "b")]

    def test_zero_delay_allowed(self):
        env = Environment()
        done = []

        def proc(env):
            yield env.timeout(0)
            done.append(True)

        env.process(proc(env))
        env.run()
        assert done == [True]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_fifo_at_same_timestamp(self):
        """Events at equal time fire in scheduling order (determinism)."""
        env = Environment()
        log = []

        def proc(env, tag):
            yield env.timeout(5)
            log.append(tag)

        for tag in "abcd":
            env.process(proc(env, tag))
        env.run()
        assert log == list("abcd")


class TestEvents:
    def test_manual_trigger_resumes_waiter(self):
        env = Environment()
        gate = env.event()
        log = []

        def waiter(env):
            value = yield gate
            log.append((env.now, value))

        def opener(env):
            yield env.timeout(4)
            gate.trigger("open")

        env.process(waiter(env))
        env.process(opener(env))
        env.run()
        assert log == [(4, "open")]

    def test_wait_on_already_triggered(self):
        env = Environment()
        gate = env.event()
        gate.trigger(42)
        log = []

        def waiter(env):
            value = yield gate
            log.append(value)

        env.process(waiter(env))
        env.run()
        assert log == [42]

    def test_double_trigger_rejected(self):
        env = Environment()
        gate = env.event()
        gate.trigger()
        with pytest.raises(SimulationError):
            gate.trigger()

    def test_succeed_alias(self):
        env = Environment()
        gate = env.event().succeed("v")
        assert gate.triggered and gate.value == "v"

    def test_all_of(self):
        env = Environment()
        log = []

        def waiter(env, a, b):
            yield env.all_of([a, b])
            log.append(env.now)

        a, b = env.timeout(3), env.timeout(9)
        env.process(waiter(env, a, b))
        env.run()
        assert log == [9]

    def test_any_of(self):
        env = Environment()
        log = []

        def waiter(env, a, b):
            yield env.any_of([a, b])
            log.append(env.now)

        a, b = env.timeout(3), env.timeout(9)
        env.process(waiter(env, a, b))
        env.run()
        assert log == [3]

    def test_all_of_already_triggered(self):
        env = Environment()
        done = env.event()
        done.trigger()
        combo = env.all_of([done])
        assert combo.triggered


class TestProcesses:
    def test_process_is_awaitable_event(self):
        env = Environment()
        log = []

        def child(env):
            yield env.timeout(6)
            return "result"

        def parent(env):
            value = yield env.process(child(env), name="child")
            log.append((env.now, value))

        env.process(parent(env))
        env.run()
        assert log == [(6, "result")]

    def test_yield_non_event_rejected(self):
        env = Environment()

        def bad(env):
            yield 42

        env.process(bad(env))
        with pytest.raises(SimulationError, match="not an Event"):
            env.run()

    def test_run_until_stops_clock(self):
        env = Environment()

        def proc(env):
            yield env.timeout(100)

        p = env.process(proc(env))
        env.run(until=30)
        assert env.now == 30
        assert not p.triggered
        env.run()
        assert p.triggered and env.now == 100

    def test_empty_run(self):
        env = Environment()
        env.run()
        assert env.now == 0
