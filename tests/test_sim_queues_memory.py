"""Unit tests for the oracle's synchronisation primitives and memory
models (``tests/oracle/queues.py``, ``tests/oracle/memory.py``)."""

import pytest

from repro.config.accelerator import DramConfig
from tests.oracle.kernel import Environment, SimulationError
from tests.oracle.memory import BusyTracker, DramChannel, Scratchpad
from tests.oracle.queues import Resource, Semaphore, Store, TokenTable


class TestResource:
    def test_mutual_exclusion(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def user(env, tag, hold):
            yield res.request()
            log.append((env.now, tag, "in"))
            yield env.timeout(hold)
            res.release()

        env.process(user(env, "a", 5))
        env.process(user(env, "b", 3))
        env.run()
        assert log == [(0, "a", "in"), (5, "b", "in")]

    def test_capacity_two(self):
        env = Environment()
        res = Resource(env, capacity=2)
        entered = []

        def user(env, tag):
            yield res.request()
            entered.append((env.now, tag))
            yield env.timeout(10)
            res.release()

        for tag in "abc":
            env.process(user(env, tag))
        env.run()
        assert entered == [(0, "a"), (0, "b"), (10, "c")]

    def test_release_without_request(self):
        env = Environment()
        res = Resource(env)
        with pytest.raises(SimulationError):
            res.release()

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env, capacity=2)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append(item)

        def producer(env):
            yield store.put("x")

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(7)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(7, "late")]

    def test_put_blocks_when_full(self):
        env = Environment()
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put(1)
            times.append(env.now)
            yield store.put(2)  # blocks until consumer pops
            times.append(env.now)

        def consumer(env):
            yield env.timeout(9)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [0, 9]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env, capacity=3)
        got = []

        def producer(env):
            for item in (1, 2, 3):
                yield store.put(item)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [1, 2, 3]


class TestSemaphoreAndTokens:
    def test_semaphore_counts(self):
        env = Environment()
        sem = Semaphore(env, initial=2)
        entered = []

        def worker(env, tag):
            yield sem.wait()
            entered.append((env.now, tag))
            yield env.timeout(5)
            sem.signal()

        for tag in "abc":
            env.process(worker(env, tag))
        env.run()
        assert entered == [(0, "a"), (0, "b"), (5, "c")]

    def test_semaphore_rejects_negative(self):
        with pytest.raises(SimulationError):
            Semaphore(Environment(), initial=-1)

    def test_token_is_level_sensitive(self):
        """Waiting after the signal must not block (controller reads
        engine *state*, Sec III-C)."""
        env = Environment()
        tokens = TokenTable(env)
        log = []

        def late_waiter(env):
            yield env.timeout(10)
            yield tokens.wait("ready")
            log.append(env.now)

        tokens.signal("ready")
        env.process(late_waiter(env))
        env.run()
        assert log == [10]
        assert tokens.is_signalled("ready")

    def test_token_double_signal_is_noop(self):
        env = Environment()
        tokens = TokenTable(env)
        tokens.signal("t")
        tokens.signal("t")  # no error
        assert tokens.is_signalled("t")

    def test_token_multiple_waiters(self):
        env = Environment()
        tokens = TokenTable(env)
        woken = []

        def waiter(env, tag):
            yield tokens.wait("go")
            woken.append(tag)

        env.process(waiter(env, "a"))
        env.process(waiter(env, "b"))

        def signaller(env):
            yield env.timeout(3)
            tokens.signal("go")

        env.process(signaller(env))
        env.run()
        assert sorted(woken) == ["a", "b"]


class TestDramChannel:
    def test_bandwidth_math(self):
        env = Environment()
        dram = DramChannel(env, DramConfig(bandwidth_bytes_per_s=256e9,
                                           burst_latency_cycles=100))
        done = []

        def mover(env):
            yield from dram.transfer("unit", "read", 2560)
            done.append(env.now)

        env.process(mover(env))
        env.run()
        assert done == [110]  # 10 occupancy + 100 latency
        assert dram.busy_cycles == 10

    def test_requesters_pipeline_latency(self):
        """Occupancy serialises; latency overlaps across requesters."""
        env = Environment()
        dram = DramChannel(env, DramConfig(bandwidth_bytes_per_s=256e9,
                                           burst_latency_cycles=100))
        done = []

        def mover(env, tag):
            yield from dram.transfer(tag, "read", 2560)
            done.append((env.now, tag))

        env.process(mover(env, "a"))
        env.process(mover(env, "b"))
        env.run()
        assert done == [(110, "a"), (120, "b")]

    def test_counters_by_requester(self):
        env = Environment()
        dram = DramChannel(env, DramConfig())

        def mover(env):
            yield from dram.transfer("g", "read", 100)
            yield from dram.transfer("g", "write", 50)
            yield from dram.transfer("d", "read", 25)

        env.process(mover(env))
        env.run()
        assert dram.counter("g").read_bytes == 100
        assert dram.counter("g").write_bytes == 50
        assert dram.counter("g").read_transactions == 1
        assert dram.total_bytes == 175
        assert dram.total_read_bytes == 125

    def test_zero_byte_transfer_free(self):
        env = Environment()
        dram = DramChannel(env, DramConfig())

        def mover(env):
            yield from dram.transfer("u", "read", 0)

        env.process(mover(env))
        env.run()
        assert env.now == 0

    def test_negative_rejected(self):
        env = Environment()
        dram = DramChannel(env, DramConfig())
        with pytest.raises(SimulationError):
            list(dram.transfer("u", "read", -5))

    def test_utilization(self):
        env = Environment()
        dram = DramChannel(env, DramConfig())
        assert dram.utilization(0) == 0.0
        dram.busy_cycles = 50
        assert dram.utilization(100) == pytest.approx(0.5)


class TestScratchpadAndTracker:
    def test_allocation_accounting(self):
        pad = Scratchpad(name="buf", capacity_bytes=100)
        pad.allocate("a", 60)
        pad.allocate("b", 30)
        assert pad.used_bytes == 90 and pad.free_bytes == 10
        pad.free("a")
        assert pad.used_bytes == 30

    def test_overflow_raises(self):
        pad = Scratchpad(name="buf", capacity_bytes=100)
        pad.allocate("a", 80)
        with pytest.raises(SimulationError, match="overflow"):
            pad.allocate("b", 40)

    def test_reallocation_replaces(self):
        pad = Scratchpad(name="buf", capacity_bytes=100)
        pad.allocate("a", 80)
        pad.allocate("a", 50)  # replaces, not adds
        assert pad.used_bytes == 50

    def test_peak_tracking(self):
        pad = Scratchpad(name="buf", capacity_bytes=100)
        pad.allocate("a", 70)
        pad.free("a")
        pad.allocate("b", 10)
        assert pad.peak_bytes == 70

    def test_busy_tracker(self):
        tracker = BusyTracker()
        tracker.record(30)
        tracker.record(20)
        assert tracker.busy_cycles == 50 and tracker.operations == 2
        assert tracker.utilization(100) == pytest.approx(0.5)
        with pytest.raises(SimulationError):
            tracker.record(-1)
