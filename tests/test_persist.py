"""Tests for the one atomic publish (:func:`repro.persist.publish`)."""

import threading

from repro.persist import publish


def test_two_threads_publishing_one_path_both_succeed(tmp_path):
    """Both writers hold their tmp file open at once (a barrier inside
    the write callbacks): each publish has a tmp of its own, so both
    land, and the target holds one writer's complete bytes."""
    target = tmp_path / "entry.json"
    barrier = threading.Barrier(2, timeout=10.0)
    payloads = {name: name.encode() * 65536 for name in ("a", "b")}
    outcomes = {}

    def writer(name):
        def write(handle):
            handle.write(payloads[name][:1])
            barrier.wait()
            handle.write(payloads[name][1:])

        try:
            outcomes[name] = publish(target, write)
        except Exception as exc:  # pragma: no cover - the failure path
            outcomes[name] = exc

    threads = [threading.Thread(target=writer, args=(name,))
               for name in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
    assert outcomes == {"a": True, "b": True}
    assert target.read_bytes() in payloads.values()
    assert [path.name for path in tmp_path.iterdir()] == ["entry.json"]
