"""The bounded queue: capacity, oldest-first shed, conservation accounting."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ConfigError
from repro.serve import BoundedEventQueue, ClickEvent

pytestmark = pytest.mark.servetest


def events(n, prefix="e"):
    return [ClickEvent(f"u{i}", f"{prefix}{i}", 1, float(i)) for i in range(n)]


def test_capacity_must_be_positive():
    with pytest.raises(ConfigError):
        BoundedEventQueue(0)


def test_fifo_drain_order():
    queue = BoundedEventQueue(capacity=10)
    queue.submit_many(events(5))
    assert [event.item for event in queue.drain()] == ["e0", "e1", "e2", "e3", "e4"]


def test_depth_never_exceeds_capacity():
    queue = BoundedEventQueue(capacity=3)
    for event in events(10):
        queue.submit(event)
        assert len(queue) <= 3
    assert len(queue) == 3


def test_overflow_sheds_oldest_first():
    queue = BoundedEventQueue(capacity=3)
    queue.submit_many(events(5))
    # e0 and e1 (the oldest) were shed; the window slid forward.
    assert [event.item for event in queue.drain()] == ["e2", "e3", "e4"]
    assert queue.stats().shed == 2


def test_conservation_identity_holds_at_every_step():
    queue = BoundedEventQueue(capacity=4)
    for i, event in enumerate(events(20)):
        queue.submit(event)
        if i % 3 == 0:
            queue.drain(2)
        assert queue.stats().balanced
    queue.drain()
    stats = queue.stats()
    assert stats.balanced
    assert stats.submitted == 20
    assert stats.depth == 0
    assert stats.submitted == stats.drained + stats.shed


def test_shed_events_counter_accounts_for_every_loss():
    queue = BoundedEventQueue(capacity=2)
    recorder = obs.Recorder()
    with obs.recording(recorder):
        queue.submit_many(events(7))
    assert recorder.counters["serve.shed_events"] == 5
    assert queue.stats().shed == 5


def test_drain_respects_max_events():
    queue = BoundedEventQueue(capacity=10)
    queue.submit_many(events(6))
    assert len(queue.drain(4)) == 4
    assert len(queue) == 2
    assert len(queue.drain(100)) == 2


def test_requeue_front_restores_order_and_counters():
    queue = BoundedEventQueue(capacity=10)
    queue.submit_many(events(5))
    batch = queue.drain(3)
    queue.requeue_front(batch)
    stats = queue.stats()
    assert stats.drained == 0  # rolled back: the batch was never applied
    assert stats.balanced
    assert [event.item for event in queue.drain()] == ["e0", "e1", "e2", "e3", "e4"]


def test_requeue_front_over_capacity_sheds_the_requeued_oldest():
    queue = BoundedEventQueue(capacity=3)
    queue.submit_many(events(3))
    batch = queue.drain(3)
    # Fresh traffic refilled the queue while the failed batch was out.
    queue.submit_many(events(3, prefix="f"))
    queue.requeue_front(batch)
    stats = queue.stats()
    assert stats.balanced
    assert stats.shed == 3
    # The survivors are the freshest traffic, in order.
    assert [event.item for event in queue.drain()] == ["f0", "f1", "f2"]


# ----------------------------------------------------------------------
# submit_many is one lock hold and a bulk shed; it must be equivalent to
# one submit per event, and to a plain deque that sheds one at a time.
# ----------------------------------------------------------------------
bulk_operations = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("drain"), st.integers(min_value=0, max_value=6)),
    ),
    max_size=20,
)


@given(capacity=st.integers(min_value=1, max_value=8), ops=bulk_operations)
@settings(max_examples=150, deadline=None)
def test_submit_many_matches_one_submit_per_event(capacity, ops):
    bulk, single = BoundedEventQueue(capacity), BoundedEventQueue(capacity)
    model, model_shed = deque(), 0
    bulk_recorder, single_recorder = obs.Recorder(), obs.Recorder()
    sequence = 0
    for name, size in ops:
        if name == "drain":
            batch = bulk.drain(size)
            assert batch == single.drain(size)
            assert batch == [model.popleft() for _ in range(min(size, len(model)))]
            continue
        # Sizes up to 12 against capacities up to 8: single calls overflow.
        batch = events(sequence + size)[sequence:]
        sequence += size
        with obs.recording(bulk_recorder):
            shed = bulk.submit_many(batch)
        with obs.recording(single_recorder):
            shed_one_by_one = sum(single.submit(event) for event in batch)
        model_before = model_shed
        for event in batch:
            model.append(event)
            if len(model) > capacity:
                model.popleft()
                model_shed += 1
        assert shed == shed_one_by_one == model_shed - model_before
        assert list(bulk._events) == list(single._events) == list(model)
        assert bulk.stats() == single.stats()
        assert bulk.stats().balanced
    assert bulk.stats().shed == model_shed
    assert bulk_recorder.counters.get("serve.shed_events", 0) == model_shed
    assert single_recorder.counters.get("serve.shed_events", 0) == model_shed


def test_submit_many_accepts_any_iterable():
    queue = BoundedEventQueue(capacity=3)
    assert queue.submit_many(iter(events(5))) == 2
    assert [event.item for event in queue.drain()] == ["e2", "e3", "e4"]
    assert queue.stats().submitted == 5


def test_click_event_is_an_immutable_record():
    event = ClickEvent("u", "i", 3, 1.5)
    assert event.record() == ("u", "i", 3) == event[:3]
    with pytest.raises(AttributeError):
        event.clicks = 4
