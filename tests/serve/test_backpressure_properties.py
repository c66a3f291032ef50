"""Property-based backpressure invariants (Hypothesis).

A deterministic in-test mirror of the queue's ring-buffer semantics
predicts, for any interleaving of submits and pumps, exactly which
events survive shedding.  Against that model the suite pins:

* depth never exceeds capacity, at every step;
* the shed counter is monotone and matches the model exactly;
* the final unbounded drain converges to the batch result over the
  model's surviving events — nothing lost, nothing invented.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RICDParams
from repro.core.framework import RICDDetector
from repro.graph import BipartiteGraph
from repro.serve import DetectionService, ServeConfig, SimulatedClock, StalenessPolicy

from ..canon import canonical_result

pytestmark = pytest.mark.servetest

PARAMS = RICDParams(k1=4, k2=4)

submits = st.tuples(
    st.just("submit"),
    st.integers(min_value=0, max_value=4),   # user id
    st.integers(min_value=0, max_value=3),   # item id
    st.integers(min_value=1, max_value=3),   # clicks
)
operations = st.lists(
    st.one_of(submits, st.just(("pump",))), min_size=1, max_size=60
)


@settings(max_examples=30, deadline=None)
@given(
    ops=operations,
    capacity=st.integers(min_value=1, max_value=8),
    max_batch=st.integers(min_value=1, max_value=4),
)
def test_queue_invariants_and_final_convergence(ops, capacity, max_batch):
    service = DetectionService.over_graph(
        BipartiteGraph(),
        params=PARAMS,
        engine="reference",
        config=ServeConfig(
            queue_capacity=capacity,
            max_batch=max_batch,
            staleness=StalenessPolicy(max_batches=3),
        ),
        clock=SimulatedClock(),
    )
    # The deterministic mirror: same ring-buffer semantics, plain data.
    model_queue: deque = deque()
    model_applied: list = []
    model_shed = 0

    for op in ops:
        if op[0] == "submit":
            _, user_id, item_id, clicks = op
            service.submit(f"u{user_id}", f"i{item_id}", clicks)
            model_queue.append((f"u{user_id}", f"i{item_id}", clicks))
            if len(model_queue) > capacity:
                model_queue.popleft()
                model_shed += 1
        else:
            service.pump()
            model_applied.extend(
                model_queue.popleft() for _ in range(min(max_batch, len(model_queue)))
            )
        stats = service.queue.stats()
        assert stats.depth <= capacity
        assert stats.balanced
        assert stats.shed == model_shed  # monotone by construction

    # Final unbounded drain: whatever survived shedding is applied.
    final = service.checkpoint()
    model_applied.extend(model_queue)
    model_queue.clear()
    snapshot = service.snapshot()
    assert snapshot.queue.depth == 0
    assert snapshot.applied == len(model_applied)
    assert snapshot.applied + snapshot.queue.shed == snapshot.queue.submitted

    reference_graph = BipartiteGraph()
    for user, item, clicks in model_applied:
        reference_graph.add_click(user, item, clicks)
    assert sorted(service.online.graph.edges()) == sorted(reference_graph.edges())
    expected = RICDDetector(params=PARAMS, engine="reference").detect(reference_graph)
    assert canonical_result(final) == canonical_result(expected)
