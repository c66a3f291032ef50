"""Tests for the incremental (online) detection extension."""

import pytest

from repro.config import RICDParams, ScreeningParams
from repro.core.incremental import IncrementalRICD
from repro.core.framework import RICDDetector
from repro.datagen import AttackConfig, inject_attacks


def params():
    return RICDParams(k1=4, k2=4)


def make_online(graph):
    return IncrementalRICD(
        graph,
        params=params(),
        screening=ScreeningParams(min_users=2, min_items=2),
    )


class TestIncremental:
    def test_bootstrap_matches_batch_detector(self, tiny):
        online = make_online(tiny.graph)
        batch_result = RICDDetector(
            params=params(), screening=ScreeningParams(min_users=2, min_items=2)
        ).detect(tiny.graph)
        assert online.current_result.suspicious_users == batch_result.suspicious_users
        assert online.current_result.suspicious_items == batch_result.suspicious_items

    def test_initial_graph_not_mutated(self, tiny):
        before = tiny.graph.copy()
        online = make_online(tiny.graph)
        online.ingest([("new_account", "i0", 5)])
        online.recheck()
        assert tiny.graph == before

    def test_ingest_applies_clicks(self, tiny):
        online = make_online(tiny.graph)
        online.ingest([("new_account", "i0", 5)])
        assert online.graph.get_click("new_account", "i0") == 5
        assert online.dirty_size == 2

    def test_ingest_takes_a_generator(self, tiny):
        """A one-pass iterable is applied and marked dirty alike."""
        online = make_online(tiny.graph)
        online.ingest(record for record in [("new_account", "i0", 5), ("new_account", "i1", 2)])
        assert online.graph.get_click("new_account", "i0") == 5
        assert online.graph.get_click("new_account", "i1") == 2
        assert online.dirty_size == 3

    def test_recheck_clears_dirty(self, tiny):
        online = make_online(tiny.graph)
        online.ingest([("new_account", "i0", 5)])
        online.recheck()
        assert online.dirty_size == 0

    def test_recheck_without_dirt_is_noop(self, tiny):
        online = make_online(tiny.graph)
        before = online.current_result
        assert online.recheck() is before

    def test_streamed_attack_is_detected(self, tiny):
        """An attack arriving as click batches is caught at the recheck."""
        online = make_online(tiny.graph)
        baseline_users = set(online.current_result.suspicious_users)
        # Stream a fresh 5x5 attack (hot ride + heavy targets).
        workers = [f"nw{i}" for i in range(5)]
        targets = [f"nt{j}" for j in range(5)]
        records = []
        for worker in workers:
            records.append((worker, "i0", 1))  # ride the hottest item
            for target in targets:
                records.append((worker, target, 13))
        online.ingest(records)
        result = online.recheck()
        assert set(workers) <= result.suspicious_users
        assert set(targets) <= result.suspicious_items
        # Previously clean users stay out.
        assert baseline_users <= result.suspicious_users | baseline_users

    def test_untouched_groups_survive_rechecks(self, tiny):
        online = make_online(tiny.graph)
        initial_users = set(online.current_result.suspicious_users)
        # Ingest organic noise far from the attack group.
        online.ingest([("idle_shopper", "i40", 1), ("idle_shopper", "i40", 1)])
        result = online.recheck()
        assert initial_users <= result.suspicious_users

    def test_online_covers_batch_on_final_graph(self, tiny):
        """Both online and batch runs catch a streamed attack; the online
        state additionally retains pre-drift groups (new clicks shift the
        derived thresholds, which can make a *fresh* batch run drop groups
        that were valid when first detected)."""
        online = make_online(tiny.graph)
        workers = [f"zw{i}" for i in range(5)]
        targets = [f"zt{j}" for j in range(5)]
        records = [(w, t, 13) for w in workers for t in targets]
        online.ingest(records)
        online.recheck()
        batch = RICDDetector(
            params=params(), screening=ScreeningParams(min_users=2, min_items=2)
        ).detect(online.graph)
        assert set(workers) <= batch.suspicious_users
        assert set(workers) <= online.current_result.suspicious_users
        assert batch.suspicious_users <= online.current_result.suspicious_users

    def test_replay_from_empty_matches_batch(self, tiny):
        """Tier-1 miniature of the difftest replay-parity grid: streaming
        the whole click table from an empty graph and rechecking once
        equals a one-shot batch detect."""
        from repro.graph import BipartiteGraph

        online = IncrementalRICD(
            BipartiteGraph(),
            params=params(),
            screening=ScreeningParams(min_users=2, min_items=2),
        )
        records = [
            (user, item, tiny.graph.get_click(user, item))
            for user in sorted(tiny.graph.users(), key=str)
            for item in sorted(tiny.graph.user_neighbors(user), key=str)
        ]
        online.ingest(records)
        online.recheck()
        # Compare on the replayed graph: the click table omits the
        # scenario's zero-click items, which exist as nodes only.
        batch = RICDDetector(
            params=params(), screening=ScreeningParams(min_users=2, min_items=2)
        ).detect(online.graph)
        assert online.graph.num_edges == tiny.graph.num_edges
        assert online.current_result.suspicious_users == batch.suspicious_users
        assert online.current_result.suspicious_items == batch.suspicious_items

    def test_injected_attack_via_injector(self, tiny):
        """Full-stack: inject a second attack into the live graph as batches."""
        online = make_online(tiny.graph)
        shadow = online.graph.copy()
        truth = inject_attacks(
            shadow,
            AttackConfig(
                n_groups=1,
                workers_per_group=(5, 5),
                targets_per_group=(5, 5),
                target_clicks=(13, 13),
                density=1.0,
                sloppy_fraction=0.0,
                hijacked_user_fraction=0.0,
                worker_reuse_fraction=0.0,
                organic_target_users=(0, 0),
                seed=99,
            ),
        )
        group = truth.groups[0]
        # The injector numbers its groups from 0, so its ids collide with
        # the scenario's own group 0 — remap to a fresh namespace before
        # streaming.
        def remap(node):
            text = str(node)
            return f"x_{text}" if text[0] in "wt" else node

        records = [
            (remap(user), remap(item), clicks)
            for user, item, clicks in group.fake_edges
        ]
        online.ingest(records)
        result = online.recheck()
        caught = {remap(w) for w in group.workers} & result.suspicious_users
        assert len(caught) >= 4


class TestCleanup:
    def test_cleanup_removes_group_from_state(self, tiny):
        from repro.core.screening import collect_fake_edges
        from repro.core.thresholds import t_click_from_graph

        online = make_online(tiny.graph)
        result = online.current_result
        if not result.groups:
            pytest.skip("nothing detected on this seed")
        t_click = t_click_from_graph(online.graph)
        edges = [
            edge
            for group in result.groups
            for edge in collect_fake_edges(online.graph, group, t_click)
        ]
        after = online.apply_cleanup(edges)
        flagged_before = result.suspicious_users
        assert not (after.suspicious_users & flagged_before)

    def test_cleanup_clamps_at_zero(self, tiny):
        online = make_online(tiny.graph)
        user = next(iter(tiny.graph.users()))
        item = next(iter(tiny.graph.user_neighbors(user)))
        online.apply_cleanup([(user, item, 10**9)])
        assert online.graph.get_click(user, item) == 0

    def test_cleanup_of_unknown_edge_is_safe(self, tiny):
        online = make_online(tiny.graph)
        before = online.graph.total_clicks
        online.apply_cleanup([("ghost", "phantom", 5)])
        assert online.graph.total_clicks == before

    def test_a_cleanup_that_lowers_nothing_marks_nothing(self, tiny):
        from repro.resilience.faults import injecting

        online = make_online(tiny.graph)
        with injecting("error=1.0,sites=recheck"):
            result = online.apply_cleanup([("ghost", "phantom", 5)])
        assert online.dirty_size == 0
        assert not result.stale
        assert not online.graph.has_user("ghost")

    def test_a_non_positive_count_applies_nothing(self, tiny, tmp_path):
        from repro.store import DetectionStore

        online = make_online(tiny.graph)
        online.attach_store(DetectionStore.open_or_create(tmp_path / "store"))
        graph = online.graph
        user = next(iter(tiny.graph.users()))
        item = next(iter(tiny.graph.user_neighbors(user)))
        before = (graph.get_click(user, item), graph.total_clicks, graph.version)
        with pytest.raises(ValueError, match="clicks must be positive, got -5"):
            online.apply_cleanup([(user, item, 1), (user, item, -5)])
        assert (graph.get_click(user, item), graph.total_clicks, graph.version) == before
        assert online.dirty_size == 0
        assert online.store.head is None


class TestColumnarIngest:
    """The service pump hands ``ingest`` its drained ``ClickEvent`` batch as it is."""

    RECORDS = [("new_account", "i0", 5), ("fresh_user", "fresh_item", 2), ("new_account", "i0", 1)]

    @staticmethod
    def _stored(tiny, path):
        from repro.store import DetectionStore

        online = make_online(tiny.graph)
        online.attach_store(DetectionStore.open_or_create(path))
        online.persist_checkpoint()
        return online

    def test_click_events_ingest_like_their_records(self, tiny, tmp_path):
        from repro.serve import ClickEvent

        events = [ClickEvent(*record, timestamp=float(n)) for n, record in enumerate(self.RECORDS)]
        seen = []
        for name, batch in (("records", self.RECORDS), ("events", events)):
            online = self._stored(tiny, tmp_path / name)
            online.ingest(batch)
            state = (list(online.graph.edges()), online.graph.version, online.dirty_size)
            online.recheck()
            store = online.store
            seen.append((state, store.load_delta_records(store.head)))
        assert seen[0] == seen[1]
        assert seen[0][1] == self.RECORDS

    def test_a_zero_count_event_applies_nothing(self, tiny, tmp_path):
        from repro.serve import ClickEvent

        online = self._stored(tiny, tmp_path / "store")
        online.ingest([ClickEvent("early_user", "i0", 1)])
        graph = online.graph
        before = (graph.version, online.dirty_size)
        batch = [ClickEvent("new_account", "i0", 3), ClickEvent("fresh_user", "i1", 0)]
        with pytest.raises(ValueError, match="clicks must be positive, got 0"):
            online.ingest(batch)
        assert (graph.version, online.dirty_size) == before
        assert not graph.has_user("new_account")
        online.recheck()
        store = online.store
        assert store.load_delta_records(store.head) == [("early_user", "i0", 1)]

    @pytest.mark.parametrize(
        "batch, width",
        [([("u", "i")], "got 2"), ([("u", "i", 1), ("u", "i", 1, 0.0)], "got 3 and 4")],
    )
    def test_a_batch_of_other_widths_applies_nothing(self, tiny, batch, width):
        online = make_online(tiny.graph)
        version = online.graph.version
        with pytest.raises(ValueError, match=f"have 3 or 4 fields, {width}"):
            online.ingest(batch)
        assert online.graph.version == version and online.dirty_size == 0


class TestCleanupEdgeDeletion:
    def test_fully_cleaned_edge_leaves_the_adjacency(self, tiny):
        online = make_online(tiny.graph)
        user = next(iter(tiny.graph.users()))
        item = next(iter(tiny.graph.user_neighbors(user)))
        online.apply_cleanup([(user, item, tiny.graph.get_click(user, item))])
        assert not online.graph.has_edge(user, item)
        assert item not in dict(online.graph.user_neighbors(user))
        assert online.graph.num_edges == tiny.graph.num_edges - 1

    def test_threshold_parity_with_freshly_built_graph(self, tiny):
        """Regression: a cleaned-to-zero edge must not linger as a zombie.

        A weight-0 edge would still count toward ``Avg_cnt`` (Eq. 4's
        denominator) and item degrees, so the live graph's re-derived
        thresholds would drift from a graph built fresh without the
        edge.  Both derivations must agree exactly.
        """
        from repro.core.thresholds import pareto_hot_threshold, t_click_from_graph
        from repro.graph import BipartiteGraph

        online = make_online(tiny.graph)
        user = next(iter(tiny.graph.users()))
        removed = set()
        for item in list(dict(tiny.graph.user_neighbors(user)))[:2]:
            online.apply_cleanup([(user, item, tiny.graph.get_click(user, item))])
            removed.add((user, item))

        fresh = BipartiteGraph()
        for edge_user, edge_item, clicks in tiny.graph.edges():
            if (edge_user, edge_item) not in removed:
                fresh.add_click(edge_user, edge_item, clicks)
        assert online.graph.num_edges == fresh.num_edges
        assert t_click_from_graph(online.graph) == t_click_from_graph(fresh)
        assert pareto_hot_threshold(online.graph) == pareto_hot_threshold(fresh)


class TestKeptGroups:
    """A kept group the regional pass finds again is served once."""

    @pytest.mark.parametrize("engine", ["bitset", "reference"])
    def test_clicks_on_ridden_hot_items_serve_each_group_once(self, small, engine):
        online = IncrementalRICD(small.graph, params=RICDParams(k1=5, k2=5), engine=engine)
        ridden = {item for group in online.current_result.groups for item in group.hot_items}
        assert ridden
        for index, item in enumerate(sorted(ridden, key=str)):
            # A click on a ridden hot item dirties only that item: the
            # groups riding it stay kept, and the two-hop region around
            # it holds them whole.
            online.ingest([(f"organic_{index}", item, 1)])
            keys = [
                (frozenset(group.users), frozenset(group.items))
                for group in online.recheck().groups
            ]
            assert len(keys) == len(set(keys)), f"a group served twice after a click on {item}"

    def test_a_regional_recheck_gauges_its_region_share(self, small):
        from repro import obs

        online = IncrementalRICD(small.graph, params=RICDParams(k1=5, k2=5))
        online.ingest([("fresh_user", "i1", 1)])
        with obs.recording(obs.Recorder()) as recorder:
            online.recheck()
        assert 0 < recorder.gauges["incremental.region_share"] <= 1


class TestFullGraphScreening:
    """A recheck splits hot from ordinary items by marketplace totals, as ``detect`` does."""

    @pytest.mark.parametrize("engine", ["bitset", "reference"])
    def test_an_organic_click_rechecks_to_the_batch_result(self, small, engine):
        from ..canon import canonical_result

        params = RICDParams(k1=5, k2=5)
        online = IncrementalRICD(small.graph, params=params, engine=engine)
        # The click's two-hop region holds only some of the clicks of many
        # marketplace-hot items; screening must still read them as hot.
        online.ingest([("fresh_user", "i1", 1)])
        expected = RICDDetector(params, engine=engine).detect(online.graph.copy())
        assert canonical_result(online.recheck()) == canonical_result(expected)


class TestTraverseCap:
    @staticmethod
    def _growth_batch(graph, edges=3000):
        """New users piling clicks onto a handful of existing items."""
        targets = sorted(map(str, graph.items()))[:5]
        return (
            (f"grower_{index}", targets[index % len(targets)], 1)
            for index in range(edges)
        )

    def test_derived_cap_tracks_live_graph_growth(self, tiny):
        online = make_online(tiny.graph)
        initial = online.traverse_degree_cap
        online.ingest(self._growth_batch(online.graph))
        online.recheck()
        # Mean item degree grew by an order of magnitude; a cap frozen at
        # bootstrap would now silently shrink the dirty region.
        assert online.traverse_degree_cap > initial


class TestOwedFullRecheck:
    """A full recheck is owed until one succeeds, without filling the dirty sets."""

    @pytest.mark.parametrize("with_store", [False, True])
    def test_failed_full_recheck_stays_owed(self, tiny, tmp_path, with_store):
        from repro.resilience.faults import injecting
        from repro.store import DetectionStore

        from ..canon import canonical_result

        online = make_online(tiny.graph)
        if with_store:
            online.attach_store(DetectionStore.open_or_create(tmp_path / "store"))
        online.ingest([("new_account", "i0", 5)])
        with injecting("error=1.0,sites=recheck,max=1"):
            assert online.recheck_full().stale
        graph = online.graph
        assert online.dirty_size == graph.num_users + graph.num_items

        result = online.recheck()
        assert not result.stale
        assert online.dirty_size == 0
        expected = RICDDetector(
            params=params(),
            screening=ScreeningParams(min_users=2, min_items=2),
            max_group_users=18,
        ).detect(graph.copy())
        assert canonical_result(result) == canonical_result(expected)
        if with_store:
            store = online.store
            assert "snapshot" in store.entry(store.head)
