"""Cross-module integration tests: the full pipeline, end to end."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import (
    RICDDetector,
    RICDParams,
    read_click_table,
    small_scenario,
    write_click_table,
)
from repro.eval import node_metrics


class TestPublicAPI:
    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestDependencies:
    def test_runtime_paths_never_import_scipy(self):
        """numpy is the only numeric dependency: scipy never loads at run time."""
        script = textwrap.dedent(
            """
            import json
            import sys

            import repro
            import repro.serve
            import repro.store
            from repro.datagen import small_scenario

            graph = small_scenario().graph
            repro.RICDDetector(engine="auto").detect(graph)
            print(json.dumps({
                "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
            }))
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        assert report["scipy"] == []


class TestEndToEnd:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_detection_quality_across_seeds(self, seed):
        """The detector must be robust to the generator's randomness."""
        scenario = small_scenario(seed=seed)
        result = RICDDetector(params=RICDParams(k1=5, k2=5)).detect(scenario.graph)
        metrics = node_metrics(
            result.suspicious_users,
            result.suspicious_items,
            scenario.truth.abnormal_users,
            scenario.truth.abnormal_items,
        )
        assert metrics.precision >= 0.6, f"seed {seed}: precision {metrics.precision}"
        assert metrics.recall >= 0.25, f"seed {seed}: recall {metrics.recall}"

    def test_detection_through_file_round_trip(self, tmp_path, small):
        """CSV export -> import -> detect gives identical output."""
        path = tmp_path / "clicks.csv"
        write_click_table(small.graph, path)
        reloaded = read_click_table(path)
        detector = RICDDetector(params=RICDParams(k1=5, k2=5))
        direct = detector.detect(small.graph)
        via_file = detector.detect(reloaded)
        assert direct.suspicious_users == via_file.suspicious_users
        assert direct.suspicious_items == via_file.suspicious_items

    def test_detection_is_deterministic(self, small):
        detector = RICDDetector(params=RICDParams(k1=5, k2=5))
        first = detector.detect(small.graph)
        second = detector.detect(small.graph)
        assert first.suspicious_users == second.suspicious_users
        assert first.user_scores == second.user_scores
        assert [g.users for g in first.groups] == [g.users for g in second.groups]

    def test_no_attacks_no_findings(self):
        """A clean marketplace must produce (nearly) nothing."""
        from repro.datagen import AttackConfig, MarketplaceConfig, generate_scenario

        clean = generate_scenario(
            MarketplaceConfig(
                n_users=3_000,
                n_items=700,
                n_cohorts=4,
                cohort_users=(12, 25),
                cohort_items=(8, 12),
                n_superfans=30,
                superfan_clicks=(12, 18),
                n_swarms=0,
                seed=5,
            ),
            AttackConfig(n_groups=0, seed=6),
        )
        result = RICDDetector(params=RICDParams(k1=5, k2=5)).detect(clean.graph)
        # Cohorts and superfans are organic; a handful of coincidental
        # flags is tolerable, a flood is not.
        assert len(result.suspicious_users) <= 10

    def test_seeded_detection_is_cheaper(self, small):
        """Seed expansion (Algorithm 2) restricts work to a neighbourhood."""
        detector = RICDDetector(params=RICDParams(k1=5, k2=5))
        seed_worker = small.truth.groups[0].workers[0]
        seeded, full = [], []
        for _ in range(5):
            # Fresh copies: the session-scoped graph may carry a memoized
            # extraction fixpoint from earlier tests, which would make the
            # full pass a cache hit.  The sides alternate, so a busy spell
            # on the host slows both, and the best of five drops it.
            seeded.append(
                detector.detect(small.graph.copy(), seed_users=[seed_worker]).timings["detection"]
            )
            full.append(detector.detect(small.graph.copy()).timings["detection"])
        assert min(seeded) <= min(full) * 1.5

    def test_recommender_attack_detect_clean_cycle(self, small):
        """The README story: measure lift, detect, clean, verify restoration."""
        from repro.recsys import attack_impact, remove_fake_clicks

        group = max(small.truth.groups, key=lambda g: len(g.workers))
        clean = remove_fake_clicks(small.graph, [group])
        impact = attack_impact(clean, small.graph, group, k=10)
        assert impact.mean_score_after >= impact.mean_score_before

        result = RICDDetector(params=RICDParams(k1=5, k2=5)).detect(small.graph)
        flagged_edges = [
            (user, item, clicks)
            for user, item, clicks in group.fake_edges
            if user in result.suspicious_users
        ]
        if flagged_edges:  # detection-dependent, but cleanup must not break
            cleaned = small.graph.copy()
            for user, item, clicks in flagged_edges:
                cleaned.set_click(
                    user, item, max(0, cleaned.get_click(user, item) - clicks)
                )
            assert cleaned.total_clicks < small.graph.total_clicks
