"""Unit tests for the red-team frontier harness (ISSUE 8)."""

from __future__ import annotations

import pytest

from repro.config import RICDParams
from repro.datagen import clean_marketplace, family_names
from repro.errors import DataGenError
from repro.eval.metrics import Metrics
from repro.eval.robustness import FrontierPoint, red_team

PARAMS = RICDParams(k1=4, k2=4)


@pytest.fixture(scope="module")
def clean_graph():
    return clean_marketplace("tiny", seed=3)


@pytest.fixture(scope="module")
def report(clean_graph):
    return red_team(
        clean_graph,
        families=("coattails", "obfuscation"),
        budgets=(400,),
        adaptivity=(False, True),
        params=PARAMS,
        seed=0,
        with_feedback=False,
    )


def _metrics(precision=1.0, recall=0.5):
    return Metrics(
        precision=precision,
        recall=recall,
        f1=0.0,
        true_positives=1,
        output_size=1,
        known_size=2,
    )


class TestFrontierPoint:
    def test_recall_recovered_without_feedback_is_zero(self):
        point = FrontierPoint(
            family="coattails",
            budget=400,
            adaptive=False,
            metrics=_metrics(recall=0.5),
            feedback_metrics=None,
            feedback_rounds=0,
            n_workers=12,
            n_groups=1,
        )
        assert point.recall_recovered == 0.0
        row = point.to_row()
        assert row["family"] == "coattails"
        assert "feedback" not in row

    def test_recall_recovered_and_row_with_feedback(self):
        point = FrontierPoint(
            family="learned",
            budget=400,
            adaptive=True,
            metrics=_metrics(recall=0.1),
            feedback_metrics=_metrics(recall=0.7),
            feedback_rounds=3,
            n_workers=10,
            n_groups=2,
        )
        assert point.recall_recovered == pytest.approx(0.6)
        row = point.to_row()
        assert row["feedback"]["rounds"] == 3
        assert row["feedback"]["recall_recovered"] == pytest.approx(0.6)


class TestRedTeam:
    def test_grid_shape_and_order(self, report):
        assert [(p.family, p.budget, p.adaptive) for p in report.points] == [
            ("coattails", 400, False),
            ("coattails", 400, True),
            ("obfuscation", 400, False),
            ("obfuscation", 400, True),
        ]
        assert report.families() == ["coattails", "obfuscation"]

    def test_without_feedback_has_no_feedback_metrics(self, report):
        assert all(p.feedback_metrics is None for p in report.points)
        assert all(p.feedback_rounds == 0 for p in report.points)

    def test_campaigns_are_sized(self, report):
        for point in report.points:
            assert point.n_workers >= 1
            assert point.n_groups >= 1

    def test_best_recall(self, report):
        best = report.best_recall("coattails")
        assert best == max(
            p.metrics.recall for p in report.points if p.family == "coattails"
        )
        assert report.best_recall("no-such-family") == 0.0

    def test_to_json_artifact_schema(self, report):
        payload = report.to_json()
        assert payload["schema"] == "ricd.redteam.frontier/v1"
        assert payload["seed"] == 0
        assert payload["families"] == ["coattails", "obfuscation"]
        assert len(payload["points"]) == 4
        for row in payload["points"]:
            assert set(row) == {
                "family",
                "budget",
                "adaptive",
                "n_workers",
                "n_groups",
                "precision",
                "recall",
                "f1",
            }

    def test_deterministic_given_seed(self, clean_graph, report):
        again = red_team(
            clean_graph,
            families=("coattails", "obfuscation"),
            budgets=(400,),
            adaptivity=(False, True),
            params=PARAMS,
            seed=0,
            with_feedback=False,
        )
        assert again.to_json() == report.to_json()

    def test_unknown_family_raises(self, clean_graph):
        with pytest.raises(DataGenError):
            red_team(clean_graph, families=("no-such-family",), budgets=(400,))

    def test_defaults_cover_the_whole_zoo(self, clean_graph):
        single = red_team(
            clean_graph,
            budgets=(300,),
            adaptivity=(False,),
            params=PARAMS,
            with_feedback=False,
        )
        assert single.families() == family_names()

    def test_feedback_populates_metrics(self, clean_graph):
        fed = red_team(
            clean_graph,
            families=("coattails",),
            budgets=(400,),
            adaptivity=(True,),
            params=PARAMS,
            seed=0,
            with_feedback=True,
        )
        (point,) = fed.points
        assert point.feedback_metrics is not None
        assert point.feedback_metrics.recall >= point.metrics.recall
        assert point.to_row()["feedback"]["rounds"] == point.feedback_rounds


class TestHotCapRelaxation:
    """The Fig. 7 loop's ``hot_click_cap`` relaxation closes the hot-pad gap.

    Adaptive workers pad their mean hot-item clicks to exactly the
    deployed ``hot_click_cap``, so the user behaviour check clears every
    one of them: the baseline detector *and* a feedback loop that only
    relaxes ``t_click``/``alpha``/``k`` recover nothing.  Raising the cap
    per relaxation round (``FeedbackPolicy.hot_cap_step``) moves the
    organic-looking band above the padded mean and recovers the workers.
    """

    @pytest.fixture(scope="class")
    def attacked(self):
        from repro.datagen.attacks import plan_family

        graph = clean_marketplace("tiny", seed=0)
        attacked = graph.copy()
        plan = plan_family(attacked, "coattails", budget=800, seed=1, adaptive=True)
        truth = plan.apply(attacked)
        return attacked, truth

    def test_hot_pad_attack_evades_cap_blind_feedback(self, attacked):
        from repro.config import FeedbackPolicy
        from repro.core.framework import RICDDetector
        from repro.eval.robustness import node_metrics

        graph, truth = attacked
        expectation = len(truth.abnormal_users) + len(truth.abnormal_items)
        blind = RICDDetector(
            params=PARAMS,
            feedback=FeedbackPolicy(
                expectation=expectation, max_rounds=4, t_click_step=2.0,
                alpha_step=0.1, shrink_k=True,
            ),
        ).detect(graph)
        metrics = node_metrics(
            blind.suspicious_users, blind.suspicious_items,
            truth.abnormal_users, truth.abnormal_items,
        )
        # All four rounds spent, zero recall: the gap the relaxation closes.
        assert blind.feedback_rounds == 4
        assert metrics.recall == 0.0

    def test_cap_relaxation_recovers_the_workers(self, attacked):
        from repro.config import FeedbackPolicy
        from repro.core.framework import RICDDetector
        from repro.eval.robustness import node_metrics

        graph, truth = attacked
        expectation = len(truth.abnormal_users) + len(truth.abnormal_items)
        relaxed = RICDDetector(
            params=PARAMS,
            feedback=FeedbackPolicy(
                expectation=expectation, max_rounds=4, t_click_step=2.0,
                alpha_step=0.1, shrink_k=True, hot_cap_step=2.0,
            ),
        ).detect(graph)
        metrics = node_metrics(
            relaxed.suspicious_users, relaxed.suspicious_items,
            truth.abnormal_users, truth.abnormal_items,
        )
        assert metrics.recall > 0.5
        assert metrics.precision > 0.5

    def test_red_team_harness_uses_the_relaxation(self, attacked):
        """The sized policy the frontier harness builds has the step on."""
        from repro.eval.robustness import _sized_feedback_policy

        policy = _sized_feedback_policy(10)
        assert policy.hot_cap_step > 0

    def test_ceiling_bounds_the_relaxation(self):
        from repro.config import FeedbackPolicy, ScreeningParams
        from repro.core.identification import adjust_parameters

        policy = FeedbackPolicy(hot_cap_step=5.0, hot_cap_ceiling=8.0)
        screening = ScreeningParams()
        params = PARAMS.replace(t_click=10.0)
        for _ in range(4):
            params, screening = adjust_parameters(params, screening, policy)
        assert screening.hot_click_cap == 8.0
