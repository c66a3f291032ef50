"""Online monitoring: catch an attack as its clicks stream in.

Implements the paper's future-work scenario (Section VIII): during a
"Double 11"-style campaign, click batches arrive continuously and the
platform wants the attack flagged *while it is happening*, not in the
nightly batch job.  The :class:`IncrementalRICD` extension re-checks only
the two-hop dirty region around each batch.

Run:  python examples/online_monitoring.py
"""

import time

from repro import MarketplaceConfig, RICDParams
from repro.core.incremental import IncrementalRICD
from repro.datagen import AttackConfig, generate_scenario


def main() -> None:
    print("Bootstrapping the live marketplace (clean at launch)...")
    clean = generate_scenario(
        MarketplaceConfig(
            n_users=5_000,
            n_items=1_000,
            # Overlay volumes scale with the marketplace (the defaults
            # assume the 20k-user paper-scale preset).
            n_cohorts=3,
            cohort_users=(12, 25),
            cohort_items=(8, 12),
            n_superfans=80,
            superfan_clicks=(12, 18),
            n_swarms=1,
            swarm_users=(20, 26),
            swarm_items=(6, 8),
            seed=11,
        ),
        AttackConfig(n_groups=0, seed=12),
    )
    online = IncrementalRICD(clean.graph, params=RICDParams(k1=8, k2=8))
    print(f"  {online.graph!r}")
    print(
        f"  initial state: {len(online.current_result.suspicious_users)} "
        "suspicious accounts (expected ~0 on a clean marketplace)"
    )

    print("\nAn attack campaign starts streaming in (5 daily batches)...")
    # Build the campaign off-line, then deliver it batch by batch.
    shadow = online.graph.copy()
    from repro.datagen import inject_attacks

    truth = inject_attacks(
        shadow,
        AttackConfig(
            n_groups=1,
            workers_per_group=(12, 12),
            targets_per_group=(10, 10),
            target_clicks=(12, 14),
            density=1.0,
            sloppy_fraction=0.0,
            hijacked_user_fraction=0.0,
            worker_reuse_fraction=0.0,
            seed=13,
        ),
    )
    group = truth.groups[0]
    campaign = list(group.fake_edges)
    batch_size = max(1, len(campaign) // 5)

    detected_on_day = None
    for day in range(5):
        batch = campaign[day * batch_size : (day + 1) * batch_size]
        if not batch:
            break
        start = time.perf_counter()
        online.ingest(batch)
        result = online.recheck()
        elapsed = (time.perf_counter() - start) * 1000
        caught = len(set(group.workers) & result.suspicious_users)
        print(
            f"  day {day + 1}: ingested {len(batch):>3} fake clicks "
            f"in {elapsed:6.1f} ms -> {caught:>2}/{len(group.workers)} "
            "campaign accounts flagged"
        )
        if detected_on_day is None and caught >= len(group.workers) * 0.8:
            detected_on_day = day + 1

    if detected_on_day is not None:
        print(
            f"\nCampaign flagged on day {detected_on_day} of 5 — before it "
            "finished. (The paper: 'the earlier these attacks are detected "
            "in real time, the more losses can be reduced.')"
        )
    else:
        print("\nCampaign not fully flagged within the window — tune k1/k2.")
        return

    print("\nDay 6 — cleanup: subtract the attributed fake clicks and recheck")
    from repro.core.screening import collect_fake_edges
    from repro.core.thresholds import t_click_from_graph

    t_click = t_click_from_graph(online.graph)
    attributed = [
        edge
        for detected in online.current_result.groups
        for edge in collect_fake_edges(online.graph, detected, t_click)
    ]
    state = online.apply_cleanup(attributed)
    still_flagged = set(group.workers) & state.suspicious_users
    print(
        f"  removed {len(attributed)} attributed click records; "
        f"{len(still_flagged)} campaign accounts remain flagged "
        "(expected 0 — their fake history is gone)"
    )


if __name__ == "__main__":
    main()
