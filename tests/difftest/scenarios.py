"""The seeded scenario grid shared by the differential suites.

``tests/difftest/`` proves the alternate execution paths (engines,
parallel harness, recorder, incremental, serving, warm store) agree on
it.  Keeping the grid in one place means a new axis (density, skew,
camouflage) automatically hardens every suite that reads it.
"""

from repro.datagen import AttackConfig, MarketplaceConfig, generate_scenario

#: (label, seed, attack density, popularity exponent, camouflage on?).
#: Density 1.0 = perfect bicliques (CorePruning-only territory); 0.7 =
#: ragged near-bicliques where SquarePruning does the work.  The exponent
#: steepens the hot-item skew, moving T_hot and the screening decisions.
SCENARIO_GRID = [
    ("dense-flat", 11, 1.0, 2.0, False),
    ("dense-skewed", 12, 1.0, 3.2, True),
    ("ragged-flat", 13, 0.7, 2.0, True),
    ("ragged-skewed", 14, 0.7, 3.2, False),
    ("sparse-attack", 15, 0.55, 2.6, True),
]


def build_scenario(seed: int, density: float, exponent: float, camouflage: bool):
    """One grid cell's scenario (deterministic for a given parameter tuple)."""
    marketplace = MarketplaceConfig(
        n_users=1_500,
        n_items=400,
        popularity_exponent=exponent,
        n_cohorts=3,
        cohort_users=(10, 20),
        cohort_items=(6, 10),
        n_superfans=20,
        n_swarms=1,
        swarm_users=(20, 24),
        swarm_items=(6, 8),
        seed=seed,
    )
    attacks = AttackConfig(
        n_groups=3,
        workers_per_group=(6, 9),
        targets_per_group=(6, 9),
        target_clicks=(12, 14),
        density=density,
        camouflage_items=(3, 8) if camouflage else (0, 0),
        sloppy_fraction=0.2,
        sloppy_target_clicks=(3, 6),
        seed=seed + 1,
    )
    return generate_scenario(marketplace, attacks)
