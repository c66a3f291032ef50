"""Command-line entry point: ``python -m repro`` / ``ricd``.

Usage::

    ricd list                       # show available experiments
    ricd run fig8                   # run one experiment and print its report
    ricd run all                    # run every experiment in paper order
    ricd run fig8 --seed 7          # change the scenario seed
    ricd detect clicks.csv          # run RICD on a real click table
    ricd detect clicks.csv --k1 5 --k2 5 --output findings
    ricd serve --replay clicks.csv  # stream the table through the online service
    ricd serve --replay clicks.csv --rate 50000 --max-batch 2000
    ricd server --store ./store     # detection-as-a-service over HTTP
    ricd server --store ./store --bootstrap clicks.csv --port 8749
    ricd redteam                    # attack-zoo frontier on a clean marketplace
    ricd redteam --families learned,uplift --budgets 2000 --out frontier.json
"""

from __future__ import annotations

import argparse
import csv
import inspect
import sys
from pathlib import Path
from typing import Sequence

from . import obs
from .config import FeedbackPolicy, RICDParams
from .core.framework import RICDDetector
from .errors import ExperimentError, ReproError
from .eval.reporting import render_trace
from .experiments import EXPERIMENT_IDS, get_experiment
from .graph.io import read_click_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``ricd`` command."""
    parser = argparse.ArgumentParser(
        prog="ricd",
        description=(
            "RICD — 'Ride Item's Coattails' attack detection "
            "(ICDE 2021 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        help=f"experiment id ({', '.join(EXPERIMENT_IDS)}) or 'all'",
    )
    run_parser.add_argument(
        "--seed", type=int, default=0, help="scenario seed (default 0)"
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for experiments that fan out (fig8 suite, "
            "fig9 sweeps); 1 runs serially (default)"
        ),
    )
    _add_trace_flags(run_parser)

    detect_parser = subparsers.add_parser(
        "detect", help="run RICD on a click-table file (User_ID, Item_ID, Click)"
    )
    detect_parser.add_argument("click_table", help="CSV/TSV click table path")
    detect_parser.add_argument("--k1", type=int, default=10, help="min group users")
    detect_parser.add_argument("--k2", type=int, default=10, help="min group items")
    detect_parser.add_argument(
        "--alpha", type=float, default=1.0, help="extension tolerance in (0, 1]"
    )
    detect_parser.add_argument(
        "--t-hot", type=float, default=None, help="hot threshold (default: Pareto rule)"
    )
    detect_parser.add_argument(
        "--t-click", type=float, default=None, help="abnormal-click threshold (default: Eq. 4)"
    )
    detect_parser.add_argument(
        "--max-group-users",
        type=int,
        default=18,
        help="group-size cap, 0 disables (property 4b)",
    )
    detect_parser.add_argument(
        "--expectation",
        type=int,
        default=0,
        help="minimum output size; > 0 enables the Fig. 7 feedback loop",
    )
    detect_parser.add_argument(
        "--engine",
        choices=("reference", "bitset"),
        default="bitset",
        help="extraction engine: numpy bitset (default) or the pure-Python reference",
    )
    detect_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "soft wall-clock budget: on expiry the feedback loop stops "
            "relaxing and the run is marked degraded (default: none)"
        ),
    )
    detect_parser.add_argument(
        "--top", type=int, default=20, help="rows shown per risk ranking"
    )
    detect_parser.add_argument(
        "--output",
        default=None,
        help="prefix for <prefix>_users.csv / <prefix>_items.csv result files",
    )
    _add_trace_flags(detect_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "run the online detection service over a replayed click stream "
            "(micro-batch ingest, bounded-staleness rechecks)"
        ),
    )
    serve_parser.add_argument(
        "--replay",
        required=True,
        metavar="CLICK_TABLE",
        help="CSV/TSV click table replayed as a timestamped event stream",
    )
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=10_000.0,
        help="replayed event arrival rate, events per simulated second (default 10000)",
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=1_000, help="events per micro-batch (default 1000)"
    )
    serve_parser.add_argument(
        "--queue-capacity",
        type=int,
        default=100_000,
        help="bounded ingest queue size; overflow sheds oldest-first (default 100000)",
    )
    serve_parser.add_argument(
        "--max-dirty",
        type=int,
        default=5_000,
        help="staleness bound: dirty-region size that forces a recheck (default 5000)",
    )
    serve_parser.add_argument(
        "--max-batches",
        type=int,
        default=10,
        help="staleness bound: micro-batches between rechecks (default 10)",
    )
    serve_parser.add_argument(
        "--max-age",
        type=float,
        default=60.0,
        help="staleness bound: simulated seconds a dirty mark may wait (default 60)",
    )
    serve_parser.add_argument(
        "--checkpoints",
        type=int,
        default=0,
        help=(
            "evenly spaced exact synchronization points during the replay; each "
            "verifies the streamed state against a one-shot batch detection "
            "(default 0: final checkpoint only)"
        ),
    )
    serve_parser.add_argument("--k1", type=int, default=10, help="min group users")
    serve_parser.add_argument("--k2", type=int, default=10, help="min group items")
    serve_parser.add_argument(
        "--engine",
        choices=("reference", "bitset"),
        default="bitset",
        help="extraction engine for rechecks (default bitset)",
    )
    _add_trace_flags(serve_parser)

    server_parser = subparsers.add_parser(
        "server",
        help=(
            "serve the detection API over HTTP from a persistent store "
            "(detection-as-a-service; restart-safe warm resume)"
        ),
    )
    server_parser.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help=(
            "detection store directory; created empty if missing, resumed "
            "warm (same verdicts at the same store version) if populated"
        ),
    )
    server_parser.add_argument(
        "--bootstrap",
        default=None,
        metavar="CLICK_TABLE",
        help=(
            "CSV/TSV click table detected as version 1 when the store is "
            "empty (ignored on a populated store, which resumes as-is)"
        ),
    )
    server_parser.add_argument("--host", default="127.0.0.1", help="bind host")
    server_parser.add_argument(
        "--port", type=int, default=8749, help="bind port; 0 picks an ephemeral port"
    )
    server_parser.add_argument("--k1", type=int, default=10, help="min group users")
    server_parser.add_argument("--k2", type=int, default=10, help="min group items")
    server_parser.add_argument(
        "--engine",
        choices=("reference", "bitset"),
        default="bitset",
        help="extraction engine for rechecks (default bitset)",
    )
    server_parser.add_argument(
        "--max-batch", type=int, default=1_000, help="events per micro-batch (default 1000)"
    )
    server_parser.add_argument(
        "--max-dirty",
        type=int,
        default=5_000,
        help="staleness bound: dirty-region size that forces a recheck (default 5000)",
    )
    server_parser.add_argument(
        "--max-batches",
        type=int,
        default=10,
        help="staleness bound: micro-batches between rechecks (default 10)",
    )
    server_parser.add_argument(
        "--max-age",
        type=float,
        default=60.0,
        help="staleness bound: seconds a dirty mark may wait (default 60)",
    )
    server_parser.add_argument(
        "--no-pump-thread",
        action="store_true",
        help=(
            "do not start the background pump thread; the queue is only "
            "drained by explicit POST /v1/pump or /v1/checkpoint calls "
            "(deterministic driving for tests and replays)"
        ),
    )

    redteam_parser = subparsers.add_parser(
        "redteam",
        help=(
            "run the adversarial attack zoo against the detector and report "
            "the recall/precision frontier per (family x budget x adaptivity)"
        ),
    )
    redteam_parser.add_argument(
        "--families",
        default=None,
        metavar="LIST",
        help="comma-separated attack families (default: every registry family)",
    )
    redteam_parser.add_argument(
        "--budgets",
        default="2000,5000",
        metavar="LIST",
        help="comma-separated click budgets (default 2000,5000)",
    )
    redteam_parser.add_argument(
        "--adaptivity",
        choices=("static", "adaptive", "both"),
        default="both",
        help="attacker adaptivity levels to run (default both)",
    )
    redteam_parser.add_argument(
        "--scale",
        choices=("tiny", "small", "paper"),
        default="small",
        help="clean-marketplace preset the campaigns attack (default small)",
    )
    redteam_parser.add_argument(
        "--seed", type=int, default=0, help="marketplace + campaign seed (default 0)"
    )
    redteam_parser.add_argument("--k1", type=int, default=10, help="min group users")
    redteam_parser.add_argument("--k2", type=int, default=10, help="min group items")
    redteam_parser.add_argument(
        "--no-feedback",
        action="store_true",
        help="skip the Fig. 7 feedback-loop defense column",
    )
    redteam_parser.add_argument(
        "--drip",
        type=int,
        default=0,
        metavar="N_BATCHES",
        help=(
            "also replay each adaptive campaign as an N-batch slow drip "
            "through the online service and report the checkpoint parity "
            "(default 0: skip the serve replay)"
        ),
    )
    redteam_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the frontier as a JSON artifact to PATH",
    )
    return parser


def _add_trace_flags(subparser: argparse.ArgumentParser) -> None:
    """The shared observability flags (``detect`` and ``run``)."""
    subparser.add_argument(
        "--trace",
        action="store_true",
        help="record per-stage timings and counters; print a trace summary",
    )
    subparser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the trace as JSON to PATH (implies --trace)",
    )


def _trace_scope(args: argparse.Namespace):
    """An active recorder when tracing was requested, else a no-op scope."""
    if args.trace or args.trace_out:
        return obs.recording(obs.Recorder())
    import contextlib

    return contextlib.nullcontext(None)


def _emit_trace(recorder, args: argparse.Namespace) -> None:
    """Print and/or write the recorder's report per the trace flags."""
    if recorder is None:
        return
    report = recorder.report()
    print()
    print(render_trace(report))
    if args.trace_out:
        path = Path(args.trace_out)
        path.write_text(report.to_json() + "\n")
        print(f"\nwrote trace to {path}")


def _run_detect(args: argparse.Namespace) -> int:
    """The ``ricd detect`` subcommand body."""
    try:
        graph = read_click_table(args.click_table)
    except (OSError, ReproError) as error:
        print(f"error: cannot load {args.click_table}: {error}", file=sys.stderr)
        return 2
    try:
        params = RICDParams(
            k1=args.k1,
            k2=args.k2,
            alpha=args.alpha,
            t_hot=args.t_hot,
            t_click=args.t_click,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    feedback = (
        FeedbackPolicy(expectation=args.expectation) if args.expectation > 0 else None
    )
    try:
        detector = RICDDetector(
            params=params,
            feedback=feedback,
            max_group_users=args.max_group_users or None,
            engine=args.engine,
            deadline=args.deadline,
        )
    except ValueError as error:  # deadline out of range
        print(f"error: {error}", file=sys.stderr)
        return 2
    with _trace_scope(args) as recorder:
        if recorder is not None:
            recorder.meta.update(
                {
                    "command": "detect",
                    "input": str(args.click_table),
                    "engine": args.engine,
                }
            )
        result = detector.detect(graph)

    print(f"loaded {graph!r}")
    resolved = detector.resolve_thresholds(graph)
    print(f"thresholds: T_hot={resolved.t_hot:.0f}, T_click={resolved.t_click:.0f}")
    print(
        f"detected {len(result.groups)} group(s): "
        f"{len(result.suspicious_users)} suspicious users, "
        f"{len(result.suspicious_items)} suspicious items "
        f"in {result.elapsed:.2f}s"
        + (f" ({result.feedback_rounds} feedback rounds)" if result.feedback_rounds else "")
    )
    if result.degraded:
        print(f"degraded run (fallbacks: {', '.join(result.degradations)})")
    if result.suspicious_users:
        print(f"\ntop-{args.top} users by risk score:")
        for user, score in result.top_users(args.top):
            print(f"  {user}\t{score:.2f}")
        print(f"\ntop-{args.top} items by risk score:")
        for item, score in result.top_items(args.top):
            print(f"  {item}\t{score:.2f}")

    if args.output:
        users_path = Path(f"{args.output}_users.csv")
        items_path = Path(f"{args.output}_items.csv")
        with users_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["User_ID", "Risk"])
            for user, score in result.top_users(len(result.user_scores)):
                writer.writerow([user, f"{score:.4f}"])
        with items_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Item_ID", "Risk"])
            for item, score in result.top_items(len(result.item_scores)):
                writer.writerow([item, f"{score:.4f}"])
        print(f"\nwrote {users_path} and {items_path}")
    _emit_trace(recorder, args)
    return 0


def _percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def _run_serve(args: argparse.Namespace) -> int:
    """The ``ricd serve`` subcommand body: a deterministic stream replay."""
    import time as _time

    from .core.framework import RICDDetector
    from .graph.bipartite import BipartiteGraph
    from .serve import (
        DetectionService,
        ServeConfig,
        SimulatedClock,
        StalenessPolicy,
    )

    try:
        table = read_click_table(args.replay)
    except (OSError, ReproError) as error:
        print(f"error: cannot load {args.replay}: {error}", file=sys.stderr)
        return 2
    try:
        params = RICDParams(k1=args.k1, k2=args.k2)
        config = ServeConfig(
            queue_capacity=args.queue_capacity,
            max_batch=args.max_batch,
            staleness=StalenessPolicy(
                max_dirty=args.max_dirty,
                max_batches=args.max_batches,
                max_age=args.max_age,
            ),
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    records = [
        (user, item, table.get_click(user, item))
        for user in sorted(table.users(), key=str)
        for item in sorted(table.user_neighbors(user), key=str)
    ]
    clock = SimulatedClock()
    service = DetectionService.over_graph(
        BipartiteGraph(), params=params, engine=args.engine, config=config, clock=clock
    )
    batch_detector = RICDDetector(params=params, engine=args.engine)
    marks = (
        {round(len(records) * step / (args.checkpoints + 1)) for step in range(1, args.checkpoints + 1)}
        if args.checkpoints > 0
        else set()
    )

    with _trace_scope(args) as recorder:
        if recorder is not None:
            recorder.meta.update(
                {"command": "serve", "input": str(args.replay), "rate": args.rate}
            )
        started = _time.perf_counter()
        parity_failures = 0
        for index, (user, item, clicks) in enumerate(records, start=1):
            clock.advance_to(index / args.rate)
            service.submit(user, item, clicks, timestamp=clock.now())
            if len(service.queue) >= config.max_batch:
                service.pump()
            if index in marks:
                streamed = service.checkpoint()
                expected = batch_detector.detect(service.online.graph)
                ok = (
                    streamed.suspicious_users == expected.suspicious_users
                    and streamed.suspicious_items == expected.suspicious_items
                )
                parity_failures += 0 if ok else 1
                print(
                    f"checkpoint @ {index} events: "
                    f"{len(streamed.suspicious_users)} users / "
                    f"{len(streamed.suspicious_items)} items suspicious "
                    f"[batch parity {'ok' if ok else 'MISMATCH'}]"
                )
        result = service.checkpoint()
        wall = _time.perf_counter() - started
    snapshot = service.snapshot()

    lags = service.recheck_lags
    print(f"replayed {len(records)} events in {wall:.2f}s wall ({len(records) / max(wall, 1e-9):,.0f} events/s)")
    print(
        f"queue: {snapshot.queue.submitted} submitted, {snapshot.applied} ingested, "
        f"{snapshot.queue.shed} shed (oldest-first)"
    )
    print(
        f"rechecks: {snapshot.rechecks} "
        f"(recheck lag p50 {_percentile(lags, 0.5):.1f}s / p99 {_percentile(lags, 0.99):.1f}s simulated)"
    )
    print(
        f"final state: {len(result.groups)} group(s), "
        f"{len(result.suspicious_users)} suspicious users, "
        f"{len(result.suspicious_items)} suspicious items"
    )
    if snapshot.degraded or snapshot.provenance:
        print(f"degraded serving events: {', '.join(snapshot.provenance) or 'none'}")
    _emit_trace(recorder, args)
    return 1 if parity_failures else 0


def _run_server(args: argparse.Namespace) -> int:
    """The ``ricd server`` subcommand body: detection-as-a-service."""
    from .serve import DetectionService, ServeConfig, StalenessPolicy
    from .serve.api import serve_api

    initial = None
    if args.bootstrap:
        try:
            initial = read_click_table(args.bootstrap)
        except (OSError, ReproError) as error:
            print(f"error: cannot load {args.bootstrap}: {error}", file=sys.stderr)
            return 2
    try:
        params = RICDParams(k1=args.k1, k2=args.k2)
        config = ServeConfig(
            max_batch=args.max_batch,
            staleness=StalenessPolicy(
                max_dirty=args.max_dirty,
                max_batches=args.max_batches,
                max_age=args.max_age,
            ),
        )
        service = DetectionService.from_store(
            args.store,
            initial_graph=initial,
            params=params,
            engine=args.engine,
            config=config,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    server, thread = serve_api(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    graph = service.online.graph
    print(
        f"store {args.store}: head version {service.store_version}, "
        f"{graph.num_users} users / {graph.num_items} items / {graph.num_edges} edges"
    )
    print(f"serving detection API at http://{host}:{port}/v1/ (Ctrl-C to stop)")
    if not args.no_pump_thread:
        service.start()
    try:
        thread.join()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        try:
            server.shutdown()
            service.stop(drain=False)
            # A clean close is a checkpoint: drain, sync exactly, commit
            # the head as a snapshot so the next start resumes from it.
            result = service.checkpoint()
            print(
                f"final state at store version {service.store_version}: "
                f"{len(result.suspicious_users)} suspicious users, "
                f"{len(result.suspicious_items)} suspicious items"
            )
        except KeyboardInterrupt:
            # A second Ctrl-C skips the final checkpoint; the store stays
            # at its last committed version (crash-safe by construction).
            print("forced exit before the final checkpoint", file=sys.stderr)
            return 130
    return 0


def _run_redteam(args: argparse.Namespace) -> int:
    """The ``ricd redteam`` subcommand body: attack zoo vs the detector."""
    import json

    from .datagen import clean_marketplace
    from .datagen.attacks import family_names, plan_family
    from .eval.reporting import render_table
    from .eval.robustness import red_team

    known = family_names()
    families = known
    if args.families:
        families = [name.strip() for name in args.families.split(",") if name.strip()]
        unknown = [name for name in families if name not in known]
        if unknown:
            print(
                f"error: unknown families {', '.join(unknown)} "
                f"(known: {', '.join(known)})",
                file=sys.stderr,
            )
            return 2
    try:
        budgets = [int(token) for token in args.budgets.split(",") if token.strip()]
        params = RICDParams(k1=args.k1, k2=args.k2)
    except (ValueError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not budgets:
        print("error: --budgets must name at least one budget", file=sys.stderr)
        return 2
    adaptivity = {
        "static": (False,),
        "adaptive": (True,),
        "both": (False, True),
    }[args.adaptivity]

    graph = clean_marketplace(args.scale, seed=args.seed)
    print(f"marketplace: scale={args.scale} seed={args.seed} {graph!r}")
    report = red_team(
        graph,
        families=families,
        budgets=budgets,
        adaptivity=adaptivity,
        params=params,
        seed=args.seed,
        with_feedback=not args.no_feedback,
    )

    headers = ["family", "budget", "adaptive", "workers", "P", "R", "F1"]
    if not args.no_feedback:
        headers += ["fb P", "fb R", "fb rounds"]
    rows = []
    for point in report.points:
        row = [
            point.family,
            point.budget,
            "yes" if point.adaptive else "no",
            point.n_workers,
            f"{point.metrics.precision:.3f}",
            f"{point.metrics.recall:.3f}",
            f"{point.metrics.f1:.3f}",
        ]
        if point.feedback_metrics is not None:
            row += [
                f"{point.feedback_metrics.precision:.3f}",
                f"{point.feedback_metrics.recall:.3f}",
                point.feedback_rounds,
            ]
        elif not args.no_feedback:
            row += ["-", "-", "-"]
        rows.append(row)
    print()
    print(render_table(headers, rows, title="red-team frontier (exact truth)"))

    payload = report.to_json()
    payload["marketplace"] = {"scale": args.scale, "seed": args.seed}
    payload["params"] = {"k1": args.k1, "k2": args.k2}

    if args.drip > 0:
        from .serve.redteam import drip_campaign

        print()
        drip_rows = []
        drip_campaigns = []
        parity_failures = 0
        for family in families:
            plan = plan_family(
                graph.copy(), family, budget=budgets[0], seed=args.seed, adaptive=True
            )
            outcome = drip_campaign(graph, plan, n_batches=args.drip, params=params)
            applied = graph.copy()
            plan.apply(applied)
            batch = RICDDetector(params=params).detect(applied)
            parity = (
                outcome.final.suspicious_users == batch.suspicious_users
                and outcome.final.suspicious_items == batch.suspicious_items
            )
            parity_failures += 0 if parity else 1
            drip_rows.append(
                [
                    family,
                    outcome.events,
                    outcome.mid_flagged_workers,
                    outcome.final_flagged_workers,
                    outcome.n_workers,
                    "ok" if parity else "MISMATCH",
                ]
            )
            drip_campaigns.append(
                {
                    "family": family,
                    "events": outcome.events,
                    "mid_flagged_workers": outcome.mid_flagged_workers,
                    "final_flagged_workers": outcome.final_flagged_workers,
                    "n_workers": outcome.n_workers,
                    "parity": parity,
                }
            )
        print(
            render_table(
                ["family", "events", "mid flagged", "final flagged", "workers", "parity"],
                drip_rows,
                title=f"slow-drip replay ({args.drip} batches, adaptive, budget {budgets[0]})",
            )
        )
        payload["drip"] = {
            "n_batches": args.drip,
            "budget": budgets[0],
            "parity_failures": parity_failures,
            "campaigns": drip_campaigns,
        }
        if parity_failures:
            print(f"error: {parity_failures} drip parity failure(s)", file=sys.stderr)

    if args.out:
        path = Path(args.out)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote frontier artifact to {path}")
    return 1 if args.drip > 0 and payload["drip"]["parity_failures"] else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in EXPERIMENT_IDS:
            print(experiment_id)
        return 0

    if args.command == "detect":
        return _run_detect(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "server":
        return _run_server(args)

    if args.command == "redteam":
        return _run_redteam(args)

    targets = list(EXPERIMENT_IDS) if args.experiment == "all" else [args.experiment]
    with _trace_scope(args) as recorder:
        if recorder is not None:
            recorder.meta.update(
                {"command": "run", "experiments": ",".join(targets), "jobs": args.jobs}
            )
        for experiment_id in targets:
            try:
                runner = get_experiment(experiment_id)
            except ExperimentError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            # Each experiment takes the subset of knobs it understands
            # (e.g. eq3 has no seed; only fig8/fig9 fan out over jobs).
            accepted = inspect.signature(runner).parameters
            offered = {"seed": args.seed, "jobs": args.jobs}
            with obs.span(f"experiment.{experiment_id}"):
                report = runner(**{k: v for k, v in offered.items() if k in accepted})
            print(report)
            print()
    _emit_trace(recorder, args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
