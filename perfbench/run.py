"""Run one workload of the RICD benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload replay|live --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload runs in a fresh process (``all`` starts one per workload),
so process-wide memos and the RSS high-water mark never leak from one
workload into the next.  ``--trace 0`` prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` first runs the same seed untraced in a
child process, then wraps every layer and prints the per-layer metrics,
including the tracing overhead.  The last line of standard output is one
JSON object; any correctness mismatch makes the exit status non-zero.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402 - set-up time starts before the imports
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("replay", "live")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

#: The timing ``trace.overhead_ratio`` divides, read from a run's metrics.
MAIN_TIMING = {
    "replay": lambda metrics: 1 / metrics["events_per_s"],
    "live": lambda metrics: metrics["freshness_p50_s"],
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_command(workload, args, trace):
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_all(args) -> int:
    """Every workload, each in its own process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            child_command(workload, args, args.trace),
            capture_output=True,
            text=True,
            timeout=2 * CHILD_TIMEOUT_S,
        )
        print(child.stdout, end="")
        print(child.stderr, end="", file=sys.stderr)
        result = last_json(child.stdout) if child.returncode == 0 else {}
        if not result.get("correct"):
            combined["correct"] = False
            status = 1
            continue
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def untraced_main_timing(args) -> float:
    """The main timing of the same seed run untraced in a fresh process."""
    child = subprocess.run(
        child_command(args.workload, args, 0),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    result = last_json(child.stdout) if child.returncode == 0 else {}
    if not result.get("correct"):
        sys.stderr.write(child.stderr)
        raise SystemExit(f"error: the untraced {args.workload} run failed")
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return MAIN_TIMING[args.workload](metrics)


def row(name, value, unit, samples):
    shown = "refused (<10 samples beyond)" if value is None else f"{value:.6g} {unit}"
    return f"  {name:<40} {shown:<32} n={samples}"


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    baseline = untraced_main_timing(args) if args.trace else None

    # A traced run's set-up starts once the untraced child has finished.
    import_began = perf_counter() if args.trace else STARTED
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = importlib.import_module(f"perfbench.{args.workload}")
    from perfbench.measure import median, peak_rss_mb
    from perfbench.probes import LAYER_OF, CoverageLog, Patches, Tracer

    imported = perf_counter() - import_began
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        prepare_s = []
        prepared = None
        for repeat in range(1 if args.trace else SETUP_REPEATS):
            prepared = None
            began = perf_counter()
            prepared = module.prepare(args.seed, workdir / f"setup-{repeat}")
            prepare_s.append(perf_counter() - began)
        patches = Patches()
        log = CoverageLog()
        log.install(patches)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(patches)
        try:
            report = module.measure(prepared, args.seconds, log, tracer)
        finally:
            patches.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = imported + median(prepare_s)
    rss = peak_rss_mb()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(row("setup_s", setup_s, "s", len(prepare_s)))
    for name, value, unit, samples in report.named:
        print(row(name, value, unit, samples))
    failed_ratio = report.failed / report.attempted if report.attempted else 0.0
    print(row("failed_ratio", failed_ratio, "fraction", report.attempted))
    print(row("peak_rss_mb", rss, "MB", 1))

    problems = list(report.problems)
    if args.trace:
        extra = {
            "serve.queue.shed": report.shed,
            "loadgen.late_p90_ms": 0.0,
            "loadgen.sent_clicks": 0,
            "loadgen.sent_reads": 0,
            "trace.overhead_ratio": report.main / baseline,
        }
        extra.update(report.loadgen)
        values = tracer.per_layer(extra)
        specs = contract["per_layer"]
        print("per-layer (traced run):")
        for spec in specs:
            print(row(spec["name"], values[spec["name"]], spec["unit"], 1))
        total, names = tracer.shares(report.roots)
        layers = {}
        for name, seconds in names.items():
            layers.setdefault(LAYER_OF[name], []).append((seconds, name))
        print(f"self time under {', '.join(report.roots)}: {total:.3f} s")
        for layer, spans in sorted(layers.items(), key=lambda pair: -sum(s for s, _ in pair[1])):
            seconds = sum(s for s, _ in spans)
            print(f"  {layer:<26} {seconds:9.3f} s  {seconds / total:7.1%}")
            for seconds, name in sorted(spans, reverse=True):
                print(f"    {name:<24} {seconds:9.3f} s  {seconds / total:7.1%}")
    else:
        values = dict(report.gated, setup_s=setup_s, peak_rss_mb=rss)
        specs = contract["end_to_end"]
        for spec in specs:
            if values[spec["name"]] is None:
                problems.append(f"{spec['name']} has too few samples to report")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    metrics = {
        spec["name"]: {"value": values[spec["name"]] or 0.0, "unit": spec["unit"]}
        for spec in specs
    }
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
