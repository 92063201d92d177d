"""Maintenance commands that (re)write the benchmark's recorded data.

Run from the repository root::

    python3 e2ebench/record.py defects     # shrink the known defects into e2ebench/defects/
    python3 e2ebench/record.py known       # rescan the chaos seed pool -> known_violations.json
    python3 e2ebench/record.py baseline    # run every workload, append to baseline.json
    python3 e2ebench/record.py manifest    # rewrite BENCHMARK.json from metrics.py/workloads.py

``defects`` and ``known`` record what the program does today; they are
rerun only when a change to the program is meant to alter the oracle's
findings (for example a fix of a recorded defect).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import checkout

DEFECTS_DIR = os.path.join(checkout.BENCH_DIR, "defects")
#: Replays one shrink may spend; each 200-txn replay takes seconds, and
#: a partly shrunk plan still fails by construction.
SHRINK_RUNS = 40

#: The atomicity defects known when the benchmark was defined.  Each is
#: byte-identical on rerun; shrinking keeps the config and drops every
#: fault event the violation does not need.
DEFECTS = (
    {
        "name": "defect_a_seed4_providers12",
        "summary": "effect_missing: committed markers absent from a "
        "sharded document after shard_retire and message_chaos",
        "config": dict(
            seed=4, txns=200, providers=12, concurrency=4, fault_rate=0.02,
            crash_rate=0.02, durability=True, checkpoint_every=16,
            replicas=2, sharding=True, shard_spares=2,
        ),
    },
    {
        "name": "defect_b_seed1_providers32",
        "summary": "effect_duplicated + replica_diverged after shard_join "
        "and crash_during_migration",
        "config": dict(
            seed=1, txns=200, providers=32, concurrency=4, fault_rate=0.02,
            crash_rate=0.02, durability=True, checkpoint_every=16,
            replicas=2, sharding=True, shard_spares=2,
        ),
    },
    {
        "name": "defect_b_seed3_providers32",
        "summary": "effect_duplicated + replica_diverged after shard_join "
        "and crash_during_migration",
        "config": dict(
            seed=3, txns=200, providers=32, concurrency=4, fault_rate=0.02,
            crash_rate=0.02, durability=True, checkpoint_every=16,
            replicas=2, sharding=True, shard_spares=2,
        ),
    },
)


def record_defects() -> None:
    from repro.chaos import ChaosConfig, run_chaos, shrink_plan, write_repro_file

    os.makedirs(DEFECTS_DIR, exist_ok=True)
    index = []
    for defect in DEFECTS:
        config = ChaosConfig(**defect["config"])
        original = run_chaos(config)
        if original.ok:
            print(f"{defect['name']}: no violation any more", flush=True)
            continue
        report = shrink_plan(config, original.plan, max_runs=SHRINK_RUNS)
        path = os.path.join(DEFECTS_DIR, defect["name"] + ".json")
        write_repro_file(path, report.result)
        index.append(
            {
                "name": defect["name"],
                "summary": defect["summary"],
                "file": os.path.relpath(path, checkout.ROOT),
                "original_events": report.original_events,
                "minimized_events": report.minimized_events,
                "original_violations": [v.to_dict() for v in original.violations],
                "minimized_violations": [
                    v.to_dict() for v in report.result.violations
                ],
            }
        )
        print(
            f"{defect['name']}: {len(original.violations)} violations, plan "
            f"{report.original_events} -> {report.minimized_events} events "
            f"in {report.runs} runs",
            flush=True,
        )
    with open(os.path.join(DEFECTS_DIR, "index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_known(names) -> None:
    """Run every chaos seed of the pool once per chaos workload and
    record each seed's oracle violations (seeds without any are omitted)."""
    from repro.chaos import ChaosConfig, run_chaos
    from workloads import CHAOS_POOL, KNOWN_VIOLATIONS_FILE, WORKLOADS, ChaosWorkload

    try:
        with open(KNOWN_VIOLATIONS_FILE, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"pool": CHAOS_POOL, "configs": {}, "violations": {}}
    for name in names:
        workload = WORKLOADS[name]
        if not isinstance(workload, ChaosWorkload):
            continue
        found = {}
        start = time.perf_counter()
        for seed in range(CHAOS_POOL):
            result = run_chaos(ChaosConfig(seed=seed, **workload.config))
            if result.violations:
                found[str(seed)] = [v.to_dict() for v in result.violations]
                kinds = sorted({v.kind for v in result.violations})
                print(f"{name} seed {seed}: {len(result.violations)} {kinds}", flush=True)
        print(
            f"{name}: {len(found)} of {CHAOS_POOL} seeds with violations "
            f"({time.perf_counter() - start:.0f} s)", flush=True,
        )
        data["pool"] = CHAOS_POOL
        data["configs"][name] = workload.config
        data["violations"][name] = found
        with open(KNOWN_VIOLATIONS_FILE, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


BASELINE_FILE = os.path.join(checkout.BENCH_DIR, "baseline.json")
BASELINE_SEEDS = tuple(range(1, 11))
BASELINE_SECONDS = 25

#: ROADMAP's first measurement ("plain about 0.15 s and full stack about
#: 0.55 s for 80 txns"), re-timed with the same chaos flags.
ROADMAP_CONFIGS = {
    "plain": dict(seed=3, txns=80, concurrency=4),
    "full": dict(
        seed=3, txns=80, concurrency=4, replicas=2, sharding=True,
        shard_spares=1, durability=True, checkpoint_every=16, crash_rate=0.05,
    ),
}


def _bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, os.path.join(checkout.BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(BASELINE_SECONDS), "--trace", str(trace),
        ],
        cwd=checkout.ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values):
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def replay_defects() -> dict:
    """Violation kinds each shrunk defect file still produces."""
    from repro.chaos import replay_repro_file

    with open(os.path.join(DEFECTS_DIR, "index.json"), "r", encoding="utf-8") as fh:
        defects = json.load(fh)
    found = {}
    for defect in defects:
        result = replay_repro_file(os.path.join(checkout.ROOT, defect["file"]))
        found[defect["name"]] = sorted(v.kind for v in result.violations)
    return found


def record_baseline(names) -> None:
    """Ten untraced runs and one traced run per workload, appended to
    baseline.json under the current git revision."""
    from repro.chaos import ChaosConfig, run_chaos

    revision = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout.ROOT,
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    record = {
        "revision": revision,
        "date": time.strftime("%Y-%m-%d"),
        "machine": f"{os.cpu_count()} CPUs, Python {sys.version.split()[0]}",
        "seconds": BASELINE_SECONDS,
        "seeds": list(BASELINE_SEEDS),
        "workloads": {},
    }
    for name in names:
        runs = []
        for seed in BASELINE_SEEDS:
            runs.append(_bench(name, seed, 0))
            print(f"{name} seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
        traced = _bench(name, BASELINE_SEEDS[0], 1)
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {
                metric: _quartiles([r["metrics"][metric]["value"] for r in runs])
                for metric in runs[0]["metrics"]
            },
            "per_layer_seed1": {
                metric: entry["value"] for metric, entry in traced["metrics"].items()
            },
        }
    walls = {}
    for label, config in ROADMAP_CONFIGS.items():
        times = []
        for _ in range(5):
            start = time.perf_counter()
            run_chaos(ChaosConfig(**config))
            times.append(time.perf_counter() - start)
        walls[label] = sorted(times)[2]
    record["roadmap_reference_wall_s"] = walls
    record["known_defects"] = replay_defects()
    try:
        with open(BASELINE_FILE, "r", encoding="utf-8") as fh:
            history = json.load(fh)
    except FileNotFoundError:
        history = []
    history.append(record)
    with open(BASELINE_FILE, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_manifest() -> None:
    """Rewrite BENCHMARK.json from the workload and metric tables."""
    import metrics
    from workloads import WORKLOADS

    manifest = {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": BASELINE_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in metrics.PER_LAYER
        ],
    }
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("defects", "known", "baseline", "manifest"))
    parser.add_argument("--workload", action="append", help="restrict to these workloads")
    args = parser.parse_args(argv)
    checkout.prepare()
    if args.command == "defects":
        record_defects()
    elif args.command == "known":
        record_known(args.workload or ["chaos_fullstack", "chaos_plain"])
    elif args.command == "manifest":
        write_manifest()
    else:
        record_baseline(args.workload or ["chaos_fullstack", "chaos_plain", "catalogue_occ"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
