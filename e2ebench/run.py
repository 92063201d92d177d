"""End-to-end benchmark of the AXML atomicity stack, with per-layer attribution.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload chaos_fullstack --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: untraced passes over the
workload's fixed input until ``--seconds`` is used up, then set-up time
in fresh interpreters.  ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics.  Both modes check the
program's outputs; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``attempted`` counts submitted transactions.  ``failed`` counts
transactions that never finished plus output-check failures; terminal
aborts are the protocol's designed answer to injected faults and are
reported as ``txn_abort_share`` instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checkout

#: Fresh interpreters timed for set-up; the median is reported.
SETUP_PROBES = 5
#: Seconds a probe child may take before the run gives up on it.
PROBE_TIMEOUT_S = 150


def _probe(args, kind: str, hash_seed=None) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--probe", kind,
    ]
    done = subprocess.run(
        command, cwd=checkout.ROOT, env=checkout.child_env(hash_seed),
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _other_hash_seed() -> str:
    mine = os.environ.get("PYTHONHASHSEED", "")
    return str((int(mine) + 1) % 4294967296) if mine.isdigit() else "0"


def run_probe(workload, args) -> dict:
    """Child side of the probes; prints one JSON line."""
    if args.probe == "setup":
        start = time.perf_counter()
        workload.build_for_setup(args.seed)
        return {"setup_s": time.perf_counter() - start}
    inputs = workload.inputs(args.seed)
    return {"digest": workload.unit_digest(inputs)}


def run_pass(workload, inputs):
    """One pass from a collected heap: the previous pass's cyclic garbage
    would otherwise be collected, and paid for, inside this one."""
    gc.collect()
    return workload.run_pass(inputs)


def measure(workload, inputs, seconds: float):
    """Untraced passes until the next one would overrun *seconds*."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, inputs))
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if elapsed + per_pass / 2 >= seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "digest"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        checkout.prepare()
    except checkout.MissingProgram as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2

    import metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.probe:
        print(json.dumps(run_probe(workload, args)))
        return 0

    inputs = workload.inputs(args.seed)
    if args.trace:
        from tracer import LayerTracer

        passes = [run_pass(workload, inputs)]
        tracer = LayerTracer()
        tracer.install()
        try:
            tracer.begin()
            passes.append(run_pass(workload, inputs))
            tracer.end()
        finally:
            tracer.uninstall()
    else:
        passes = measure(workload, inputs, args.seconds)

    first = passes[0]
    errors = [e for p in passes for e in p.errors]
    if len({p.digest() for p in passes}) != 1:
        errors.append("pass digests differ: the run is not deterministic")
    child_hash = _other_hash_seed()
    if _probe(args, "digest", child_hash)["digest"] != first.digests[0]:
        errors.append(f"digest under PYTHONHASHSEED={child_hash} differs")
    outcome = metrics.outcome_metrics(first)

    if args.trace:
        errors.extend(metrics.trace_checks(tracer, passes[1]))
        values = metrics.per_layer(tracer, passes[1], passes[0].wall_s)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    else:
        committed = sum(p.committed for p in passes)
        wall = sum(p.wall_s for p in passes)
        setups = [_probe(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
        values = {
            "commit_tps": committed / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}

    print(f"workload {workload.name}: {workload.why}")
    print(
        f"seed {args.seed}: {len(passes)} pass(es) of {first.submitted} txns, "
        f"{first.committed} committed, wall "
        + ", ".join(f"{p.wall_s:.3f}" for p in passes) + " s"
    )
    print(
        f"outcome: p50 {outcome['sim_latency_p50_s']:.4f} s and p95 "
        f"{outcome['sim_latency_p95_s']:.4f} s over {outcome['latency_samples']} "
        f"commits; txn_abort_share {outcome['txn_abort_share']:.4f} ratio; "
        f"oracle_violations {outcome['oracle_violations']} count; "
        f"disk_bytes_per_commit {outcome['disk_bytes_per_commit']:.1f} B/commit"
    )
    for error in errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not errors,
        "attempted": sum(p.submitted for p in passes),
        "failed": sum(p.unfinished for p in passes) + len(errors),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
