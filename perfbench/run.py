"""normmatch benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 50 --trace 0

Runs rounds of the workload until the next round would end after
``--seconds`` of wall time. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, the tracing overhead and the share of the traced time
the layers cover. Times are CPU time rescaled by a speed probe (see env.py).
The last line of standard output is the result object; the lines before it
print every metric by name with its unit, the sample counts and the
provenance of the numbers. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import env  # sets the BLAS threads; must come before numpy
from env import clock
from tracer import Tracer

SETUP_SAMPLES = 9
MIN_COVERAGE = 0.95


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_rounds(nm, workload, seed, seconds, trace, tracer):
    """Repeat set-up + round until the next round would overrun seconds.

    With tracing, rounds alternate untraced/traced, untraced first, and at
    least one of each runs. Returns ([(round, traced)], setup seconds).
    """
    rounds, setup_s = [], []

    def timed_setup():
        # rescaled like a segment of timed work, by the probes at its two ends
        before = env.probe()
        t0 = clock()
        state = workload.setup(nm, seed)
        cpu = clock() - t0
        setup_s.append(cpu * env.PROBE_NOMINAL_S / ((before + env.probe()) / 2))
        return state

    start = time.perf_counter()
    while True:
        state = timed_setup()
        traced = bool(trace) and len(rounds) % 2 == 1
        if traced:
            with tracer:
                rnd = workload.run_round(nm, state)
        else:
            rnd = workload.run_round(nm, state)
        state = None  # free the model before the next set-up builds one
        rounds.append((rnd, traced))
        done = len(rounds)
        elapsed = time.perf_counter() - start
        if done >= (2 if trace else 1) and elapsed * (done + 1) / done > seconds:
            break
    while len(setup_s) < SETUP_SAMPLES:
        timed_setup()
    return rounds, setup_s


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        nm = env.import_normmatch()
        from workloads import WORKLOADS
    except env.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    try:
        rounds, setup_s = run_rounds(nm, workload, args.seed, args.seconds, args.trace, tracer)
    except env.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plain = [r for r, traced in rounds if not traced]
    traced = [r for r, was_traced in rounds if was_traced]
    problems = list(dict.fromkeys(p for r, _ in rounds for p in r.problems))
    first = rounds[0][0].fingerprint()
    for rnd, was_traced in rounds[1:]:
        if rnd.fingerprint() != first:
            problems.append(
                f"{'traced' if was_traced else 'repeated'} round gave loss/accuracy "
                f"{rnd.fingerprint()}, first round {first}"
            )

    # every time is rescaled to the nominal probe speed (see env.probe)
    probes = [p for r, _ in rounds for p in r.probes]
    run_speed = env.PROBE_NOMINAL_S / statistics.median(probes)
    pair_ms = [ms for r in plain for ms in r.pair_ms]
    e2e = {
        "pairs_per_s": (statistics.median(r.work_pairs / r.work_s for r in plain), "pairs/s"),
        "pair_ms_p50": (statistics.median(pair_ms), "ms"),
        "pair_ms_p95": (percentile(pair_ms, 95), "ms"),
        "loss": (rounds[0][0].loss, "loss"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    layers = {}
    if args.trace:
        speed = statistics.median(r.speed() for r in traced)
        layers = tracer.layer_metrics(sum(r.round_s for r in traced), len(traced), speed)
        overhead = (statistics.median(r.round_s * r.speed() for r in traced)
                    / statistics.median(r.round_s * r.speed() for r in plain) - 1.0)
        layers["trace.overhead"] = (overhead, "fraction")
        coverage = layers["model.coverage"][0]
        if coverage < MIN_COVERAGE:
            problems.append(f"layers cover {coverage:.3f} of the traced time, "
                            f"below {MIN_COVERAGE}")

    attempted = sum(r.attempted for r, _ in rounds)
    failed = sum(r.failed for r, _ in rounds)
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"rounds {len(plain)} untraced + {len(traced)} traced; "
          f"{len(pair_ms)} match_pair latency samples, "
          f"{sum(1 for ms in pair_ms if ms > e2e['pair_ms_p95'][0])} beyond p95; "
          f"{len(setup_s)} set-ups")
    print("round CPU seconds " + " ".join(
        f"{r.round_s:.3f}{'T' if t else ''}" for r, t in rounds)
        + f"; speed probe median {statistics.median(probes) * 1e3:.2f} ms over "
        f"{len(probes)} probes, times x{run_speed:.3f} to nominal")
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted} pairs)")
    print(f"match_accuracy {rounds[0][0].accuracy:.6f} (fraction of keypoints)")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    if tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}")
    for problem in problems:
        print(f"check failed: {problem}")
    print("provenance " + json.dumps(env.provenance(), sort_keys=True))
    metrics = layers if args.trace else e2e
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
