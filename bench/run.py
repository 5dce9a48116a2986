"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs in a fresh Python process (``bench/workloads.py``), so it
starts with mckaykit's module caches empty, as a command-line user's
process does.  Rounds repeat with the same seed while another one still
fits in ``--seconds``; at least ``MIN_ROUNDS`` run.  The last line printed
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the metric names and units are the ones ``BENCHMARK.json``
declares.

``--trace 0`` reports the end-to-end metrics, medians over the rounds:
``setup_s`` (process start to the first timed operation), ``wall_s`` (the
timed section) and ``peak_rss_mb`` (peak resident memory of the round's
process).  ``--trace 1`` runs one untraced round and then traced rounds,
and reports the per-layer metrics (medians over the traced rounds) with
the tracing overhead.

The exit status is 0 only when every round ran and every output was
correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")
WORKLOADS = ("graded_e8", "stability_gate", "corner_modules")
MIN_ROUNDS = 3
# a run ends within this many seconds, whatever --seconds says
TIME_LIMIT = 170


class RunFailed(Exception):
    pass


def run_round(args, trace, deadline):
    """One workload round in a fresh process; returns its report."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"round did not finish within {TIME_LIMIT} s") from None
    ended = time.monotonic()
    if proc.returncode != 0:
        raise RunFailed(f"round exited with status {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["first_op_at"] - spawned
    report["round_s"] = ended - spawned
    if not 0 < report["setup_s"] < report["round_s"]:
        raise RunFailed(f"implausible set-up time {report['setup_s']}")
    if not report["correct"]:
        print(f"{args.workload}: incorrect output: {report['problem']}", file=sys.stderr)
    return report


def run_rounds(args, trace, begin, deadline, minimum):
    rounds = []
    while True:
        rounds.append(run_round(args, trace, deadline))
        now = time.monotonic()
        longest = max(r["round_s"] for r in rounds)
        if len(rounds) >= minimum and (now - begin + longest > args.seconds
                                       or now + longest > deadline):
            return rounds


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds)


def declared_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    begin = time.monotonic()
    deadline = begin + TIME_LIMIT
    units = declared_units(args.trace)
    checks.self_test()
    try:
        if args.trace:
            plain = [run_round(args, 0, deadline)]
            traced = run_rounds(args, 1, begin, deadline, 1)
            rounds = plain + traced
            values = {name: statistics.median(r["per_layer"][name] for r in traced)
                      for name in traced[0]["per_layer"]}
            values["trace.wall_s"] = median_of(traced, "wall_s")
            values["trace.overhead"] = values["trace.wall_s"] / median_of(plain, "wall_s") - 1
        else:
            rounds = run_rounds(args, 0, begin, deadline, MIN_ROUNDS)
            values = {name: median_of(rounds, name)
                      for name in ("setup_s", "wall_s", "peak_rss_mb")}
    except RunFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    correct = all(r["correct"] for r in rounds)
    if rounds[0]["errors"]:
        print(f"{args.workload}: failed operations per round {rounds[0]['errors']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
