"""One round of a benchmark workload, run in a fresh process.

    python3 bench/workloads.py --workload NAME --seed N --trace 0|1

The process imports mckaykit from the checkout's ``src`` (never from an
installed copy), sets up, runs the workload's operations one after the
other in a closed loop, then checks every output against the independent
computations in ``checks.py``.  Its last line of output is one JSON
object: the monotonic clock reading when the first timed operation
started, the length of the timed section, the peak resident memory, the
operations attempted and failed, whether every output was correct, and
with ``--trace 1`` the per-layer metrics.

An operation fails only by raising; an output that is wrong makes the
round incorrect.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import types

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

P = types.SimpleNamespace()  # the program's modules, filled by import_program


def import_program():
    sys.path.insert(0, SRC)
    import mckaykit
    from mckaykit import (cli, corner_functors, gamma_data, io_formats,
                          moduli_tools, quiver_core, rep_theory)

    if not os.path.abspath(mckaykit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"mckaykit imported from {mckaykit.__file__}, not {SRC}")
    P.cli, P.cf, P.gamma, P.moduli = cli, corner_functors, gamma_data, moduli_tools
    P.io, P.quiver, P.rep = io_formats, quiver_core, rep_theory


class Round:
    """Counts the operations of a round and the ones that raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = {}

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            key = f"{type(exc).__name__}: {exc}"[:160]
            self.errors[key] = self.errors.get(key, 0) + 1
            return None


def call_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = P.cli.main(argv)
    return rc, buf.getvalue()


def residuals(rep):
    """Nonzero relation residual entries of a program module, own arithmetic."""
    q = rep.quiver
    return checks.relation_residuals(
        q.vertices, [(a.id, a.tail, a.head) for a in q.arrows], q.bar, q.loops,
        {v: rep.dims.get(v) for v in q.vertices}, rep.maps)


def dims_of(module):
    return tuple(sorted(module.dims.as_dict().items(), key=lambda t: str(t[0])))


# ---------------------------------------------------------------------------
# graded_e8: `mckaykit hilbert` on the E groups
# ---------------------------------------------------------------------------

E_GROUPS = ("E6", "E7", "E8")
# (group, algebra, corner {0}?, kmax); the first is the headline command
HILBERT_RUNS = [("E8", "pibullet", False, 12)] + [
    (label, algebra, corner0, 16)
    for label in E_GROUPS
    for algebra, corner0 in (("pibullet", True), ("pi", False))
]


def graded_setup(rng):
    for label in E_GROUPS:
        P.gamma.build_group(label)
    runs = list(HILBERT_RUNS)
    rng.shuffle(runs)
    return runs


def hilbert_op(label, algebra, corner0, kmax):
    argv = ["hilbert", label, "--algebra", algebra, "--kmax", str(kmax)]
    return call_cli(argv + (["--corner", "0"] if corner0 else []))


def graded_run(runs, rnd, rng):
    return [(run, rnd.run(hilbert_op, *run)) for run in runs]


def graded_check(results):
    for (label, algebra, corner0, kmax), out in results:
        if out is None:
            continue
        rc, text = out
        checks.require(rc == 0, f"hilbert {label} {algebra}: exit {rc}")
        rows = [line.split(",") for line in text.split()]
        checks.require([int(r[0]) for r in rows] == list(range(kmax + 1)),
                       f"hilbert {label} {algebra}: degrees {text!r}")
        checks.check_hilbert(label, algebra, corner0, [int(r[1]) for r in rows])


# ---------------------------------------------------------------------------
# stability_gate: fast verdict against the exhaustive oracle, then pushforwards
# ---------------------------------------------------------------------------

# component dimensions per group; with the framing vertex every total is <= 8
STABILITY_DIMS = {
    "A1": [{0: 1, 1: 1}, {0: 2, 1: 1}, {0: 2, 1: 2}, {0: 3, 1: 3}],
    "A2": [{0: 1, 1: 1, 2: 1}, {0: 2, 1: 1, 2: 1}, {0: 1, 1: 0, 2: 2},
           {0: 2, 1: 2, 2: 2}],
    "A3": [{0: 1, 1: 1, 2: 1, 3: 1}, {0: 2, 1: 1, 2: 1, 3: 1},
           {0: 1, 1: 2, 2: 2, 3: 1}, {0: 2, 1: 2, 2: 2, 3: 1}],
    "D4": [{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}, {0: 0, 1: 1, 2: 2, 3: 1, 4: 0},
           {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}, {0: 2, 1: 1, 2: 3, 3: 1, 4: 0}],
}
PRIMES = (2, 3, 5)
STABILITY_SAMPLES = 2  # modules per (group, dims, corner, prime)
# Sample seeds are drawn from 0..STABILITY_POOL-1.  Every seed of the pool
# has been run through every configuration below with no failure.
STABILITY_POOL = 300


def stability_configs():
    """(group, dims, corner, prime) for every operation of a round."""
    out = []
    for label, dim_list in STABILITY_DIMS.items():
        every = tuple(range(len(dim_list[0])))
        for comps in dim_list:
            for corner in ((0,), (0, 1), every):
                for p in PRIMES:
                    out += [(label, comps, corner, p)] * STABILITY_SAMPLES
    return out


def stability_setup(rng):
    quivers = {}
    for label in STABILITY_DIMS:
        g = P.gamma.build_group(label)
        quivers[label] = P.quiver.frame_quiver(P.quiver.mckay_quiver(g), {0: 1})
    workdir = os.path.join(OUT, f"modules-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ops = []
    for label, comps, corner, p in stability_configs():
        dims = P.quiver.DimVector(components=comps, at_infinity=1)
        ops.append((quivers[label], dims, corner, p))
    return ops, workdir


def reduces_mod(rep, p):
    return all(x.denominator % p for m in rep.maps.values() for row in m for x in row)


def sample(quiver, dims, rng, pool, p=None):
    """A seeded flat module; seeds giving None or a bad prime are skipped."""
    while True:
        rep = P.rep.random_flat_rep(quiver, dims, rng.randrange(pool))
        if rep is not None and (p is None or reduces_mod(rep, p)):
            return rep


def stability_op(rep, corner, p, path):
    """`mckaykit stability` on the module file, then, for a module stable
    for every vertex, the pushforward to {0} directly and through {0, 1}."""
    P.io.dump_json(P.io.rep_to_dict(rep), path)
    rc, text = call_cli(["stability", path, "--corner", ",".join(map(str, corner)),
                         "--brute-force", "--prime", str(p), "--json"])
    report = json.loads(text) if rc == 0 else None
    pushed = None
    if report is not None and report["stable"] and len(corner) == len(rep.quiver.plain_vertices):
        direct = P.moduli.vgit_pushforward(rep, corner, {0})
        via = P.moduli.vgit_push_list(
            P.moduli.vgit_pushforward(rep, corner, {0, 1}), {0, 1}, {0})
        pushed = (direct, via, P.rep.s_equivalent(direct, via))
    return rc, report, pushed


def stability_run(state, rnd, rng):
    ops, workdir = state
    results = []
    for i, (quiver, dims, corner, p) in enumerate(ops):
        rep = sample(quiver, dims, rng, STABILITY_POOL, p)
        # a new file per operation: truncating one file each time costs
        # more, and varies more, than the rest of the file I/O
        path = os.path.join(workdir, f"module-{i}.json")
        results.append((rep, corner, p, rnd.run(stability_op, rep, corner, p, path)))
    return results


def stability_check(results):
    for rep, corner, p, out in results:
        where = f"stability {rep.quiver.group} {dims_of(rep)} corner {corner} GF({p})"
        checks.require(residuals(rep) == 0, f"{where}: sample is not flat")
        if out is None:
            continue
        rc, report, pushed = out
        checks.require(rc == 0, f"{where}: exit {rc}")
        bf = report["brute_force"]
        checks.require(bf["prime"] == p and bf["specialized"] == bf["exhaustive"],
                       f"{where}: fast {bf['specialized']} vs exhaustive {bf['exhaustive']}")
        if pushed is None:
            continue
        direct, via, same = pushed
        total = dict(rep.dims.as_dict())
        for summands in (direct, via):
            got = {}
            for m in summands:
                for v, d in m.dims.as_dict().items():
                    got[v] = got.get(v, 0) + d
            checks.require(got == total, f"{where}: pushforward changed dims {got}")
        checks.require(sorted(map(dims_of, direct)) == sorted(map(dims_of, via)),
                       f"{where}: the two routes give different summand dims")
        checks.require(same, f"{where}: the two routes are not S-equivalent")


def stability_cleanup(state):
    shutil.rmtree(state[1], ignore_errors=True)


# ---------------------------------------------------------------------------
# corner_modules: recollement round trips and the quotient scan
# ---------------------------------------------------------------------------

# (group, corner, component dims) of the seeded round trips
ROUND_TRIPS = [
    ("A1", (0,), {0: 2, 1: 1}),
    ("A1", (0, 1), {0: 2, 1: 2}),
    ("A2", (0,), {0: 2, 1: 1, 2: 1}),
    ("A2", (0, 1), {0: 1, 1: 1, 2: 2}),
    ("A3", (0,), {0: 2, 1: 1, 2: 1, 3: 1}),
    ("A3", (0, 2), {0: 1, 1: 1, 2: 1, 3: 1}),
    ("D4", (0,), {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}),
    ("D4", (0, 2), {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}),
    ("D5", (0,), {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}),
    ("D5", (0, 1), {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}),
]
ROUND_TRIP_SAMPLES = 20
# Sample seeds are drawn from 0..ROUND_TRIP_POOL-1; every seed of the pool
# has been run through every configuration above with no failure.
ROUND_TRIP_POOL = 1000
# Round trips that raise in j_shriek on every run; fixed inputs, not seeded.
KEPT_FAULTS = [
    ("A3", (0,), {0: 2, 1: 2, 2: 2, 3: 2}, 0),
    ("D5", (0,), {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1}, 0),
    ("D5", (0,), {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1}, 3),
    ("D5", (0,), {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1}, 4),
]
REJECTED_SAMPLE = 64


def corner_setup(rng):
    quivers = {}
    for label in ("A1", "A2", "A3", "D4", "D5"):
        g = P.gamma.build_group(label)
        quivers[label] = P.quiver.triple_quiver(P.quiver.mckay_quiver(g))
    trips = [(quivers[label], corner, P.quiver.DimVector(components=comps), None)
             for label, corner, comps in ROUND_TRIPS
             for _ in range(ROUND_TRIP_SAMPLES)]
    trips += [(quivers[label], corner, P.quiver.DimVector(components=comps), seed)
              for label, corner, comps, seed in KEPT_FAULTS]
    rng.shuffle(trips)
    return trips


def round_trip(rep, corner):
    restricted = P.cf.j_star(rep, corner)
    extended = P.cf.j_shriek(restricted)
    back = P.cf.j_star(extended, corner)
    return restricted, extended, back, P.cf.cornered_isomorphic(back, restricted)


def certify(column, basis, g):
    quotient = P.cf.cornered_quotient(column, {0: basis})
    return P.moduli.check_quot_correspondence(quotient, {0}, g).as_dict()


def corner_run(trips, rnd, rng):
    trip_results = []
    for quiver, corner, dims, seed in trips:
        if seed is None:
            rep = sample(quiver, dims, rng, ROUND_TRIP_POOL)
        else:
            rep = P.rep.random_flat_rep(quiver, dims, seed)
        trip_results.append((rep, corner, rnd.run(round_trip, rep, corner)))

    # every subspace of codimension <= 2 of the truncated A1 column at {0}
    g = P.gamma.build_group("A1")
    column = P.cf.cornered_mod_p(P.moduli.truncated_corner_column(g, {0}), 2)
    n = column.dim(0)
    total = sum(checks.gaussian_binomial(n, s, 2) for s in (n, n - 1, n - 2))
    keep = set(rng.sample(range(total), REJECTED_SAMPLE))
    closed, rejected, tested = [], [], 0
    for s in (n, n - 1, n - 2):
        for basis in P.rep.subspaces_of_dimension(2, n, s):
            verdict = rnd.run(P.cf.cornered_submodule_is_closed, column, {0: basis})
            if verdict:
                closed.append(basis)
            elif verdict is False and tested in keep:
                rejected.append(basis)
            tested += 1
    certified = [(basis, rnd.run(certify, column, basis, g)) for basis in closed]
    return trip_results, (column, n, total, tested, closed, rejected, certified)


def corner_check(results):
    trip_results, scan = results
    for rep, corner, out in trip_results:
        where = f"round trip {rep.quiver.group} corner {corner} dims {dims_of(rep)}"
        checks.require(residuals(rep) == 0, f"{where}: sample is not flat")
        if out is None:
            continue
        restricted, extended, back, iso = out
        checks.require(residuals(extended) == 0, f"{where}: extension is not flat")
        want = {v: rep.dims.get(v) for v in corner}
        checks.require(restricted.dims == want and back.dims == want,
                       f"{where}: restriction dims {restricted.dims} / {back.dims}")
        checks.require(iso, f"{where}: restriction after extension not isomorphic")

    column, n, total, tested, closed, rejected, certified = scan
    mats = [column.z_mats[0]] + [m for key in sorted(column.actions)
                                 for m in column.actions[key]]
    checks.require(tested == total, f"quotient scan: {tested} of {total} subspaces")
    checks.require(len(rejected) + len(closed) >= REJECTED_SAMPLE,
                   f"quotient scan: rejected sample of {len(rejected)}")
    for basis in closed:
        checks.require(checks.gf2_closed(basis, mats), f"reported closed: {basis}")
    for basis in rejected:
        checks.require(not checks.gf2_closed(basis, mats), f"reported not closed: {basis}")
    sizes = []
    for basis, dims in certified:
        if dims is None:
            continue
        checks.require(dims == {0: n - len(basis)}, f"quotient dims {dims}")
        sizes.append(n - len(basis))
    checks.require({0, 1, 2} <= set(sizes) and sizes.count(1) == 1,
                   f"quotient dimensions {sorted(sizes)}")


# ---------------------------------------------------------------------------

WORKLOADS = {
    "graded_e8": (graded_setup, graded_run, graded_check, None),
    "stability_gate": (stability_setup, stability_run, stability_check,
                       stability_cleanup),
    "corner_modules": (corner_setup, corner_run, corner_check, None),
}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup, run, check, cleanup = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    state = setup(rng)
    try:
        rnd = Round()
        t0 = time.monotonic()
        results = run(state, rnd, rng)
        t1 = time.monotonic()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if cleanup is not None:
            cleanup(state)
    problem = None
    try:
        check(results)
    except checks.CheckFailed as exc:
        problem = str(exc)
    report = {
        "first_op_at": t0,
        "wall_s": t1 - t0,
        "peak_rss_mb": peak_mb,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "correct": problem is None,
        "problem": problem,
    }
    if tracer is not None:
        report["per_layer"] = tracer.metrics(t0, t1)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.bin"))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
