"""Print outputs that must not depend on the string hash seed.

    PYTHONHASHSEED=1 python tests/hashseed_digest.py > one.txt
    PYTHONHASHSEED=2 python tests/hashseed_digest.py > two.txt
    diff one.txt two.txt

It runs the README's commands on the seeded A2 modules of the golden-output
test and prints each exit code, its stdout and the sha256 of every file
written, then the rows of ``max_submodule_avoiding`` on the same two
modules for the avoided sets {inf} and {0, inf}, and on a seeded A2
module of dimension (2, 1, 1; 1) for {inf}, {0, inf} and {1, inf}, whose
two-row space at vertex 0 would show a change of row order.  Then it
prints the digest (``helpers.extension_digest``) of
``j_shriek_with_data`` on three seeded modules of each round-trip
configuration, and the framed Hilbert sequence of A2 with w = (1, 0, 0),
with and without the corner {0}, whose right ends include inf.  The
avoided vertices come as a set, and the corner extension's elimination
plan is a process-lifetime cache built in dict order, so an order that
followed the hash seed would show as a difference.  Needs ``mckaykit``
importable (for example ``PYTHONPATH=src``); the name keeps pytest from
collecting it.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from helpers import ROUND_TRIP_CONFIGS, extension_digest, flat_reps  # noqa: E402
from mckaykit.cli import main  # noqa: E402
from mckaykit.corner_functors import j_shriek_with_data, j_star  # noqa: E402
from mckaykit.gamma_data import build_group  # noqa: E402
from mckaykit.io_formats import dump_json, rep_to_dict  # noqa: E402
from mckaykit.quiver_core import (  # noqa: E402
    INFINITY,
    DimVector,
    frame_quiver,
    mckay_quiver,
    triple_quiver,
)
from mckaykit.rep_theory import max_submodule_avoiding, random_flat_rep  # noqa: E402

README_COMMANDS = [
    "quiver A1 --frame 1,0",
    "quiver E6 --out e6.json",
    "hilbert A1 --algebra pibullet --corner 0 --kmax 4 --oracle",
    "hilbert E8 --algebra pibullet --kmax 30 --cap 30 --oracle",
    "stability module.json --corner 0,1 --brute-force --prime 3",
    "stability module.json --corner 0 --brute-force --prime 3",
    "stability unstable.json --corner 0,1 --brute-force --prime 3",
    "vgit module.json --from-corner 0,1,2 --to-corner 0 --compare 0,1 "
    "--out-prefix summand",
]

FRAMED_HILBERT_COMMANDS = [
    "hilbert A2 --algebra piw --w 1,0,0 --kmax 12",
    "hilbert A2 --algebra piw --w 1,0,0 --kmax 12 --corner 0",
]


def framed_a2_rep(components, seed):
    q = frame_quiver(mckay_quiver(build_group("A2")), {0: 1})
    return random_flat_rep(q, DimVector(components=components, at_infinity=1), seed)


def readme_modules():
    return [(name, framed_a2_rep({0: 1, 1: 1, 2: 1}, seed))
            for name, seed in (("module.json", 7), ("unstable.json", 4))]


def run_commands(commands):
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv.split())
        print(f"$ mckaykit {argv}  (exit {code})")
        print(out.getvalue(), end="")


def readme_commands():
    for name, rep in readme_modules():
        dump_json(rep_to_dict(rep), name)
    run_commands(README_COMMANDS)
    for name in sorted(os.listdir(".")):
        with open(name, "rb") as f:
            print(name, hashlib.sha256(f.read()).hexdigest())


def avoiding():
    cases = [(name, rep, ({INFINITY}, {0, INFINITY}))
             for name, rep in readme_modules()]
    cases.append(("A2 (2, 1, 1; 1) seed 1", framed_a2_rep({0: 2, 1: 1, 2: 1}, 1),
                  ({INFINITY}, {0, INFINITY}, {1, INFINITY})))
    for name, rep, avoided in cases:
        for avoid in avoided:
            spaces = max_submodule_avoiding(rep, avoid).spaces
            print(name, sorted(avoid, key=str), list(spaces.items()))


def extensions():
    for label, corner, comps in ROUND_TRIP_CONFIGS:
        quiver = triple_quiver(mckay_quiver(build_group(label)))
        for seed, rep in flat_reps(quiver, DimVector(components=comps), 3):
            data = j_shriek_with_data(j_star(rep, corner))
            print(label, corner, seed, extension_digest(data))


def run():
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            readme_commands()
        finally:
            os.chdir(here)
    avoiding()
    extensions()
    run_commands(FRAMED_HILBERT_COMMANDS)


if __name__ == "__main__":
    run()
