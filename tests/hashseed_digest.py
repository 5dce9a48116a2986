"""Print outputs that must not depend on the string hash seed.

    PYTHONHASHSEED=1 python tests/hashseed_digest.py > one.txt
    PYTHONHASHSEED=2 python tests/hashseed_digest.py > two.txt
    diff one.txt two.txt

It runs the README's commands on the seeded A2 modules of the golden-output
test and prints each exit code, its stdout and the sha256 of every file
written, then the rows of ``max_submodule_avoiding`` on the same two
modules for the avoided sets {inf} and {0, inf}, then the digest
(``helpers.extension_digest``) of ``j_shriek_with_data`` on three seeded
modules of each round-trip configuration.  The avoided vertices come as
a set, and the corner extension's elimination plan is a
process-lifetime cache built in dict order, so an order that followed the
hash seed would show as a difference.  Needs ``mckaykit`` importable (for
example ``PYTHONPATH=src``); the name keeps pytest from collecting it.
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


def readme_modules():
    q = frame_quiver(mckay_quiver(build_group("A2")), {0: 1})
    dims = DimVector(components={0: 1, 1: 1, 2: 1}, at_infinity=1)
    return [(name, random_flat_rep(q, dims, seed))
            for name, seed in (("module.json", 7), ("unstable.json", 4))]


def readme_commands():
    for name, rep in readme_modules():
        dump_json(rep_to_dict(rep), name)
    for argv in README_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv.split())
        print(f"$ mckaykit {argv}  (exit {code})")
        print(out.getvalue(), end="")
    for name in sorted(os.listdir(".")):
        with open(name, "rb") as f:
            print(name, hashlib.sha256(f.read()).hexdigest())


def avoiding():
    for name, rep in readme_modules():
        for avoid in ({INFINITY}, {0, INFINITY}):
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


if __name__ == "__main__":
    run()
