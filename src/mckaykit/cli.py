"""Command-line surface.

Exit codes: 0 success, 2 usage or parse error, 3 degree-cap exceeded,
4 oracle mismatch, 5 relation violation, 6 stability precondition failed.
All commands are deterministic for a fixed --seed.
"""

import argparse
import functools
import sys

from .errors import (
    DegreeCapExceeded,
    EmptyI,
    InvalidDescriptor,
    MckayError,
    NotStableForSource,
    OracleMismatch,
    RelationViolation,
    UnsupportedSeries,
)
from .gamma_data import build_group, parse_descriptor
from .graded_algebra import (
    AlgebraContext,
    hilbert_sequence,
    molien_sequence,
)
from .io_formats import (
    dump_json,
    fraction_to_str,
    load_json,
    quiver_to_dict,
    rep_from_dict,
    rep_to_dict,
)
from .quiver_core import (
    frame_quiver,
    mckay_quiver,
    theta_I,
    triple_quiver,
)
from .rep_theory import (
    brute_force_stability,
    max_relation_residual,
    reduce_mod_p,
    s_equivalence_classes,
    s_equivalent,
    stability_verdict,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_ORACLE = 4
EXIT_RELATIONS = 5
EXIT_STABILITY = 6
# every other MckayError exits with EXIT_USAGE
EXIT_CODES = {
    DegreeCapExceeded: EXIT_CAP,
    OracleMismatch: EXIT_ORACLE,
    RelationViolation: EXIT_RELATIONS,
    NotStableForSource: EXIT_STABILITY,
}


def _parse_corner(text):
    try:
        corner = {int(x) for x in text.split(",") if x.strip() != ""}
    except ValueError:
        raise InvalidDescriptor(f"bad corner set {text!r}") from None
    if not corner:
        raise EmptyI("corner set must be nonempty")
    return corner


def _parse_framing(text):
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise InvalidDescriptor(f"bad framing vector {text!r}") from None
    return {i: v for i, v in enumerate(values)}


def cmd_quiver(args):
    g = build_group(parse_descriptor(args.descriptor))
    q = mckay_quiver(g)
    if args.triple:
        q = triple_quiver(q)
    if args.frame is not None:
        q = frame_quiver(q, _parse_framing(args.frame))
    data = quiver_to_dict(q)
    if args.out:
        dump_json(data, args.out)
    if args.json:
        sys.stdout.write(dump_json(data))
        return EXIT_OK
    adjacency = q.adjacency()
    print(f"group: {g.descriptor.label}")
    print(f"vertices: {len(q.vertices)}")
    print(f"arrows: {len(q.arrows)}")
    print("adjacency:")
    for row in adjacency:
        print("  " + " ".join(str(x) for x in row))
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_hilbert(args):
    g = build_group(parse_descriptor(args.descriptor))
    corner = _parse_corner(args.corner) if args.corner else None
    w = _parse_framing(args.w) if args.w else None
    ctx = AlgebraContext(
        g, args.algebra, w=w, corner=corner, degree_cap=args.cap
    )
    seq = hilbert_sequence(ctx, args.kmax)
    if not args.oracle:
        for k, d in enumerate(seq):
            print(f"{k},{d}")
        return EXIT_OK

    if args.algebra not in ("pi", "pibullet"):
        raise UnsupportedSeries("the character oracle covers pi and pibullet")
    with_z = args.algebra == "pibullet"
    ends = ctx.endpoints()
    oracle = [0] * (args.kmax + 1)
    for i in ends:
        for j in ends:
            mol = molien_sequence(g, i, j, with_z, args.kmax)
            for k in range(args.kmax + 1):
                oracle[k] += mol[k]
    mismatch = [k for k in range(args.kmax + 1) if seq[k] != oracle[k]]
    for k in range(args.kmax + 1):
        print(f"{k},{seq[k]},{oracle[k]}")
    if mismatch:
        raise OracleMismatch(f"path and character counts differ at degrees {mismatch}")
    return EXIT_OK


def _refuse_unflat(rep):
    worst = max_relation_residual(rep)
    if worst:
        raise RelationViolation(
            f"relations violated; largest residual entry {fraction_to_str(worst)}"
        )


def cmd_stability(args):
    rep = rep_from_dict(load_json(args.module))
    corner = _parse_corner(args.corner)
    _refuse_unflat(rep)
    theta = theta_I(corner, rep.dims)
    semistable, stable, witness = stability_verdict(rep, theta)
    report = {
        "semistable": semistable,
        "stable": stable,
    }
    if witness is not None:
        report["witness_dims"] = {str(k): v for k, v in sorted(
            witness.items(), key=lambda t: str(t[0]))}
    if args.brute_force:
        reduced = reduce_mod_p(rep, args.prime)
        got = stability_verdict(reduced, theta)[:2]
        want = brute_force_stability(reduced, theta)[:2]
        report["brute_force"] = {
            "prime": args.prime,
            "specialized": list(got),
            "exhaustive": list(want),
        }
    if args.json:
        sys.stdout.write(dump_json(report))
    else:
        print(f"semistable: {str(semistable).lower()}")
        print(f"stable: {str(stable).lower()}")
        if witness is not None:
            wtxt = ", ".join(f"{k}:{v}" for k, v in sorted(
                witness.items(), key=lambda t: str(t[0])))
            print(f"destabilizing dims: {wtxt}")
        if args.brute_force:
            verdict = "agreement" if got == want else "mismatch"
            print(f"brute force over GF({args.prime}): {verdict}")
    if args.brute_force and got != want:
        raise OracleMismatch(
            f"specialized {got} vs exhaustive {want} over GF({args.prime})"
        )
    return EXIT_OK


def cmd_vgit(args):
    from .moduli_tools import vgit_pushforward, vgit_push_list

    rep = rep_from_dict(load_json(args.module))
    source = _parse_corner(args.from_corner)
    target = _parse_corner(args.to_corner)
    _refuse_unflat(rep)
    summands = vgit_pushforward(rep, source, target)
    classes = s_equivalence_classes([summands], seed=args.seed)[0]
    report = {
        "summands": [
            {
                "dims": {str(k): v for k, v in sorted(
                    m.dims.as_dict().items(), key=lambda t: str(t[0]))},
                "iso_class": cls,
            }
            for m, cls in zip(summands, classes)
        ],
        "dimension_conserved": True,
    }

    if args.compare:
        mid = _parse_corner(args.compare)
        two_step = vgit_push_list(
            vgit_pushforward(rep, source, mid), mid, target
        )
        agree = s_equivalent(summands, two_step, seed=args.seed)
        report["chain_agreement"] = agree
        if not agree:
            raise OracleMismatch("two-step and direct pushforwards disagree")

    if args.out_prefix:
        paths = []
        for idx, m in enumerate(summands):
            path = f"{args.out_prefix}_{idx}.json"
            dump_json(rep_to_dict(m), path)
            paths.append(path)
        report["files"] = paths

    if args.json:
        sys.stdout.write(dump_json(report))
        return EXIT_OK
    for idx, entry in enumerate(report["summands"]):
        dims = ", ".join(f"{k}:{v}" for k, v in entry["dims"].items())
        print(f"summand {idx}: dims {dims} (class {entry['iso_class']})")
    print("dimension conservation: ok")
    if args.compare:
        print("chain agreement: ok")
    if args.out_prefix:
        for path in report["files"]:
            print(f"wrote {path}")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="mckaykit",
        description="Desk-scale computations with McKay quivers, graded "
        "preprojective algebras, cornering, and framed-module stability.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomised searches")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quiver", help="build a (framed/tripled) McKay quiver")
    p.add_argument("descriptor")
    p.add_argument("--frame", help="framing multiplicities, e.g. 1,0")
    p.add_argument("--triple", action="store_true")
    p.add_argument("--out", help="write quiver JSON to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("hilbert", help="degreewise dimensions of an algebra")
    p.add_argument("descriptor")
    p.add_argument("--algebra", default="pibullet",
                   choices=["pi", "piw", "pibullet"])
    p.add_argument("--corner", help="corner vertex set, e.g. 0 or 0,1")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--w", help="framing multiplicities for the framed flavor")
    p.add_argument("--oracle", action="store_true",
                   help="print the character-count column and compare")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("stability", help="check a framed module file")
    p.add_argument("module")
    p.add_argument("--corner", required=True)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--prime", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("vgit", help="pushforward between stability chambers")
    p.add_argument("module")
    p.add_argument("--from-corner", required=True)
    p.add_argument("--to-corner", required=True)
    p.add_argument("--compare", help="intermediate corner for a chain check")
    p.add_argument("--out-prefix", help="write summand module files")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_vgit)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MckayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
