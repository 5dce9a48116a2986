"""Command-line surface: outputs, exit codes, file-format round trips."""

import hashlib
import json
from fractions import Fraction

import pytest

from helpers import count_framing_builds, etingof_eu_slices, stable_reps
from mckaykit import cli
from mckaykit.cli import build_parser, main
from mckaykit.gamma_data import build_group
from mckaykit.io_formats import (
    dump_json,
    quiver_from_dict,
    quiver_to_dict,
    rep_from_dict,
    rep_to_dict,
    str_to_fraction,
)
from mckaykit.quiver_core import DimVector, frame_quiver, mckay_quiver, triple_quiver
from mckaykit.rep_theory import random_flat_rep, zero_rep


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quiver_framed_summary(capsys):
    code, out, _ = run(capsys, "quiver", "A1", "--frame", "1,0")
    assert code == 0
    assert "vertices: 3" in out
    assert "arrows: 6" in out


def test_quiver_e6_adjacency(capsys):
    code, out, _ = run(capsys, "quiver", "E6")
    assert code == 0
    assert "vertices: 7" in out
    from mckaykit import dynkin

    target = dynkin.adjacency("E", 6)
    lines = [l.strip() for l in out.splitlines() if l.startswith("  ")]
    got = tuple(tuple(int(x) for x in line.split()) for line in lines)
    assert got == target


def test_quiver_bad_descriptor(capsys):
    code, _, err = run(capsys, "quiver", "A0")
    assert code == 2
    assert "error" in err


def test_hilbert_oracle(capsys):
    code, out, _ = run(
        capsys, "hilbert", "A1", "--algebra", "pibullet",
        "--corner", "0", "--kmax", "4", "--oracle",
    )
    assert code == 0
    rows = [tuple(int(x) for x in line.split(",")) for line in out.strip().splitlines()]
    assert rows == [(0, 1, 1), (1, 1, 1), (2, 4, 4), (3, 4, 4), (4, 9, 9)]


@pytest.mark.parametrize("label,kmax", [("E6", "6"), ("E8", "12"), ("E8", "30")])
def test_hilbert_oracle_e_series(capsys, label, kmax):
    """E8 to degree 30 reaches its Coxeter number and Klein's invariant of
    degree 30; the dim column must match both the character oracle and the
    integer Etingof-Eu recursion summed over all endpoint pairs."""
    code, out, _ = run(
        capsys, "hilbert", label, "--algebra", "pibullet", "--kmax", kmax,
        "--cap", kmax, "--oracle",
    )
    assert code == 0
    rows = [tuple(int(x) for x in line.split(",")) for line in out.strip().splitlines()]
    assert [r[0] for r in rows] == list(range(int(kmax) + 1))
    assert all(dim == oracle for _, dim, oracle in rows)
    desc = build_group(label).descriptor
    recursion = etingof_eu_slices(desc.series, desc.rank, True, int(kmax))
    assert [dim for _, dim, _ in rows] == [sum(map(sum, m)) for m in recursion]


def test_hilbert_kmax_zero(capsys):
    code, out, _ = run(capsys, "hilbert", "A1", "--kmax", "0")
    assert code == 0
    assert out.strip() == "0,2"


def test_hilbert_bad_corner(capsys):
    code, _, err = run(capsys, "hilbert", "A1", "--corner", "9", "--kmax", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("hilbert", "E8", "--kmax", "-1"),
    ("hilbert", "D4", "--algebra", "piw"),
])
def test_hilbert_bad_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,names", [
    (("quiver", "A1", "--frame", "1,0,5"), "vertex 2"),
    (("hilbert", "A1", "--algebra", "piw", "--w", "1,0,5"), "vertex 2"),
    (("hilbert", "A1", "--algebra", "piw", "--w=-1,0"), "got -1"),
    (("hilbert", "A1", "--algebra", "pibullet", "--w", "1,0"), "not pibullet"),
    (("hilbert", "A1", "--algebra", "pi", "--w", "1,0"), "not pi"),
])
def test_framing_refusals_exit_2(capsys, argv, names):
    """A framing entry at a vertex the quiver lacks, a negative
    multiplicity, and framing for an unframed flavor are refused, not
    dropped, with a message naming the entry."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err


def test_hilbert_cap_exceeded(capsys):
    code, _, err = run(capsys, "hilbert", "A1", "--kmax", "9", "--cap", "8")
    assert code == 3


def _write_module(tmp_path, rep, name="module.json"):
    path = tmp_path / name
    dump_json(rep_to_dict(rep), str(path))
    return str(path)


def test_stability_infinity_only(capsys, tmp_path):
    g = build_group("A1")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    rep = zero_rep(q, DimVector(components={0: 0, 1: 0}, at_infinity=1))
    path = _write_module(tmp_path, rep)
    code, out, _ = run(capsys, "stability", path, "--corner", "0")
    assert code == 0
    assert "semistable: true" in out
    assert "stable: true" in out


def test_stability_zero_maps_witness(capsys, tmp_path):
    g = build_group("A1")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    rep = zero_rep(q, DimVector(components={0: 1, 1: 1}, at_infinity=1))
    path = _write_module(tmp_path, rep)
    code, out, _ = run(capsys, "stability", path, "--corner", "0,1")
    assert code == 0
    assert "semistable: false" in out
    assert "destabilizing dims" in out


def test_stability_brute_force_agreement(capsys, tmp_path):
    g = build_group("A1")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1}, at_infinity=1)
    seed = 0
    rep = None
    while rep is None:
        rep = random_flat_rep(q, dims, seed)
        seed += 1
    path = _write_module(tmp_path, rep)
    code, out, _ = run(capsys, "stability", path, "--corner", "0,1",
                       "--brute-force")
    assert code == 0
    assert "agreement" in out


def test_stability_brute_force_prime_certificate(capsys, tmp_path):
    """A prime near 2^61 is certified at once; a number too large for the
    certificate, even a prime, is refused with exit code 2."""
    q = frame_quiver(mckay_quiver(build_group("A1")), {0: 1})
    rep = random_flat_rep(q, DimVector(components={0: 1, 1: 1}, at_infinity=1), 0)
    path = _write_module(tmp_path, rep)
    argv = ["stability", path, "--corner", "0,1", "--brute-force", "--prime"]
    code, out, _ = run(capsys, *argv, str(2**61 - 1))
    assert code == 0
    assert "agreement" in out
    code, _, err = run(capsys, *argv, str(2**89 - 1))
    assert code == 2
    assert err == f"error: {2**89 - 1} is too large to certify as prime\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_stability_oracle_mismatch_report(capsys, tmp_path, monkeypatch, as_json):
    """A disagreeing oracle: the report is printed once, in the mode asked
    for, and the exit code is 4."""
    q = frame_quiver(mckay_quiver(build_group("A1")), {0: 1})
    rep = zero_rep(q, DimVector(components={0: 1, 1: 1}, at_infinity=1))
    path = _write_module(tmp_path, rep)
    monkeypatch.setattr(cli, "brute_force_stability",
                        lambda rep, theta: (True, True, []))
    argv = ["stability", path, "--corner", "0,1", "--brute-force", "--prime", "3"]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == 4
    assert err.startswith("error: specialized (False, False) vs exhaustive "
                          "(True, True) over GF(3)") and err.count("\n") == 1
    if as_json:
        report = json.loads(out)
        assert out == dump_json(report)
        assert report["brute_force"] == {"prime": 3, "specialized": [False, False],
                                         "exhaustive": [True, True]}
    else:
        assert out == ("semistable: false\nstable: false\n"
                       "destabilizing dims: 0:0, 1:0, inf:1\n"
                       "brute force over GF(3): mismatch\n")


def test_stability_relation_violation_exit(capsys, tmp_path):
    g = build_group("A1")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1}, at_infinity=1)
    data = rep_to_dict(zero_rep(q, dims))
    for a in q.arrows:
        data["maps"][str(a.id)] = [["1"]]
    path = tmp_path / "bad.json"
    dump_json(data, str(path))
    code, _, err = run(capsys, "stability", str(path), "--corner", "0")
    assert code == 5
    assert "residual" in err
    # an exact residual is printed exactly, never as a float
    data["maps"] = {str(a.id): [["0"]] for a in q.arrows}
    data["maps"]["0"], data["maps"]["1"] = [["1/3"]], [["1"]]
    dump_json(data, str(path))
    code, _, err = run(capsys, "stability", str(path), "--corner", "0")
    assert code == 5
    assert "largest residual entry 1/3" in err


def test_vgit_identity_and_compare(capsys, tmp_path):
    g = build_group("A2")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1, 2: 1}, at_infinity=1)
    from mckaykit.quiver_core import theta_I
    from mckaykit.rep_theory import is_stable

    seed = 0
    rep = None
    theta = theta_I({0, 1, 2}, dims)
    while True:
        cand = random_flat_rep(q, dims, seed)
        seed += 1
        if cand is not None and is_stable(cand, theta):
            rep = cand
            break
    path = _write_module(tmp_path, rep)
    code, out, _ = run(
        capsys, "vgit", path, "--from-corner", "0,1,2", "--to-corner", "0",
        "--compare", "0,1", "--out-prefix", str(tmp_path / "summand"),
    )
    assert code == 0
    assert "dimension conservation: ok" in out
    assert "chain agreement: ok" in out
    # written summand files parse back
    summand0 = rep_from_dict(json.loads((tmp_path / "summand_0.json").read_text()))
    assert summand0.dims.get("inf") == 1


def test_vgit_compare_builds_the_input_framing_once(capsys, tmp_path, monkeypatch):
    """``vgit --compare`` pushes the input module directly and to the
    intermediate corner, and builds its framing submodule once: no module
    object has its framing submodule built twice."""
    g = build_group("A2")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1, 2: 1}, at_infinity=1)
    _, rep = stable_reps(q, dims, {0, 1, 2}, 1)[0]
    path = _write_module(tmp_path, rep)
    builds = count_framing_builds(monkeypatch)
    code, out, _ = run(capsys, "vgit", path, "--from-corner", "0,1,2",
                       "--to-corner", "0", "--compare", "0,1")
    assert code == 0 and "chain agreement: ok" in out
    assert builds[0].dims == dims
    assert len({id(m) for m in builds}) == len(builds)


def test_vgit_not_stable_exit(capsys, tmp_path):
    g = build_group("A1")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    rep = zero_rep(q, DimVector(components={0: 1, 1: 1}, at_infinity=1))
    path = _write_module(tmp_path, rep)
    code, _, err = run(capsys, "vgit", path, "--from-corner", "0,1",
                       "--to-corner", "0")
    assert code == 6


def test_json_parse_error_diagnostics(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"quiver": [,]}')
    code, _, err = run(capsys, "stability", str(path), "--corner", "0")
    assert code == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("command", [
    ["stability", "--corner", "0"],
    ["vgit", "--from-corner", "0,1", "--to-corner", "0"],
], ids=["stability", "vgit"])
@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["missing", "utf16"])
def test_unreadable_module_file_exit_2(capsys, tmp_path, command, content):
    path = tmp_path / "module.json"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("change", [
    {"quiver": None},
    {"dims": None},
    {"dims": {"0": "x", "1": 1, "inf": 1}},
    {"dims": {"0": 1.5, "1": 1, "inf": 1}},
    {"maps": {"99": [["0"]]}},
    {"dims": {"0": 2, "1": 1, "inf": 1}, "maps": {"0": [["0"], ["0", "1"]]}},
    {"dims": {"0": 1, "1": 1, "7": 3, "inf": 1}},
    {"quiver": {"group": "A1", "vertices": ["0", "1", "inf"],
                "arrows": [{"tail": "0", "head": "1"}]}},
    {"quiver": {"group": "A1", "vertices": ["0", "1", "inf"],
                "arrows": [{"id": 0, "tail": "0", "head": "1", "bar": 5}]}},
    {"quiver": {"group": "A1", "vertices": ["0", "1", "inf"],
                "arrows": [{"id": 0, "tail": "0", "head": "9"}]}},
    {"quiver": {"group": "A1", "vertices": ["0", "1", "inf"],
                "arrows": [{"id": "0", "tail": "0", "head": "1", "bar": 1},
                           {"id": 1, "tail": "1", "head": "0", "bar": "0"}]}},
    {"quiver": {"group": "A1", "vertices": ["0", "1", "inf"],
                "arrows": [{"id": 0, "tail": "0", "head": "1", "bar": 1},
                           {"id": 1, "tail": "1", "head": "0", "bar": 0}],
                "loops": {"0": 7, "1": 8, "inf": 9}}},
    {"quiver": {"group": "A1", "frame": {"a": 1}}},
    {"quiver": {"group": "A1", "frame": ["x", 0]}},
    {"quiver": {"group": 5, "frame": [1, 0]}},
    {"maps": {"5": "1"}},
    {"maps": {"5": [[1.5]]}},
    {"maps": {"5": [[True]]}},
    {"quiver": {"group": "A1", "frame": {"7": 1}}},
    {"quiver": {"group": "A1", "frame": {"inf": 1}}},
])
def test_stability_malformed_module_exit(capsys, tmp_path, change):
    q = frame_quiver(mckay_quiver(build_group("A1")), {0: 1})
    data = rep_to_dict(zero_rep(q, DimVector(components={0: 1, 1: 1}, at_infinity=1)))
    data["maps"] = {}
    for key, value in change.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    path = tmp_path / "malformed.json"
    dump_json(data, str(path))
    code, _, err = run(capsys, "stability", str(path), "--corner", "0")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("framing", [{}, {"0": 1, "7": 0}], ids=["empty", "vertex-7"])
def test_explicit_quiver_framing_mismatch_exit_2(capsys, tmp_path, framing):
    """An explicit quiver whose framing disagrees with its framing arrows,
    or names a vertex the quiver lacks, is a usage error."""
    q = frame_quiver(mckay_quiver(build_group("A1")), {0: 1})
    data = rep_to_dict(zero_rep(q, DimVector(components={0: 1, 1: 1}, at_infinity=1)))
    assert data["quiver"]["framing"] == {"0": 1, "1": 0}
    data["quiver"]["framing"] = framing
    path = tmp_path / "module.json"
    dump_json(data, str(path))
    code, out, err = run(capsys, "stability", str(path), "--corner", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: framing ") and err.count("\n") == 1


def repeat_vertex(quiver):
    quiver["vertices"].insert(0, quiver["vertices"][0])


def repeat_arrow(quiver):
    quiver["arrows"].append(quiver["arrows"][0])


def unlisted_head(quiver):
    quiver["arrows"][0]["head"] = "9"


def bar_to_missing_arrow(quiver):
    quiver["arrows"][0]["bar"] = 99


def loop_on_edge(quiver):
    quiver["loops"] = {"0": 0}


@pytest.mark.parametrize("change, message", [
    (repeat_vertex, "repeated vertices [0]"),
    (repeat_arrow, "repeated arrow ids [0]"),
    (unlisted_head, "arrow 0 joins a vertex that is not listed"),
    (bar_to_missing_arrow, "bar entry 0: 99 names a missing arrow"),
    (loop_on_edge, "loop entry 0 names no loop arrow there"),
], ids=["vertex", "arrow", "head", "bar", "loop"])
@pytest.mark.parametrize("command", [("stability", "--corner", "0,1"),
                                     ("vgit", "--from-corner", "0,1", "--to-corner", "0")],
                         ids=["stability", "vgit"])
def test_explicit_quiver_repeats_exit_2(capsys, tmp_path, change, message, command):
    """An explicit quiver that lists a vertex or an arrow id twice, or
    breaks another structural rule of ``Quiver``, is a usage error with the
    quiver's own message, here on a module stable for {0, 1} (which, read
    with the repeated vertex, was reported unstable and then not pushed)."""
    q = frame_quiver(mckay_quiver(build_group("A1")), {0: 1})
    rep = random_flat_rep(q, DimVector(components={0: 1, 1: 1}, at_infinity=1), 3)
    data = rep_to_dict(rep)
    path = tmp_path / "module.json"
    dump_json(data, str(path))
    assert run(capsys, command[0], str(path), *command[1:])[0] == 0
    change(data["quiver"])
    dump_json(data, str(path))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_stability_framed_tripled_module_exit(capsys, tmp_path):
    """The framing vertex of a tripled quiver has no loop, so the loop
    relations are undefined: a usage error naming the arrow."""
    path = tmp_path / "module.json"
    dump_json({"quiver": {"group": "A1", "frame": [1, 0], "triple": True},
               "dims": {"0": 1, "1": 1, "inf": 1}}, str(path))
    code, out, err = run(capsys, "stability", str(path), "--corner", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: arrow ") and err.count("\n") == 1


def test_quiver_json_round_trip():
    """Every quiver ``quiver_to_dict`` writes, framed ones with zero
    framing entries included, loads back equal and writes the same text."""
    quivers = []
    for label, w in [("A1", {0: 1}), ("A1", {}), ("A2", {0: 2, 2: 1}),
                     ("D4", {1: 1}), ("E6", {0: 1, 3: 2})]:
        q = mckay_quiver(build_group(label))
        quivers += [q, triple_quiver(q), frame_quiver(q, w),
                    frame_quiver(triple_quiver(q), w)]
    for q in quivers:
        data = quiver_to_dict(q)
        text = json.dumps(data, sort_keys=True)
        back = quiver_from_dict(json.loads(text))
        assert back == q
        assert json.dumps(quiver_to_dict(back), sort_keys=True) == text


def test_module_json_round_trip():
    g = build_group("A1")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 2, 1: 1}, at_infinity=1)
    seed = 0
    rep = None
    while rep is None:
        rep = random_flat_rep(q, dims, seed)
        seed += 1
    data = rep_to_dict(rep)
    text = json.dumps(data, sort_keys=True)
    back = rep_from_dict(json.loads(text))
    assert json.dumps(rep_to_dict(back), sort_keys=True) == text
    assert back.maps == {a.id: rep.matrix(a.id) for a in q.arrows}


def test_module_entries_parse_int_when_integral():
    assert type(str_to_fraction("2")) is int and str_to_fraction("2") == 2
    assert type(str_to_fraction("-1")) is int and str_to_fraction("-1") == -1
    assert type(str_to_fraction("4/2")) is int and str_to_fraction("4/2") == 2
    assert str_to_fraction("1/2") == Fraction(1, 2)
    assert type(str_to_fraction("1/2")) is Fraction
    q = frame_quiver(mckay_quiver(build_group("A1")), {0: 1})
    data = rep_to_dict(zero_rep(q, DimVector(components={0: 2, 1: 1}, at_infinity=1)))
    data["maps"]["0"] = [["1/2"], ["-3"]]
    data["maps"]["1"] = [["0", "-2/3"]]
    data["maps"]["5"] = [[2, 0]]
    rep = rep_from_dict(data)
    assert rep.maps[0] == ((Fraction(1, 2),), (-3,))
    assert rep.maps[5] == ((2, 0),)
    data["maps"]["5"] = [["2", "0"]]
    assert [type(x) for row in rep.maps[1] for x in row] == [int, Fraction]
    assert rep_to_dict(rep) == data


# one cached parser serves calls that succeed, are refused by mckaykit
# (exit 2) and are rejected by argparse itself (SystemExit 2)
PARSER_ARGV = [
    ("quiver", "A2", "--frame", "1,0,0"),
    ("hilbert", "A1", "--kmax", "x"),
    ("hilbert", "A1", "--kmax", "4", "--oracle"),
    ("hilbert", "E8", "--kmax", "-1"),
    ("quiver", "A1", "--json"),
    ("--seed", "3", "hilbert", "A2", "--algebra", "pi", "--kmax", "3"),
    ("stability",),
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_shares_one_parser(capsys):
    """Consecutive calls on the cached parser give what calls on freshly
    built parsers give."""
    fresh = []
    for argv in PARSER_ARGV:
        build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    parser = build_parser()
    shared = [_outcome(capsys, argv) for argv in PARSER_ARGV]
    assert build_parser() is parser
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0, 0, 2]


def test_determinism_same_seed(capsys, tmp_path):
    g = build_group("A1")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1}, at_infinity=1)
    seed = 0
    rep = None
    while rep is None:
        rep = random_flat_rep(q, dims, seed)
        seed += 1
    path = _write_module(tmp_path, rep)
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--seed", "7", "stability", path,
                           "--corner", "0", "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# the graded dimensions of E8 pibullet in degrees 0..30, as printed by
# `hilbert E8 --algebra pibullet --kmax 30 --cap 30 --oracle`
E8_PIBULLET_DIMS = (9, 25, 48, 78, 115, 159, 212, 272, 339, 413, 496, 586, 685,
                    791, 904, 1022, 1149, 1283, 1426, 1576, 1735, 1899, 2072,
                    2252, 2441, 2635, 2838, 3046, 3263, 3487, 3722)
# the README's commands with the stdout each printed when recorded; the
# module files are seeded A2 modules, framed at 0, of dimension delta
# (see test_readme_commands_golden_stdout)
GOLDEN_COMMANDS = [
    ("quiver A1 --frame 1,0",
     "group: A1\nvertices: 3\narrows: 6\nadjacency:\n  0 2\n  2 0\n"),
    ("quiver E6 --out e6.json",
     "group: E6\nvertices: 7\narrows: 12\nadjacency:\n"
     "  0 1 0 0 0 0 0\n  1 0 1 0 0 0 0\n  0 1 0 1 0 1 0\n  0 0 1 0 1 0 0\n"
     "  0 0 0 1 0 0 0\n  0 0 1 0 0 0 1\n  0 0 0 0 0 1 0\nwrote e6.json\n"),
    ("hilbert A1 --algebra pibullet --corner 0 --kmax 4 --oracle",
     "0,1,1\n1,1,1\n2,4,4\n3,4,4\n4,9,9\n"),
    ("hilbert E8 --algebra pibullet --kmax 30 --cap 30 --oracle",
     "".join(f"{k},{d},{d}\n" for k, d in enumerate(E8_PIBULLET_DIMS))),
    ("stability module.json --corner 0,1 --brute-force --prime 3",
     "semistable: true\nstable: true\nbrute force over GF(3): agreement\n"),
    ("stability module.json --corner 0 --brute-force --prime 3",
     "semistable: true\nstable: false\ndestabilizing dims: 0:0, 1:1, 2:1, inf:0\n"
     "brute force over GF(3): agreement\n"),
    ("stability unstable.json --corner 0,1 --brute-force --prime 3",
     "semistable: false\nstable: false\ndestabilizing dims: 0:1, 1:0, 2:1, inf:1\n"
     "brute force over GF(3): agreement\n"),
    ("vgit module.json --from-corner 0,1,2 --to-corner 0 --compare 0,1 "
     "--out-prefix summand",
     "summand 0: dims 0:1, 1:0, 2:0, inf:1 (class 0)\n"
     "summand 1: dims 0:0, 1:1, 2:0, inf:0 (class 1)\n"
     "summand 2: dims 0:0, 1:0, 2:1, inf:0 (class 2)\n"
     "dimension conservation: ok\nchain agreement: ok\n"
     "wrote summand_0.json\nwrote summand_1.json\nwrote summand_2.json\n"),
]
# sha256 of every file in the working directory afterwards: the two
# seeded inputs and what the commands wrote
GOLDEN_FILES = {
    "e6.json": "98948e2cf56244844cf265c373946b2bb1b67beccaa857bbdfa651bb254f2b30",
    "module.json": "a3d5751469ce4d2195b7d3fd482e7e89a5d00bafe7d50e7ecafde9dc06c8d03b",
    "summand_0.json": "0edb139ed552cf4e9c800ad81df6e55e1cbf3546f72ef45b7ec31e6ad937de7e",
    "summand_1.json": "348003b7e1b5980f97287e016272a1d13678ec0859ee8c81a2c458cd81ec2f3e",
    "summand_2.json": "1df750cab704e71d89f33c655066bf469d1ec6e10373b9fab94d19212fae8401",
    "unstable.json": "3d4605ec261bdca58e9d5ea75908186449f26df72fa0f609039c29a24f165283",
}


def test_readme_commands_golden_stdout(capsys, tmp_path, monkeypatch):
    """The README's quiver, hilbert --oracle, stability --brute-force and
    vgit commands print, byte for byte, what they printed when recorded,
    and write the same files.  module.json is seed 7 of
    ``random_flat_rep`` (theta_{0,1,2}-stable, so the pushforward to {0}
    splits off two vertex simples), unstable.json is seed 4."""
    monkeypatch.chdir(tmp_path)
    q = frame_quiver(mckay_quiver(build_group("A2")), {0: 1})
    dims = DimVector(components={0: 1, 1: 1, 2: 1}, at_infinity=1)
    for name, seed in (("module.json", 7), ("unstable.json", 4)):
        dump_json(rep_to_dict(random_flat_rep(q, dims, seed)), name)
    for argv, want in GOLDEN_COMMANDS:
        assert run(capsys, *argv.split()) == (0, want, ""), argv
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == GOLDEN_FILES
