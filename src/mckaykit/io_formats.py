"""File formats: quivers and framed modules.

All rational entries serialize as "p/q" strings (never floats).  Vertex
keys serialize as strings, with "inf" for the framing vertex.  Parsing
and serialising round-trip byte-identically under sorted-key JSON.
"""

import json
from fractions import Fraction

from .errors import InvalidArgument, InvalidDescriptor, MalformedFile
from .linalg import QQ
from .quiver_core import (
    INFINITY,
    Arrow,
    DimVector,
    Quiver,
    frame_quiver,
    mckay_quiver,
    triple_quiver,
)


def fraction_to_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def str_to_fraction(s):
    """Parse a "p/q" entry as a QQ element: an ``int`` when integral."""
    return QQ.from_fraction(s)


def vertex_to_key(v):
    return INFINITY if v == INFINITY else str(v)


def key_to_vertex(k):
    return INFINITY if k == INFINITY else int(k)


# ---------------------------------------------------------------------------
# quivers
# ---------------------------------------------------------------------------

def quiver_to_dict(q):
    out = {
        "group": q.group,
        "vertices": [vertex_to_key(v) for v in q.vertices],
        "arrows": [
            {
                "id": a.id,
                "tail": vertex_to_key(a.tail),
                "head": vertex_to_key(a.head),
                "bar": q.bar.get(a.id),
            }
            for a in q.arrows
        ],
        "loops": {vertex_to_key(v): aid for v, aid in sorted(
            q.loops.items(), key=lambda t: vertex_to_key(t[0]))},
    }
    if q.framing is not None:
        out["framing"] = {
            vertex_to_key(v): w for v, w in sorted(
                q.framing.items(), key=lambda t: vertex_to_key(t[0]))
        }
    return out


def quiver_from_dict(data):
    """Parse an explicit quiver.  A malformed entry raises MalformedFile,
    as does an arrow id in ``"arrows"``, ``"bar"`` or ``"loops"`` that is
    not an integer; ``Quiver`` refuses the rest of a bad structure.
    """
    try:
        vertices = tuple(key_to_vertex(v) for v in data["vertices"])
        arrows = tuple(
            Arrow(a["id"], key_to_vertex(a["tail"]), key_to_vertex(a["head"]))
            for a in data["arrows"]
        )
        bar = {a["id"]: a["bar"] for a in data["arrows"] if a.get("bar") is not None}
        framing = None
        if data.get("framing") is not None:
            framing = {key_to_vertex(k): w for k, w in data["framing"].items()}
        loops = {key_to_vertex(k): aid for k, aid in data.get("loops", {}).items()}
        for aid in [a.id for a in arrows] + list(bar.values()) + list(loops.values()):
            if type(aid) is not int:
                raise ValueError(f"arrow id {aid!r} is not an integer")
        return Quiver(
            vertices=vertices,
            arrows=arrows,
            bar=bar,
            loops=loops,
            framing=framing,
            group=data.get("group"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"bad quiver entry ({exc!r})") from None


def resolve_quiver(data):
    """Either an explicit quiver object or a descriptor shorthand.

    Shorthand: {"group": "A2", "frame": {"0": 1} or [1, 0, 0],
    "triple": false}.
    """
    if "arrows" in data:
        return quiver_from_dict(data)
    from .gamma_data import build_group

    if "group" not in data:
        raise InvalidDescriptor("quiver shorthand needs a group label")
    if not isinstance(data["group"], str):
        raise MalformedFile(f"bad group label {data['group']!r}")
    q = mckay_quiver(build_group(data["group"]))
    if data.get("triple"):
        q = triple_quiver(q)
    w = data.get("frame")
    if w is not None:
        if not isinstance(w, (dict, list)):
            raise MalformedFile(f"bad framing {w!r}")
        pairs = w.items() if isinstance(w, dict) else enumerate(w)
        q = frame_quiver(q, {_parsed("vertex", key_to_vertex, k):
                             _parsed("framing", _dimension, x) for k, x in pairs})
    return q


# ---------------------------------------------------------------------------
# framed modules
# ---------------------------------------------------------------------------

def matrix_to_lists(mat):
    return [[fraction_to_str(x) for x in row] for row in mat]


def matrix_from_lists(rows):
    """A matrix from a list of row lists of ``int`` or "p/q" entries."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TypeError(rows)
    return tuple(tuple(str_to_fraction(_int_or_str(x)) for x in row) for row in rows)


def rep_to_dict(rep):
    dims = {
        vertex_to_key(v): rep.dims.get(v)
        for v in rep.quiver.vertices
    }
    return {
        "quiver": quiver_to_dict(rep.quiver),
        "dims": dims,
        "maps": {
            str(aid): matrix_to_lists(rep.matrix(aid))
            for aid in sorted(a.id for a in rep.quiver.arrows)
        },
    }


def _parsed(what, parse, value):
    """``parse(value)``, reporting a value it rejects as MalformedFile."""
    try:
        return parse(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise MalformedFile(f"bad {what} {value!r}") from None


def _int_or_str(value):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(value)
    return value


def _dimension(value):
    d = int(_int_or_str(value))
    if d < 0:
        raise ValueError(value)
    return d


def rep_from_dict(data):
    """Parse a framed module; a malformed file raises MalformedFile."""
    from .rep_theory import QuiverRep, validate_shapes

    if not (isinstance(data, dict) and isinstance(data.get("quiver"), dict)
            and isinstance(data.get("dims"), dict)):
        raise MalformedFile('a module needs a "quiver" and a "dims" object')
    quiver = resolve_quiver(data["quiver"])
    raw_dims = {
        _parsed("vertex", key_to_vertex, k): _parsed("dimension", _dimension, v)
        for k, v in data["dims"].items()
    }
    for v in raw_dims:
        if v not in quiver.vertices:
            raise MalformedFile(f"unknown vertex {vertex_to_key(v)!r} in dims")
    comps = {v: raw_dims.get(v, 0) for v in quiver.vertices if v != INFINITY}
    at_inf = raw_dims.get(INFINITY) if INFINITY in quiver.vertices else None
    dims = DimVector(components=comps, at_infinity=at_inf)
    arrow_ids = {a.id for a in quiver.arrows}
    maps = {}
    for key, rows in _parsed("maps", dict.items, data.get("maps", {})):
        aid = _parsed("arrow id", int, key)
        if aid not in arrow_ids:
            raise MalformedFile(f"unknown arrow id {key!r} in maps")
        maps[aid] = _parsed(f"matrix for arrow {key}", matrix_from_lists, rows)
    rep = QuiverRep(quiver=quiver, dims=dims, maps=maps, field=QQ)
    validate_shapes(rep)
    return rep


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        return text
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidArgument(f"{path}: cannot write: {exc.strerror}") from None
    return text


def load_json(path):
    """Parse a JSON file; a file that cannot be read as UTF-8 text or is
    not JSON raises MalformedFile, a syntax error with its line and
    column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedFile(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise MalformedFile(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
