"""Published JSON Schemas for every CLI output shape.

The golden-file test suite validates each documented CLI example against
these; downstream consumers can import them to do the same.

Every object is closed: it holds exactly the keys its schema lists, and each
of them is required.  The one exception is a fibre record, which carries
exactly one of ``param`` and ``minpoly``.  Every enum lists the values of
the library enum, or of the ``systems`` query table, that it describes.
"""

from . import cli
from .curves import FibreKind
from .geography import CheckStatus, SlopeVerdict
from .polynomial import RATIONAL_PATTERN

_INT = {"type": "integer"}
_NAT = {"type": "integer", "minimum": 0}
_STR = {"type": "string"}
_INT_OR_NULL = {"type": ["integer", "null"]}
_POLY = {"type": "array", "items": {"type": "string", "pattern": f"^{RATIONAL_PATTERN}$"}}


def _closed(properties: dict) -> dict:
    """An object with exactly the keys of ``properties``, every one required."""
    return {"type": "object", "properties": properties, "required": list(properties),
            "additionalProperties": False}


MODEL = _closed({"genus": {"type": "integer", "minimum": 1}, "f": _POLY})

FIBRE_CLASS = _closed({
    "kind": {"enum": [k.value for k in FibreKind]}, "t": _NAT,
    "intersections": _INT_OR_NULL, "geometric_genus": _INT_OR_NULL, "euler": _INT_OR_NULL})

# A fibre sits at one rational parameter or at the roots of one minimal
# polynomial, so a record names exactly one of the two: ``required`` leaves
# both out and ``oneOf`` asks for one.  No class is Smooth: a record sits at a
# root of Disc, so d1 >= 1 (``orbit_signature`` starts at k = 1 on every orbit).
_FIBRE_RECORD = {
    **_closed({"param": _STR, "minpoly": _POLY, "conjugates": {"type": "integer", "minimum": 1},
               "nodes": _NAT,
               "class": {"enum": [k.value for k in FibreKind if k is not FibreKind.SMOOTH]}}),
    "required": ["conjugates", "nodes", "class"],
    "oneOf": [{"required": ["param"]}, {"required": ["minpoly"]}],
}

PENCIL_RUN = _closed({
    "pencil": _closed({"g": _INT, "f0": _POLY, "f1": _POLY}),
    "summary": _closed({"e_total": _INT, "bound": _INT, "strict": {"type": "boolean"},
                        "fibres": {"type": "array", "items": _FIBRE_RECORD}}),
})

SYSTEMS = _closed({"surface": {"enum": list(cli.SYSTEMS_SURFACES)}, "query": _STR,
                   "result": {}})

INVARIANTS = _closed(dict.fromkeys(
    ("chi", "q", "p_g", "K2", "e", "g1", "g2", "epsilon", "d"), _INT_OR_NULL))

REPORT = _closed({
    "ok": {"type": "boolean"},
    "checks": {"type": "array", "items": _closed({
        "name": _STR, "status": {"enum": [s.value for s in CheckStatus]},
        "lhs": {}, "rhs": {}, "citation": _STR, "note": _STR})},
})

SCAN_ROW = _closed({"chi": _INT, "epsilon": _NAT, "q": _NAT, "p_g": _NAT,
                    "k2_min": _INT, "k2_max": _INT, "flags": {"type": "array", "items": _STR}})

SCAN = _closed({"g2": _NAT, "chi_max": _INT, "rows": {"type": "array", "items": SCAN_ROW}})

ELLIPTIC = _closed({"c2": _INT, "chi": _INT})

SLOPE = _closed({"slope": {"type": ["string", "integer"]},
                 "verdict": {"enum": [v.value for v in SlopeVerdict]}})

HURWITZ = _closed({"bound": _INT})

ERROR = _closed({"error": _STR})
