"""Published JSON Schemas for every CLI output shape.

The golden-file test suite validates each documented CLI example against
these; downstream consumers can import them to do the same.
"""

from .polynomial import RATIONAL_PATTERN

_COEFF = {"type": "string", "pattern": f"^{RATIONAL_PATTERN}$"}
_POLY = {"type": "array", "items": _COEFF}
_INT_OR_NULL = {"type": ["integer", "null"]}

MODEL = {
    "type": "object",
    "properties": {"genus": {"type": "integer", "minimum": 1}, "f": _POLY},
    "required": ["genus", "f"],
    "additionalProperties": False,
}

FIBRE_CLASS = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["Smooth", "IrreducibleNodal", "SplitNodal", "NonNodal"]},
        "t": {"type": "integer", "minimum": 0},
        "intersections": _INT_OR_NULL,
        "geometric_genus": _INT_OR_NULL,
        "euler": _INT_OR_NULL,
    },
    "required": ["kind", "t", "intersections", "geometric_genus", "euler"],
    "additionalProperties": False,
}

_FIBRE_RECORD = {
    "type": "object",
    "properties": {
        "param": {"type": "string"},
        "minpoly": _POLY,
        "conjugates": {"type": "integer", "minimum": 1},
        "nodes": {"type": "integer", "minimum": 0},
        "class": {"enum": ["IrreducibleNodal", "SplitNodal", "NonNodal", "Smooth"]},
    },
    "required": ["conjugates", "nodes", "class"],
    "oneOf": [{"required": ["param"]}, {"required": ["minpoly"]}],
    "additionalProperties": False,
}

PENCIL_RUN = {
    "type": "object",
    "properties": {
        "pencil": {
            "type": "object",
            "properties": {"g": {"type": "integer"}, "f0": _POLY, "f1": _POLY},
            "required": ["g", "f0", "f1"],
            "additionalProperties": False,
        },
        "summary": {
            "type": "object",
            "properties": {
                "e_total": {"type": "integer"},
                "bound": {"type": "integer"},
                "strict": {"type": "boolean"},
                "fibres": {"type": "array", "items": _FIBRE_RECORD},
            },
            "required": ["e_total", "bound", "strict", "fibres"],
            "additionalProperties": False,
        },
    },
    "required": ["pencil", "summary"],
    "additionalProperties": False,
}

SYSTEMS = {
    "type": "object",
    "properties": {
        "surface": {"enum": ["P1xP1", "F_e", "DelPezzo1"]},
        "query": {"type": "string"},
        "result": {},
    },
    "required": ["surface", "query", "result"],
    "additionalProperties": False,
}

INVARIANTS = {
    "type": "object",
    "properties": {name: _INT_OR_NULL for name in
                   ("chi", "q", "p_g", "K2", "e", "g1", "g2", "epsilon", "d")},
    "required": ["chi", "q", "p_g", "K2", "e", "g1", "g2", "epsilon", "d"],
    "additionalProperties": False,
}

REPORT = {
    "type": "object",
    "properties": {
        "ok": {"type": "boolean"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "inapplicable"]},
                    "lhs": {},
                    "rhs": {},
                    "citation": {"type": "string"},
                    "note": {"type": "string"},
                },
                "required": ["name", "status", "lhs", "rhs", "citation", "note"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["ok", "checks"],
    "additionalProperties": False,
}

SCAN_ROW = {
    "type": "object",
    "properties": {
        "chi": {"type": "integer"},
        "epsilon": {"type": "integer", "minimum": 0},
        "q": {"type": "integer", "minimum": 0},
        "p_g": {"type": "integer", "minimum": 0},
        "k2_min": {"type": "integer"},
        "k2_max": {"type": "integer"},
        "flags": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["chi", "epsilon", "q", "p_g", "k2_min", "k2_max", "flags"],
    "additionalProperties": False,
}

SCAN = {
    "type": "object",
    "properties": {
        "g2": {"type": "integer", "minimum": 0},
        "chi_max": {"type": "integer"},
        "rows": {"type": "array", "items": SCAN_ROW},
    },
    "required": ["g2", "chi_max", "rows"],
    "additionalProperties": False,
}

ELLIPTIC = {
    "type": "object",
    "properties": {"c2": {"type": "integer"}, "chi": {"type": "integer"}},
    "required": ["c2", "chi"],
    "additionalProperties": False,
}

SLOPE = {
    "type": "object",
    "properties": {
        "slope": {"type": ["string", "integer"]},
        "verdict": {"enum": ["product-like", "admissible", "inadmissible"]},
    },
    "required": ["slope", "verdict"],
    "additionalProperties": False,
}

HURWITZ = {
    "type": "object",
    "properties": {"bound": {"type": "integer"}},
    "required": ["bound"],
    "additionalProperties": False,
}

ERROR = {
    "type": "object",
    "properties": {"error": {"type": "string"}},
    "required": ["error"],
    "additionalProperties": False,
}
