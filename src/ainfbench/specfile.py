"""Strict JSON format for categories, filtrations, and cochains.

The normative layout (see the shipped fixtures for a complete example):

    {
      "field": {"kind": "rationals"}            | {"kind": "prime-field",
                                                   "characteristic": p},
      "objects": ["*"],
      "basis": [{"name": "1", "source": "*", "target": "*", "degree": 0}, ...],
      "units": {"*": "1"},
      "mult": [{"arity": 2, "inputs": ["e", "e"], "output": {"t": "1"}}, ...],
      "filtration": [[{"1": "1"}, ...], ...],       # optional, one-object only
      "cochain": {"arity": 2, "table": [...]},      # optional
      "kappa": 1                                    # optional
    }

Scalars are decimal strings "a/b" (rationals) or integers mod p; no floats
are accepted anywhere.  Omitted multiplication entries mean zero and tables
never store zero vectors.  Unknown fields are rejected.  Serialization is
canonical: serialize(parse(serialize(x))) is byte-identical to serialize(x).
Spec files and the CLI's reports are written by one writer, byte for byte as
``json.dumps(obj, indent=2)`` (plus a newline for files) would write them.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .ainf import AInfCategory, CategoryError
from .filtration import Filtration, FiltrationError
from .linalg import GradedSpace, LinAlgError, Subspace
from .scalars import ExactField, FieldError


class SpecError(ValueError):
    pass


def _require_keys(obj: dict, required, optional=(), where="top level"):
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SpecError(f"unknown fields {sorted(unknown)} at {where}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SpecError(f"missing fields {missing} at {where}")


def _is_int(x) -> bool:
    """Whether ``x`` is a JSON integer: ``true`` and ``false`` are not."""
    return isinstance(x, int) and not isinstance(x, bool)


class WorkbenchSpec:
    """Parsed and structurally validated input file."""

    def __init__(self, category, filtration, cochain, kappa):
        self.category = category
        self.filtration = filtration
        self.cochain = cochain  # raw dict {"arity": n, "table": {...}} or None
        self.kappa = kappa


def parse_field(obj) -> ExactField:
    if not isinstance(obj, dict):
        raise SpecError("field must be an object")
    _require_keys(obj, ["kind"], ["characteristic"], "field")
    kind = obj["kind"]
    if kind == "rationals":
        p = obj.get("characteristic", 0)
        if not _is_int(p) or p != 0:  # false and 0.0 equal 0 in Python
            raise SpecError("rationals have characteristic 0")
        return ExactField(0)
    if kind == "prime-field":
        p = obj.get("characteristic")
        if not _is_int(p):
            raise SpecError("prime-field needs an integer characteristic")
        try:
            return ExactField(p)
        except FieldError as exc:
            raise SpecError(str(exc)) from None
    raise SpecError(f"unknown field kind {kind!r}")


def parse_spec_dict(data: dict) -> WorkbenchSpec:
    if not isinstance(data, dict):
        raise SpecError("input must be a JSON object")
    _require_keys(
        data,
        ["field", "objects", "basis", "units", "mult"],
        ["filtration", "cochain", "kappa"],
    )
    field = parse_field(data["field"])

    objects = data["objects"]
    if not isinstance(objects, list) or not all(isinstance(o, str) for o in objects):
        raise SpecError("objects must be a list of strings")

    hom_labels: dict = {}
    hom_degrees: dict = {}
    seen = set()
    if not isinstance(data["basis"], list):
        raise SpecError("basis must be a list")
    for k, row in enumerate(data["basis"]):
        if not isinstance(row, dict):
            raise SpecError(f"basis entry #{k} must be an object")
        _require_keys(row, ["name", "source", "target", "degree"], (), f"basis entry #{k}")
        name, srco, tgto, deg = row["name"], row["source"], row["target"], row["degree"]
        if not isinstance(name, str):
            raise SpecError(f"basis entry #{k}: name must be a string")
        if name in seen:
            raise SpecError(f"duplicate basis label {name!r} (basis entry #{k})")
        seen.add(name)
        if srco not in objects or tgto not in objects:
            raise SpecError(f"basis entry #{k} ({name!r}): unknown source/target object")
        if not _is_int(deg):
            raise SpecError(f"basis entry #{k} ({name!r}): degree must be an integer")
        hom_labels.setdefault((srco, tgto), []).append(name)
        hom_degrees.setdefault((srco, tgto), []).append(deg)

    hom = {
        key: GradedSpace(tuple(ls), tuple(hom_degrees[key]))
        for key, ls in hom_labels.items()
    }

    units = data["units"]
    if not isinstance(units, dict):
        raise SpecError("units must be an object mapping object -> basis name")
    for x, u in units.items():
        if x not in objects:
            raise SpecError(f"unit given for unknown object {x!r}")
        if not isinstance(u, str):
            raise SpecError(f"unit of object {x!r} must be a basis name")

    if not isinstance(data["mult"], list):
        raise SpecError("mult must be a list of entries")
    mult: dict = {}
    for k, row in enumerate(data["mult"]):
        if not isinstance(row, dict):
            raise SpecError(f"mult entry #{k} must be an object")
        _require_keys(row, ["arity", "inputs", "output"], (), f"mult entry #{k}")
        p = row["arity"]
        if not _is_int(p) or p < 1:
            raise SpecError(f"mult entry #{k}: arity must be a positive integer")
        _read_entry(row, p, seen, field, mult.setdefault(p, {}), f"mult entry #{k}")

    try:
        category = AInfCategory(field, tuple(objects), hom, units, mult)
    except (CategoryError, LinAlgError) as exc:
        raise SpecError(str(exc)) from None

    filtration = None
    if "filtration" in data:
        filtration = _parse_filtration(data["filtration"], category)

    cochain = None
    if "cochain" in data:
        cochain = _parse_cochain(data["cochain"], category)

    kappa = None
    if "kappa" in data:
        kappa = data["kappa"]
        if not _is_int(kappa) or kappa < 1:
            raise SpecError("kappa must be a positive integer")

    return WorkbenchSpec(category, filtration, cochain, kappa)


def _parse_filtration(levels, category: AInfCategory) -> Filtration:
    if len(category.objects) != 1:
        raise SpecError("filtration sections require a one-object category")
    obj = category.objects[0]
    space = category.hom[(obj, obj)]
    field = category.field
    if not isinstance(levels, list):
        raise SpecError("filtration must be a list of levels")
    subs = []
    for i, level in enumerate(levels):
        if not isinstance(level, list):
            raise SpecError(f"filtration level #{i} must be a list of combinations")
        vecs = []
        for combo in level:
            if not isinstance(combo, dict):
                raise SpecError(f"filtration level #{i}: combinations are objects")
            v = {}
            for lab, c in combo.items():
                if lab not in space.labels:
                    raise SpecError(f"filtration level #{i}: unknown basis name {lab!r}")
                try:
                    v[space.index(lab)] = field.parse(c)
                except FieldError as exc:
                    raise SpecError(f"filtration level #{i}: {exc}") from None
            vecs.append(v)
        subs.append(Subspace(space, field, vecs))
    try:
        return Filtration(category, subs)
    except FiltrationError as exc:
        raise SpecError(str(exc)) from None


def _parse_cochain(obj, category: AInfCategory) -> dict:
    if not isinstance(obj, dict):
        raise SpecError("cochain must be an object")
    _require_keys(obj, ["arity", "table"], (), "cochain")
    n = obj["arity"]
    if not _is_int(n) or n < 1:
        raise SpecError("cochain arity must be a positive integer")
    if not isinstance(obj["table"], list):
        raise SpecError("cochain table must be a list of entries")
    table = {}
    labels = set(category.all_labels())
    for k, row in enumerate(obj["table"]):
        if not isinstance(row, dict):
            raise SpecError(f"cochain entry #{k} must be an object")
        _require_keys(row, ["inputs", "output"], (), f"cochain entry #{k}")
        _read_entry(row, n, labels, category.field, table, f"cochain entry #{k}")
    return {"arity": n, "table": table}


def _read_entry(row: dict, n: int, names, field: ExactField, table: dict, where: str) -> None:
    """Add one mult or cochain row to ``table``, keyed by its inputs (a list
    of exactly ``n`` names in ``names``), its output (an object mapping names
    in ``names`` to scalars of ``field``) as the value.  SpecError for any
    other row, and for a key already in ``table``."""
    inputs, output = row["inputs"], row["output"]
    if not isinstance(inputs, list) or len(inputs) != n:
        raise SpecError(f"{where}: inputs must list exactly {n} names")
    for lab in inputs:
        if not isinstance(lab, str) or lab not in names:
            raise SpecError(f"{where}: unknown basis name {lab!r}")
    if not isinstance(output, dict):
        raise SpecError(f"{where}: output must be an object")
    vec = {}
    for lab, c in output.items():
        if lab not in names:
            raise SpecError(f"{where}: unknown basis name {lab!r} in output")
        try:
            vec[lab] = field.parse(c)
        except FieldError as exc:
            raise SpecError(f"{where}: {exc}") from None
    key = tuple(inputs)
    if key in table:
        raise SpecError(f"{where}: duplicate entry for {key}")
    table[key] = vec


def _read_json(path):
    """The JSON value in the file at ``path``; SpecError if it cannot be read
    or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def parse_spec(path) -> WorkbenchSpec:
    return parse_spec_dict(_read_json(path))


# ---------------------------------------------------------------------------
# canonical serialization


def field_to_dict(field: ExactField) -> dict:
    if field.characteristic == 0:
        return {"kind": "rationals"}
    return {"kind": "prime-field", "characteristic": field.characteristic}


def category_to_dict(cat: AInfCategory, filtration: Filtration | None = None,
                     cochain: dict | None = None, kappa: int | None = None) -> dict:
    field = cat.field
    objects = [str(x) for x in cat.objects]
    rename = {x: str(x) for x in cat.objects}
    basis = []
    for x in cat.objects:
        for y in cat.objects:
            sp = cat.hom[(x, y)]
            for lab, d in zip(sp.labels, sp.degrees):
                basis.append(
                    {"name": str(lab), "source": rename[x], "target": rename[y], "degree": d}
                )
    units = {rename[x]: str(u) for x, u in sorted(cat.units.items(), key=lambda kv: str(kv[0]))}

    def entries(table: dict) -> list:
        """The entries of a table of label tuples, sorted by key and by output label."""
        return [{"inputs": [str(l) for l in key],
                 "output": {str(lab): field.unparse(c)
                            for lab, c in sorted(table[key].items(), key=lambda kv: str(kv[0]))}}
                for key in sorted(table, key=lambda t: [str(l) for l in t])]

    mult = [{"arity": p, **entry} for p in sorted(cat.mult) for entry in entries(cat.mult[p])]
    data = {
        "field": field_to_dict(field),
        "objects": objects,
        "basis": basis,
        "units": units,
        "mult": mult,
    }
    if filtration is not None:
        obj = cat.objects[0]
        space = cat.hom[(obj, obj)]
        levels = []
        for lv in filtration.levels:
            level = []
            for row in lv.rows:  # keys in ascending basis index
                level.append({str(space.labels[i]): field.unparse(c) for i, c in row.items()})
            levels.append(level)
        data["filtration"] = levels
    if cochain is not None:
        data["cochain"] = {"arity": cochain["arity"], "table": entries(cochain["table"])}
    if kappa is not None:
        data["kappa"] = kappa
    return data


def serialize(data: dict) -> str:
    return _dumps(data) + "\n"


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


# Encoders of the scalar types, looked up by exact type; subclasses take the
# isinstance path in _encode, as in json.
_LEAVES = {
    str: _quote,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    float: _float,
}


def _key(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, int) and not isinstance(key, bool):
        return _quote(int.__repr__(key))
    raise TypeError(f"keys must be str or int, not {type(key).__name__}")


def _encode(obj, newline: str, put) -> None:
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        put(leaf(obj))
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            put(sep + (_quote(key) if type(key) is str else _key(key)) + ": ")
            leaf = _LEAVES.get(type(value))
            if leaf is not None:
                put(leaf(value))
            else:
                _encode(value, inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            put(sep)
            leaf = _LEAVES.get(type(value))
            if leaf is not None:
                put(leaf(value))
            else:
                _encode(value, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(obj, str):
        put(_quote(obj))
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, float):
        put(_float(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, about twice as fast: with
    ``indent`` the stdlib runs its pure-Python encoder.  Strings go through
    the C ``encode_basestring_ascii``, numbers through ``int.__repr__`` and
    ``float.__repr__``, and the pieces are joined once.  Dict keys must be
    str or int; any other key, or a value json cannot encode, raises
    TypeError."""
    pieces: list = []
    _encode(obj, "\n", pieces.append)
    return "".join(pieces)
