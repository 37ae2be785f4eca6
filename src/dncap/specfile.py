"""System-spec documents: the JSON interchange format for channel models.

A spec document is an object with a "kind" field:

  {"kind": "memoryless", "symbols": [{"label": "0", "weight": "1"}, ...]}
  {"kind": "fsm", "states": 2, "start": 0,
   "transitions": [{"from": 0, "label": "a", "weight": "1/2", "to": 1}, ...]}
  {"kind": "builtin", "name": "dyck_prefix"}
  {"kind": "builtin", "name": "rll", "d": 1, "k": 3}

Weights are strings holding a decimal ("0.3") or a ratio ("3/10"); both are
parsed as exact rationals.
"""

import json

from .errors import SpecFileError
from .systems import (
    BranchSystem,
    Symbol,
    WeightedFsm,
    fsm_to_branch_system,
    make_dyck_prefix,
    make_memoryless,
    make_rll,
)

KINDS = ("memoryless", "fsm", "builtin")
BUILTINS = ("dyck_prefix", "rll")
_JSON_NAMES = {int: "an integer", str: "a string", list: "an array"}


def _require(doc: dict, field: str, types, where: str):
    if field not in doc:
        raise SpecFileError(f"{where}: missing field {field!r}")
    value = doc[field]
    # JSON true/false load as bool, a subclass of int, and are no integers.
    if isinstance(value, bool) or not isinstance(value, types):
        raise SpecFileError(
            f"{where}.{field}: expected {_JSON_NAMES[types]}, got {type(value).__name__}"
        )
    return value


def _parse_symbol(entry, where: str, interned: dict) -> Symbol:
    """The entry's symbol, built once per distinct (label, weight) pair."""
    if not isinstance(entry, dict):
        raise SpecFileError(f"{where}: symbol entries must be objects")
    key = _require(entry, "label", str, where), _require(entry, "weight", str, where)
    if key not in interned:
        try:
            interned[key] = Symbol(*key)
        except ValueError as exc:
            field = "label" if str(exc).startswith("symbol label") else "weight"
            raise SpecFileError(f"{where}.{field}: {exc}") from exc
    return interned[key]


def parse_system(doc: dict) -> BranchSystem:
    """Validate a spec document and build the channel it describes."""
    if not isinstance(doc, dict):
        raise SpecFileError("spec document must be a JSON object")
    kind = _require(doc, "kind", str, "spec")
    if kind not in KINDS:
        raise SpecFileError(f"spec.kind: unknown kind {kind!r}, want one of {KINDS}")
    interned: dict[tuple[str, str], Symbol] = {}

    if kind == "memoryless":
        entries = _require(doc, "symbols", list, "spec")
        alphabet = tuple(
            _parse_symbol(entry, f"spec.symbols[{i}]", interned)
            for i, entry in enumerate(entries)
        )
        try:
            return make_memoryless(alphabet)
        except ValueError as exc:
            raise SpecFileError(f"spec.symbols: {exc}") from exc

    if kind == "fsm":
        num_states = _require(doc, "states", int, "spec")
        start = _require(doc, "start", int, "spec")
        rows = _require(doc, "transitions", list, "spec")
        transitions = []
        for i, row in enumerate(rows):
            # a row of two JSON integers and a pair seen before is taken as
            # it is; any other is checked field by field, which names its
            # fault or interns its pair
            if isinstance(row, dict) and type(row.get("from")) is type(row.get("to")) is int:
                try:
                    sym = interned[row.get("label"), row.get("weight")]
                    transitions.append((row["from"], sym, row["to"]))
                    continue
                except (KeyError, TypeError):  # a new pair, or an unhashable value
                    pass
            where = f"spec.transitions[{i}]"
            if not isinstance(row, dict):
                raise SpecFileError(f"{where}: must be an object")
            src = _require(row, "from", int, where)
            dst = _require(row, "to", int, where)
            transitions.append((src, _parse_symbol(row, where, interned), dst))
        try:
            fsm = WeightedFsm(num_states, start, tuple(transitions))
        except ValueError as exc:
            raise SpecFileError(f"spec: {exc}") from exc
        return fsm_to_branch_system(fsm)

    name = _require(doc, "name", str, "spec")
    if name not in BUILTINS:
        raise SpecFileError(
            f"spec.name: unknown builtin {name!r}, want one of {BUILTINS}"
        )
    if name == "dyck_prefix":
        return make_dyck_prefix()
    d = _require(doc, "d", int, "spec")
    k = _require(doc, "k", int, "spec")
    try:
        return fsm_to_branch_system(make_rll(d, k))
    except ValueError as exc:
        raise SpecFileError(f"spec: {exc}") from exc


def load_system(path: str) -> tuple[BranchSystem, dict]:
    """Read a spec file; returns the system and the raw document for echoing."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise SpecFileError(f"{path}: JSON nested too deeply") from None
    return parse_system(doc), doc
