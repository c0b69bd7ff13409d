"""JSON-able serialization of queries.

Workloads, regression corpora and cross-tool exchanges need queries on
disk.  The format distinguishes variables from constants explicitly
(``{"var": "x"}`` vs ``{"const": 3}``), keeps atom multiplicity, and
round-trips CQs, CQs-with-inequalities and UCQs losslessly::

    data = query_to_dict(query)
    json.dumps(data)                      # plain lists/dicts/strings
    query == query_from_dict(data)        # True
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from .atoms import Atom, Var, is_var
from .ccq import CQWithInequalities
from .cq import CQ
from .ucq import UCQ

__all__ = ["query_to_dict", "query_from_dict", "term_to_dict",
           "term_from_dict"]


def term_to_dict(term) -> dict:
    """Serialize one term: ``{"var": name}`` or ``{"const": value}``.

    The single wire encoding for terms, shared by query serialization
    and the certificate documents of :mod:`repro.api.documents`.
    """
    if is_var(term):
        return {"var": term.name}
    return {"const": term}


def term_from_dict(data: dict):
    """Inverse of :func:`term_to_dict`.

    A variable's name must be a string, and a constant must be
    hashable: a JSON list or object cannot be a term.
    """
    if not isinstance(data, Mapping):
        raise TypeError(f"a term must be an object, got "
                        f"{type(data).__name__}")
    if "var" in data:
        name = data["var"]
        if not isinstance(name, str):
            raise TypeError(f"variable name {name!r} is not a string")
        return Var(name)
    if "const" in data:
        value = data["const"]
        if isinstance(value, (list, Mapping)):
            raise TypeError(f"constant {value!r} is not hashable")
        return value
    raise ValueError(f"not a term: {data!r}")


# Back-compat private aliases (internal callers predate the public names).
_term_to_dict = term_to_dict
_term_from_dict = term_from_dict


def query_to_dict(query) -> dict[str, Any]:
    """Serialize a CQ, CCQ or UCQ to plain JSON-able data."""
    if isinstance(query, UCQ):
        return {
            "kind": "ucq",
            "members": [query_to_dict(member) for member in query],
        }
    if isinstance(query, CQ):
        data: dict[str, Any] = {
            "kind": "cq",
            "head": [_term_to_dict(var) for var in query.head],
            "atoms": [
                {
                    "relation": atom.relation,
                    "terms": [_term_to_dict(term) for term in atom.terms],
                }
                for atom in query.atoms
            ],
        }
        inequalities = getattr(query, "inequalities", None)
        if inequalities:
            data["kind"] = "ccq"
            data["inequalities"] = sorted(
                sorted(var.name for var in pair) for pair in inequalities
            )
        return data
    raise TypeError(f"cannot serialize {type(query).__name__}")


def query_from_dict(data: dict) -> CQ | UCQ:
    """Inverse of :func:`query_to_dict`.

    Malformed documents are refused here, with the part at fault named,
    rather than failing later inside a decision: a union member must be
    a CQ document (unions do not nest), and relation and variable names
    must be strings.
    """
    if not isinstance(data, Mapping):
        raise TypeError(f"a query document must be an object, got "
                        f"{type(data).__name__}")
    kind = data.get("kind")
    if kind == "ucq":
        members = tuple(query_from_dict(member)
                        for member in _list(data, "members"))
        if not all(isinstance(member, CQ) for member in members):
            raise ValueError("union members must be CQs")
        return UCQ(members)
    if kind in ("cq", "ccq"):
        head = tuple(_term_from_dict(term) for term in _list(data, "head"))
        atoms = []
        for entry in _list(data, "atoms"):
            if not isinstance(entry, Mapping):
                raise TypeError(f"an atom must be an object, got "
                                f"{type(entry).__name__}")
            relation = entry.get("relation")
            if not isinstance(relation, str):
                raise TypeError(
                    f"relation name {relation!r} is not a string")
            atoms.append(Atom(relation, tuple(
                _term_from_dict(term) for term in _list(entry, "terms"))))
        if kind == "ccq" or data.get("inequalities"):
            pairs = []
            for pair in _list(data, "inequalities", ()):
                if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                        or not all(isinstance(name, str) for name in pair)):
                    raise TypeError(f"an inequality must be a pair of "
                                    f"variable names, got {pair!r}")
                pairs.append((Var(pair[0]), Var(pair[1])))
            return CQWithInequalities(head, atoms, pairs)
        return CQ(head, atoms)
    raise ValueError(f"unknown query kind: {kind!r}")


def _list(data: dict, field: str, default=None) -> list:
    """``data[field]``, which must be a JSON list (``default`` when the
    field is absent, if given)."""
    if field not in data and default is not None:
        return default
    value = data[field]
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"query field {field!r} must be a list, got "
                        f"{type(value).__name__}")
    return value
