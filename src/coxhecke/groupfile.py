"""Group description files.

A group file is a JSON document with two fields:

    {
      "generators": ["s", "t", "u"],
      "commuting_pairs": [["t", "u"]]
    }

``generators`` is the ordered list of distinct generator names;
``commuting_pairs`` lists the unordered pairs with m(s,t) = 2 (it may be
omitted when empty).  Any pair not listed does not commute.  Duplicate or
self pairs, unknown names, and malformed documents are parse errors with
position information where available.
"""

from __future__ import annotations

import json
from pathlib import Path

from .coxeter import CoxeterSystem
from .errors import InputError, ParseError


def parse_system(text: str) -> CoxeterSystem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from None
    except ValueError:  # JSON's other error: a number past the digit limit
        raise ParseError("number exceeds Python's int-to-str digit limit") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("group file must be a JSON object")
    unknown = set(doc) - {"generators", "commuting_pairs"}
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    gens = doc.get("generators")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise ParseError("'generators' must be a list of strings")
    pairs = doc.get("commuting_pairs", [])
    if not isinstance(pairs, list):
        raise ParseError("'commuting_pairs' must be a list of pairs")
    clean_pairs = []
    for entry in pairs:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not all(isinstance(x, str) for x in entry)):
            raise ParseError(f"bad commuting pair {entry!r}")
        clean_pairs.append(tuple(entry))
    try:
        return CoxeterSystem(gens, clean_pairs)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def load_system(path) -> CoxeterSystem:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"group file is not valid UTF-8 (byte {exc.start})") from None
    except OSError as exc:
        raise InputError(f"cannot read group file: {exc}") from None
    return parse_system(text)
