"""The reference literal lifter the statement cache's split is checked
against.

This is the one-callback-per-token lifter the engine used on every
statement before skeletons existed (it still runs on a skeleton's first
sighting, inside :mod:`repro.sqlparser.shape`).  It is frozen here so
that the engine's split can change while this stays the definition of
a shape: ``tests/test_statement_shapes.py`` requires the engine to
return exactly what :func:`oracle_shape` returns — the shape, and every
constant's value and type.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.sqlparser.tokens import KEYWORDS

_LIFTED_KINDS = re.compile(r"[ \t\r\n]*(?:select|insert|delete|update)\b", re.I)

_TOKEN = re.compile(
    r"(?P<word>[A-Za-z_][A-Za-z0-9_$]*)"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<space>(?:[ \t\r\n]+|--[^\n]*|/\*.*?\*/)+)"
    r"|(?P<string>'(?:[^']|'')*')"
    r'|(?P<quoted>"(?:[^"]|"")*")',
    re.DOTALL,
)


def oracle_shape(sql: str) -> Optional[tuple[str, tuple]]:
    """``(shape, constants)`` of ``sql``, or None when it is not lifted."""
    if _LIFTED_KINDS.match(sql) is None:
        return None
    constants: list = []

    def lift(match) -> str:
        kind = match.lastgroup
        text = match.group()
        if kind == "word":
            upper = text.upper()
            return upper if upper in KEYWORDS else text
        if kind == "number":
            if "." in text or "e" in text or "E" in text:
                constants.append(float(text))
            else:
                constants.append(int(text))
            return "?"
        if kind == "space":
            return " "
        if kind == "string":
            constants.append(text[1:-1].replace("''", "'"))
            return "?"
        return text  # a quoted identifier

    shape = _TOKEN.sub(lift, sql).strip(" ")
    if shape.count("?") != len(constants):
        return None
    return shape, tuple(constants)
