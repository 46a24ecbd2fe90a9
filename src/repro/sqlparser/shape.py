"""Statement shapes: SQL text with its constants lifted out.

``… WHERE o_orderkey = 4711`` and ``… WHERE o_orderkey = 4712`` are the
same statement called with different constants.  :func:`statement_shape`
splits a SELECT/INSERT/DELETE/UPDATE text into that call pattern — the
*shape*, with a ``?`` where each numeric or string literal stood — and
the tuple of lifted values.  The shape keys the engine's statement
cache (:mod:`repro.minidb.database`), so a repeated shape is parsed and
planned once (:func:`repro.sqlparser.parser.parse_shape`) however its
constants are spelled: tabling on the call pattern rather than on the
ground call.

The split is one compiled-regex pass, not the lexer.  What it changes:

* numeric literals (``12``, ``3.5``, ``1e6`` — the sign is an operator
  and stays in the shape) and string literals (``''`` unescaped) become
  ``?``;
* runs of whitespace and comments become one space, leading and
  trailing ones nothing;
* keywords are upper-cased.

Everything else is kept as written: identifiers (their case reaches
result column names), quoted identifiers, operators, and ``NULL`` /
``TRUE`` / ``FALSE`` — a different truth value is a different shape.
"""

from __future__ import annotations

import re
from typing import Optional

from .tokens import KEYWORDS

#: the statement kinds whose text is split; DDL, CALL, TRUNCATE and
#: EXPLAIN are left to the parser as written
_LIFTED_KINDS = re.compile(r"[ \t\r\n]*(?:select|insert|delete|update)\b", re.I)

# Words are matched (and so consumed) whole, which is what keeps the
# digits of ``t1`` or ``e8Bound1`` from being read as numbers; the
# number pattern is the lexer's.
_TOKEN = re.compile(
    r"(?P<word>[A-Za-z_][A-Za-z0-9_$]*)"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<space>(?:[ \t\r\n]+|--[^\n]*|/\*.*?\*/)+)"
    r"|(?P<string>'(?:[^']|'')*')"
    r'|(?P<quoted>"(?:[^"]|"")*")',
    re.DOTALL,
)


def statement_shape(sql: str) -> Optional[tuple[str, tuple]]:
    """Split ``sql`` into ``(shape, constants)``.

    Returns ``None`` for text that is not a SELECT/INSERT/DELETE/UPDATE
    or that itself contains a ``?`` outside a string literal; such
    text is parsed as written.
    """
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
