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

The full split is one compiled-regex pass over every token, not the
lexer.  What it changes:

* numeric literals (``12``, ``3.5``, ``1e6`` — the sign is an operator
  and stays in the shape) and string literals (``''`` unescaped) become
  ``?``;
* runs of whitespace and comments become one space, leading and
  trailing ones nothing;
* keywords are upper-cased.

Everything else is kept as written: identifiers (their case reaches
result column names), quoted identifiers, operators, and ``NULL`` /
``TRUE`` / ``FALSE`` — a different truth value is a different shape.

That pass calls back into Python once per token.  A text the engine
has split before skips it: :class:`ShapeSplitter` masks only the
literals, in one pass with no callback, and the result — the text's
*skeleton*, spelling kept — maps to the shape its first sighting got
from the full split.  Texts with a quoted identifier or a comment
always take the full split.
"""

from __future__ import annotations

import re
import threading
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

# The literals alone: a string literal (group 1 is its body), or a
# number (group 2) no word character precedes.  In text without quoted
# identifiers and comments these are the tokens ``_TOKEN`` lifts, with
# one exception — a number right after a bare ``$`` — which
# :meth:`ShapeSplitter.__call__` catches on a skeleton's first sighting.
_LITERAL = re.compile(
    r"'((?:[^']|'')*)'"
    r"|(?<![A-Za-z0-9_$])([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
)


def _number(text: str):
    return int(text) if text.isdigit() else float(text)


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
            constants.append(_number(text))
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


class ShapeSplitter:
    """:func:`statement_shape` that remembers up to ``capacity``
    skeletons.

    A call masks the text's literals (one ``re.split``, no callback)
    and looks the skeleton up; on a hit the shape is the remembered
    one and the constants are the masked literals.  A miss runs the
    full split and remembers the skeleton when the masked literals are
    exactly the constants it lifted.  A hit also needs as many literals
    as the remembered shape has ``?``: a skeleton is the text with
    ``?`` for each literal, so a user's own ``?`` can make two texts
    share one, and then the count tells them apart.  Past ``capacity``
    the oldest skeleton is dropped.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        #: skeleton -> (shape, number of constants)
        self._shapes: dict[str, tuple[str, int]] = {}
        self._lock = threading.Lock()

    def __call__(self, sql: str) -> Optional[tuple[str, tuple]]:
        if '"' in sql or "--" in sql or "/*" in sql:
            return statement_shape(sql)
        parts = _LITERAL.split(sql)
        skeleton = "?".join(parts[::3])
        constants = tuple(
            [
                body.replace("''", "'") if number is None else _number(number)
                for body, number in zip(parts[1::3], parts[2::3])
            ]
        )
        known = self._shapes.get(skeleton)
        if known is not None and known[1] == len(constants):
            return known[0], constants
        split = statement_shape(sql)
        if split is not None and split[1] == constants:
            with self._lock:
                shapes = self._shapes
                if shapes and len(shapes) >= self.capacity:
                    del shapes[next(iter(shapes))]
                shapes[skeleton] = (split[0], len(constants))
        return split

    def __len__(self) -> int:
        return len(self._shapes)
