"""Token definitions for the SQL lexer."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto


class TokenType(Enum):
    """Lexical category of a token."""

    IDENT = auto()      # identifiers: table/column/alias names
    KEYWORD = auto()    # reserved words, normalized to upper case
    NUMBER = auto()     # integer or decimal literal
    STRING = auto()     # single-quoted string literal
    OPERATOR = auto()   # symbols: = <> < <= > >= + - * / ( ) , . ;
    PARAM = auto()      # a lifted-constant placeholder (statement shapes only)
    EOF = auto()        # end of input


#: Reserved words recognized by the lexer.  Identifiers matching one of
#: these (case-insensitively) are emitted as KEYWORD tokens with an
#: upper-cased value.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "AS", "AND", "OR", "NOT", "EXISTS",
        "IN", "IS", "NULL", "TRUE", "FALSE", "UNION", "ALL", "DISTINCT",
        "JOIN", "INNER", "CROSS", "ON", "BETWEEN", "CREATE", "TABLE",
        "VIEW", "ASSERTION", "CHECK", "DROP", "INSERT", "INTO", "VALUES",
        "DELETE", "UPDATE", "SET", "PRIMARY", "KEY", "FOREIGN",
        "REFERENCES", "UNIQUE", "CONSTRAINT", "DEFAULT", "BEGIN",
        "COMMIT", "ROLLBACK", "TRANSACTION", "TRUNCATE", "CALL", "LIKE",
        "EXPLAIN", "ANALYZE",
    }
)

#: Multi-character operators, tried before single-character ones.
TWO_CHAR_OPERATORS = ("<>", "<=", ">=", "!=")

#: Single-character operators and punctuation.
ONE_CHAR_OPERATORS = "=<>+-*/(),.;"


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` holds the normalized text: keywords are upper-cased,
    identifiers keep their original spelling (the engine compares them
    case-insensitively), strings are unquoted, numbers keep their
    source text (the parser converts them).
    """

    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, *words: str) -> bool:
        """Return True if this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in words

    def is_operator(self, *symbols: str) -> bool:
        """Return True if this token is one of the given operator symbols."""
        return self.type is TokenType.OPERATOR and self.value in symbols

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.name}({self.value!r})@{self.line}:{self.column}"
