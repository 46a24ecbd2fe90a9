"""Hand-written lexer for the supported SQL fragment.

The lexer is deliberately simple: SQL's lexical structure for the
fragment TINTIN accepts needs only identifiers, keywords, numeric and
string literals, a small operator set, and ``--`` line comments plus
``/* */`` block comments.
"""

from __future__ import annotations

from ..errors import SQLSyntaxError
from .tokens import (
    KEYWORDS,
    ONE_CHAR_OPERATORS,
    TWO_CHAR_OPERATORS,
    Token,
    TokenType,
)

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789$")
_DIGITS = frozenset("0123456789")


class Lexer:
    """Tokenizes SQL text into a list of :class:`Token` objects."""

    def __init__(self, text: str, placeholders: bool = False):
        self._text = text
        self._pos = 0
        self._line = 1
        self._col = 1
        #: statement shapes only (:mod:`repro.sqlparser.shape`): ``?``
        #: is a PARAM token numbered in order of appearance; in user
        #: text it stays an unexpected character
        self._placeholders = placeholders
        self._params = 0

    def tokenize(self) -> list[Token]:
        """Return the full token stream, ending with a single EOF token."""
        tokens: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self._pos >= len(self._text):
                tokens.append(Token(TokenType.EOF, "", self._line, self._col))
                return tokens
            tokens.append(self._next_token())

    # -- internals ---------------------------------------------------------

    def _error(self, message: str) -> SQLSyntaxError:
        return SQLSyntaxError(message, self._line, self._col)

    def _peek(self, offset: int = 0) -> str:
        pos = self._pos + offset
        return self._text[pos] if pos < len(self._text) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._text):
                return
            if self._text[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self._pos < len(self._text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._pos < len(self._text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            else:
                return

    def _next_token(self) -> Token:
        line, col = self._line, self._col
        ch = self._peek()

        if ch in _IDENT_START:
            return self._lex_word(line, col)
        if ch in _DIGITS:
            return self._lex_number(line, col)
        if ch == "'":
            return self._lex_string(line, col)
        if ch == '"':
            return self._lex_quoted_identifier(line, col)
        if ch == "?" and self._placeholders:
            self._advance()
            self._params += 1
            return Token(TokenType.PARAM, str(self._params - 1), line, col)

        two = self._text[self._pos : self._pos + 2]
        if two in TWO_CHAR_OPERATORS:
            self._advance(2)
            # normalize != to the standard <>
            value = "<>" if two == "!=" else two
            return Token(TokenType.OPERATOR, value, line, col)
        if ch in ONE_CHAR_OPERATORS:
            self._advance()
            return Token(TokenType.OPERATOR, ch, line, col)

        raise self._error(f"unexpected character {ch!r}")

    def _lex_word(self, line: int, col: int) -> Token:
        start = self._pos
        while self._peek() in _IDENT_CONT:
            self._advance()
        word = self._text[start : self._pos]
        upper = word.upper()
        if upper in KEYWORDS:
            return Token(TokenType.KEYWORD, upper, line, col)
        return Token(TokenType.IDENT, word, line, col)

    def _lex_number(self, line: int, col: int) -> Token:
        start = self._pos
        while self._peek() in _DIGITS:
            self._advance()
        if self._peek() == "." and self._peek(1) in _DIGITS:
            self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        # scientific notation: 1e6, 2.5E-3
        if self._peek() in ("e", "E") and (
            self._peek(1) in _DIGITS
            or (self._peek(1) in "+-" and self._peek(2) in _DIGITS)
        ):
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        return Token(TokenType.NUMBER, self._text[start : self._pos], line, col)

    def _lex_string(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        parts: list[str] = []
        while True:
            if self._pos >= len(self._text):
                raise self._error("unterminated string literal")
            ch = self._peek()
            if ch == "'":
                if self._peek(1) == "'":  # escaped quote: ''
                    parts.append("'")
                    self._advance(2)
                else:
                    self._advance()
                    return Token(TokenType.STRING, "".join(parts), line, col)
            else:
                parts.append(ch)
                self._advance()

    def _lex_quoted_identifier(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        parts: list[str] = []
        while True:
            if self._pos >= len(self._text):
                raise self._error("unterminated quoted identifier")
            ch = self._peek()
            if ch == '"':
                if self._peek(1) == '"':
                    parts.append('"')
                    self._advance(2)
                else:
                    self._advance()
                    if not parts:
                        raise self._error("empty quoted identifier")
                    return Token(TokenType.IDENT, "".join(parts), line, col)
            else:
                parts.append(ch)
                self._advance()


def tokenize(text: str, placeholders: bool = False) -> list[Token]:
    """Convenience wrapper: tokenize ``text`` into a token list."""
    return Lexer(text, placeholders).tokenize()
