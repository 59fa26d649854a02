"""SQL tokenizer.

Produces a flat token stream for the recursive-descent parser.  The
accepted lexicon covers the paper's entire workload: SELECT/FROM/WHERE
joins, GROUP BY, ORDER BY, aggregates, BETWEEN, IN, arithmetic and
comparison operators, string/number literals, qualified identifiers and
``--`` line comments, and the two parameter-placeholder spellings
(``@name`` named markers and positional ``?`` markers).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.common.errors import LexError

KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "asc", "desc",
    "and", "or", "as", "between", "in", "limit", "not", "distinct",
    "having", "sum", "count", "avg", "min", "max",
}


class TokenType(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"  # = < > <= >= <> != + - * / %
    PUNCT = "punct"  # ( ) , . ; * ?
    END = "end"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type == TokenType.KEYWORD and self.value == word.lower()


# Lexical patterns, shared with the statement normalizer
# (:func:`repro.sql.prepared.parameterize`) so both read literals alike.
COMMENT = r"--[^\n]*"
WORD = r"(?:@|[^\W\d])[\w#]*"
# A dot is consumed only when a digit follows: "1." before an
# identifier is a qualified-reference typo, not a float.
NUMBER = r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?"
# What follows a string's opening quote: a closing quote is one no quote
# follows ('' inside is an escaped quote).
STRING_TAIL = {quote: rf"(?:[^{quote}]|{quote}{quote})*{quote}(?!{quote})"
               for quote in "'\""}
STRING = "|".join(quote + tail for quote, tail in STRING_TAIL.items())

# '*' is multiplication in expressions and the star in SELECT * /
# COUNT(*); it lexes as punctuation and the parser disambiguates.
_TOKEN = re.compile(
    rf"\s+|{COMMENT}|(?P<word>{WORD})|(?P<number>{NUMBER})"
    rf"|(?P<string>{STRING})|(?P<operator><=|>=|<>|!=|[=<>+\-/%])"
    r"|(?P<punct>[(),.;*?])|(?P<bad>.)",
    re.DOTALL,
)


def unquote(literal: str) -> str:
    """The value of a STRING lexeme: quotes stripped, doubled quotes
    collapsed."""
    quote = literal[0]
    return literal[1:-1].replace(quote + quote, quote)


def tokenize(text: str) -> list[Token]:
    """Convert SQL text into a token list terminated by an END token."""
    tokens: list[Token] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:  # whitespace or a comment
            continue
        value, start = match.group(), match.start()
        if kind == "word":
            lowered = value.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, lowered, start))
            else:
                tokens.append(Token(TokenType.IDENT, value, start))
        elif kind == "string":
            tokens.append(Token(TokenType.STRING, unquote(value), start))
        elif kind == "bad":
            if value in "'\"":
                raise LexError("unterminated string literal", start)
            raise LexError(f"unexpected character {value!r}", start)
        else:
            tokens.append(Token(TokenType(kind), value, start))
    tokens.append(Token(TokenType.END, "", len(text)))
    return tokens
