"""SQL tokenizer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..common import QueryError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "limit", "as",
    "and", "or", "not", "between", "in", "like", "join", "inner", "on",
    "insert", "into", "values", "update", "set", "delete", "asc", "desc",
    "distinct", "null", "count", "sum", "avg", "min", "max", "having",
}

_PUNCT = ("<=", ">=", "!=", "<>", "(", ")", ",", "*", "+", "-", "/", "=",
          "<", ">", ".", ";", "?")


@dataclass(frozen=True)
class Token:
    """One lexical token: kind in {keyword,name,number,string,punct,end}."""

    kind: str
    value: object
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.value == word

    def is_punct(self, symbol: str) -> bool:
        return self.kind == "punct" and self.value == symbol


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises QueryError with position on bad input."""
    tokens: List[Token] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        # String literal.
        if char == "'":
            end = index + 1
            parts = []
            while True:
                if end >= length:
                    raise QueryError("unterminated string at %d" % index)
                if text[end] == "'":
                    if end + 1 < length and text[end + 1] == "'":
                        parts.append("'")
                        end += 2
                        continue
                    break
                parts.append(text[end])
                end += 1
            tokens.append(Token("string", "".join(parts), index))
            index = end + 1
            continue
        # Number.
        if char.isdigit() or (
            char == "." and index + 1 < length and text[index + 1].isdigit()
        ):
            end = index
            seen_dot = False
            while end < length and (
                text[end].isdigit() or (text[end] == "." and not seen_dot)
            ):
                if text[end] == ".":
                    # A dot not followed by a digit terminates the number
                    # (e.g. "t1.c" after "1" is impossible, but be strict).
                    if end + 1 >= length or not text[end + 1].isdigit():
                        break
                    seen_dot = True
                end += 1
            raw = text[index:end]
            value = float(raw) if "." in raw else int(raw)
            tokens.append(Token("number", value, index))
            index = end
            continue
        # Identifier or keyword.
        if char.isalpha() or char == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[index:end]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, index))
            else:
                tokens.append(Token("name", word, index))
            index = end
            continue
        # Punctuation (longest match first).
        for symbol in _PUNCT:
            if text.startswith(symbol, index):
                value = "!=" if symbol == "<>" else symbol
                tokens.append(Token("punct", value, index))
                index += len(symbol)
                break
        else:
            raise QueryError("unexpected character %r at %d" % (char, index))
    tokens.append(Token("end", None, length))
    return tokens
