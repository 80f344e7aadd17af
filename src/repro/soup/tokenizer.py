"""An HTML tokenizer producing a flat token stream.

The tokenizer is deliberately forgiving (real-world HTML is messy):
unknown entities pass through verbatim, stray ``<`` become text, and
attribute values may be single-quoted, double-quoted or bare.
``<script>`` and ``<style>`` contents are treated as raw text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, Union

_RAW_TEXT_ELEMENTS = frozenset({"script", "style"})

#: The close-tag search per raw-text element, run on the original
#: document: ASCII-only case folding, so no character outside the tag
#: name can match it and indexes stay the document's own.
_RAW_TEXT_CLOSE = {
    name: re.compile(f"</{name}", re.IGNORECASE | re.ASCII)
    for name in sorted(_RAW_TEXT_ELEMENTS)
}

_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
    "euro": "€",
    "pound": "£",
    "yen": "¥",
    "copy": "©",
    "shy": "­",
    "auml": "ä",
    "ouml": "ö",
    "uuml": "ü",
    "Auml": "Ä",
    "Ouml": "Ö",
    "Uuml": "Ü",
    "szlig": "ß",
    "eacute": "é",
    "egrave": "è",
    "agrave": "à",
    "ccedil": "ç",
    "aring": "å",
    "Aring": "Å",
    "oslash": "ø",
    "ntilde": "ñ",
}


@dataclass
class StartTag:
    name: str
    attrs: Dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


@dataclass
class EndTag:
    name: str


@dataclass
class TextToken:
    data: str


@dataclass
class CommentToken:
    data: str


@dataclass
class DoctypeToken:
    data: str


Token = Union[StartTag, EndTag, TextToken, CommentToken, DoctypeToken]


def decode_entities(text: str) -> str:
    """Replace HTML entities with their characters (forgiving)."""
    if "&" not in text:
        return text
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        semi = text.find(";", i + 1, i + 12)
        if semi < 0:
            out.append(ch)
            i += 1
            continue
        body = text[i + 1:semi]
        if body.startswith("#"):
            try:
                code = int(body[2:], 16) if body[1:2] in ("x", "X") else int(body[1:])
                out.append(chr(code))
                i = semi + 1
                continue
            except (ValueError, OverflowError):
                pass
        elif body in _ENTITIES:
            out.append(_ENTITIES[body])
            i = semi + 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def tokenize(html: str) -> Iterator[Token]:
    """Tokenize *html* into a stream of tokens."""
    i = 0
    n = len(html)
    raw_until: str = ""  # closing tag name while inside script/style
    while i < n:
        if raw_until:
            match = _RAW_TEXT_CLOSE[raw_until].search(html, i)
            if match is None:
                if i < n:
                    yield TextToken(html[i:])
                return
            close = match.start()
            if close > i:
                yield TextToken(html[i:close])
            end = html.find(">", close)
            yield EndTag(raw_until)
            i = (end + 1) if end >= 0 else n
            raw_until = ""
            continue
        lt = html.find("<", i)
        if lt < 0:
            yield TextToken(decode_entities(html[i:]))
            return
        if lt > i:
            yield TextToken(decode_entities(html[i:lt]))
        if html.startswith("<!--", lt):
            close = html.find("-->", lt + 4)
            if close < 0:
                yield CommentToken(html[lt + 4:])
                return
            yield CommentToken(html[lt + 4:close])
            i = close + 3
            continue
        if html.startswith("<!", lt):
            close = html.find(">", lt)
            if close < 0:
                yield TextToken(html[lt:])
                return
            yield DoctypeToken(html[lt + 2:close].strip())
            i = close + 1
            continue
        if html.startswith("</", lt):
            close = html.find(">", lt)
            if close < 0:
                yield TextToken(html[lt:])
                return
            name = html[lt + 2:close].strip().lower()
            if name:
                yield EndTag(name)
            i = close + 1
            continue
        tag, next_i = _read_start_tag(html, lt)
        if tag is None:
            yield TextToken("<")
            i = lt + 1
            continue
        yield tag
        i = next_i
        if tag.name in _RAW_TEXT_ELEMENTS and not tag.self_closing:
            raw_until = tag.name
    return


def _read_start_tag(html: str, lt: int):
    """Parse a start tag at *lt*; returns (StartTag|None, next_index)."""
    n = len(html)
    i = lt + 1
    start = i
    while i < n and (html[i].isalnum() or html[i] in "-_"):
        i += 1
    if i == start:
        return None, lt + 1
    name = html[start:i].lower()
    attrs: Dict[str, str] = {}
    self_closing = False
    while i < n:
        while i < n and html[i].isspace():
            i += 1
        if i >= n:
            break
        if html[i] == ">":
            i += 1
            return StartTag(name, attrs, self_closing), i
        if html.startswith("/>", i):
            self_closing = True
            i += 2
            return StartTag(name, attrs, self_closing), i
        if html[i] == "/":
            i += 1
            continue
        attr_start = i
        while i < n and html[i] not in "=/> \t\r\n":
            i += 1
        attr_name = html[attr_start:i].lower()
        while i < n and html[i].isspace():
            i += 1
        value = ""
        if i < n and html[i] == "=":
            i += 1
            while i < n and html[i].isspace():
                i += 1
            if i < n and html[i] in "'\"":
                quote = html[i]
                end = html.find(quote, i + 1)
                if end < 0:
                    value = html[i + 1:]
                    i = n
                else:
                    value = html[i + 1:end]
                    i = end + 1
            else:
                value_start = i
                while i < n and html[i] not in "/> \t\r\n":
                    i += 1
                value = html[value_start:i]
        if attr_name:
            attrs[attr_name] = decode_entities(value)
    return StartTag(name, attrs, self_closing), n
