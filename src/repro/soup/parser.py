"""A forgiving HTML tree builder.

Produces :class:`repro.dom.Document` trees.  Notable behaviours:

- ``<html>``/``<head>``/``<body>`` are synthesised when missing;
  metadata elements encountered before the body go to the head.
- ``<template shadowrootmode="open|closed">`` attaches a shadow root to
  the enclosing element (declarative shadow DOM), so serialised shadow
  trees round-trip.
- ``<iframe srcdoc="...">`` recursively parses the framed document into
  ``element.content_document``.
- Mis-nested end tags pop to the nearest matching open element and are
  otherwise ignored (lightweight error recovery).
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.dom.node import (
    VOID_ELEMENTS,
    Comment,
    Document,
    Element,
    Node,
    ShadowRoot,
    Text,
)
from repro.soup.tokenizer import (
    CommentToken,
    DoctypeToken,
    EndTag,
    StartTag,
    TextToken,
    tokenize,
)

_HEAD_ELEMENTS = frozenset({"title", "meta", "link", "base"})

_AUTO_CLOSE = {
    "li": frozenset({"li"}),
    "p": frozenset({"p"}),
    "option": frozenset({"option"}),
    "tr": frozenset({"tr"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
}


def parse_document(html: str, url: str = "about:blank") -> Document:
    """Parse a full HTML document."""
    document = Document(url)
    builder = _TreeBuilder(document)
    for token in tokenize(html):
        builder.feed(token)
    builder.finish()
    return document


def parse_fragment(html: str) -> List[Node]:
    """Parse an HTML fragment; returns the top-level nodes."""
    container = Element("div")
    builder = _TreeBuilder(container, fragment=True)
    for token in tokenize(html):
        builder.feed(token)
    builder.finish()
    children = container.children
    container.children = []
    for child in children:
        child.parent = None
    return children


def _link(parent: Node, child: Node) -> None:
    """Append a freshly built *child* to *parent*.

    The builder only ever appends nodes it has just created, so
    :meth:`Node.append_child`'s cycle check, detach and revision bump
    can never apply (the same shortcut :meth:`Node.clone` takes).
    """
    child.parent = parent
    parent.children.append(child)


class _TreeBuilder:
    def __init__(self, root: Union[Document, Element], fragment: bool = False):
        self.root = root
        self.fragment = fragment
        self.stack: List[Node] = [root]
        self.html: Optional[Element] = None
        self.head: Optional[Element] = None
        self.body: Optional[Element] = None
        self.body_started = fragment

    # -- document scaffolding -------------------------------------------
    def _ensure_html(self) -> Element:
        if self.fragment:
            raise AssertionError("fragments have no <html>")
        if self.html is None:
            self.html = Element("html")
            _link(self.root, self.html)
            self.stack = [self.root, self.html]
        return self.html

    def _ensure_head(self) -> Element:
        html = self._ensure_html()
        if self.head is None:
            self.head = Element("head")
            html.insert_before(self.head, html.children[0] if html.children else None)
        return self.head

    def _ensure_body(self) -> Element:
        html = self._ensure_html()
        self._ensure_head()
        if self.body is None:
            self.body = Element("body")
            _link(html, self.body)
        self.body_started = True
        if len(self.stack) < 3 or self.stack[-1] is self.html or self.stack[-1] is self.root:
            self.stack = [self.root, html, self.body]
        return self.body

    def _insertion_point(self) -> Node:
        return self.stack[-1]

    # -- token dispatch ---------------------------------------------------
    def feed(self, token) -> None:
        if isinstance(token, DoctypeToken):
            return
        if isinstance(token, CommentToken):
            self._insert_leaf(Comment(token.data))
            return
        if isinstance(token, TextToken):
            self._handle_text(token.data)
            return
        if isinstance(token, StartTag):
            self._handle_start(token)
            return
        if isinstance(token, EndTag):
            self._handle_end(token)
            return

    def finish(self) -> None:
        # Real browsers always synthesise <html>/<head>/<body>, even for
        # documents with only metadata (or nothing at all).
        if not self.fragment and self.body is None:
            self._ensure_body()

    # -- handlers ---------------------------------------------------------
    def _insert_leaf(self, node: Node) -> None:
        if self.fragment:
            _link(self._insertion_point(), node)
            return
        if not self.body_started and isinstance(node, Comment):
            # Comments before body go wherever the insertion point is.
            _link(self._insertion_point(), node)
            return
        if self.stack[-1] is self.root or self.stack[-1] is self.html:
            self._ensure_body()
        _link(self._insertion_point(), node)

    def _handle_text(self, data: str) -> None:
        if not data:
            return
        if not self.fragment:
            at_scaffold = self.stack[-1] in (self.root, self.html, self.head)
            if at_scaffold or (not self.body_started and len(self.stack) <= 1):
                if not data.strip():
                    return
                self._ensure_body()
        _link(self._insertion_point(), Text(data))

    def _handle_start(self, token: StartTag) -> None:
        name = token.name
        if not self.fragment:
            if name == "html":
                html = self._ensure_html()
                html.attrs.update(token.attrs)
                return
            if name == "head":
                head = self._ensure_head()
                head.attrs.update(token.attrs)
                self.stack.append(head)
                return
            if name == "body":
                body = self._ensure_body()
                body.attrs.update(token.attrs)
                return
            if name in _HEAD_ELEMENTS and not self.body_started:
                head = self._ensure_head()
                element = Element(name, token.attrs)
                _link(head, element)
                if name not in VOID_ELEMENTS and not token.self_closing:
                    self.stack.append(element)
                return
            if name in ("script", "style") and not self.body_started:
                head = self._ensure_head()
                element = Element(name, token.attrs)
                _link(head, element)
                if not token.self_closing:
                    self.stack.append(element)
                return
            if not self.body_started:
                self._ensure_body()

        # Declarative shadow DOM.
        if name == "template" and token.attrs.get("shadowrootmode") in ("open", "closed"):
            host = self._nearest_element()
            if host is not None and host.attached_shadow_root is None:
                shadow = host.attach_shadow(mode=token.attrs["shadowrootmode"])
                self.stack.append(shadow)
                return
        self._auto_close(name)
        element = Element(name, token.attrs)
        _link(self._insertion_point(), element)
        if name == "iframe" and "srcdoc" in token.attrs:
            inner_html = token.attrs.pop("srcdoc")
            element.attrs.pop("srcdoc", None)
            element.content_document = parse_document(inner_html, url="about:srcdoc")
        if name in VOID_ELEMENTS or token.self_closing:
            return
        self.stack.append(element)

    def _auto_close(self, name: str) -> None:
        closers = _AUTO_CLOSE.get(name)
        if not closers:
            return
        top = self.stack[-1]
        if isinstance(top, Element) and top.tag in closers:
            self.stack.pop()

    def _nearest_element(self) -> Optional[Element]:
        for node in reversed(self.stack):
            if isinstance(node, Element):
                return node
        return None

    def _handle_end(self, token: EndTag) -> None:
        name = token.name
        if name == "template":
            for index in range(len(self.stack) - 1, -1, -1):
                node = self.stack[index]
                if isinstance(node, ShadowRoot):
                    del self.stack[index:]
                    return
                if isinstance(node, Element) and node.tag == "template":
                    del self.stack[index:]
                    return
            return
        if not self.fragment and name in ("html", "body", "head"):
            if name == "head" and self.head in self.stack:
                del self.stack[self.stack.index(self.head):]
            return
        for index in range(len(self.stack) - 1, 0, -1):
            node = self.stack[index]
            if isinstance(node, Element) and node.tag == name:
                del self.stack[index:]
                return
        # Unmatched end tag: ignored (error recovery).
