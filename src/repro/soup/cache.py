"""A parsed-document cache: rebuild a cached parse instead of re-tokenizing.

The synthetic web renders a site's HTML deterministically from visitor
state, so the same (body, url) pair shows up over and over — across the
eight vantage points of a detection crawl, across the five repeats of a
cookie/uBlock measurement, and across longitudinal waves.  Tokenizing
and tree-building that HTML again on every visit is the single biggest
per-visit cost; rebuilding a tree from a cached snapshot is several
times cheaper and gives each visit a private, freely mutable DOM.

Keys are ``(sha256(body), url)``: the URL participates because the
parser stamps it on the produced :class:`~repro.dom.Document` (and on
``about:srcdoc`` frames nested inside), so the same markup served for
two different pages must not share a cache entry.

An entry is not a tree but an immutable snapshot of one: a single flat
tuple of ``str``, ``int`` and ``None`` that lists the document in
pre-order.  Its first item is the document URL; after that

- a Text node is its ``str``;
- a Comment is ``_COMMENT, data``;
- an Element is ``_ELEMENT, tag, n`` and its *n* attributes as
  ``name, value`` items, then its shadow root (``_SHADOW, mode``, the
  root's children, ``None``) if it hosts one, then its ``srcdoc``
  document (``_FRAME, url``, the document's children, ``None``) if it
  frames one, then its children, then ``None``.

A tuple whose items are all atoms is untracked by the garbage collector
at the first collection that sees it, so a full cache costs later
collections nothing.  (Nested tuples would not do: the collector drops
a tuple only once its items are dropped, and it visits a container
before its contents, so it peels one level of nesting per collection.)
Nothing can mutate an entry, so threads share entries without copying.
A miss parses once, takes the snapshot and hands out that fresh parse;
a hit builds a private tree from the snapshot.  Entries are evicted
LRU with a bounded size.
"""

from __future__ import annotations

import hashlib
import threading
from typing import List, Tuple

from repro.dom.node import Comment, Document, Element, Node, ShadowRoot, Text
from repro.lru import LockedLRU
from repro.soup.parser import parse_document

_COMMENT, _ELEMENT, _SHADOW, _FRAME = 0, 1, 2, 3


def _snapshot(document: Document) -> tuple:
    """The flat pre-order snapshot of *document* (see the module doc)."""
    out: List = [document.url]
    _snapshot_children(document, out)
    return tuple(out)


def _snapshot_children(node: Node, out: List) -> None:
    append = out.append
    for child in node.children:
        kind = type(child)
        if kind is Element:
            attrs = child.attrs
            append(_ELEMENT)
            append(child.tag)
            append(len(attrs))
            for pair in attrs.items():
                out.extend(pair)
            shadow = child._shadow_root
            if shadow is not None:
                append(_SHADOW)
                append(shadow.mode)
                _snapshot_children(shadow, out)
                append(None)
            frame = child._content_document
            if frame is not None:
                append(_FRAME)
                append(frame.url)
                _snapshot_children(frame, out)
                append(None)
            if child.children:
                _snapshot_children(child, out)
            append(None)
        elif kind is Text:
            append(child.data)
        else:
            append(_COMMENT)
            append(child.data)


_new = object.__new__


def _new_document(url: str) -> Document:
    document = _new(Document)
    document.parent = None
    document.children = []
    document.url = url
    document._revision = 0
    document._query_index = None
    return document


def _build(snapshot: tuple) -> Document:
    """A private tree from *snapshot*, in one pass over it.

    ``object.__new__`` plus direct slot writes: every node is fresh, so
    none of ``append_child``'s cycle checks, detaching or revision
    bumps can apply, and each element gets its own ``attrs`` dict.
    """
    items = iter(snapshot)
    document = _new_document(next(items))
    parent: Node = document
    children = document.children
    stack: List[Node] = []
    for item in items:
        if item == _ELEMENT:
            node = _new(Element)
            node.tag = next(items)
            count = next(items)
            attrs = {}
            while count:
                name = next(items)
                attrs[name] = next(items)
                count -= 1
            node.attrs = attrs
            node._shadow_root = None
            node._content_document = None
            node.on_click = None
            node.parent = parent
            children.append(node)
            stack.append(parent)
            parent = node
            children = node.children = []
        elif item is None:
            parent = stack.pop()
            children = parent.children
        elif type(item) is str:
            node = _new(Text)
            node.data = item
            node.children = []
            node.parent = parent
            children.append(node)
        elif item == _COMMENT:
            node = _new(Comment)
            node.data = next(items)
            node.children = []
            node.parent = parent
            children.append(node)
        elif item == _SHADOW:
            root = _new(ShadowRoot)
            root.parent = None
            root.host = parent
            root.mode = next(items)
            parent._shadow_root = root
            stack.append(parent)
            parent = root
            children = root.children = []
        else:
            frame = _new_document(next(items))
            parent._content_document = frame
            stack.append(parent)
            parent = frame
            children = frame.children
    return document


class DocumentCache:
    """Bounded LRU of parsed-document snapshots, keyed by (body hash, url)."""

    def __init__(self, max_entries: int = 8192) -> None:
        self._entries: LockedLRU = LockedLRU(max_entries)
        self._stats_lock = threading.Lock()
        #: Cache statistics (for benchmarks and diagnostics).
        self.hits = 0
        self.misses = 0

    def parse(self, html: str, url: str = "about:blank") -> Document:
        """Parse *html* (or rebuild the cached parse) into a private tree."""
        key: Tuple[str, str] = (
            hashlib.sha256(html.encode("utf-8")).hexdigest(), url
        )
        snapshot = self._entries.get(key)
        if snapshot is None:
            document = parse_document(html, url=url)
            # Snapshot before the caller can mutate the fresh parse.
            self._entries.put(key, _snapshot(document))
            with self._stats_lock:
                self.misses += 1
            return document
        with self._stats_lock:
            self.hits += 1
        return _build(snapshot)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide cache the browser uses by default.  Shared across
#: browsers on purpose: parallel crawl workers visiting the same site
#: population all profit from one another's parses, and a snapshot is
#: immutable, so sharing one needs no copy.  The default size
#: comfortably holds a mid-scale world's site population; multi-VP
#: crawls iterate VP-major over the whole target list, so a cache
#: smaller than the target count would evict every entry right before
#: the next vantage point needs it.
shared_document_cache = DocumentCache()
