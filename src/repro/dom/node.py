"""DOM node classes: Node, Element, Text, Comment, Document, ShadowRoot."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import ClosedShadowRootError, DOMError


@lru_cache(maxsize=1024)
def _parse_style(declaration_text: str) -> Dict[str, str]:
    """Parse an inline ``style`` attribute value (memoized).

    Visibility checks walk ancestor chains parsing the same handful of
    style strings over and over; the cache makes that a dict hit.
    Callers must not mutate the returned dict (``Element.style`` hands
    out a copy).
    """
    out: Dict[str, str] = {}
    for declaration in declaration_text.split(";"):
        name, sep, value = declaration.partition(":")
        if sep:
            out[name.strip().lower()] = value.strip().lower()
    return out

#: Elements that never have children when parsed from HTML.
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)


class Node:
    """Base class for all DOM nodes."""

    __slots__ = ("parent", "children")

    def __init__(self) -> None:
        self.parent: Optional[Node] = None
        self.children: List[Node] = []

    # ------------------------------------------------------------------
    # Revision tracking (query-index and frame-walk cache invalidation)
    # ------------------------------------------------------------------
    def root_node(self) -> "Node":
        """The topmost node of this tree, crossing shadow boundaries."""
        node: Node = self
        while True:
            if node.parent is not None:
                node = node.parent
            elif isinstance(node, ShadowRoot):
                node = node.host
            else:
                return node

    def _bump_revision(self) -> None:
        """Invalidate caches hanging off this tree's root document.

        Every mutation that can change what a query or frame walk sees
        (structure, attributes, shadow/frame attachment) bumps the
        owning :class:`Document`'s revision counter; the selector index
        and ``Page`` walk caches compare revisions before reuse.
        """
        root = self.root_node()
        if isinstance(root, Document):
            root._revision += 1

    # ------------------------------------------------------------------
    # Tree manipulation
    # ------------------------------------------------------------------
    def append_child(self, child: "Node") -> "Node":
        """Append *child* (detaching it from any previous parent)."""
        if child is self or self._has_ancestor(child):
            raise DOMError("cannot append a node inside itself")
        child.detach()
        child.parent = self
        self.children.append(child)
        self._bump_revision()
        return child

    def insert_before(self, child: "Node", reference: Optional["Node"]) -> "Node":
        """Insert *child* before *reference* (or append when None)."""
        if reference is None:
            return self.append_child(child)
        if reference.parent is not self:
            raise DOMError("reference node is not a child of this node")
        if child is self or self._has_ancestor(child):
            raise DOMError("cannot insert a node inside itself")
        child.detach()
        child.parent = self
        self.children.insert(self.children.index(reference), child)
        self._bump_revision()
        return child

    def detach(self) -> None:
        """Remove this node from its parent, if any."""
        if self.parent is not None:
            self._bump_revision()
            self.parent.children.remove(self)
            self.parent = None

    def remove_child(self, child: "Node") -> "Node":
        if child.parent is not self:
            raise DOMError("node is not a child of this node")
        child.detach()
        return child

    def _has_ancestor(self, candidate: "Node") -> bool:
        node = self.parent
        while node is not None:
            if node is candidate:
                return True
            node = node.parent
        return False

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def ancestors(self) -> Iterator["Node"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(
        self,
        *,
        include_shadow: bool = False,
        include_frames: bool = False,
    ) -> Iterator["Node"]:
        """Yield all descendant nodes in document order.

        By default neither shadow trees nor iframe content documents are
        entered — matching what CSS selector / XPath engines can see.
        Set the flags to pierce those boundaries (crawler-internal use).
        """
        if not include_shadow and not include_frames:
            # Hot path: no per-node boundary checks or list rebuilding.
            stack: List[Node] = list(reversed(self.children))
            while stack:
                node = stack.pop()
                yield node
                if node.children:
                    stack.extend(reversed(node.children))
            return
        roots: List[Node] = list(self.children)
        if isinstance(self, Element):
            if include_shadow and self.attached_shadow_root is not None:
                roots.append(self.attached_shadow_root)
            if include_frames and self.content_document is not None:
                roots.append(self.content_document)
        stack: List[Node] = list(reversed(roots))
        while stack:
            node = stack.pop()
            yield node
            extra: List[Node] = []
            if include_shadow and isinstance(node, Element):
                shadow = node.attached_shadow_root
                if shadow is not None:
                    extra.append(shadow)
            if include_frames and isinstance(node, Element):
                inner = node.content_document
                if inner is not None:
                    extra.append(inner)
            stack.extend(reversed(node.children + extra))

    def elements(self, **kwargs) -> Iterator["Element"]:
        """Yield descendant :class:`Element` nodes (same kwargs as descendants)."""
        for node in self.descendants(**kwargs):
            if isinstance(node, Element):
                yield node

    # ------------------------------------------------------------------
    # Text
    # ------------------------------------------------------------------
    def text_content(self, *, pierce: bool = False, separator: str = " ") -> str:
        """Concatenated text of descendant Text nodes.

        With ``pierce=True`` text inside shadow roots and iframes is
        included (what a human *sees*, not what ``innerText`` returns).
        """
        parts: List[str] = []
        for node in self.descendants(include_shadow=pierce, include_frames=pierce):
            if isinstance(node, Text):
                data = node.data.strip()
                if data:
                    parts.append(data)
        return separator.join(parts)

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------
    def clone(self, *, deep: bool = True) -> "Node":
        """Return a copy of this node (deep by default).

        The deep path links children directly instead of going through
        :meth:`append_child` — the clone tree is built from fresh nodes,
        so the cycle checks and detach bookkeeping there can never fire
        (the HTML tree builder and :mod:`repro.soup.cache` link fresh
        nodes the same way).
        """
        copy = self._clone_self()
        if deep:
            self._clone_children_into(copy)
        return copy

    def _clone_children_into(self, copy: "Node") -> None:
        children = copy.children
        for child in self.children:
            child_copy = child.clone(deep=True)
            child_copy.parent = copy
            children.append(child_copy)

    def _clone_self(self) -> "Node":
        return type(self)()

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    @property
    def owner_document(self) -> Optional["Document"]:
        node: Optional[Node] = self
        while node is not None:
            if isinstance(node, Document):
                return node
            if isinstance(node, ShadowRoot):
                node = node.host
                continue
            node = node.parent
        return None


class Text(Node):
    """A text node."""

    __slots__ = ("data",)

    def __init__(self, data: str = "") -> None:
        super().__init__()
        self.data = data

    def _clone_self(self) -> "Text":
        copy = Text.__new__(Text)
        copy.parent = None
        copy.children = []
        copy.data = self.data
        return copy

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"Text({preview!r})"


class Comment(Node):
    """A comment node (kept so parsing round-trips)."""

    __slots__ = ("data",)

    def __init__(self, data: str = "") -> None:
        super().__init__()
        self.data = data

    def _clone_self(self) -> "Comment":
        return Comment(self.data)

    def __repr__(self) -> str:
        return f"Comment({self.data!r})"


class Element(Node):
    """An element node with attributes, optional shadow root / frame doc."""

    __slots__ = ("tag", "attrs", "_shadow_root", "_content_document", "on_click")

    def __init__(self, tag: str, attrs: Optional[Dict[str, str]] = None) -> None:
        super().__init__()
        self.tag = tag.lower()
        #: Raw attribute map.  Runtime code must mutate attributes via
        #: :meth:`set_attribute` / :meth:`remove_attribute` /
        #: :meth:`add_class` — writing this dict directly skips the
        #: revision bump that invalidates the document's query index
        #: (only the parser and the parse cache do so, during tree
        #: construction, before any index can exist).
        self.attrs: Dict[str, str] = dict(attrs or {})
        self._shadow_root: Optional[ShadowRoot] = None
        self._content_document: Optional[Document] = None
        #: Optional behaviour hook used by the browser layer.
        self.on_click: Optional[Callable[["Element"], None]] = None

    # -- frames ---------------------------------------------------------
    @property
    def content_document(self) -> Optional["Document"]:
        """For ``iframe`` elements: the framed document, if loaded."""
        return self._content_document

    @content_document.setter
    def content_document(self, document: Optional["Document"]) -> None:
        self._content_document = document
        self._bump_revision()

    # -- attributes -----------------------------------------------------
    def get_attribute(self, name: str) -> Optional[str]:
        return self.attrs.get(name.lower())

    def set_attribute(self, name: str, value: str) -> None:
        self.attrs[name.lower()] = value
        self._bump_revision()

    def remove_attribute(self, name: str) -> None:
        if self.attrs.pop(name.lower(), None) is not None:
            self._bump_revision()

    def has_attribute(self, name: str) -> bool:
        return name.lower() in self.attrs

    @property
    def id(self) -> str:
        return self.attrs.get("id", "")

    @property
    def classes(self) -> List[str]:
        return self.attrs.get("class", "").split()

    def add_class(self, name: str) -> None:
        classes = self.classes
        if name not in classes:
            classes.append(name)
            self.attrs["class"] = " ".join(classes)
            self._bump_revision()

    # -- shadow DOM -----------------------------------------------------
    def attach_shadow(self, *, mode: str = "open") -> "ShadowRoot":
        """Attach a shadow root (open or closed) to this element."""
        if mode not in ("open", "closed"):
            raise DOMError(f"invalid shadow root mode {mode!r}")
        if self._shadow_root is not None:
            raise DOMError("element already hosts a shadow root")
        self._shadow_root = ShadowRoot(host=self, mode=mode)
        self._bump_revision()
        return self._shadow_root

    @property
    def shadow_root(self) -> Optional["ShadowRoot"]:
        """Script-visible shadow root (None when closed — browser parity).

        Raises :class:`ClosedShadowRootError` is *not* raised here; like
        ``element.shadowRoot`` in a real browser, a closed root is simply
        invisible.  Crawler code that needs guaranteed access must use
        :attr:`attached_shadow_root` via a privileged hook.
        """
        if self._shadow_root is not None and self._shadow_root.mode == "closed":
            return None
        return self._shadow_root

    @property
    def attached_shadow_root(self) -> Optional["ShadowRoot"]:
        """Privileged access to the shadow root regardless of mode."""
        return self._shadow_root

    def require_open_shadow_root(self) -> "ShadowRoot":
        """Return the open shadow root or raise for closed/missing ones."""
        root = self.shadow_root
        if root is None:
            if self._shadow_root is not None:
                raise ClosedShadowRootError(
                    f"<{self.tag}> hosts a closed shadow root"
                )
            raise DOMError(f"<{self.tag}> hosts no shadow root")
        return root

    # -- visibility -----------------------------------------------------
    @property
    def style(self) -> Dict[str, str]:
        """Parsed ``style`` attribute (lower-cased property names)."""
        return dict(_parse_style(self.attrs.get("style", "")))

    def is_visible(self) -> bool:
        """Approximate rendered visibility (display/visibility/hidden)."""
        node: Optional[Node] = self
        while isinstance(node, Element):
            if node.has_attribute("hidden"):
                return False
            style = node.style
            if style.get("display") == "none":
                return False
            if style.get("visibility") == "hidden":
                return False
            parent = node.parent
            if isinstance(parent, ShadowRoot):
                parent = parent.host
            node = parent if isinstance(parent, Element) else None
        return True

    # -- cloning --------------------------------------------------------
    def _clone_self(self) -> "Element":
        # __new__ + direct slot writes: skips the re-lowercasing and
        # validation of __init__ on the deep-clone hot path.
        copy = Element.__new__(Element)
        copy.parent = None
        copy.children = []
        copy.tag = self.tag
        copy.attrs = dict(self.attrs)
        copy._shadow_root = None
        copy._content_document = None
        copy.on_click = self.on_click
        return copy

    def clone(self, *, deep: bool = True) -> "Element":
        copy = self._clone_self()
        if deep:
            self._clone_children_into(copy)
            if self._shadow_root is not None:
                shadow_copy = ShadowRoot(host=copy, mode=self._shadow_root.mode)
                copy._shadow_root = shadow_copy
                self._shadow_root._clone_children_into(shadow_copy)
            if self._content_document is not None:
                copy._content_document = self._content_document.clone(deep=True)
        return copy

    def __repr__(self) -> str:
        ident = f"#{self.id}" if self.id else ""
        cls = "." + ".".join(self.classes) if self.classes else ""
        return f"<Element {self.tag}{ident}{cls}>"


class ShadowRoot(Node):
    """A shadow tree root attached to a host element."""

    __slots__ = ("host", "mode")

    def __init__(self, host: Element, mode: str = "open") -> None:
        super().__init__()
        self.host = host
        self.mode = mode

    def _clone_self(self) -> "ShadowRoot":
        raise DOMError("shadow roots are cloned via their host element")

    def __repr__(self) -> str:
        return f"<ShadowRoot mode={self.mode} host=<{self.host.tag}>>"


class Document(Node):
    """A document node; the root of a page or iframe content tree."""

    __slots__ = ("url", "_revision", "_query_index")

    def __init__(self, url: str = "about:blank") -> None:
        super().__init__()
        self.url = url
        #: Bumped by every mutation anywhere in this document's tree
        #: (including shadow subtrees); caches key off it.
        self._revision = 0
        #: Lazily built tag/id/class index (see repro.dom.selector).
        self._query_index = None

    @property
    def revision(self) -> int:
        """Monotonic mutation counter for cache validation."""
        return self._revision

    # -- common accessors -------------------------------------------------
    @property
    def document_element(self) -> Optional[Element]:
        for child in self.children:
            if isinstance(child, Element) and child.tag == "html":
                return child
        return None

    def _html_section(self, tag: str) -> Optional[Element]:
        html = self.document_element
        if html is None:
            return None
        for child in html.children:
            if isinstance(child, Element) and child.tag == tag:
                return child
        return None

    @property
    def head(self) -> Optional[Element]:
        return self._html_section("head")

    @property
    def body(self) -> Optional[Element]:
        return self._html_section("body")

    @property
    def title(self) -> str:
        head = self.head
        if head is None:
            return ""
        for el in head.elements():
            if el.tag == "title":
                return el.text_content()
        return ""

    def create_element(self, tag: str, **attrs: str) -> Element:
        """Create a detached element owned by this document."""
        return Element(tag, {k.replace("_", "-"): v for k, v in attrs.items()})

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        from repro.dom.selector import first_element_by_id

        return first_element_by_id(self, element_id)

    def _clone_self(self) -> "Document":
        return Document(self.url)

    def clone(self, *, deep: bool = True) -> "Document":
        copy = Node.clone(self, deep=deep)
        assert isinstance(copy, Document)
        return copy

    def __repr__(self) -> str:
        return f"<Document url={self.url!r}>"
