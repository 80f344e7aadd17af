"""DOM tree checks shared by the parser and parse-cache suites."""

from __future__ import annotations

from repro.dom import Comment, Document, Element, Node, Text


def assert_linked(root: Node) -> int:
    """Assert every node's ``parent`` is the node whose ``children`` (or
    whose attached shadow root's ``children``) hold it, through shadow
    roots and ``srcdoc`` frame documents; returns the nodes checked."""
    checked = 0
    stack = [root]
    while stack:
        node = stack.pop()
        checked += 1
        for child in node.children:
            assert child.parent is node, (child, node)
            stack.append(child)
        if isinstance(node, Element):
            shadow = node.attached_shadow_root
            if shadow is not None:
                assert shadow.host is node and shadow.parent is None
                stack.append(shadow)
            frame = node.content_document
            if frame is not None:
                assert frame.parent is None
                stack.append(frame)
    return checked


def shape(node: Node):
    """A plain nested description of *node*'s subtree: node types,
    tags, attributes in order, text, shadow modes and document URLs."""
    kids = [shape(child) for child in node.children]
    if isinstance(node, Text):
        return ("text", node.data)
    if isinstance(node, Comment):
        return ("comment", node.data)
    if isinstance(node, Document):
        return ("document", node.url, kids)
    assert isinstance(node, Element)
    shadow = node.attached_shadow_root
    frame = node.content_document
    return (
        "element", node.tag, list(node.attrs.items()), kids,
        None if shadow is None else (shadow.mode, [shape(c) for c in shadow.children]),
        None if frame is None else shape(frame),
    )
