"""Tests for the HTML tokenizer, parser, and Soup API."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.browser.page import Page
from repro.dom import Document, Element, query_selector_all, to_html
from repro.soup import (
    DocumentCache,
    Soup,
    make_soup,
    parse_document,
    parse_fragment,
)
from repro.soup.tokenizer import decode_entities, tokenize, StartTag, TextToken
from repro.urlkit import parse as parse_url
from tests.support.trees import assert_linked


class TestTokenizer:
    def test_simple_tags(self):
        tokens = list(tokenize("<div><p>x</p></div>"))
        kinds = [type(t).__name__ for t in tokens]
        assert kinds == ["StartTag", "StartTag", "TextToken", "EndTag", "EndTag"]

    def test_attributes_quoted_and_bare(self):
        (tag,) = list(tokenize('<div id="a" class=foo data-x hidden>'))[:1]
        assert isinstance(tag, StartTag)
        assert tag.attrs == {"id": "a", "class": "foo", "data-x": "", "hidden": ""}

    def test_single_quotes(self):
        (tag,) = list(tokenize("<a href='/x y'>"))[:1]
        assert tag.attrs["href"] == "/x y"

    def test_self_closing(self):
        (tag,) = list(tokenize("<br/>"))[:1]
        assert tag.self_closing

    def test_comment(self):
        tokens = list(tokenize("a<!-- hidden -->b"))
        assert tokens[1].data == " hidden "

    def test_doctype(self):
        tokens = list(tokenize("<!DOCTYPE html><p>x</p>"))
        assert type(tokens[0]).__name__ == "DoctypeToken"

    def test_script_is_raw_text(self):
        tokens = list(tokenize("<script>if (a<b) {x}</script>"))
        assert isinstance(tokens[1], TextToken)
        assert tokens[1].data == "if (a<b) {x}"

    def test_stray_lt_is_text(self):
        tokens = list(tokenize("1 < 2"))
        text = "".join(t.data for t in tokens if isinstance(t, TextToken))
        assert text == "1 < 2"

    def test_unterminated_tag(self):
        tokens = list(tokenize("<div id=x"))
        assert isinstance(tokens[0], StartTag)

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("&amp;", "&"),
            ("&lt;b&gt;", "<b>"),
            ("&euro;3.99", "€3.99"),
            ("&#8364;", "€"),
            ("&#x20AC;", "€"),
            ("&uuml;ber", "über"),
            ("&unknown;", "&unknown;"),
            ("no entities", "no entities"),
            ("&", "&"),
        ],
    )
    def test_entities(self, raw, expected):
        assert decode_entities(raw) == expected


class TestParser:
    def test_implicit_structure(self):
        doc = parse_document("<p>hello</p>")
        assert doc.body is not None
        assert doc.head is not None
        assert doc.body.children[0].tag == "p"

    def test_explicit_structure(self):
        doc = parse_document(
            "<html><head><title>T</title></head><body><p>x</p></body></html>"
        )
        assert doc.title == "T"
        assert doc.body.children[0].tag == "p"

    def test_head_elements_routed_to_head(self):
        doc = parse_document('<title>T</title><meta charset="utf-8"><p>b</p>')
        head_tags = [e.tag for e in doc.head.elements()]
        assert "title" in head_tags and "meta" in head_tags
        assert [e.tag for e in doc.body.elements()] == ["p"]

    def test_void_elements_have_no_children(self):
        doc = parse_document("<div><br><img src=x><p>after</p></div>")
        div = doc.body.children[0]
        tags = [c.tag for c in div.children if isinstance(c, Element)]
        assert tags == ["br", "img", "p"]

    def test_misnested_end_tag_recovery(self):
        doc = parse_document("<div><b>x</div></b><p>y</p>")
        assert doc.body is not None
        assert "y" in doc.body.text_content()

    def test_li_auto_close(self):
        doc = parse_document("<ul><li>a<li>b<li>c</ul>")
        ul = doc.body.children[0]
        lis = [c for c in ul.children if isinstance(c, Element)]
        assert len(lis) == 3

    def test_declarative_shadow_open(self):
        doc = parse_document(
            '<div id="host"><template shadowrootmode="open"><p>s</p></template></div>'
        )
        host = doc.get_element_by_id("host")
        assert host.shadow_root is not None
        assert host.shadow_root.children[0].tag == "p"

    def test_declarative_shadow_closed(self):
        doc = parse_document(
            '<div id="host"><template shadowrootmode="closed"><p>s</p></template></div>'
        )
        host = doc.get_element_by_id("host")
        assert host.shadow_root is None
        assert host.attached_shadow_root.mode == "closed"

    def test_plain_template_is_element(self):
        doc = parse_document("<div><template><p>x</p></template></div>")
        div = doc.body.children[0]
        assert div.children[0].tag == "template"

    def test_iframe_srcdoc(self):
        doc = parse_document(
            '<iframe srcdoc="&lt;p&gt;inner text&lt;/p&gt;"></iframe>'
        )
        iframe = next(e for e in doc.body.elements() if e.tag == "iframe")
        assert iframe.content_document is not None
        assert iframe.content_document.body.text_content() == "inner text"

    def test_fragment(self):
        nodes = parse_fragment("<p>a</p><p>b</p>")
        assert [n.tag for n in nodes] == ["p", "p"]

    def test_round_trip_with_shadow_and_iframe(self):
        html = (
            '<div id="host"><template shadowrootmode="closed">'
            "<span>wall €3.99</span></template></div>"
            '<iframe srcdoc="&lt;p&gt;framed&lt;/p&gt;"></iframe>'
        )
        doc = parse_document(html)
        doc2 = parse_document(to_html(doc))
        host = doc2.get_element_by_id("host")
        assert host.attached_shadow_root is not None
        assert "wall €3.99" in host.text_content(pierce=True)
        iframe = next(e for e in doc2.body.elements() if e.tag == "iframe")
        assert iframe.content_document.body.text_content() == "framed"


class TestSoupAPI:
    SOUP = make_soup(
        """
        <div class="banner" id="b1">
          <p>We use cookies. <a href="/privacy">Privacy</a></p>
          <button class="accept">Accept</button>
          <template shadowrootmode="open"><b>from shadow</b></template>
        </div>
        <iframe srcdoc="&lt;button class='accept'&gt;frame accept&lt;/button&gt;"></iframe>
        """
    )

    def test_find_by_name(self):
        assert self.SOUP.find("button").get_text() == "Accept"

    def test_find_all_pierces_frames_by_default(self):
        buttons = self.SOUP.find_all("button")
        assert len(buttons) == 2

    def test_find_all_without_pierce(self):
        assert len(self.SOUP.find_all("button", pierce=False)) == 1

    def test_find_by_attrs(self):
        assert self.SOUP.find("div", attrs={"id": "b1"}) is not None
        assert self.SOUP.find("div", attrs={"id": "zz"}) is None

    def test_find_by_attr_presence(self):
        assert self.SOUP.find("a", attrs={"href": True}) is not None

    def test_find_by_callable_attr(self):
        found = self.SOUP.find("a", attrs={"href": lambda v: v and v.startswith("/")})
        assert found is not None

    def test_find_by_class(self):
        assert self.SOUP.find(class_="accept") is not None

    def test_find_by_string(self):
        assert self.SOUP.find("p", string="cookies") is not None
        assert self.SOUP.find("p", string="missing") is None

    def test_find_by_string_callable(self):
        found = self.SOUP.find("button", string=lambda t: "accept" in t.lower())
        assert found is not None

    def test_get_text_pierces_everything(self):
        text = self.SOUP.get_text()
        assert "from shadow" in text
        assert "frame accept" in text

    def test_select_css(self):
        assert len(self.SOUP.select("div.banner > button")) == 1

    def test_attribute_access(self):
        link = self.SOUP.find("a")
        assert link["href"] == "/privacy"
        assert link.get("missing") is None
        with pytest.raises(KeyError):
            link["missing"]

    def test_limit(self):
        assert len(self.SOUP.find_all("button", limit=1)) == 1

    def test_make_soup_coercions(self):
        assert isinstance(make_soup("<p>x</p>"), Soup)
        assert isinstance(make_soup(self.SOUP), Soup)
        assert isinstance(make_soup(Document()), Soup)
        with pytest.raises(TypeError):
            make_soup(42)


class TestParserProperties:
    @given(
        text=st.text(
            alphabet=st.characters(blacklist_characters="<>&", min_codepoint=32, max_codepoint=382),
            min_size=1,
            max_size=40,
        )
    )
    def test_text_survives_parse(self, text):
        doc = parse_document(f"<p>{text}</p>")
        body_text = doc.body.text_content()
        # Whitespace may be normalised, but the words must survive intact.
        assert body_text.split() == text.split()

    @given(depth=st.integers(min_value=1, max_value=30))
    def test_nested_divs(self, depth):
        html = "<div>" * depth + "x" + "</div>" * depth
        doc = parse_document(html)
        count = sum(1 for e in doc.body.elements() if e.tag == "div")
        assert count == depth

    @given(
        attr_value=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=30,
        )
    )
    def test_attr_round_trip_through_serializer(self, attr_value):
        el = Element("div", {"data-v": attr_value})
        doc = Document()
        html_el = Element("html")
        body = Element("body")
        doc.append_child(html_el)
        html_el.append_child(body)
        body.append_child(el)
        doc2 = parse_document(to_html(doc))
        div = next(e for e in doc2.body.elements() if e.tag == "div")
        assert div.get_attribute("data-v") == attr_value


_MARKUP_PIECES = (
    "<div>", "</div>", "<p>", "</p>", "<li>", "<ul>", "</ul>", "<td>", "<tr>",
    "<table>", "</table>", "<br>", "<img src=a.png>", "<b>", "</b>", "</i>",
    "text", " ", "<!-- c -->", "<title>t</title>", "<meta charset=utf-8>",
    "<script>s</script>", "<head>", "</head>", "<body>", "</body>", "<html>",
    '<template shadowrootmode="open">', '<template shadowrootmode="closed">',
    "<template>", "</template>", '<iframe srcdoc="&lt;p&gt;in&lt;/p&gt;">',
    "</iframe>",
)


class TestParserStructure:
    """The tree builder links nodes directly, bypassing ``append_child``:
    every node must still sit under exactly the parent that holds it."""

    @given(pieces=st.lists(st.sampled_from(_MARKUP_PIECES), max_size=40))
    def test_parent_links_match_children(self, pieces):
        html = "".join(pieces)
        assert assert_linked(parse_document(html)) >= 1
        for node in parse_fragment(html):
            assert node.parent is None
            assert_linked(node)

    def test_nested_shadow_and_frames_are_linked(self):
        doc = parse_document(
            '<div><template shadowrootmode="open"><span>'
            '<template shadowrootmode="closed"><i>x</i></template></span>'
            '</template></div><iframe srcdoc="&lt;b&gt;f&lt;/b&gt;"></iframe>'
        )
        # document, html, head, body, div, shadow, span, shadow, i, "x",
        # iframe, and the framed document, html, head, body, b, "f".
        assert assert_linked(doc) == 17

    def test_fragment_roots_come_back_detached(self):
        nodes = parse_fragment("<p>a</p>text<!-- c --><div><b>x</b></div>")
        assert [type(n).__name__ for n in nodes] == [
            "Element", "Text", "Comment", "Element",
        ]
        assert all(n.parent is None for n in nodes)
        holder = Element("section")
        for node in nodes:
            holder.append_child(node)
        assert to_html(holder) == (
            "<section><p>a</p>text<!-- c --><div><b>x</b></div></section>"
        )

    def test_miss_path_query_index_invalidates_on_first_mutation(self):
        doc = DocumentCache().parse(
            "<p class=a>1</p><div><p class=a>2</p></div>", "https://x.example/"
        )
        assert [p.text_content() for p in query_selector_all(doc, "p.a")] == [
            "1", "2",
        ]
        added = Element("p", {"class": "a"})
        doc.body.append_child(added)
        assert query_selector_all(doc, "p.a")[-1] is added
        doc.body.children[0].remove_attribute("class")
        assert [p.text_content() for p in query_selector_all(doc, "p.a")] == [
            "2", "",
        ]

    def test_miss_path_frame_walk_invalidates_on_first_mutation(self):
        doc = DocumentCache().parse(
            '<iframe id=f srcdoc="&lt;iframe&gt;&lt;/iframe&gt;"></iframe>',
            "https://x.example/",
        )
        page = Page(None, parse_url("https://x.example/"), doc)
        assert len(page.iframes()) == 1
        assert len(list(page.all_documents())) == 2
        doc.body.append_child(Element("iframe"))
        assert len(page.iframes()) == 2
        # A mutation inside the framed document invalidates too.
        inner = doc.get_element_by_id("f").content_document
        inner.body.children[0].content_document = parse_document("<p>deep</p>")
        assert len(list(page.all_documents())) == 3
