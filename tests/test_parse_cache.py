"""The parsed-document cache (:class:`repro.soup.DocumentCache`).

A miss hands out the fresh parse and keeps an immutable snapshot; a hit
rebuilds a private tree from it.  Either way the caller owns its tree:
no mutation may reach a later hit, and a hit must be indistinguishable
from parsing the body again.
"""

import gc

import pytest

from repro.dom import Element, Text, to_html
from repro.soup import DocumentCache, parse_document
from tests.support.trees import assert_linked, shape

BODIES = {
    "plain": "<p>hello <b>world</b></p>",
    "empty": "",
    "comments": (
        "<!-- before --><html><head><!-- head --><title>t</title></head>"
        "<body><!-- body --><p>x<!-- inline --></p></body></html>"
    ),
    "void-and-auto-closed": (
        "<ul><li>one<li>two<li>three</ul><p>a<p>b<br><img src=x.png>"
        "<input type=checkbox checked><table><tr><td>1<td>2<tr><th>h</table>"
        "<select><option>a<option selected>b</select>"
    ),
    "shadow": (
        '<div id="open"><template shadowrootmode="open">'
        '<p class="in">open <i>shadow</i></p><!-- sc --></template>light</div>'
        '<div id="closed"><template shadowrootmode="closed">'
        '<button id="accept">Accept</button></template></div>'
    ),
    "nested-srcdoc": (
        "<iframe id=outer srcdoc=\"<p>outer</p><iframe id=inner "
        "srcdoc='&lt;b&gt;deep&lt;/b&gt;&lt;!-- c --&gt;'></iframe>\"></iframe>"
        '<div><template shadowrootmode="closed">'
        '<iframe srcdoc="&lt;a href=/x&gt;framed&lt;/a&gt;"></iframe>'
        "</template></div>"
    ),
    "head-metadata": (
        '<meta charset="utf-8"><link rel=stylesheet href=a.css>'
        "<script>var x = 1;</script><style>p{}</style><title>T</title>"
        '<body class="b" data-x="1"><p id=a class="c d">text</p></body>'
    ),
}

URL = "https://site.example/"


@pytest.mark.parametrize("name", sorted(BODIES))
def test_a_hit_equals_a_fresh_parse(name):
    body = BODIES[name]
    cache = DocumentCache()
    miss = cache.parse(body, URL)
    hit = cache.parse(body, URL)
    fresh = parse_document(body, url=URL)
    assert hit is not miss
    assert to_html(hit) == to_html(fresh) == to_html(miss)
    assert shape(hit) == shape(fresh) == shape(miss)
    assert assert_linked(hit) == assert_linked(fresh)


@pytest.mark.parametrize("source", ["miss", "hit"])
def test_mutations_never_reach_the_next_hit(source):
    body = BODIES["nested-srcdoc"] + BODIES["shadow"]
    cache = DocumentCache()
    expected = to_html(parse_document(body, url=URL))
    doc = cache.parse(body, URL)
    if source == "hit":
        doc = cache.parse(body, URL)

    doc.body.append_child(Text("added"))
    doc.body.children[0].set_attribute("id", "changed")
    doc.body.children[0].attrs["direct"] = "write"
    frame = doc.body.children[0].content_document
    frame.body.children[0].children[0].data = "mutated"
    shadow = doc.get_element_by_id("open").attached_shadow_root
    shadow.children[0].attrs.clear()
    shadow.children[0].detach()
    doc.children.clear()

    assert to_html(cache.parse(body, URL)) == expected


def test_hits_and_misses_are_counted_per_key():
    cache = DocumentCache()
    cache.parse(BODIES["plain"], URL)
    cache.parse(BODIES["plain"], URL)
    cache.parse(BODIES["plain"], "https://other.example/")
    cache.parse(BODIES["shadow"], URL)
    cache.parse(BODIES["plain"], URL)
    assert (cache.hits, cache.misses, len(cache)) == (2, 3, 3)
    # The URL is part of the key because the parser stamps it.
    assert cache.parse(BODIES["plain"], "https://other.example/").url == (
        "https://other.example/"
    )


def test_srcdoc_frames_keep_their_url_on_a_hit():
    cache = DocumentCache()
    cache.parse(BODIES["nested-srcdoc"], URL)
    hit = cache.parse(BODIES["nested-srcdoc"], URL)
    outer = hit.get_element_by_id("outer").content_document
    inner = outer.get_element_by_id("inner").content_document
    assert (hit.url, outer.url, inner.url) == (URL, "about:srcdoc", "about:srcdoc")
    assert inner.body.text_content() == "deep"


def test_cached_snapshots_are_untracked_by_the_collector():
    cache = DocumentCache()
    for name in sorted(BODIES):
        cache.parse(BODIES[name], URL)
    gc.collect()
    entries = list(cache._entries._entries.values())
    assert len(entries) == len(BODIES)
    for entry in entries:
        assert not gc.is_tracked(entry)


def test_the_lru_bound_evicts_the_oldest_entry():
    cache = DocumentCache(max_entries=2)
    for name in ("plain", "shadow", "comments"):
        cache.parse(BODIES[name], URL)
    assert len(cache) == 2
    cache.parse(BODIES["plain"], URL)
    assert cache.misses == 4 and cache.hits == 0


def test_a_hit_tree_is_freely_mutable():
    cache = DocumentCache()
    cache.parse(BODIES["shadow"], URL)
    hit = cache.parse(BODIES["shadow"], URL)
    before = hit.revision
    hit.body.append_child(Element("aside"))
    assert hit.revision > before
    assert hit.body.children[-1].tag == "aside"
    assert hit.get_element_by_id("closed").attached_shadow_root.mode == "closed"
