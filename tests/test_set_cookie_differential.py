"""Differential test: the memoised ``Set-Cookie`` parser vs the oracle.

:func:`repro.httpkit.cookies.parse_set_cookie` caches the parse of the
attribute tail per request host, and a rejected tail as a reason.  For
every header × host it must return exactly the :class:`Cookie` the
linear reference parser (``tests/support/cookie_oracle.py``) returns,
or raise a :class:`CookieError` with exactly the same message — which
must quote the *current* header even when the tail's rejection came
from the cache.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CookieError
from repro.httpkit.cookies import parse_set_cookie
from repro.urlkit import parse
from tests.support.cookie_oracle import reference_parse_set_cookie

_HOSTS = ("news.de", "www.news.de", "shop.co.uk", "tracker.net", "localhost")
_DOMAINS = (
    "news.de", ".news.de", "www.news.de", "other.de", "de", "co.uk",
    ".CO.UK", "shop.co.uk", "tracker.net", "net", "localhost", "",
)
_AGES = ("3600", "0", "-1", " 86400 ", "soon", "", "1.5", "+5", "1e3")


def _outcome(parser, header, url):
    try:
        return parser(header, url)
    except CookieError as exc:
        return ("rejected", str(exc))


_pair = st.one_of(
    st.builds(
        "{}={}".format,
        st.sampled_from(("sid", " sid ", "fp0", "a b", "")),
        st.sampled_from(("v1", '"quoted"', ' "x" ', "", "a=b", "v{}")),
    ),
    # No "=" at all, or a bare name.
    st.sampled_from(("novalue", "", " ", "sid")),
)

_attribute = st.one_of(
    st.builds("Domain={}".format, st.sampled_from(_DOMAINS)),
    st.builds("Max-Age={}".format, st.sampled_from(_AGES)),
    st.builds("Path={}".format, st.sampled_from(("/", "/a", "a", ""))),
    st.builds("SameSite={}".format, st.sampled_from(("Strict", "NONE", ""))),
    st.sampled_from((
        "Secure", "HttpOnly", " secure ", "max-age", "domain", "Unknown=1",
        "", "=", "Expires=Wed, 21 Oct 2026 07:28:00 GMT",
    )),
)


@settings(max_examples=400, deadline=None)
@given(
    pair=_pair,
    attributes=st.lists(_attribute, max_size=6),
    hosts=st.lists(st.sampled_from(_HOSTS), min_size=1, max_size=3),
    separator=st.sampled_from(("; ", ";", " ; ")),
)
def test_memoised_parser_matches_the_oracle(pair, attributes, hosts, separator):
    header = separator.join([pair, *attributes])
    # The same tail under several hosts, each parsed twice so the
    # second call answers from the memo.
    for host in hosts:
        url = parse(f"https://{host}/page")
        expected = _outcome(reference_parse_set_cookie, header, url)
        assert _outcome(parse_set_cookie, header, url) == expected
        assert _outcome(parse_set_cookie, header, url) == expected


@pytest.mark.parametrize("header", [
    "a=1; Domain=other.de",
    "a=1; Domain=de",
    "a=1; Max-Age=soon",
    "a=1; Max-Age=-1; Max-Age=soon",
    "a=1; Domain=news.de; Domain=co.uk",
])
def test_a_cached_rejection_quotes_the_current_header(header):
    url = parse("https://news.de/")
    # Prime the memo with another pair over the same tail.
    _, _, tail = header.partition(";")
    with pytest.raises(CookieError):
        parse_set_cookie(f"primer=0;{tail}", url)
    with pytest.raises(CookieError) as exc_info:
        parse_set_cookie(header, url)
    with pytest.raises(CookieError) as expected:
        reference_parse_set_cookie(header, url)
    assert str(exc_info.value) == str(expected.value)


def test_the_same_tail_resolves_per_host():
    tail = "; Domain=news.de; Max-Age=60"
    cookie = parse_set_cookie("a=1" + tail, parse("https://www.news.de/"))
    assert cookie.domain == "news.de" and not cookie.host_only
    with pytest.raises(CookieError, match="does not match host 'tracker.net'"):
        parse_set_cookie("a=1" + tail, parse("https://tracker.net/"))
