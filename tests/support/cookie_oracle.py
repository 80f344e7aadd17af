"""The reference ``Set-Cookie`` parser: one linear pass, no memoisation.

:func:`repro.httpkit.cookies.parse_set_cookie` memoises the attribute
tail per request host; ``tests/test_set_cookie_differential.py`` holds
it to this oracle, which must give the same :class:`Cookie` or the same
:class:`CookieError` message for every header and host.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CookieError
from repro.httpkit.cookies import Cookie, domain_match
from repro.urlkit import URL, is_public_suffix


def reference_parse_set_cookie(header: str, request_url: URL) -> Cookie:
    """Parse a ``Set-Cookie`` header value in the context of a request.

    Raises :class:`CookieError` for cookies a browser would reject
    (empty names, domains that do not domain-match the request host,
    attempts to set cookies for a public suffix).
    """
    parts = header.split(";")
    name, sep, value = parts[0].partition("=")
    name = name.strip()
    value = value.strip().strip('"')
    if not sep or not name:
        raise CookieError(f"malformed cookie pair in {header!r}")

    domain = request_url.host
    host_only = True
    path = "/"
    secure = False
    http_only = False
    max_age: Optional[int] = None
    same_site = "lax"

    for part in parts[1:]:
        attr, _, attr_value = part.partition("=")
        attr = attr.strip().lower()
        attr_value = attr_value.strip()
        if attr == "domain" and attr_value:
            candidate = attr_value.lstrip(".").lower()
            if is_public_suffix(candidate):
                raise CookieError(
                    f"cookie domain {candidate!r} is a public suffix"
                )
            if not domain_match(request_url.host, candidate):
                raise CookieError(
                    f"cookie domain {candidate!r} does not match host "
                    f"{request_url.host!r}"
                )
            domain = candidate
            host_only = False
        elif attr == "path" and attr_value.startswith("/"):
            path = attr_value
        elif attr == "secure":
            secure = True
        elif attr == "httponly":
            http_only = True
        elif attr == "max-age":
            try:
                max_age = int(attr_value)
            except ValueError:
                raise CookieError(f"bad Max-Age in {header!r}") from None
        elif attr == "samesite" and attr_value:
            same_site = attr_value.lower()

    return Cookie(
        name=name,
        value=value,
        domain=domain,
        path=path,
        secure=secure,
        http_only=http_only,
        host_only=host_only,
        max_age=max_age,
        same_site=same_site,
    )

