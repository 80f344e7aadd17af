"""Browser core: navigation, subresource loading, and interaction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple, Union

from repro.browser.effects import EFFECTS_CONTENT_TYPE, EffectRuntime, decode_effects
from repro.browser.extensions import Extension
from repro.browser.page import Page
from repro.dom import Document, Element, Node, ShadowRoot
from repro.errors import (
    ElementNotInteractableError,
    NavigationError,
    NetworkError,
    is_transient,
)
from repro import perf
from repro.httpkit import CookieJar, Headers, Request, Response
from repro.netsim import Network, VisitorContext
from repro.soup import parse_document
from repro.soup.cache import DocumentCache, shared_document_cache
from repro.urlkit import URL, parse
from repro.vantage import VantagePoint

_DEFAULT_UA = "Mozilla/5.0 (X11; Linux x86_64) repro-openwpm/1.0"
_MAX_FRAME_DEPTH = 3


@dataclass
class ClickOutcome:
    """What happened when an element was clicked."""

    action: str
    cookie: Optional[Tuple[str, str]] = None
    removed_banner: bool = False
    navigate_to: Optional[str] = None


class Browser:
    """A headless measurement browser bound to one vantage point."""

    def __init__(
        self,
        network: Network,
        vp: VantagePoint,
        *,
        jar: Optional[CookieJar] = None,
        extensions: Iterable[Extension] = (),
        instruments: Iterable = (),
        stealth: bool = True,
        user_agent: str = _DEFAULT_UA,
        visit_ids: Optional[Callable[[], int]] = None,
        parse_cache: Optional[DocumentCache] = shared_document_cache,
    ) -> None:
        self.network = network
        self.vp = vp
        self.jar = jar if jar is not None else CookieJar()
        self.extensions: List[Extension] = list(extensions)
        #: OpenWPM-style instruments (see repro.measure.instrumentation).
        self.instruments: List = list(instruments)
        self.stealth = stealth
        self.user_agent = user_agent
        #: Optional private visit-id allocator.  By default navigations
        #: draw from the network's shared monotonic counter; the crawl
        #: engine's per-task regime supplies a deterministic per-task
        #: stream instead so measurements don't depend on scheduling.
        self._visit_ids = visit_ids
        #: Parsed-document cache (None disables).  Identical response
        #: bodies across visits/VPs/repeats are parsed once and rebuilt
        #: from a cached snapshot.
        self._parse_cache = parse_cache
        self._visitor: Optional[VisitorContext] = None

    def _parse(self, body: str, url: str) -> Document:
        """Parse an HTML body, via the document cache when enabled."""
        if self._parse_cache is not None and perf.config.parse_cache:
            return self._parse_cache.parse(body, url)
        return parse_document(body, url=url)

    def _emit(self, hook: str, *args) -> None:
        for instrument in self.instruments:
            getattr(instrument, hook)(*args)

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def visit(self, target: Union[str, URL]) -> Page:
        """Navigate to *target* (domain or URL) and fully load the page."""
        url = self._coerce_url(target)
        self._visitor = VisitorContext(
            vp=self.vp,
            user_agent=self.user_agent,
            stealth=self.stealth,
            visit_id=(
                self._visit_ids()
                if self._visit_ids is not None
                else self.network.next_visit_id()
            ),
        )
        visit_id = self._visitor.visit_id
        self._emit("on_navigation", visit_id, str(url))
        request = self._build_request(url, None, "document")
        self._emit("on_request", visit_id, request)
        try:
            response = self.network.fetch(request, self._visitor)
        except NetworkError as exc:
            self._emit("on_failed", visit_id, request)
            if is_transient(exc):
                # Transient faults (timeouts, disconnects, DNS flaps)
                # must surface unwrapped so the engine's retry layer
                # can classify and re-attempt the visit.
                raise
            raise NavigationError(f"cannot load {url}: {exc}") from exc
        self._emit("on_response", visit_id, response)
        self._store_cookies(response)
        if response.status >= 500:
            raise NavigationError(f"{url} answered {response.status}")
        document = self._parse(response.body, str(url))
        page = Page(self, url, document)
        page.status = response.status
        page.requests.append(request)
        self._process_tree(page, document, depth=0)
        for extension in self.extensions:
            extension.on_document_ready(page)
        return page

    def reload(self, page: Page) -> Page:
        """Re-navigate to the page's URL with the current cookie jar."""
        return self.visit(page.url)

    def clear_site_data(self, site: str) -> int:
        """Delete cookies for *site* (the §5 'revoke acceptance' flow)."""
        return self.jar.clear(site=site)

    def _coerce_url(self, target: Union[str, URL]) -> URL:
        if isinstance(target, URL):
            return target
        if "://" not in target:
            return parse(f"https://{target}/")
        return parse(target)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _build_request(
        self, url: URL, initiator: Optional[URL], resource_type: str
    ) -> Request:
        headers = Headers([("user-agent", self.user_agent)])
        first_party = initiator.site if initiator is not None else url.site
        cookies = self.jar.cookies_for(url, first_party_site=first_party)
        if cookies:
            headers.add(
                "cookie", "; ".join(f"{c.name}={c.value}" for c in cookies)
            )
        return Request(
            url=url,
            headers=headers,
            initiator=initiator,
            resource_type=resource_type,
        )

    def _store_cookies(self, response: Response) -> None:
        for header in response.set_cookie_headers:
            self.jar.set_from_header(header, response.request.url)

    def fetch_subresource(
        self, page: Page, target: Union[str, URL], *, resource_type: str = "script"
    ) -> Optional[Response]:
        """Fetch a subresource for *page*; None when blocked or failed.

        Script responses carrying DOM effects are executed against the
        page, and any nodes they add are scanned for further resources.
        """
        url = page.url.join(target) if isinstance(target, str) else target
        request = self._build_request(url, page.url, resource_type)
        page.requests.append(request)
        assert self._visitor is not None, "fetch outside a navigation"
        visit_id = self._visitor.visit_id
        self._emit("on_request", visit_id, request)
        for extension in self.extensions:
            if extension.should_block(request, page):
                page.blocked_requests.append(request)
                self._emit("on_blocked", visit_id, request)
                return None
        try:
            response = self.network.fetch(request, self._visitor)
        except NetworkError as exc:
            if is_transient(exc):
                # A mid-visit disconnect/timeout invalidates the whole
                # page load; swallowing it here would let chaos faults
                # silently alter records and break the differential
                # oracle.  Abort the visit and let the retry layer
                # replay it from the top.
                self._emit("on_failed", visit_id, request)
                raise
            page.failed_requests.append(request)
            self._emit("on_failed", visit_id, request)
            return None
        self._emit("on_response", visit_id, response)
        self._store_cookies(response)
        if response.content_type.startswith(EFFECTS_CONTENT_TYPE):
            runtime = EffectRuntime(page)
            added = runtime.apply(decode_effects(response.body))
            for node in added:
                self._process_tree(page, node, depth=0)
        return response

    # ------------------------------------------------------------------
    # Subresource pipeline
    # ------------------------------------------------------------------
    def _process_tree(self, page: Page, root: Node, depth: int) -> None:
        """Load every resource reachable from *root* (scripts, images,
        stylesheets, iframes), entering shadow roots and frames."""
        if depth > _MAX_FRAME_DEPTH:
            return
        candidates = []
        if isinstance(root, Element):
            candidates.append(root)
        candidates.extend(
            el for el in root.elements(include_shadow=True)
        )
        for element in candidates:
            self._handle_element(page, element, depth)

    def _handle_element(self, page: Page, element: Element, depth: int) -> None:
        if id(element) in page.processed_elements:
            return
        page.processed_elements.add(id(element))
        tag = element.tag
        if tag == "script" and element.get_attribute("src"):
            self.fetch_subresource(
                page, element.get_attribute("src"), resource_type="script"
            )
        elif tag == "img" and element.get_attribute("src"):
            self.fetch_subresource(
                page, element.get_attribute("src"), resource_type="image"
            )
        elif tag == "link" and element.get_attribute("rel") == "stylesheet":
            href = element.get_attribute("href")
            if href:
                self.fetch_subresource(page, href, resource_type="stylesheet")
        elif tag == "iframe":
            self._handle_iframe(page, element, depth)

    def _handle_iframe(self, page: Page, element: Element, depth: int) -> None:
        if element.content_document is not None:
            # Inline (srcdoc) frame: content came with the page.
            self._process_tree(page, element.content_document, depth + 1)
            return
        src = element.get_attribute("src")
        if not src:
            return
        response = self.fetch_subresource(page, src, resource_type="subdocument")
        if response is None or not response.ok:
            return
        if response.content_type.startswith(EFFECTS_CONTENT_TYPE):
            return
        frame_url = page.url.join(src)
        element.content_document = self._parse(response.body, str(frame_url))
        self._process_tree(page, element.content_document, depth + 1)

    # ------------------------------------------------------------------
    # Interaction
    # ------------------------------------------------------------------
    def click(self, page: Page, element: Element) -> ClickOutcome:
        """Click *element* on *page*, interpreting declarative actions.

        Buttons in the synthetic web carry ``data-action`` attributes
        (``accept`` / ``reject`` / ``subscribe`` / ``dismiss``) plus the
        consent cookie name, just like real CMP buttons ultimately
        resolve to a consent-cookie write.
        """
        if not element.is_visible():
            raise ElementNotInteractableError(f"{element!r} is not visible")
        if element.owner_document is None:
            raise ElementNotInteractableError(f"{element!r} is detached")
        if element.on_click is not None:
            element.on_click(element)
        action = element.get_attribute("data-action") or "none"
        outcome = ClickOutcome(action=action)
        if action in ("accept", "reject"):
            name = element.get_attribute("data-cookie") or "cmp_consent"
            value = "accept" if action == "accept" else "reject"
            cmp_id = element.get_attribute("data-cmp-id")
            if cmp_id and cmp_id.isdigit():
                # CMP-backed buttons persist an IAB-TCF-style string.
                from repro.consent.tcf import accept_all_string, reject_all_string

                value = (
                    accept_all_string(int(cmp_id))
                    if action == "accept"
                    else reject_all_string(int(cmp_id))
                )
            site = page.url.site
            header = f"{name}={value}; Max-Age=31536000"
            if site:
                header += f"; Domain={site}"
            self.jar.set_from_header(header, page.url)
            outcome.cookie = (name, "accept" if action == "accept" else "reject")
            outcome.removed_banner = self._remove_banner_for(page, element)
        elif action in ("dismiss", "close"):
            outcome.removed_banner = self._remove_banner_for(page, element)
        elif action == "subscribe":
            outcome.navigate_to = element.get_attribute("data-href")
            page.flags["subscribe_clicked"] = True
        return outcome

    def _remove_banner_for(self, page: Page, element: Element) -> bool:
        """Remove the banner container enclosing *element*.

        Handles all three embedding styles the paper catalogues: main
        DOM, shadow DOM (detaches the shadow host) and iframes (detaches
        the iframe element).
        """
        node: Optional[Node] = element
        while node is not None:
            if isinstance(node, Element) and node.has_attribute("data-banner"):
                node.detach()
                return True
            if isinstance(node, ShadowRoot):
                node = node.host
                continue
            if node.parent is None and isinstance(node, Document):
                frame = self._find_frame_element(page, node)
                if frame is None:
                    return False
                node = frame
                continue
            node = node.parent
        return False

    def _find_frame_element(self, page: Page, doc: Document) -> Optional[Element]:
        for candidate_doc in page.all_documents():
            for el in candidate_doc.elements(include_shadow=True):
                if el.tag == "iframe" and el.content_document is doc:
                    return el
        return None
