"""The canonical third-party ecosystem of the synthetic web.

Real measurement studies, blocklists, and filter lists all reference
the same universe of third-party domains (ad networks, analytics,
CDNs, consent platforms).  This module is that shared universe for the
simulation: the web generator wires sites to these parties, the
justdomains-style blocklist classifies their cookies as tracking, and
the uBlock-style filter lists block them.

Kinds
-----
``ad``         advertising/tracking networks — set (many) cookies,
               listed in justdomains and EasyList.
``analytics``  measurement scripts — some tracking-listed.
``cdn``        content delivery — set benign cookies, never listed.
``social``     social widgets — tracking-listed.
``cmp``        Consent Management Platforms — serve banner scripts;
               a subset is on the Annoyances filter list (paper §4.5
               footnote: ``*cdn.opencmp.net/*`` etc.).
``smp``        Subscription Management Platforms (paper §4.4):
               contentpass and freechoice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class ThirdParty:
    """One third-party service with its list memberships."""

    domain: str
    kind: str
    sets_cookies: bool = True
    #: Cookie domains classified as tracking by the justdomains list.
    in_justdomains: bool = False
    #: Blocked by uBlock's default (EasyList-style) lists.
    in_easylist: bool = False
    #: Blocked only when the Annoyances lists are enabled (paper §4.5).
    in_annoyances: bool = False


# ---------------------------------------------------------------------------
# Advertising networks (tracking).  A few real-world names plus a
# synthetic long tail, all classified as tracking and ad-blocked.
# ---------------------------------------------------------------------------
_REAL_AD_DOMAINS = [
    "doubleclick.net",
    "adnxs.com",
    "criteo.com",
    "pubmatic.com",
    "rubiconproject.com",
    "taboola.com",
    "outbrain.com",
    "amazon-adsystem.com",
    "openx.net",
    "smartadserver.com",
    "adform.net",
    "yieldlab.net",
    "indexexchange.com",
    "teads.tv",
    "sovrn.com",
]

_SYNTH_AD_STEMS = [
    "trackmax", "advault", "pixelgrid", "bidstreamr", "clickhive",
    "audiencely", "retargo", "admastery", "yieldora", "bannerbeam",
    "impressly", "syncpixel", "datahoover", "profilery", "admatcher",
    "bidfloor", "popreach", "viewlytics", "tagspinner", "cookiecast",
    "adfunnelr", "reachmatic", "monetizly", "trackline", "audimetry",
    "pixelforge", "admixdepot", "bannerwerk", "werbenetz", "anzeigenmax",
    "adkontor", "reklamehub", "spotwechsel", "klickprofi", "zielgruppe24",
    "mediavermarkt", "adleitung", "datenspur", "nutzerprofil", "werbeturm",
]

_SYNTH_AD_TLDS = ("com", "net", "io")


def _synthetic_ad_domains() -> List[str]:
    domains = []
    for index, stem in enumerate(_SYNTH_AD_STEMS):
        tld = _SYNTH_AD_TLDS[index % len(_SYNTH_AD_TLDS)]
        domains.append(f"{stem}.{tld}")
    return domains


# ---------------------------------------------------------------------------
# Analytics, CDNs, social widgets.
# ---------------------------------------------------------------------------
_ANALYTICS = [
    # (domain, tracking-listed)
    ("google-analytics.com", True),
    ("scorecardresearch.com", True),
    ("quantserve.com", True),
    ("hotjar.com", True),
    ("chartbeat.com", False),
    ("newrelic-metrics.com", False),
    ("statspulse.io", False),
    ("webmetrik.de", False),
    ("besucherzahl.de", False),
    ("matomo-cloud.net", False),
]

_CDN = [
    "cdnedge.net", "fastassets.com", "staticfarm.net", "webcachepro.com",
    "globalcdn.io", "assetsky.net", "speedyfiles.com", "mirrorgrid.net",
    "contentrelay.com", "edgevault.io", "bildercdn.de", "schnellcdn.de",
    "fontstatic.com", "scriptlib.net", "stylesheetcdn.com",
]

_SOCIAL = [
    ("facebook.net", True),
    ("twitter-widgets.com", True),
    ("linkedin-insights.com", True),
    ("sharebuttons.io", False),
    ("socialembed.net", False),
]

# ---------------------------------------------------------------------------
# Consent Management Platforms.  The first group is on the Annoyances
# filter lists (as in the paper's footnote 7); the "lesser-known" group
# evades blocking (paper §4.5: some cookiewalls use unlisted domains).
# ---------------------------------------------------------------------------
_CMP_LISTED = [
    "opencmp.net",
    "consentmanager.net",
    "usercentrics.eu",
    "sourcepoint-cmp.com",
    "consentframework.com",
]

_CMP_UNLISTED = [
    "privacyhub-cdn.com",
    "einwilligung-service.de",
    "consentloader.net",
]

# ---------------------------------------------------------------------------
# Subscription Management Platforms (paper §4.4).
# ---------------------------------------------------------------------------
SMP_CONTENTPASS = "contentpass.net"
SMP_FREECHOICE = "freechoice.club"
_SMP = [SMP_CONTENTPASS, SMP_FREECHOICE]


def _build_registry() -> Dict[str, ThirdParty]:
    registry: Dict[str, ThirdParty] = {}

    def add(party: ThirdParty) -> None:
        registry[party.domain] = party

    for domain in _REAL_AD_DOMAINS + _synthetic_ad_domains():
        add(ThirdParty(domain, "ad", sets_cookies=True,
                       in_justdomains=True, in_easylist=True))
    for domain, tracked in _ANALYTICS:
        add(ThirdParty(domain, "analytics", sets_cookies=True,
                       in_justdomains=tracked, in_easylist=tracked))
    for domain in _CDN:
        add(ThirdParty(domain, "cdn", sets_cookies=True))
    for domain, tracked in _SOCIAL:
        add(ThirdParty(domain, "social", sets_cookies=True,
                       in_justdomains=tracked, in_easylist=False))
    for domain in _CMP_LISTED:
        add(ThirdParty(domain, "cmp", sets_cookies=False,
                       in_annoyances=True))
    for domain in _CMP_UNLISTED:
        add(ThirdParty(domain, "cmp", sets_cookies=False))
    for domain in _SMP:
        add(ThirdParty(domain, "smp", sets_cookies=True,
                       in_annoyances=True))
    return registry


REGISTRY: Dict[str, ThirdParty] = _build_registry()

# The accessors below read constants derived from REGISTRY once, at
# import: nothing in the package, its tests, tools or benchmarks writes
# to REGISTRY after this point (every other use is a read through
# these functions), so sorting and partitioning it per call
# — world generation makes thousands of calls — would redo the same
# work.  Each accessor still returns a fresh list, so a caller that
# shuffles or extends its result cannot corrupt the pools.
_ALL: Tuple[ThirdParty, ...] = tuple(REGISTRY[d] for d in sorted(REGISTRY))
_BY_KIND: Dict[str, Tuple[ThirdParty, ...]] = {
    kind: tuple(p for p in _ALL if p.kind == kind)
    for kind in dict.fromkeys(p.kind for p in _ALL)
}


def _domains(parties) -> Tuple[str, ...]:
    return tuple(p.domain for p in parties)


_AD_DOMAINS = _domains(_BY_KIND["ad"])
_CDN_DOMAINS = _domains(_BY_KIND["cdn"])
_TRACKING = _domains(p for p in _ALL if p.in_justdomains)
_EASYLIST = _domains(p for p in _ALL if p.in_easylist)
_ANNOYANCES = _domains(p for p in _ALL if p.in_annoyances)
_CMPS = {
    listed: _domains(p for p in _BY_KIND["cmp"] if p.in_annoyances == listed)
    for listed in (True, False)
}


def all_parties() -> List[ThirdParty]:
    """Every third party, in a stable order."""
    return list(_ALL)


def by_kind(kind: str) -> List[ThirdParty]:
    """All parties of one kind, in a stable order."""
    return list(_BY_KIND.get(kind, ()))


def ad_domains() -> List[str]:
    return list(_AD_DOMAINS)


def cdn_domains() -> List[str]:
    return list(_CDN_DOMAINS)


def tracking_domains() -> List[str]:
    """Domains the justdomains-style list marks as tracking."""
    return list(_TRACKING)


def easylist_domains() -> List[str]:
    return list(_EASYLIST)


def annoyances_domains() -> List[str]:
    return list(_ANNOYANCES)


def cmp_domains(listed: bool = True) -> List[str]:
    return list(_CMPS.get(listed, ()))


def serving_host(domain: str) -> str:
    """The host third parties serve scripts from (``cdn.`` prefix)."""
    return f"cdn.{domain}"
