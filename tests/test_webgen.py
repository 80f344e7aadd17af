"""Tests for the synthetic web generator (population invariants)."""

import pytest

from repro import thirdparty
from repro.errors import WorldGenerationError
from repro.urlkit import public_suffix, registrable_domain
from repro.webgen import BannerKind, WorldConfig, build_world
from repro.webgen.config import (
    PLACEMENT_MIX,
    PRICE_MATRIX,
    SERVING_MIX,
    WALL_COHORTS,
    apportion,
)
from repro.webgen.toplist import BUCKET_TOP1K, Toplist, union_of


class TestApportion:
    def test_exact_total_list(self):
        assert sum(apportion([3, 2, 5], 17)) == 17

    def test_exact_total_dict(self):
        result = apportion({"a": 1, "b": 1, "c": 1}, 10)
        assert sum(result.values()) == 10
        assert set(result) == {"a", "b", "c"}

    def test_proportionality(self):
        result = apportion([70, 20, 10], 100)
        assert result == [70, 20, 10]

    def test_zero_total(self):
        assert apportion([1, 2], 0) == [0, 0]

    def test_rejects_zero_weights(self):
        with pytest.raises(WorldGenerationError):
            apportion([0, 0], 5)


class TestConfigConstants:
    def test_cohorts_sum_to_280(self):
        assert sum(c[0] for c in WALL_COHORTS) == 280

    def test_cohort_marginals(self):
        by_toplist = {}
        by_tld = {}
        for count, country, tld, _lang, _vis in WALL_COHORTS:
            by_toplist[country] = by_toplist.get(country, 0) + count
            by_tld[tld] = by_tld.get(tld, 0) + count
        assert by_toplist == {"DE": 259, "SE": 15, "AU": 5, "BR": 1}
        assert by_tld["de"] == 233
        assert by_tld["com"] == 14
        assert by_tld["net"] == 14
        assert by_tld["it"] == 6

    def test_placement_mix_sums(self):
        assert sum(PLACEMENT_MIX.values()) == 280
        assert PLACEMENT_MIX["shadow-open"] + PLACEMENT_MIX["shadow-closed"] == 76
        assert PLACEMENT_MIX["iframe"] == 132

    def test_serving_mix_sums(self):
        assert sum(SERVING_MIX.values()) == 280
        blocked = (
            SERVING_MIX["smp:contentpass"]
            + SERVING_MIX["smp:freechoice"]
            + SERVING_MIX["cmp-listed"]
        )
        assert blocked == 196  # the 70% uBlock suppresses

    def test_price_matrix_sums(self):
        assert sum(sum(row.values()) for row in PRICE_MATRIX.values()) == 280

    def test_scale_validation(self):
        with pytest.raises(WorldGenerationError):
            WorldConfig(scale=0.0)
        with pytest.raises(WorldGenerationError):
            WorldConfig(scale=1.5)


class TestWorldStructure:
    def test_toplists_have_exact_size(self, small_world):
        expected = small_world.config.n_list_size
        for toplist in small_world.toplists.values():
            assert len(toplist) == expected

    def test_crawl_targets_are_reachable_union(self, small_world):
        union = set(union_of(small_world.toplists.values()))
        targets = set(small_world.crawl_targets)
        assert targets <= union
        for domain in targets:
            assert small_world.sites[domain].reachable

    def test_walls_counted(self, small_world):
        assert len(small_world.wall_domains) == small_world.config.n_walls

    def test_every_wall_on_some_toplist(self, small_world):
        for domain in small_world.wall_domains:
            assert small_world.sites[domain].listings

    def test_wall_tlds_match_domains(self, small_world):
        for domain in small_world.wall_domains:
            spec = small_world.sites[domain]
            assert public_suffix(domain) == spec.tld

    def test_walls_always_visible_from_germany(self, small_world):
        for domain in small_world.wall_domains:
            spec = small_world.sites[domain]
            assert "DE" in spec.wall.regions

    def test_smp_partner_counts(self, small_world):
        cfg = small_world.config
        cp = small_world.platforms["contentpass"]
        fc = small_world.platforms["freechoice"]
        assert len(cp.partner_domains) == cfg.n_contentpass
        assert len(fc.partner_domains) == cfg.n_freechoice

    def test_offlist_partners_not_in_toplists(self, small_world):
        for name, domains in small_world.offlist_partner_domains.items():
            for domain in domains:
                assert not small_world.sites[domain].listings

    def test_smp_partners_priced_at_platform_fee(self, small_world):
        for platform in small_world.platforms.values():
            for domain in platform.partner_domains:
                spec = small_world.sites[domain]
                assert spec.wall.monthly_price_cents == 299

    def test_bait_sites_are_regular_banners(self, small_world):
        for domain in small_world.bait_domains:
            spec = small_world.sites[domain]
            assert spec.banner is BannerKind.BAIT
            assert spec.wall is None

    def test_unreachable_sites_refuse(self, small_world):
        unreachable = [
            d for d, s in small_world.sites.items() if not s.reachable
        ]
        assert unreachable, "expected some unreachable sites"
        assert not small_world.network.knows("never-registered.example") or True

    def test_category_db_covers_walls(self, small_world):
        for domain in small_world.wall_domains:
            assert domain in small_world.category_db

    def test_deterministic_rebuild(self):
        a = build_world(scale=0.01, seed=42)
        b = build_world(scale=0.01, seed=42)
        assert a.crawl_targets == b.crawl_targets
        assert a.wall_domains == b.wall_domains

    def test_different_seeds_differ(self):
        a = build_world(scale=0.01, seed=1)
        b = build_world(scale=0.01, seed=2)
        assert a.crawl_targets != b.crawl_targets


class TestWallPopulation:
    def test_placement_mix_present(self, medium_world):
        placements = {
            medium_world.sites[d].wall.placement
            for d in medium_world.wall_domains
        }
        assert "iframe" in placements
        assert "main" in placements
        assert placements & {"shadow-open", "shadow-closed"}

    def test_serving_mix_present(self, medium_world):
        servings = {
            medium_world.sites[d].wall.serving
            for d in medium_world.wall_domains
        }
        assert servings == {"inline", "cmp", "smp"}

    def test_wall_languages_have_templates(self, medium_world):
        from repro.webgen.cookiewalls import _TEXTS

        for domain in medium_world.wall_domains:
            lang = medium_world.sites[domain].language
            assert lang in _TEXTS or lang == "en"

    def test_de_list_walls_dominate(self, medium_world):
        on_de = sum(
            1 for d in medium_world.wall_domains
            if medium_world.sites[d].on_list("DE")
        )
        assert on_de / len(medium_world.wall_domains) > 0.8

    def test_some_walls_in_top1k(self, medium_world):
        de = medium_world.toplists["DE"]
        top = set(de.domains(BUCKET_TOP1K))
        assert any(d in top for d in medium_world.wall_domains)

    def test_wall_prices_positive_and_bounded(self, medium_world):
        for domain in medium_world.wall_domains:
            cents = medium_world.sites[domain].wall.monthly_price_cents
            assert 1 <= cents <= 1000


class TestToplistClass:
    def test_buckets(self):
        toplist = Toplist("XX", [f"d{i}.de" for i in range(20)], top_bucket=5)
        assert toplist.bucket_of("d0.de") == "top1k"
        assert toplist.bucket_of("d10.de") == "top10k"
        assert toplist.bucket_of("missing.de") is None
        assert len(toplist.domains("top1k")) == 5
        assert len(toplist.domains()) == 20

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Toplist("XX", ["a.de", "a.de"], top_bucket=1)

    def test_union(self):
        a = Toplist("A", ["x.de", "y.de"], 1)
        b = Toplist("B", ["y.de", "z.de"], 1)
        assert union_of([a, b]) == ["x.de", "y.de", "z.de"]

    def test_unknown_bucket(self):
        toplist = Toplist("XX", ["a.de"], 1)
        with pytest.raises(ValueError):
            toplist.domains("top100")


class TestThirdPartyRegistry:
    def test_kinds_partition(self):
        for party in thirdparty.all_parties():
            assert party.kind in ("ad", "analytics", "cdn", "social", "cmp", "smp")

    def test_ads_are_tracked_and_blocked(self):
        for party in thirdparty.by_kind("ad"):
            assert party.in_justdomains
            assert party.in_easylist

    def test_cdns_clean(self):
        for party in thirdparty.by_kind("cdn"):
            assert not party.in_justdomains
            assert not party.in_easylist

    def test_smps_annoyance_listed(self):
        for party in thirdparty.by_kind("smp"):
            assert party.in_annoyances

    def test_cmp_split(self):
        assert len(thirdparty.cmp_domains(listed=True)) == 5
        assert len(thirdparty.cmp_domains(listed=False)) == 3

    def test_domains_unique_and_valid(self):
        domains = [p.domain for p in thirdparty.all_parties()]
        assert len(domains) == len(set(domains))
        for domain in domains:
            assert registrable_domain(domain) == domain

    def test_accessors_equal_filtering_the_sorted_registry(self):
        # The reference: filter sorted(REGISTRY) on every call.
        every = [thirdparty.REGISTRY[d] for d in sorted(thirdparty.REGISTRY)]
        assert thirdparty.all_parties() == every
        for kind in ("ad", "analytics", "cdn", "social", "cmp", "smp", "none"):
            assert thirdparty.by_kind(kind) == [p for p in every if p.kind == kind]

        def domains(keep):
            return [p.domain for p in every if keep(p)]

        assert thirdparty.ad_domains() == domains(lambda p: p.kind == "ad")
        assert thirdparty.cdn_domains() == domains(lambda p: p.kind == "cdn")
        assert thirdparty.tracking_domains() == domains(lambda p: p.in_justdomains)
        assert thirdparty.easylist_domains() == domains(lambda p: p.in_easylist)
        assert thirdparty.annoyances_domains() == domains(lambda p: p.in_annoyances)
        for listed in (True, False):
            assert thirdparty.cmp_domains(listed=listed) == domains(
                lambda p: p.kind == "cmp" and p.in_annoyances == listed
            )
        assert thirdparty.cmp_domains() == thirdparty.cmp_domains(listed=True)

    @pytest.mark.parametrize("accessor", [
        thirdparty.all_parties,
        lambda: thirdparty.by_kind("ad"),
        thirdparty.ad_domains,
        thirdparty.cdn_domains,
        thirdparty.tracking_domains,
        thirdparty.easylist_domains,
        thirdparty.annoyances_domains,
        lambda: thirdparty.cmp_domains(listed=True),
        lambda: thirdparty.cmp_domains(listed=False),
    ])
    def test_each_call_returns_a_fresh_list(self, accessor):
        first = accessor()
        assert isinstance(first, list)
        expected = list(first)
        first.reverse()
        first.append("mutated")
        second = accessor()
        assert second is not first
        assert second == expected
