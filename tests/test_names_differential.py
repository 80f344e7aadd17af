"""Differential test: the domain namer vs its ``rng.choice`` reference.

:func:`repro.webgen.names.make_domain` inlines ``random.Random.choice``
to make each draw cheaper.  Every later site, toplist and wall of a
world depends on how much of the generator stream it consumes, so after
every call it must leave exactly what the reference
(``tests/support/names_oracle.py``) leaves: the same name, the same
``used`` set, and the same generator state.  ``used`` sets are
pre-filled up to full saturation of the stem x suffix namespace, which
forces the numbered fallback.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.webgen.names import _STEMS, _SUFFIXES, make_domain
from tests.support.names_oracle import reference_make_domain

#: Every stem language plus one the namer does not know (the ``en``
#: fallback).
_LANGUAGES = tuple(sorted(_STEMS)) + ("xx",)
_TLDS = ("de", "com", "se", "co.uk")
#: Share of the stem x suffix namespace taken before the first call.
_FILLS = (0.0, 0.5, 0.9, 0.99, 1.0)


def _prefilled(language, tld, fill, numbered, pick_seed):
    stems = _STEMS.get(language, _STEMS["en"])
    namespace = [f"{stem}{suffix}.{tld}" for stem in stems for suffix in _SUFFIXES]
    picker = random.Random(pick_seed)
    used = set(picker.sample(namespace, round(len(namespace) * fill)))
    for stem in stems:
        used.update(f"{stem}{k}.{tld}" for k in range(1, numbered + 1))
    return used


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    language=st.sampled_from(_LANGUAGES),
    tld=st.sampled_from(_TLDS),
    fill=st.sampled_from(_FILLS),
    numbered=st.integers(min_value=0, max_value=3),
    pick_seed=st.integers(min_value=0, max_value=2**32 - 1),
    calls=st.integers(min_value=1, max_value=25),
)
def test_make_domain_matches_reference(
    seed, language, tld, fill, numbered, pick_seed, calls
):
    used = _prefilled(language, tld, fill, numbered, pick_seed)
    ref_used = set(used)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(calls):
        got = make_domain(rng, language, tld, used)
        want = reference_make_domain(ref_rng, language, tld, ref_used)
        assert got == want
        assert used == ref_used
        assert rng.getstate() == ref_rng.getstate()


def test_saturated_namespace_takes_the_numbered_fallback():
    used = _prefilled("it", "it", 1.0, 0, 0)
    before = set(used)
    name = make_domain(random.Random(5), "it", "it", used)
    assert name not in before
    assert name.split(".")[0][-1].isdigit()
    assert used == before | {name}
