"""``entwitness.__all__``: every name resolves, and none is listed twice."""

import collections

import entwitness


def test_every_public_name_resolves():
    missing = [name for name in entwitness.__all__ if not hasattr(entwitness, name)]
    assert missing == []


def test_no_public_name_repeats():
    repeated = [name for name, n in collections.Counter(entwitness.__all__).items() if n > 1]
    assert repeated == []
