"""The package's export list and its imports cannot drift apart."""

from __future__ import annotations

import rxcheck


def test_every_export_resolves_and_appears_once():
    assert len(rxcheck.__all__) == len(set(rxcheck.__all__))
    assert [name for name in rxcheck.__all__ if not hasattr(rxcheck, name)] == []
