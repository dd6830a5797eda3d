from __future__ import annotations

import hypernest


def test_every_public_name_resolves():
    missing = [name for name in hypernest.__all__ if not hasattr(hypernest, name)]
    assert missing == []
    namespace: dict = {}
    exec("from hypernest import *", namespace)
    assert set(hypernest.__all__) <= set(namespace)
