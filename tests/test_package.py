from __future__ import annotations

import spinalg


def test_every_export_resolves_once():
    """Each name in __all__ is an attribute of the package and is listed once."""
    missing = [name for name in spinalg.__all__ if not hasattr(spinalg, name)]
    assert missing == []
    assert sorted({n for n in spinalg.__all__ if spinalg.__all__.count(n) > 1}) == []
