"""The package's public surface: ``beslab.__all__`` names exactly what it exports."""

from __future__ import annotations

import types

import beslab


def test_all_lists_every_public_name_once():
    assert len(beslab.__all__) == len(set(beslab.__all__))
    public = {
        name
        for name, value in vars(beslab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(beslab.__all__) == public
