"""The package's public surface is exactly what ``__all__`` lists."""

import inspect

import modernsets


def test_all_lists_every_public_name_once():
    public = {
        name
        for name, value in vars(modernsets).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(modernsets.__all__) == len(set(modernsets.__all__))
    assert set(modernsets.__all__) == public
