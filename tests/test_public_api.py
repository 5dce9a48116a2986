"""The package's public surface."""

import inspect

import mckaykit


def test_all_lists_exactly_the_bound_public_names():
    bound = {name for name, obj in vars(mckaykit).items()
             if not name.startswith("_") and not inspect.ismodule(obj)}
    assert set(mckaykit.__all__) == bound
    assert len(mckaykit.__all__) == len(bound)
