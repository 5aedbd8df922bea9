"""The package's public names: every export resolves, once."""

import loglap


def test_all_names_resolve_without_duplicates():
    assert len(loglap.__all__) == len(set(loglap.__all__))
    missing = [name for name in loglap.__all__ if not hasattr(loglap, name)]
    assert not missing, missing


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from loglap import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(loglap.__all__)
