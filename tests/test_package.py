"""The package namespace."""

import chronotax


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from chronotax import *", namespace)
    assert set(chronotax.__all__) <= set(namespace)
