"""The packages' export lists: every name resolves and is listed once."""

import pytest

import subicap
import subicap.model


@pytest.mark.parametrize("package", [subicap, subicap.model],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves_once(package):
    names = package.__all__
    assert sorted(set(names)) == sorted(names)
    assert [n for n in names if not hasattr(package, n)] == []
