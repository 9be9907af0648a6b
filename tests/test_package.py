import importlib
import types

import pytest

import lieclass


def test_every_public_name_resolves():
    assert len(set(lieclass.__all__)) == len(lieclass.__all__)
    for name in lieclass.__all__:
        assert getattr(lieclass, name) is not None, name


def test_all_matches_the_table():
    assert set(lieclass.__all__) == set(lieclass._HOME) | {"__version__"}
    assert set(lieclass.__all__) <= set(dir(lieclass))


@pytest.mark.parametrize("name", sorted(lieclass._HOME))
def test_public_name_is_its_home_modules_object(name):
    home = importlib.import_module("lieclass." + lieclass._HOME[name])
    assert getattr(lieclass, name) is getattr(home, name)
    assert name not in vars(lieclass)  # resolved on each use, never cached


def test_name_follows_a_rebinding_of_its_home(monkeypatch):
    from lieclass import joseph

    sentinel = object()
    monkeypatch.setattr(joseph, "odd_pair", sentinel)
    assert lieclass.odd_pair is sentinel
    monkeypatch.undo()
    assert lieclass.odd_pair is joseph.odd_pair


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        lieclass.no_such_name
    assert not hasattr(lieclass, "normalizer_dim")  # public only in its module
    with pytest.raises(ImportError):
        from lieclass import no_such_name  # noqa: F401


def test_submodules_import_from_the_package():
    from lieclass import algebras, oracle

    assert isinstance(algebras, types.ModuleType)
    assert algebras.__name__ == "lieclass.algebras"
    assert oracle is importlib.import_module("lieclass.oracle")
