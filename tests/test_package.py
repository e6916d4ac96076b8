"""The package's lazy exports: every public name resolves on first use to
the object its defining module holds, as if the package imported it."""

import importlib

import pytest

import stardecomp


@pytest.mark.parametrize("name", stardecomp.__all__)
def test_export_is_the_defining_modules_object(name):
    module = importlib.import_module(f"stardecomp.{stardecomp._MODULE_OF[name]}")
    value = getattr(stardecomp, name)
    assert value is getattr(module, name)
    assert getattr(value, "__module__", module.__name__) == module.__name__


def test_dir_lists_every_export():
    assert set(stardecomp.__all__) <= set(dir(stardecomp))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from stardecomp import *", namespace)
    for name in stardecomp.__all__:
        assert namespace[name] is getattr(stardecomp, name)


def test_version_is_still_there():
    assert stardecomp.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stardecomp.no_such_name  # noqa: B018
    assert not hasattr(stardecomp, "no_such_name")
