import importlib
import inspect

import cuspdim

LIBRARY = ("classify", "exact", "gamma0", "multiplier", "oracle", "qseries", "verify")


def _module(name):
    return importlib.import_module(f"cuspdim.{name}")


def test_package_names_are_the_union_of_the_module_lists():
    listed = [name for module in LIBRARY for name in _module(module).__all__]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    assert cuspdim.__all__ == sorted(listed)
    for module in LIBRARY:
        for name in _module(module).__all__:
            assert getattr(cuspdim, name) is getattr(_module(module), name), name
    # The function, not the submodule of the same name.
    assert not inspect.ismodule(cuspdim.classify)


def test_every_public_definition_is_listed():
    # Tracing wraps exactly the listed functions, so an unlisted public
    # definition would go unseen; helpers start with an underscore.
    for module in LIBRARY + ("cli",):
        mod = _module(module)
        defined = {
            name
            for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj) or hasattr(obj, "cache_info"))
            and getattr(obj, "__module__", None) == mod.__name__
        }
        assert defined <= set(mod.__all__), (module, sorted(defined - set(mod.__all__)))
