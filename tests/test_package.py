import ast
import importlib
import inspect
import re
from pathlib import Path

import cuspdim

LIBRARY = ("classify", "exact", "gamma0", "multiplier", "oracle", "qseries", "verify")
ROOT = Path(__file__).resolve().parent.parent
# Public names with no caller that stay, each for the open ROADMAP item that names it.
UNCALLED = {
    "kronecker": "item 6: the route for the local characters",
}


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


def _read_names():
    """Each name the package's modules read, as a name or an attribute,
    outside the top-level definition of that same name; an ``__all__``
    entry is a string, not a read."""
    read = set()
    for path in (ROOT / "src" / "cuspdim").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    read.add((owner, sub.id))
                elif isinstance(sub, ast.Attribute):
                    read.add((owner, sub.attr))
    return {name for owner, name in read if name != owner}


def test_every_public_name_has_a_user():
    # A public name stays only if the package reads it, a README example (a
    # python block, which test_readme runs) or a CI step shows it, or an
    # open ROADMAP item keeps it (UNCALLED).  README prose is not a use.
    examples = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    shown = "\n".join(examples) + (ROOT / ".github/workflows/tests.yml").read_text()
    read = _read_names()
    assert set(UNCALLED) <= set(cuspdim.__all__), "an UNCALLED entry is no longer public"
    unused = [
        f"{module}.{name}"
        for module in LIBRARY
        for name in _module(module).__all__
        if name not in read and name not in UNCALLED and not re.search(rf"\b{name}\b", shown)
    ]
    assert not unused, unused
