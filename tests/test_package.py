import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cuspdim
from cuspdim import (
    PHASE_ONE,
    AutomorphyContext,
    EtaQuotient,
    UnimodularMatrix,
    UnitPhase,
)

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
    # python block, which test_readme runs) or a CI check (tests/ci_steps.py)
    # shows it, or an open ROADMAP item keeps it (UNCALLED).  README prose is
    # not a use.
    examples = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    shown = "\n".join(examples) + (ROOT / "tests" / "ci_steps.py").read_text()
    read = _read_names()
    assert set(UNCALLED) <= set(cuspdim.__all__), "an UNCALLED entry is no longer public"
    unused = [
        f"{module}.{name}"
        for module in LIBRARY
        for name in _module(module).__all__
        if name not in read and name not in UNCALLED and not re.search(rf"\b{name}\b", shown)
    ]
    assert not unused, unused


# A value of each checked type, its fields with one made bad, and that one
# change as a _replace: a determinant of 2, a scale 5 that does not divide
# the level 12, and a character scale 4 that does not divide gcd(10, 12).
CHECKED = [
    (UnimodularMatrix(1, 1, 0, 1), (2, 0, 0, 1), {"a": 5}),
    (EtaQuotient(12, {1: 2, 12: -1}), (12, {5: 1}), {"exponents": {5: 1}}),
    (AutomorphyContext(Fraction(1, 2), 10, 1, 2), (Fraction(1, 2), 10, 1, 4), {"character_h": 4}),
]


@pytest.mark.parametrize("good, bad, change", CHECKED, ids=["matrix", "eta-quotient", "context"])
def test_a_checked_type_refuses_a_bad_value_by_every_constructor(good, bad, change):
    cls = type(good)
    assert cls(*good) == good == cls._make(good) == good._replace()
    for build in (lambda: cls(*bad), lambda: cls._make(bad), lambda: good._replace(**change)):
        with pytest.raises(ValueError):
            build()


def test_unit_phase_reduces_its_turns_by_every_constructor():
    sixth = Fraction(1, 6)
    assert UnitPhase(Fraction(7, 6)).turns == sixth
    assert UnitPhase._make((Fraction(7, 6),)).turns == sixth
    assert PHASE_ONE._replace(turns=Fraction(-5, 6)).turns == sixth
    assert UnitPhase(-1).turns == 0 and type(UnitPhase(-1).turns) is Fraction


def test_matrices_and_phases_refuse_tuple_arithmetic():
    # A matrix and a phase multiply only by their own kind; a tuple's
    # repetition and concatenation are not theirs.
    g = UnimodularMatrix(2, 1, 1, 1)
    phase = UnitPhase(Fraction(1, 3))
    assert g * g == UnimodularMatrix(5, 3, 3, 2) and phase * phase == UnitPhase(Fraction(2, 3))
    for operation in (lambda: 2 * g, lambda: g * 2, lambda: g + g, lambda: 2 * phase,
                      lambda: phase * 2, lambda: phase + phase, lambda: g * phase):
        with pytest.raises(TypeError):
            operation()


def test_the_command_line_starts_without_dataclasses_or_inspect():
    # A fresh interpreter without site, so that only the package's imports
    # count: records are NamedTuples, and nothing loads these two modules.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, cuspdim.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"
