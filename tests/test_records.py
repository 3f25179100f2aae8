"""The record and holder classes: construction, immutability, equality, an
import path that stays free of `dataclasses` and `inspect`, since every CLI
query starts a fresh interpreter, and annotations that resolve."""

import importlib
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from tensorwalks.cyclotomic import CycNum
from tensorwalks.diagrams import DiagramElement
from tensorwalks.groups import (
    ClassInfo,
    GroupData,
    IrrepInfo,
    parse_spec_full,
)
from tensorwalks.series import EgfTruncation

SRC = Path(__file__).resolve().parent.parent / "src"


def _bare_stdout(code: str) -> str:
    """What `code` prints in an interpreter without `site`, on this checkout's source."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert _bare_stdout("import sys, tensorwalks.cli; "
                        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))") == "[]"


def test_package_root_loads_no_submodule():
    loaded = "print(sorted(m[12:] for m in sys.modules if m.startswith('tensorwalks.')))"
    assert _bare_stdout(f"import sys, tensorwalks; {loaded}") == "[]"
    # the CLI loads its own modules, not the package root
    assert _bare_stdout(f"import sys, tensorwalks.cli; {loaded}") == str(
        ["cli", "combinatorics", "cyclotomic", "errors", "groups", "numbertheory",
         "polynomials", "quiver", "series"])


def _defined_functions(module):
    """The functions and methods, properties' getters among them, that
    `module` defines at module or class level."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            for attr in vars(obj).values():
                attr = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                if callable(attr) and hasattr(attr, "__code__"):
                    yield attr
        elif hasattr(obj, "__code__"):
            yield obj


def test_every_annotation_resolves():
    import tensorwalks

    checked = 0
    for info in pkgutil.iter_modules(tensorwalks.__path__):
        module = importlib.import_module(f"tensorwalks.{info.name}")
        for fn in _defined_functions(module):
            typing.get_type_hints(fn)  # NameError on a name the module does not bind
            checked += 1
    assert checked > 100


def _trivial_group() -> GroupData:
    return GroupData("G", 1, (ClassInfo("1", 1),), 1)


def test_holders_are_immutable():
    spec = parse_spec_full("S3")
    for obj, field in ((spec.group, "order"), (spec, "kind"), (spec, "name"), (spec, "group"),
                       (spec, "module"), (spec, "steinberg"), (spec.group.classes[0], "size")):
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))


def test_holders_are_equal_only_to_themselves():
    g, h = _trivial_group(), _trivial_group()
    assert g == g and g != h


def test_value_records_compare_and_hash_by_value():
    pairs = [
        (ClassInfo("a(1)", 3), ClassInfo(label="a(1)", size=3)),
        (IrrepInfo("(2, 1)"), IrrepInfo(label="(2, 1)")),
        (DiagramElement((2, 2), (1, 2), (2, 1)), DiagramElement((2, 2), (1, 2), (2, 1))),
        (EgfTruncation(1, (1, 2)), EgfTruncation(order=1, coeffs=(1, 2))),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    assert ClassInfo("1", 1) != ClassInfo("1", 3)


def test_keyword_construction_keeps_defaults():
    g = _trivial_group()
    assert g.irreps is None and g.row(0) == (CycNum.from_int(1),)
    assert DiagramElement((3,), (1, 1), (1, 1)).k == 2


def test_egf_truncation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        EgfTruncation(2, (1,))
    with pytest.raises(ValueError):
        EgfTruncation(order=0, coeffs=())
