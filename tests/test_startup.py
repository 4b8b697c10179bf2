"""Start-up: the package's node and record classes are built without
writing source for each of their methods.  They stay dataclasses, so
``dataclasses.fields`` lists their fields, but ``__repr__``, ``__eq__``,
``__hash__``, ``__setattr__`` and ``__delattr__`` are shared functions;
only a constructor, which runs for every value, is written per class.
These tests pin that by counts, and pin that the shared methods behave as
the ones ``dataclasses`` writes."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from adaptt import check, elaborate, normalize, setmodel, surface, syntax
from adaptt.syntax import Base, Pi, Session, Var

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: every node and record class of the package
CLASSES = [v for m in (syntax, surface, setmodel, check, normalize, elaborate)
           for v in vars(m).values()
           if isinstance(v, type) and v.__module__ == m.__name__
           and dataclasses.is_dataclass(v)]

#: hash-consed syntax nodes: equality and hashing are identity
NODES = [c for c in CLASSES
         if c.__module__ == "adaptt.syntax" and c is not Session]

#: immutable values compared by their fields
FROZEN_RECORDS = [setmodel.VBase, setmodel.VPair, setmodel.VFun, setmodel.VCon,
                  setmodel.SFin, setmodel.SInd, setmodel.ModelBinding,
                  check.Diagnostic, normalize.NormalForm]

#: mutable values compared by their fields, hence unhashable
RECORDS = [c for c in CLASSES if c not in NODES and c not in FROZEN_RECORDS]

#: constructor arguments of the classes that read them when a value is built
ARGS = {setmodel.SFin: ("A", ("a1", "a2")),
        setmodel.ModelBinding: ({"A": ("a1",)}, {})}


def instance(cls):
    """One value of ``cls``, each field given the string ``v<k>``."""
    if cls in ARGS:
        return cls(*ARGS[cls])
    return cls(*[f"v{k}" for k, f in enumerate(dataclasses.fields(cls))
                 if f.init])


def dataclass_repr(x) -> str:
    """The repr ``dataclasses`` writes."""
    shown = ", ".join(f"{f.name}={getattr(x, f.name)!r}"
                      for f in dataclasses.fields(x) if f.repr)
    return f"{type(x).__qualname__}({shown})"


#: a fresh interpreter that imports the CLI and prints the names of the
#: functions defined by the generated source (named ``<string>``) it
#: compiles meanwhile.  Functions are counted, not compilations: from
#: Python 3.13, ``dataclasses`` compiles one wrapper per class however
#: many functions it holds, none included.
GENERATED_FUNCTIONS = r"""
import re, sys
names = []
def hook(event, args):
    if event == "compile" and args[1] == "<string>":
        src = args[0].decode() if isinstance(args[0], bytes) else str(args[0])
        names.extend(n for n in re.findall(r"^ *def (\w+)", src, re.M)
                     if n != "__create_fn__")
sys.addaudithook(hook)
import adaptt.cli
print(*names)
"""


def test_importing_the_cli_generates_at_most_one_function_per_class():
    # ``dataclasses`` would write 259 functions for these 68 classes
    assert len(CLASSES) == 68
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", GENERATED_FUNCTIONS],
                         env=env, capture_output=True, text=True, check=True)
    names = out.stdout.split()
    assert len(names) <= len(CLASSES)
    assert set(names) == {"__new__", "__init__"}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_class_is_a_dataclass_with_a_written_docstring(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == list(cls.__annotations__)
    assert cls.__match_args__ == tuple(
        f.name for f in dataclasses.fields(cls) if f.init)
    # ``dataclasses`` writes ``Name(f, g)`` where a class has none
    assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_value_reprs_as_a_dataclass_does(cls):
    x = instance(cls)
    assert repr(x) == dataclass_repr(x)


def test_reprs_in_messages_are_those_of_the_dataclasses():
    assert repr(Pi(Base("A"), Var(0))) == (
        "Pi(dom=Base(name='A'), cod=Var(index=0))")
    assert repr(setmodel.SInd("Tree")) == "SInd(desc='Tree')"
    assert repr(setmodel.SFin("A", ("a1",))) == "SFin(name='A', labels=('a1',))"
    assert repr(surface.parse("var a : A ;")) == (
        "[DVar(name='a', ty=SName(name='A', span=8), span=0, neg=False)]")
    assert repr(elaborate.Scope()) == (
        "Scope(ctx=(), names=Names(table={}, tm=(), ty=()))")


@pytest.mark.parametrize("cls", NODES + FROZEN_RECORDS,
                         ids=lambda c: c.__name__)
def test_assigning_a_field_of_an_immutable_value_raises(cls):
    x = instance(cls)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, f.name)


@pytest.mark.parametrize("cls", NODES, ids=lambda c: c.__name__)
def test_a_node_is_equal_and_hashed_by_identity(cls):
    x = instance(cls)
    assert instance(cls) is x
    assert hash(x) == object.__hash__(x)


@pytest.mark.parametrize("cls", FROZEN_RECORDS, ids=lambda c: c.__name__)
def test_a_frozen_record_is_equal_and_hashed_by_value(cls):
    x, y = instance(cls), instance(cls)
    assert x is not y and x == y
    if cls is not setmodel.ModelBinding:      # its fields are dicts
        assert hash(x) == hash(y) == hash(tuple(
            getattr(x, n) for n in cls.__match_args__))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_mutable_record_is_equal_by_value_and_unhashable(cls):
    x, y = instance(cls), instance(cls)
    assert x is not y and x == y
    with pytest.raises(TypeError):
        hash(x)


def test_records_differ_by_a_field_or_by_their_class():
    assert surface.SName("a", 0) != surface.SName("a", 1)
    assert surface.SFst("a", 0) != surface.SSnd("a", 0)
    assert setmodel.VBase("A", "a1") != setmodel.VBase("A", "a2")
    assert setmodel.VBase("A", "a1") != ("A", "a1")
    assert check.Diagnostic("X", "m") != check.Diagnostic("X", "m", 3)
