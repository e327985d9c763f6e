"""The package holds only what its scenarios run: every module-level
function or class in src/kahlerlab is named by other package code, or is
one that the benchmark's span tracer patches by name (its ``TRACED`` list,
read from perfbench/tracer.py by file path, as test_bench_contract does).
Every method or property of a src class that is not a dunder is read as an
attribute by src code outside its own definition, or is a library hook in
``HOOKS``.  References that tests compare the package against live in
tests/oracles.py.

Both checks go by name, so a method whose name other src code reads on
something else counts as read: ``Jet.log``, ``Jet.sqrt`` or ``Jet.reshape``
would pass here as long as src calls ``np.log``, ``np.sqrt`` or
``.reshape`` on arrays, although numpy only reaches them through object
arrays.  Such methods are found by tracing, not by this guard."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Methods only a library calls, with the caller.
HOOKS = {
    "_Parser.error": "argparse calls it on every usage error",
}


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {name for names in mod.TRACED.values() for name in names}


def _names(tree):
    """Every name a syntax tree reads: variables, attributes and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _attributes(tree):
    """How often each attribute name is read in a syntax tree."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _statements():
    return [(path.name, stmt) for path in sorted((ROOT / "src" / "kahlerlab").glob("*.py"))
            for stmt in ast.parse(path.read_text()).body]


def test_every_src_definition_is_named_elsewhere_in_src():
    statements = _statements()
    names = [_names(stmt) for _, stmt in statements]
    traced = _traced()
    unnamed = [f"{module}: {stmt.name}" for k, (module, stmt) in enumerate(statements)
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in traced
               and not any(stmt.name in other for j, other in enumerate(names) if j != k)]
    assert not unnamed, unnamed


def test_every_src_method_is_read_elsewhere_in_src():
    statements = _statements()
    read = sum((_attributes(stmt) for _, stmt in statements), Counter())
    unread = [f"{module}: {cls.name}.{meth.name}" for module, cls in statements
              if isinstance(cls, ast.ClassDef) for meth in cls.body
              if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("__")
              and f"{cls.name}.{meth.name}" not in HOOKS
              and read[meth.name] <= _attributes(meth)[meth.name]]
    assert not unread, unread


def test_every_hook_is_a_src_method():
    methods = {f"{cls.name}.{meth.name}" for _, cls in _statements()
               if isinstance(cls, ast.ClassDef) for meth in cls.body
               if isinstance(meth, ast.FunctionDef)}
    assert set(HOOKS) <= methods
