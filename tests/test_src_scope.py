"""The package holds only what its scenarios run: every module-level
function or class in src/kahlerlab is named by other package code, or is
one that the benchmark's span tracer patches by name (its ``TRACED`` list,
read from perfbench/tracer.py by file path, as test_bench_contract does).
References that tests compare the package against live in tests/oracles.py."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def test_every_src_definition_is_named_elsewhere_in_src():
    statements = [(path.name, stmt) for path in sorted((ROOT / "src" / "kahlerlab").glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    names = [_names(stmt) for _, stmt in statements]
    traced = _traced()
    unnamed = [f"{module}: {stmt.name}" for k, (module, stmt) in enumerate(statements)
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in traced
               and not any(stmt.name in other for j, other in enumerate(names) if j != k)]
    assert not unnamed, unnamed
