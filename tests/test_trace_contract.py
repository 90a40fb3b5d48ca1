"""The stage functions that perfbench/spans.py traces still exist with the parameters it reads."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stage(name: str):
    module, func = name.split(".")
    return getattr(importlib.import_module(f"rookpaths.{module}"), func, None)


def count_arguments() -> dict[str, set[str]]:
    """For each span name that ``_count`` tests for, the ``arg[...]`` keys its branch reads."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    count = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_count")
    reads: dict[str, set[str]] = {}
    for node in ast.walk(count):
        test = getattr(node, "test", None)
        if not (
            isinstance(node, ast.If)
            and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "name"
            and isinstance(test.comparators[0], ast.Constant)
        ):
            continue
        keys = reads.setdefault(test.comparators[0].value, set())
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Subscript)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "arg"
                    and isinstance(sub.slice, ast.Constant)
                ):
                    keys.add(sub.slice.value)
    return reads


def test_traced_functions_resolve():
    spans = load_spans()
    missing = [f"{module}.{func}" for module, func in spans.TRACED if not callable(stage(f"{module}.{func}"))]
    assert missing == []


def test_counted_functions_keep_the_parameters_count_reads():
    spans = load_spans()
    reads = count_arguments()
    assert set().union(*reads.values()), "no arg[...] reads found in _count"
    for name in spans.COUNTED:
        params = set(inspect.signature(stage(name)).parameters)
        assert reads.get(name, set()) <= params, (name, reads[name], params)
