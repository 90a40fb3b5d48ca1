"""The package API is README's Library list, and every public name has a use."""

import ast
import importlib
import re
from pathlib import Path

import rookpaths

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rookpaths"


def library_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def readme_spans() -> list[str]:
    """Backquoted spans in the Library section's prose, outside its code blocks."""
    prose = re.sub(r"```.*?```", "", library_section(), flags=re.S)
    return re.findall(r"`([^`]+)`", prose)


def readme_names() -> set[str]:
    """Backquoted identifiers in the Library section's prose."""
    return {name for name in readme_spans() if name.isidentifier()}


def readme_imports() -> set[str]:
    """Names the Library section's code blocks import from the package."""
    names = set()
    for block in re.findall(r"```python\n(.*?)```", library_section(), flags=re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "rookpaths":
                names.update(alias.name for alias in node.names)
    return names


def exports() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_package_exports_readme_library_list():
    assert exports() == readme_names()
    assert readme_imports() <= exports()


def used_names(node: ast.AST) -> set[str]:
    """Names a statement reads or writes, as bare names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_no_module_imports_dataclasses():
    """Value records are NamedTuples and objects with behaviour are __slots__ classes."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "dataclasses" for module in modules):
                importers.append(path.name)
    assert importers == []


def test_every_public_definition_is_used_or_exported():
    """Public functions, classes, and their public methods and properties.

    A definition counts as used when a statement of the package outside
    it reads its name as a name or an attribute; for a class member,
    the other definitions in its class body count, the class statement
    as a whole does not.  Dunders are private here.  The package's
    exports, and class members the Library section names as
    `Class.member` or `Class.member()`, are public API.
    """
    documented = set(re.findall(r"`(\w+\.\w+)(?:\(\))?`", library_section()))
    definitions = []  # (qualified name, name, statements it spans, public API)
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            statements.append(node)
            body = node.body if isinstance(node, ast.ClassDef) else []
            statements.extend(body)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append((f"{path.stem}.{node.name}", node.name, [node, *body], False))
            for member in body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    qualified = f"{node.name}.{member.name}"
                    spans, public = [node, member], qualified in documented
                    definitions.append((f"{path.stem}.{qualified}", member.name, spans, public))
    exported = exports()
    unused = [
        qualified
        for qualified, name, spans, public in definitions
        if name not in exported
        and not public
        and not any(
            name in used_names(node) for node in statements if not any(node is s for s in spans)
        )
    ]
    assert unused == []


def has_member(owner, name: str) -> bool:
    """An attribute or a slot of ``owner``."""
    return hasattr(owner, name) or name in getattr(owner, "__slots__", ())


def test_readme_library_names_only_members_that_exist():
    """Each backquoted `X.y` whose X is the package, a submodule or a class of the package
    names a member of X; other prefixes, such as the parameter in `graph.vertices()`, are not
    checked."""
    owners: dict = {"rookpaths": rookpaths}
    for path in SRC.glob("*.py"):
        if not path.stem.startswith("__"):
            module = owners[path.stem] = importlib.import_module(f"rookpaths.{path.stem}")
            owners.update(
                (name, value)
                for name, value in vars(module).items()
                if isinstance(value, type) and value.__module__.startswith("rookpaths.")
            )
    named = [
        (match[1], match[2])
        for match in map(re.compile(r"(\w+)\.(\w+)").match, readme_spans())
        if match is not None and match[1] in owners
    ]
    assert len(named) >= 10
    assert [f"{owner}.{name}" for owner, name in named if not has_member(owners[owner], name)] == []
