import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coldspin


def test_every_export_is_its_defining_module_object():
    for name in coldspin.__all__:
        value = getattr(coldspin, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    # one home per name: experiment no longer re-exports scandata's names
    experiment = importlib.import_module("coldspin.experiment")
    for name in ("read_scan_csv", "format_scan_csv"):
        assert not hasattr(experiment, name), name
    # photon_budget's home is budget; analysis still gives the same object
    analysis = importlib.import_module("coldspin.analysis")
    assert analysis.photon_budget is coldspin.photon_budget


def test_no_export_takes_a_detuning_convention():
    # each pole sits at its F' resonance: there is no other convention to pick
    for name in coldspin.__all__:
        value = getattr(coldspin, name)
        if inspect.isfunction(value):
            assert "convention" not in inspect.signature(value).parameters, name


def test_dir_lists_every_export():
    assert set(coldspin.__all__) <= set(dir(coldspin))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        coldspin.no_such_name  # noqa: B018
    assert not hasattr(coldspin, "np")


def test_submodules_load_on_access():
    assert coldspin.analysis is importlib.import_module("coldspin.analysis")


def test_import_loads_no_numpy():
    code = (
        "import sys, coldspin; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(coldspin.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "statement, reference",
    [("from coldspin import cli", "import coldspin.cli"),
     ("from coldspin import photon_budget", "import coldspin.budget")],
    ids=["submodule", "export"],
)
def test_lazy_access_loads_what_an_import_loads(statement, reference):
    # coldspin.__getattr__ imports with __import__: importlib.import_module
    # would load importlib and warnings besides; -S keeps site's .pth hooks
    # from loading them first
    env = {**os.environ, "PYTHONPATH": str(Path(coldspin.__file__).parents[1])}
    loaded = [
        subprocess.run(
            [sys.executable, "-S", "-c", f"import sys; {code}; print(sorted(sys.modules))"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        for code in (statement, reference)
    ]
    assert loaded[0] == loaded[1]


def readme_public_api() -> set:
    """(module, name) for each name the README's Public API section lists
    under a `coldspin.<module>` heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed, module = set(), None
    for line in section.splitlines():
        if line.startswith("#"):
            heading = re.fullmatch(r"### `coldspin\.(\w+)`", line)
            module = heading and heading[1]
        elif module and (item := re.match(r"- `(\w+)`: \S", line)):
            listed.add((module, item[1]))
    return listed


def test_readme_public_api_lists_every_export_under_its_home():
    # each name's home is pinned by test_every_export_is_its_defining_module_object
    assert readme_public_api() == {(coldspin._SOURCE[name], name) for name in coldspin.__all__}


def package_modules() -> list:
    """Every module file of the package, its subpackages' too."""
    return sorted(Path(coldspin.__file__).parent.rglob("*.py"))


def module_name(path) -> str:
    """The dotted name of a package module file below the package."""
    relative = path.relative_to(Path(coldspin.__file__).parent).with_suffix("")
    return ".".join(relative.parts)


def _runtime_names(tree) -> set:
    """The names a module's code reads, outside every annotation."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            children = value if isinstance(value, list) else [value]
            stack += [child for child in children if isinstance(child, ast.AST)]
    return names


def test_no_module_imports_a_coldspin_name_for_an_annotation():
    # a name used only in annotations is not imported (README, Subcommands):
    # under postponed evaluation the annotation is never evaluated
    annotation_only = []
    for path in package_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _runtime_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                annotation_only += [f"{module_name(path)}: {alias.asname or alias.name}"
                                    for alias in node.names
                                    if (alias.asname or alias.name) not in used]
    assert annotation_only == []


def test_no_module_imports_a_stdlib_name_for_an_annotation():
    # the absolute imports, beside the relative ones above, so every
    # `from ... import` but __future__'s: collections.abc's were the last
    annotation_only = []
    for path in package_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _runtime_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level and node.module != "__future__":
                annotation_only += [f"{module_name(path)}: {alias.asname or alias.name}"
                                    for alias in node.names
                                    if (alias.asname or alias.name) not in used]
    assert annotation_only == []


def test_no_module_imports_collections_abc():
    # its runtime Mapping tests were the last use: jsonio and atomic_data test dict
    imports = []
    for path in package_modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            imports += [f"{module_name(path)}: {name}" for name in names
                        if name == "collections.abc" or name.startswith("collections.abc.")]
    assert imports == []
