"""The package layering that the `besovgamma` docstring describes: `spaces`,
`montecarlo` and `functions` import only each other, and `besov`, `gamma`
and `typecotype` import none of each other."""

import ast
from pathlib import Path

import pytest

import besovgamma

PACKAGE = Path(besovgamma.__file__).parent
RAW_MATERIAL = {"spaces", "montecarlo", "functions"}
QUANTITIES = {"besov", "gamma", "typecotype"}


def package_imports(module: str) -> set:
    """The modules of the package that `module` imports, by relative or
    absolute name."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            path = ("besovgamma." if node.level else "") + (node.module or "")
            head, _, rest = path.partition(".")
            if head == "besovgamma":
                found.update([rest.split(".")[0]] if rest else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("besovgamma."))
    return found


def test_package_imports_reads_relative_and_absolute_imports():
    assert package_imports("gamma") >= {"functions", "montecarlo", "spaces"}
    assert package_imports("cli") == {"harness"}
    assert package_imports("montecarlo") == set()


@pytest.mark.parametrize("module", sorted(RAW_MATERIAL))
def test_raw_material_modules_import_only_each_other(module):
    assert package_imports(module) <= RAW_MATERIAL - {module}


@pytest.mark.parametrize("module", sorted(QUANTITIES))
def test_quantity_modules_import_none_of_each_other(module):
    assert not package_imports(module) & QUANTITIES
