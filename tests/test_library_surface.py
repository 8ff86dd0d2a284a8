"""The package's public functions are the ones it runs, plus the few paper
results and oracles below that no module calls; its private functions are
the ones it runs, plus the few test references below; and no module of the
package or of its tests imports a name it does not use."""

import ast
from pathlib import Path

import pytest

import nearfield_bd

SRC = Path(nearfield_bd.__file__).parent
TESTS = Path(__file__).parent
TREES = [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]

# paper results and independent oracles the tests check the computed paths
# against; every other public function must be referenced in the package
ORACLES_AND_RESULTS = {"numeric_bd", "disk_gain_fresnel", "mmse_precoder", "sum_rate",
                       "bd_circ", "fresnel_field_nonbroadside", "rect_gain_broadside",
                       "rect_gain_slanted", "circ_gain_broadside"}


def test_every_public_function_is_referenced_in_the_package():
    """A public function only tests call is a wrapper to delete, or a result
    to name above."""
    defined = {node.name: module for module, tree in TREES for node in tree.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for _, tree in TREES for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unreferenced = sorted(f"{module}.{name}" for name, module in defined.items()
                          if name not in referenced | ORACLES_AND_RESULTS)
    assert not unreferenced, unreferenced
    assert ORACLES_AND_RESULTS <= defined.keys()


# private functions that only tests call: the pairwise phase Gram is the
# reference the tests hold the channel and table Grams to, and the planned
# rows' Gram on the analytic phase is to be built from it (ROADMAP item 2)
TEST_REFERENCES = {"multiplexing._phase_gram"}


def test_every_private_function_is_referenced_in_the_package():
    """A module-level private function that no code of the package reads,
    outside its own definition, is dead code to delete."""
    referenced = set()
    for _, tree in TREES:
        for node in tree.body:
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}
            if isinstance(node, ast.FunctionDef):
                names.discard(node.name)
            referenced |= names
    unreferenced = sorted(f"{module}.{node.name}" for module, tree in TREES
                          for node in tree.body if isinstance(node, ast.FunctionDef)
                          and node.name.startswith("_") and node.name not in referenced)
    assert unreferenced == sorted(TEST_REFERENCES)


def test_every_listed_name_has_a_test_caller():
    """Each name the two lists above keep alive is read by some other test
    module: a listed name that loses its last caller is dead code to delete,
    not an oracle.  A module's imported names count, since every import is
    read (test_no_unused_module_level_import)."""
    used = set()
    for path in TESTS.glob("*.py"):
        if path.name != Path(__file__).name:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    used |= {alias.name for alias in node.names}
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    used.add(node.id if isinstance(node, ast.Name) else node.attr)
    listed = ORACLES_AND_RESULTS | {name.rsplit(".", 1)[1] for name in TEST_REFERENCES}
    assert not sorted(listed - used)


@pytest.mark.parametrize("path", sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_module_level_import(path):
    """Every name a module imports at its top level is read somewhere in it;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not sorted(imported - used)


def test_one_or_many_is_decided_in_array_geometry_alone():
    """Whether an argument is one point or a sequence of them is decided by
    ``array_geometry._one_or_many``; an ``np.ndim`` call elsewhere in the
    package is a second rule for it."""
    calls = sorted(f"{module}:{node.lineno}" for module, tree in TREES
                   if module != "array_geometry" for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "ndim" and isinstance(node.func.value, ast.Name)
                   and node.func.value.id in ("np", "numpy"))
    assert not calls, calls
