"""Every public module-level name of the package has a caller outside the
tests: an import, a name or an attribute in ``src/``, ``scripts/`` or
``perfbench/``. Docstrings and comments do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shadowproj"

# Names that only tests call and that stay, each for the reason given.
KEPT = {
    # criteria 1 and 9: the dense inverted channel, summed over the exact
    # snapshot distribution
    "snapshot_density",
    "iter_snapshot_distribution",
    # criterion 9: the infinite-shot limit of the counts estimator
    "counts_expectation_exact",
    # criterion 10: the baseline that RLF must never lose to
    "group_qwc_greedy",
    # criteria 4 and 7: the eigenprojector the spin LCU is checked against
    "exact_spin_projector",
    # the reference that shadows._born_probabilities equals float for float
    "rotate_to_bases",
    # criterion 2: the per-qubit trace-kernel table
    "qubit_trace_factor",
    # criterion 10: the pairwise test every QWC group must pass
    "qwc_commutes",
}


def public_names() -> dict[str, str]:
    """Module-level public functions, classes and constants, by module."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target.id]
            else:
                continue
            names.update((name, path.stem) for name in targets
                         if not name.startswith("_"))
    return names


def referenced_names() -> set[str]:
    """Every name read, attribute taken or name imported outside tests/.
    The package's re-exports in ``__init__.py`` are no callers."""
    found = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) \
                        and not isinstance(node.ctx, ast.Store):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    found.update(alias.name for alias in node.names)
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = referenced_names()
    unused = {name: module for name, module in public_names().items()
              if name not in referenced}
    assert {name: module for name, module in unused.items()
            if name not in KEPT} == {}
    # a kept name that gains a caller leaves the list
    assert set(unused) == KEPT
