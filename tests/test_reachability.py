"""Every function in ``src/lifesim`` is reached from outside the tests.

The check walks ``src/lifesim`` with ``ast`` and lists each module-level
function and method whose name nothing outside ``tests/`` uses: no call, no
attribute read, no name passed on, in ``src/`` or in ``lifebench/``.  An
import alone is not a use, so a re-export in ``__init__.py`` or an
``__all__`` entry does not count.  Names are matched by spelling, so a
method counts as used when any object's attribute of that name is read.

Allowed without a use: the names ``lifebench/layers.py`` traces (the traced
run looks them up by string), the command-line entry point, the four
snapshot methods the rules oracle reads (``ORACLE_READS``), and
``LifecycleEnv.freeze_for_static_phase``: the traced one-household
``step``, ``static_quarter`` and ``terminal_value`` need it to reach the
static phase, and ``tests/test_step_oracle.py`` runs all four.

Also here: every name a ``src/lifesim`` module imports is read in that
module.  Exempt are the re-exports of the ``__init__.py`` files and the
imports marked ``# noqa: F401``, which keep module names that
``lifebench/layers.py`` wraps for the traced run.

And every place in ``src/lifesim`` that builds a random generator or a seed
sequence (a call of anything under ``np.random``, a ``spawn``, or an
import from ``random`` or ``numpy.random``) is one of ``GENERATOR_SITES``:
a household's random numbers come from its keys alone.

And ``src/lifesim`` has at most ``MAX_SETTABLE`` settable values: parameters
with a default, of any function or lambda.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lifesim"
OUTSIDE_TESTS = (ROOT / "src", ROOT / "lifebench")
ENTRY_POINT = {"main"}   # ``lifesim = "lifesim.cli:main"`` in pyproject.toml
ONE_HOUSEHOLD_FREEZE = {"LifecycleEnv.freeze_for_static_phase"}
ORACLE_READS = {
    "CashFlows.taxes_total": "tests/rules_oracle.py builds its net income from the three totals",
    "CashFlows.contribs_total": "tests/rules_oracle.py builds its net income from the three totals",
    "CashFlows.benefits_total": "tests/rules_oracle.py builds its net income from the three totals",
    "HouseholdSnapshot.validate": "tests/rules_oracle.py checks each snapshot it prices",
}
MAX_SETTABLE = 21
GENERATOR_SITES = {
    "population.py: keyed": "the keyed-draw helper",
    "population.py: init_population": "the cohort's master stream (genders, groups and pairs)",
    "solver/network.py: PolicyValueNet.__init__": "the net's weight init",
    "solver/actor_critic.py: train_actor_critic": "the learner's action stream",
    "pipelines.py: derived_seed": "the pipelines' seed derivation",
}


def _trees(*roots: Path):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _defined(tree: ast.Module):
    """(qualified name, name) of every module-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name


def _used(tree: ast.Module) -> set[str]:
    """Every name read as a variable or an attribute (imports are not reads)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _traced() -> set[str]:
    """The attribute names of ``lifebench/layers.py``'s trace targets: the
    third entry of each (span, owner, attribute, note) tuple."""
    tree = ast.parse((ROOT / "lifebench" / "layers.py").read_text())
    return {node.elts[2].value for node in ast.walk(tree)
            if isinstance(node, ast.Tuple) and len(node.elts) == 4
            and isinstance(node.elts[2], ast.Constant) and isinstance(node.elts[2].value, str)}


def test_every_function_in_src_is_reached_outside_tests():
    used = set().union(*(_used(tree) for _, tree in _trees(*OUTSIDE_TESTS)))
    allowed = _traced() | ENTRY_POINT | ORACLE_READS.keys() | ONE_HOUSEHOLD_FREEZE
    unreached = []
    for path, tree in _trees(SRC):
        for qualified, name in _defined(tree):
            if name.startswith("__") and name.endswith("__"):
                continue   # called by the language, not by name
            if name in used or name in allowed or qualified in allowed:
                continue
            unreached.append(f"{path.relative_to(ROOT)}: {qualified}")
    assert not unreached, "defined in src/ but used only by tests:\n" + "\n".join(unreached)


def test_traced_names_are_found():
    assert {"net_income", "step", "static_quarter", "terminal_value", "encode", "legal_mask"} <= _traced()


def _unread_imports(tree: ast.Module, lines: list[str]) -> list[str]:
    """Each name an import statement of ``tree`` binds that no ``Name`` node
    reads, except ``__future__`` imports and statements marked ``# noqa: F401``."""
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {lineno})" for name, lineno in imported.items() if name not in read]


def test_every_import_in_src_is_read():
    unread = []
    for path, tree in _trees(SRC):
        if path.name != "__init__.py":
            unread += [f"{path.relative_to(ROOT)}: {name}"
                       for name in _unread_imports(tree, path.read_text().splitlines())]
    assert not unread, "imported in src/ but never read:\n" + "\n".join(unread)


def _random_sites(tree: ast.AST, scope: str = "<module>"):
    """The scope (``function`` or ``Class.method``, outermost function for
    nested ones) of each node of ``tree`` that builds a generator or a seed
    sequence."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name if scope == "<module>" else scope
            if isinstance(tree, ast.ClassDef) and scope == tree.name:
                inner = f"{tree.name}.{node.name}"
            yield from _random_sites(node, inner)
            continue
        if isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            if callee.startswith(("np.random.", "numpy.random.")) or callee.endswith(".spawn"):
                yield scope
        elif isinstance(node, ast.Import) and any(a.name in ("random", "numpy.random") for a in node.names):
            yield scope
        elif isinstance(node, ast.ImportFrom) and node.module in ("random", "numpy.random"):
            yield scope
        yield from _random_sites(node, scope)


def test_generators_are_built_only_at_the_listed_sites():
    sites = {f"{path.relative_to(SRC)}: {scope}" for path, tree in _trees(SRC) for scope in _random_sites(tree)}
    assert sites == GENERATOR_SITES.keys(), (f"unlisted: {sorted(sites - GENERATOR_SITES.keys())}, "
                                             f"listed but gone: {sorted(GENERATOR_SITES.keys() - sites)}")


def _settable(tree: ast.Module):
    """``function(parameter)`` of each parameter with a default of each
    function and lambda of ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            with_default = positional[len(positional) - len(a.defaults):] if a.defaults else []
            with_default += [arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
            name = getattr(node, "name", "<lambda>")
            yield from (f"{name}({arg.arg})" for arg in with_default)


def test_settable_values_do_not_grow():
    values = [f"{path.relative_to(SRC)}: {value}" for path, tree in _trees(SRC) for value in _settable(tree)]
    assert len(values) <= MAX_SETTABLE, (f"{len(values)} parameters with defaults in src/, at most {MAX_SETTABLE}:\n"
                                         + "\n".join(values))
