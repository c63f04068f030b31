"""The public surface: every name diskspec exports has a caller.

A caller is a module under src/, scripts/ or perfbench/, or the paper's
acceptance tests, that imports the name from a diskspec module or reads it
as an attribute of one, from outside the module that defines it.  Module
tests do not count: a name that only they reach is weight in the API
without a use.
"""

import ast
from pathlib import Path

import diskspec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diskspec"
CALLER_FILES = sorted(
    [
        *(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
        *ROOT.glob("scripts/*.py"),
        *ROOT.glob("perfbench/*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
)
MODULES = {p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}

# Exported with no caller, on purpose: result records that callers receive
# but never name, the domain bounds, and the paper's two-term prediction.
ALLOWED_UNCALLED = {
    "AiryZero",
    "BesselZero",
    "CheckResult",
    "DecayResult",
    "FitResult",
    "S_MAX",
    "NU_MAX",
    "AIRY_RANGE",
    "weyl_two_term",
}

# Exported with no caller, awaiting removal: the checked twins of the
# mollifier, weight and cutoff kernels, in_domain, and the quadrature
# oracle's accuracy knobs.  Rows of the boundary table in
# tests/test_errors.py still pin each one; they leave together with those
# rows in a later change (ROADMAP item 21).  Nothing joins this list.
AWAITING_REMOVAL = {
    "rho",
    "chi0",
    "chi_weight",
    "amplitude_cutoff",
    "in_domain",
    "EvalAccuracy",
    "DEFAULT_ACCURACY",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _definitions() -> dict[str, str]:
    """Top-level name -> the package module that defines it."""
    owner = {}
    for module in MODULES:
        for node in _tree(PACKAGE / f"{module}.py").body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner[node.name] = module
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        owner[target.id] = module
    return owner


def _source_module(node: ast.ImportFrom) -> str | None:
    """The diskspec module an import reads from: 'diskspec', 'diskspec.x', or None."""
    if node.level:
        return "diskspec" + (f".{node.module}" if node.module else "")
    if node.module and (node.module == "diskspec" or node.module.startswith("diskspec.")):
        return node.module
    return None


def _references(path: Path) -> set[str]:
    """Names this file imports from diskspec or reads off a diskspec module."""
    tree = _tree(path)
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "diskspec" or alias.name.startswith("diskspec."):
                    aliases.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and _source_module(node):
            for alias in node.names:
                if _source_module(node) == "diskspec" and alias.name in MODULES:
                    aliases.add(alias.asname or alias.name)
                else:
                    names.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                names.add(node.attr)
    return names


def _called() -> set[str]:
    owner = _definitions()
    called = set()
    for path in CALLER_FILES:
        own = path.stem if path.parent == PACKAGE else None
        called |= {n for n in _references(path) if owner.get(n) != own}
    return called


def test_every_export_has_a_caller_outside_the_module_tests():
    called = _called()
    exported = set(diskspec.__all__)
    for listed in (ALLOWED_UNCALLED, AWAITING_REMOVAL):
        assert listed <= exported, listed - exported
        assert not listed & called, f"now called, drop from the list: {sorted(listed & called)}"
    uncalled = exported - called - ALLOWED_UNCALLED - AWAITING_REMOVAL
    assert not uncalled, f"exported but never called: {sorted(uncalled)}"


def test_module_all_lists_only_package_exports():
    exported = set(diskspec.__all__)
    sources = {
        node.module
        for node in _tree(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert sources, "diskspec/__init__.py imports from no module"
    for module in sorted(sources):
        listed = set(getattr(getattr(diskspec, module), "__all__", ()))
        assert listed <= exported, f"{module}.__all__ holds {sorted(listed - exported)}"
    assert all(hasattr(diskspec, name) for name in diskspec.__all__)
