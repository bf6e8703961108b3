"""The package root's public API: the names a library user needs, and the
README quickstart's imports, which must resolve against it."""

import ast
import re
from pathlib import Path

import metamorph

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "DiscreteFshape",
    "ShootingState",
    "ShootingDiverged",
    "validate_fshape",
    "RadialKernelSpec",
    "GrassmannKernelSpec",
    "VarifoldKernels",
    "FunctionalMetric",
    "DynamicsConfig",
    "MatchProblem",
    "MatchConfig",
    "ScaleStage",
    "MatchResult",
    "Trajectory",
    "digits_preset",
    "match",
    "shoot",
    "objective",
    "integrate_forward",
    "fidelity",
    "to_varifold",
    "SphereState",
    "integrate_sphere",
}


def test_all_is_exactly_the_public_api():
    assert len(metamorph.__all__) == len(PUBLIC) == 23
    assert set(metamorph.__all__) == PUBLIC
    namespace = {}
    exec("from metamorph import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(metamorph, name)


def test_readme_quickstart_imports_resolve():
    block = re.search(r"## Library quickstart\n.*?```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    imports = [
        node
        for node in ast.parse(block.group(1)).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert any(node.module == "metamorph" for node in imports if isinstance(node, ast.ImportFrom))
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(README), "exec"), {})
