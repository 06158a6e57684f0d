import ast
from pathlib import Path

import efs

SRC = Path(efs.__file__).parent


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def test_export_list_resolves_without_duplicates():
    missing = [name for name in efs.__all__ if not hasattr(efs, name)]
    assert missing == []
    assert len(set(efs.__all__)) == len(efs.__all__)


def test_the_cli_holds_no_numeric_verdict():
    # efs.cli parses, checks and prints: it needs no numpy, and the roundtrip
    # tolerance lives with the verdict in efs.pipeline
    tree = _tree("cli")
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not any(m == "numpy" or m.startswith("numpy.") for m in modules)
    assigned = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert "ROUNDTRIP_TOL" not in assigned


def test_the_backward_takes_only_the_containers_from_the_forward():
    # H and its gradient evaluate a point in efs.backward's own workspace
    names = {alias.name for node in ast.walk(_tree("backward"))
             if isinstance(node, ast.ImportFrom) and node.level == 1
             and node.module == "forward" for alias in node.names}
    assert names == {"ParticleSet", "Trajectory"}
