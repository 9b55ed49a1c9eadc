"""Every name the benchmark reads from subicap resolves.

perfbench/run.py, tracer.py, checks.py and test_checks.py import subicap
modules and functions, read attributes off those modules, and wrap
functions by name through tracer.TARGETS. A rename or deletion in src/ that
misses one of them breaks the benchmark, and a wrapped name may break only
a traced run. The files are parsed, never imported, so run.py's start-up
code does not run here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from subicap.model import decoding, training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FILES = ("run.py", "tracer.py", "checks.py", "test_checks.py")


def _subicap_imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> the dotted subicap path it is bound to."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "subicap":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "subicap":
                    # `import subicap.x` binds subicap; `import subicap.x as y`, y
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["subicap"] = "subicap"
    return bound


def benchmark_names(path: Path) -> set[str]:
    """Each dotted subicap name `path` imports, reads as `module.attr`, or
    lists as a `(module, "attr", ...)` row of a TARGETS table."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _subicap_imports(tree)
    names = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                names.add(f"{bound[node.value.id]}.{node.attr}")
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
              and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            for row in node.value.elts:
                module, attr = row.elts[:2]
                names.add(f"{bound[module.id]}.{attr.value}")
    return names


def resolves(dotted: str) -> bool:
    """Whether `dotted` names a subicap module or an attribute of one."""
    module, _, attr = dotted.rpartition(".")
    for candidate in (dotted, module):
        try:
            found = importlib.import_module(candidate)
        except ModuleNotFoundError:
            continue
        return candidate == dotted or hasattr(found, attr)
    return False


def _unresolved() -> dict[str, list[str]]:
    out = {}
    for name in FILES:
        names = benchmark_names(PERFBENCH / name)
        assert names, f"no subicap names found in {name}"
        out[name] = sorted(n for n in names if not resolves(n))
    return out


def test_every_benchmark_name_resolves():
    assert _unresolved() == {name: [] for name in FILES}


def test_a_hidden_name_is_reported(monkeypatch):
    # perfbench wraps both by name; no other test reads them but by patching
    monkeypatch.delattr(training, "loss_and_grads")
    monkeypatch.delattr(decoding, "decoder_forward")
    unresolved = _unresolved()
    assert "subicap.model.training.loss_and_grads" in unresolved["tracer.py"]
    assert "subicap.model.decoding.decoder_forward" in unresolved["tracer.py"]
