"""Every definition in src/capsbeam is reached from program code.

A top-level def or class, or a method, counts as reached when its name
appears (as a name, an attribute or an import) in src/, scripts/ or
perfbench/*.py. Code that only the tests call is dead weight: delete it,
or name it in REFERENCES with the reason a test needs it. Dunder methods
are called implicitly and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "capsbeam"

REFERENCES = {
    "capsnet.dynamic_routing": "general routing loop; acceptance 05's reference",
    "pruning.lakp_ml_score": "scalar LAKP-ML score; acceptance 04's oracle",
    "quantized.quantize": "scalar quantizer; acceptance 06 imports it",
    "quantized.exp_taylor5": "scalar Taylor exponential; acceptance 06 imports it",
    "quantized._int_conv": "whole-tensor integer conv; oracle for conv_fixed",
    "pruning.kernel_l1": "per-kernel L1; oracle for the vectorised scores",
}


def _definitions(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (sub.name for sub in node.body if isinstance(sub, ast.FunctionDef))


def _referenced_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_src_definition_is_reached_from_program_code():
    modules = sorted(SRC.glob("*.py"))
    program = modules + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    reached = _referenced_names(program)
    unreached = {
        f"{path.stem}.{name}"
        for path in modules
        for name in _definitions(path)
        if name not in reached and not name.startswith("__")
    }
    assert unreached == set(REFERENCES)
