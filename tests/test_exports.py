"""The library exports what the program runs: every public function of the
core modules has a caller in ``src/``, or a named reason to be public, and
every public class is used in ``src/``.

References that only the tests use live in ``tests/oracles.py``.
"""

import ast
import inspect
from pathlib import Path

import pytest

from tempomix import encoders, mixers, model, numcore, tgraph, traineval

SRC = Path(numcore.__file__).parent

# public functions without a caller in src/, each with the reason it stays public
CALLED_FROM_OUTSIDE = {
    "numcore.grad_check": "the acceptance suite checks gradients with it",
    "mixers.adaptive_mix": "the acceptance suite runs the single-sequence adaptive kernel",
    "model.node_repr": "perfbench checks scores against the per-key path",
    "model.predict_link": "perfbench checks scores against the per-key path",
}


def src_references() -> dict[str, set[tuple[str, str | None]]]:
    """For each name that code in ``src/`` looks up, by itself or as an
    attribute, the (module, enclosing top-level definition) pairs it is
    looked up from; None for module-level code."""
    refs: dict[str, set[tuple[str, str | None]]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    refs.setdefault(name, set()).add((path.stem, owner))
    return refs


def unreferenced(module, kind=inspect.isfunction) -> set[str]:
    """The names in ``module.__all__`` of one kind (functions by default, or
    classes) that no code in ``src/`` looks up outside their own definition."""
    stem = module.__name__.rsplit(".", 1)[1]
    refs = src_references()
    return {f"{stem}.{name}" for name in module.__all__
            if kind(getattr(module, name)) and not refs.get(name, set()) - {(stem, name)}}


CORE = pytest.mark.parametrize("module", [numcore, tgraph, encoders, mixers, model, traineval],
                               ids=lambda m: m.__name__)


@CORE
def test_every_exported_function_has_a_caller_or_a_reason(module):
    stem = module.__name__.rsplit(".", 1)[1]
    allowed = {name for name in CALLED_FROM_OUTSIDE if name.startswith(f"{stem}.")}
    assert unreferenced(module) == allowed


@CORE
def test_every_exported_class_is_used_in_src(module):
    """No layer type or other class is left exported once the program stops
    building it."""
    assert unreferenced(module, inspect.isclass) == set()


def test_the_reference_scan_sees_calls_and_not_definitions():
    refs = src_references()
    assert ("model", "_predictor_logits") in refs["matmul"]  # nc.matmul, an attribute
    assert ("mixers", "token_block") in refs["_mix_block"]  # a bare name
    assert "node_repr" not in refs  # a def, an __all__ entry and an import are no calls


def test_only_numcore_reads_the_row_chunk():
    """The rule that cuts rows into chunks has one home, ``numcore._row_bounds``."""
    assert {module for module, _ in src_references()["_ROW_CHUNK"]} == {"numcore"}
