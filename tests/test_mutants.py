"""The mutant catalogue (tools/mutants.py) cannot rot silently: every anchor
text occurs exactly once in its module, and every node it names exists."""
import importlib.util
import re
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_anchor_occurs_once_and_every_node_exists():
    counts = mutants.anchor_counts()
    assert len(counts) == len(mutants.CATALOGUE) >= 9
    assert {name: n for name, n in counts.items() if n != 1} == {}
    for m in mutants.CATALOGUE:
        assert m.kills and m.old != m.new, m.name
        for node in (*m.kills, *(s for s, _ in m.survivors)):
            path, func = node.split("::")
            source = (mutants.ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {func}\(", source, re.M), (m.name, node)
