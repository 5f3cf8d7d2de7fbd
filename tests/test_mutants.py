"""The standing mutant suite (``tests/mutants.py``) still names live code.

Running the mutants takes a minute (``python -m tests.mutants``); this test
only checks that every entry can still be applied: its snippet occurs
exactly once in its file, and each node it names is a test that exists.
"""

from __future__ import annotations

import re

from tests import mutants


def test_every_mutant_snippet_occurs_once_and_names_live_tests():
    sources, tests = {}, {}
    for m in mutants.MUTANTS + mutants.SURVIVORS:
        text = sources.setdefault(m.file, (mutants.ROOT / "src" / m.file).read_text())
        assert text.count(m.snippet) == 1, m.name
        assert m.snippet != m.replacement, m.name
        assert m.nodes, m.name
        for node in m.nodes:
            path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(\[.*\])?", node).group(1, 2)
            body = tests.setdefault(path, (mutants.ROOT / path).read_text())
            assert f"\ndef {name}(" in body, node
    names = [m.name for m in mutants.MUTANTS + mutants.SURVIVORS]
    assert len(set(names)) == len(names)
