"""tools/mutants.py: every mutant's text occurs exactly once in its file,
so that a change that rewrites a mutated line fails tier-1, not only the
next run of the probe."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_mutant_texts_occur_once():
    """Each text occurs once, and the probe deselects this test by its
    real id (every mutant fails it by construction)."""
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    counts = {name: (ROOT / path).read_text().count(text)
              for name, (path, text, _) in tool.MUTANTS.items()}
    assert counts == dict.fromkeys(tool.MUTANTS, 1)
    assert tool.TEXT_CHECK == (f"tests/{Path(__file__).name}::"
                               "test_mutant_texts_occur_once")
