"""The README's library example, run as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
