import doctest
from pathlib import Path

from pillowcase import lattice, orbi, qseries

README = Path(__file__).resolve().parent.parent / "README.md"


def test_module_doctests():
    for mod in (lattice, orbi, qseries):
        result = doctest.testmod(mod)
        assert result.attempted > 0
        assert result.failed == 0


def test_readme_quickstart():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
