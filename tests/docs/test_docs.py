"""Documentation health: link integrity + executable doc examples.

Runs the same checks as the CI ``docs`` job, in-process: the link
checker over ``README.md`` and ``docs/*.md``, and doctest over the
python blocks extracted from every ``docs/*.md`` that has ``>>>``
examples (so no worked example in the docs can silently rot).  The
examples run against the session's isolated pipeline cache.
"""

import doctest
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "scripts"))

import check_links  # noqa: E402
import extract_doctests  # noqa: E402


def _doc_files():
    return [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))


@pytest.mark.parametrize("path", _doc_files(), ids=lambda p: p.name)
def test_no_broken_links(path):
    problems, _n_links = check_links.check_file(path)
    assert problems == [], f"broken links in {path.name}: {problems}"


def test_docs_have_links_to_check():
    """The checker must actually see links (guard against regex rot)."""
    total = sum(check_links.check_file(p)[1] for p in _doc_files())
    assert total >= 3


def _doctest_docs():
    return [
        p
        for p in sorted((REPO / "docs").glob("*.md"))
        if extract_doctests.extract(p.read_text(encoding="utf-8"))
    ]


def test_every_doctest_doc_is_checked():
    """The CI docs job's list, as a floor (guards the glob above)."""
    names = {p.name for p in _doctest_docs()}
    assert {
        "dse.md", "policy.md", "observability.md", "resilience.md",
        "kernels.md", "load.md", "sharding.md",
    } <= names
    dse = extract_doctests.extract((REPO / "docs" / "dse.md").read_text("utf-8"))
    assert len(dse) >= 4, "docs/dse.md lost its worked example"


@pytest.mark.parametrize("path", _doctest_docs(), ids=lambda p: p.name)
def test_doc_examples_execute(path):
    blocks = extract_doctests.extract(path.read_text(encoding="utf-8"))
    runner = doctest.DocTestRunner(verbose=False)
    parser = doctest.DocTestParser()
    globs = {}
    for i, block in enumerate(blocks):
        test = parser.get_doctest(
            block, globs, name=f"{path.name}[{i}]", filename=f"docs/{path.name}",
            lineno=0,
        )
        runner.run(test, clear_globs=False)
        globs = test.globs  # blocks build on one another
    results = runner.summarize(verbose=False)
    assert results.failed == 0, f"{results.failed} example(s) in {path.name} failed"
