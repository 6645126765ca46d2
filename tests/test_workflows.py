"""The CI workflows against the README that describes them."""

import ast
import re
from pathlib import Path

from test_verify import SKIPPED_PAIRS

ROOT = Path(__file__).resolve().parent.parent


def _slow_workflow_paths():
    """The entries of the `paths:` list of the slow workflow, read as text:
    the `- "..."` lines indented deeper than `paths:` itself."""
    lines = (ROOT / ".github" / "workflows" / "slow.yml").read_text() \
        .splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.strip() == "paths:")
    indent = len(lines[start]) - len(lines[start].lstrip())
    paths = []
    for line in lines[start + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        entry = line.strip()
        if entry.startswith("- "):
            paths.append(entry[2:].strip().strip("\"'"))
    return paths


def _readme_section(title):
    text = (ROOT / "README.md").read_text()
    start = text.index("\n## %s\n" % title)
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_readme_names_every_path_of_the_slow_workflow():
    paths = _slow_workflow_paths()
    assert "src/modinvar/verify.py" in paths
    assert ".github/workflows/slow.yml" in paths
    tests = _readme_section("Tests")
    assert [p for p in paths if "`%s`" % p not in tests] == []


def test_every_file_with_a_slow_test_is_a_path_of_the_slow_workflow():
    # a slow test in a file left out would not run on the pull requests
    # that change it
    paths = _slow_workflow_paths()
    slow = [p.relative_to(ROOT).as_posix()
            for p in sorted((ROOT / "tests").glob("test_*.py"))
            if any(ast.unparse(node) == "pytest.mark.slow"
                   for node in ast.walk(ast.parse(p.read_text()))
                   if isinstance(node, ast.Attribute))]
    assert "tests/test_verify.py" in slow
    assert [p for p in slow if p not in paths] == []


def test_readme_quotes_the_pinned_hilbert_driven_skips():
    # the skipped and reduced S-pairs at q = 2..5 that test_verify pins
    text = " ".join((ROOT / "README.md").read_text().split())
    start = text.index("At q = 2, 3, 4 and 5 it skips ")
    sentence = text[start:text.index(" S-pairs.", start)]
    quoted = [(int(a.replace(",", "")), int(b.replace(",", "")))
              for a, b in re.findall(r"([\d,]*\d) of ([\d,]*\d)", sentence)]
    assert quoted == [SKIPPED_PAIRS[q] for q in (2, 3, 4, 5)]
