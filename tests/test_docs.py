"""The repository's two copies of the method description stay identical."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_paper_md_is_its_header_plus_the_readme():
    paper = (ROOT / "PAPER.md").read_text(encoding="utf-8").splitlines(keepends=True)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "".join(paper[2:]) == readme
