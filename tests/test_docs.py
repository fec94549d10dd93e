"""Tier-1 mirror of the CI docs job (tools/check_docs.py).

Keeps the documentation guarantees local: a broken intra-repo markdown
link, a package missing from docs/architecture.md, a doc or Python
source citing a path that does not exist or a metric missing from
docs/observability.md fails the test suite before it fails CI.
"""

import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).parent.parent / "tools"
sys.path.insert(0, str(TOOLS_DIR))

import check_docs  # noqa: E402


@pytest.fixture(scope="module")
def root():
    return check_docs.repo_root()


class TestDocsPresence:
    @pytest.mark.parametrize(
        "page", ["architecture.md", "paper-mapping.md", "server.md"]
    )
    def test_docs_suite_exists(self, root, page):
        assert (root / "docs" / page).is_file()

    def test_readme_links_docs_suite(self, root):
        text = (root / "README.md").read_text(encoding="utf-8")
        for page in ("architecture.md", "paper-mapping.md", "server.md"):
            assert f"docs/{page}" in text


class TestLinkCheck:
    def test_all_relative_links_resolve(self, root):
        assert check_docs.check_links(root) == []

    def test_extract_links_handles_anchors_and_titles(self):
        links = check_docs.extract_links(
            '[a](docs/server.md) [b](docs/x.md#top) [c](https://e.org) '
            '[d](#local) ![img](fig.png "cap")'
        )
        assert links == [
            "docs/server.md", "docs/x.md#top", "https://e.org", "#local",
            "fig.png",
        ]

    def test_broken_link_detected(self, tmp_path):
        (tmp_path / "a.md").write_text("[x](missing.md)", encoding="utf-8")
        problems = check_docs.check_links(tmp_path)
        assert len(problems) == 1
        assert "missing.md" in problems[0]


class TestArchitectureCoverage:
    def test_every_package_is_documented(self, root):
        assert check_docs.check_architecture_coverage(root) == []

    def test_server_package_is_required(self, root):
        # Guards the check itself: it must actually enumerate packages.
        architecture = (root / "docs" / "architecture.md").read_text(
            encoding="utf-8"
        )
        assert "src/repro/server/" in architecture
        assert "src/repro/runtime/" in architecture


class TestRequiredSections:
    def test_all_required_sections_present(self, root):
        assert check_docs.check_required_sections(root) == []

    def test_missing_marker_detected(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "server.md").write_text("stub", encoding="utf-8")
        problems = check_docs.check_required_sections(tmp_path)
        assert any("Adaptive sessions" in problem for problem in problems)
        assert any("README.md is missing" in problem for problem in problems)


class TestDocReferences:
    def test_every_cited_doc_exists(self, root):
        assert check_docs.check_doc_references(root) == []

    def test_missing_doc_detected(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "m.py").write_text(
            '"""See NOTES.md and docs/a.md; globs like *.md are no '
            'citation."""\n',
            encoding="utf-8",
        )
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "a.md").write_text("# A\n", encoding="utf-8")
        assert check_docs.check_doc_references(tmp_path) == [
            "src/m.py: cites missing NOTES.md"
        ]

    def test_dangling_script_citation_detected(self, tmp_path):
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "bench_kept.py").write_text("", encoding="utf-8")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "a.md").write_text(
            "Run `benchmarks/bench_kept.py` or benchmarks/bench_gone.py. "
            "Globs (`benchmarks/bench_*.py`) and placeholders "
            "(`benchmarks/<name>.py`) are no citation.\n",
            encoding="utf-8",
        )
        (tmp_path / "CHANGES.md").write_text(
            "Deleted benchmarks/bench_old.py.\n", encoding="utf-8"
        )
        assert check_docs.check_doc_references(tmp_path) == [
            "docs/a.md: cites missing benchmarks/bench_gone.py"
        ]


class TestMetricsDocumented:
    def test_every_emitted_metric_is_documented(self, root):
        assert check_docs.check_metrics_documented(root) == []

    def test_undocumented_metric_detected(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "m.py").write_text(
            'registry.counter("repro_known_total")\n'
            'registry.counter("repro_new_total")\n'
            'registry.counter(f"repro_kernel_cache_{event}_total")\n'
            'registry.counter(f"repro_{kind}_total")\n',
            encoding="utf-8",
        )
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "observability.md").write_text(
            "| `repro_known_total` |\n| `repro_kernel_cache_hits_total` |\n"
            "| `repro_kernel_cache_misses_total` |\n",
            encoding="utf-8",
        )
        assert check_docs.check_metrics_documented(tmp_path) == [
            "src/m.py: metric repro_new_total is not in docs/observability.md",
            "src/m.py: metric repro_kernel_cache_evictions_total is not in "
            "docs/observability.md",
            "src/m.py: metric template repro_{kind}_total has no entry in "
            "check_docs.METRIC_TEMPLATES",
        ]


class TestModuleAnchors:
    def test_every_module_states_a_paper_anchor(self, root):
        """Each public module's docstring names its paper-section anchor
        (a '§' reference, like bench/driver.py's §4.4) in its opening
        lines — the convention docs/architecture.md documents."""
        missing = []
        for path in sorted((root / "src" / "repro").rglob("*.py")):
            head = "\n".join(
                path.read_text(encoding="utf-8").splitlines()[:20]
            )
            if "§" not in head:
                missing.append(str(path.relative_to(root)))
        assert missing == []
