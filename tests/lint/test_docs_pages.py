"""The docs/ page lint: README linkage, snippet compilation, cited names."""

import textwrap

from tools.check_docs import (
    DESIGN_PATH,
    README_PATH,
    docs_pages,
    snippet_errors,
    unlinked_pages,
    unresolved_names,
)


class TestUnlinkedPages:
    def test_all_real_pages_linked_from_readme(self):
        """The repository invariant the CI gate enforces."""
        assert unlinked_pages() == []

    def test_orphan_detected(self):
        """A README that drops a link shows up as an orphan."""
        pages = docs_pages()
        assert pages  # the repo has architecture docs
        victim = pages[0].name
        readme = "\n".join(
            f"[{page.name}](docs/{page.name})"
            for page in pages
            if page.name != victim
        )
        assert unlinked_pages(readme) == [f"docs/{victim}"]

    def test_substring_link_counts(self):
        """Any mention of docs/<name> counts -- style of link is free."""
        readme = " ".join(f"see docs/{page.name}." for page in docs_pages())
        assert unlinked_pages(readme) == []


class TestSnippetErrors:
    def test_real_pages_compile(self):
        for page in docs_pages():
            assert snippet_errors(page) == [], page.name

    def test_broken_snippet_reported_with_line(self, tmp_path):
        page = tmp_path / "BROKEN.md"
        page.write_text(
            textwrap.dedent(
                """\
                # Broken

                ```python
                def f(:
                ```
                """
            )
        )
        errors = snippet_errors(page)
        assert len(errors) == 1
        assert "BROKEN.md:4" in errors[0]
        assert "does not compile" in errors[0]

    def test_non_python_fences_ignored(self, tmp_path):
        page = tmp_path / "SHELL.md"
        page.write_text("```bash\nthis is ) not python\n```\n")
        assert snippet_errors(page) == []

    def test_doctest_blocks_parsed_as_doctests(self, tmp_path):
        page = tmp_path / "DOCTEST.md"
        page.write_text(
            textwrap.dedent(
                """\
                ```python
                >>> x = 1
                >>> x + 1
                2
                ```
                """
            )
        )
        assert snippet_errors(page) == []

    def test_broken_doctest_reported(self, tmp_path):
        page = tmp_path / "DOCTEST.md"
        page.write_text("```python\n>>> def g(:\n...     pass\n```\n")
        errors = snippet_errors(page)
        assert len(errors) == 1
        assert "does not compile" in errors[0]


class TestUnresolvedNames:
    def test_real_pages_name_only_what_exists(self):
        for page in [README_PATH, DESIGN_PATH, *docs_pages()]:
            assert unresolved_names(page.read_text()) == [], page.name

    def test_deleted_names_reported(self):
        text = (
            "| smoother | `repro.core.smoother` |\n"
            "| kernel | `repro.core.assimilation.subspace_gain` |\n"
            "| method | `repro.acoustics.coupled.CoupledCovariance.coupling_fraction` |\n"
            "| mode | `repro.sched.iomodel.IOMode.OPENDAP` |\n"
            "| package | `repro.sched` and `repro.nowhere.thing` |\n"
        )
        assert unresolved_names(text) == [
            "repro.core.smoother",
            "repro.sched.iomodel.IOMode.OPENDAP",
            "repro.nowhere.thing",
        ]

    def test_snippet_imports_of_deleted_names_reported(self):
        """A snippet that imports a name that is gone fails, though it compiles."""
        text = textwrap.dedent(
            """\
            ```python
            from repro.workflow import EnsembleEngine, make_backend  # a, b
            >>> from repro.config import (
            ...     ExperimentConfig as Config,
            ...     EngineBackend,
            ... )
            ```

            from repro.workflow import NotInAFence
            """
        )
        assert unresolved_names(text) == [
            "repro.workflow.make_backend",
            "repro.config.EngineBackend",
        ]
