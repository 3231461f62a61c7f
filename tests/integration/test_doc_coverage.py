"""Cross-cutting integration checks: doc coverage."""

from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent


class TestDocumentationConsistency:
    def test_every_bench_file_documented(self):
        """EXPERIMENTS.md must mention every bench module (no silent
        experiments -- DESIGN.md's 'no silent caps' spirit applies to the
        docs too)."""
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for bench in sorted((REPO / "benchmarks").glob("bench_*.py")):
            assert bench.stem in experiments, (
                f"{bench.name} is not referenced in EXPERIMENTS.md"
            )

    def test_every_example_documented_in_readme(self):
        readme = (REPO / "README.md").read_text()
        for example in sorted((REPO / "examples").glob("*.py")):
            assert example.name in readme, (
                f"{example.name} is not referenced in README.md"
            )

    def test_design_lists_all_subpackages(self):
        design = (REPO / "DESIGN.md").read_text()
        src = REPO / "src" / "repro"
        for pkg in sorted(p.name for p in src.iterdir() if p.is_dir()):
            if pkg.startswith("__"):
                continue
            assert f"repro.{pkg}" in design, (
                f"subpackage repro.{pkg} missing from DESIGN.md"
            )
