"""Every example script must be importable and expose a main().

The examples that are the only non-test callers of a module also run here:
each asserts the headline claim it prints, so the module they keep alive
is checked in a real run (ROADMAP item 7's third leg).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))

#: Examples that are the only non-test callers of a module or name.
ASSERTING_EXAMPLES = (
    "quickstart",  # ForecastResult.failure_count, ObservationOperator.by_instrument
    "adaptive_sampling",  # repro.obs.adaptive
    "multidisciplinary_forecast",  # repro.ocean.biology, repro.core.verification
    "acoustic_climate",  # repro.acoustics.coupled
)


def load_example(path):
    """Import one example script as a module (its main() not yet run)."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


def test_examples_exist():
    assert len(EXAMPLE_FILES) >= 3, "the repository promises >= 3 examples"


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    module = load_example(path)
    assert callable(getattr(module, "main", None)), f"{path.name} lacks main()"
    assert module.__doc__, f"{path.name} lacks a module docstring"


@pytest.mark.parametrize("stem", ASSERTING_EXAMPLES)
def test_module_keeping_example_runs_and_asserts(stem, tmp_path, monkeypatch, capsys):
    module = load_example(EXAMPLES_DIR / f"{stem}.py")
    monkeypatch.chdir(tmp_path)
    module.main()  # the example's own asserts are the check
    assert capsys.readouterr().out
