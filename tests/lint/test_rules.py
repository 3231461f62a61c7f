"""Each REP rule fires on a bad fixture and stays quiet on the good twin.

Every lint() call selects the rule under test so a fixture written for one
rule cannot trip another incidentally.
"""

import textwrap
from pathlib import Path

from tools.lint.core import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint(tmp_path, relpath, source, select):
    """Write a snippet into a scratch repo layout and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_lint([path], root=tmp_path, select=select)


class TestREP001Determinism:
    def test_unseeded_default_rng_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/sched/example.py",
            """\
            import numpy as np

            rng = np.random.default_rng()
            """,
            select=["REP001"],
        )
        assert [f.rule for f in report.findings] == ["REP001"]
        assert "unseeded" in report.findings[0].message

    def test_aliased_import_resolved(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/sched/example.py",
            """\
            from numpy.random import default_rng

            rng = default_rng()
            """,
            select=["REP001"],
        )
        assert [f.rule for f in report.findings] == ["REP001"]

    def test_module_level_global_state_call_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/obs/example.py",
            """\
            import numpy.random as nr

            noise = nr.standard_normal(10)
            """,
            select=["REP001"],
        )
        assert [f.rule for f in report.findings] == ["REP001"]
        assert "global state" in report.findings[0].message

    def test_legacy_randomstate_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/obs/example.py",
            """\
            import numpy as np

            rng = np.random.RandomState(7)
            """,
            select=["REP001"],
        )
        assert [f.rule for f in report.findings] == ["REP001"]

    def test_bare_default_rng_reference_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/ocean/example.py",
            """\
            from dataclasses import dataclass, field

            import numpy as np


            @dataclass
            class Forcing:
                rng: np.random.Generator = field(
                    default_factory=np.random.default_rng
                )
            """,
            select=["REP001"],
        )
        assert [f.rule for f in report.findings] == ["REP001"]
        assert "default_factory" in report.findings[0].message

    def test_seeded_and_threaded_generators_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/sched/example.py",
            """\
            import numpy as np


            def draw(n, rng=None):
                rng = rng if rng is not None else np.random.default_rng(42)
                return rng.normal(size=n)
            """,
            select=["REP001"],
        )
        assert report.findings == []

    def test_rng_module_itself_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/util/rng.py",
            """\
            import numpy as np

            rng = np.random.default_rng()
            """,
            select=["REP001"],
        )
        assert report.findings == []

    def test_removing_seed_from_real_network_fails_lint(self, tmp_path):
        """Acceptance check: de-seeding obs/network.py trips REP001."""
        original = (REPO_ROOT / "src/repro/obs/network.py").read_text()
        mutated = original.replace(
            'SeedSequenceStream(0).rng("obs", "network-noise")',
            "default_rng()",
        ).replace(
            "from repro.util.rng import SeedSequenceStream",
            "from numpy.random import default_rng",
        )
        assert mutated != original, "expected fallback not found in network.py"

        target = tmp_path / "src/repro/obs/network.py"
        target.parent.mkdir(parents=True)

        target.write_text(original)
        clean = run_lint([target], root=tmp_path, select=["REP001"])
        assert clean.findings == []

        target.write_text(mutated)
        dirty = run_lint([target], root=tmp_path, select=["REP001"])
        assert [f.rule for f in dirty.findings] == ["REP001"]
        assert "ObservationNetwork.__init__" in dirty.findings[0].symbol


class TestREP002ClockDiscipline:
    def test_time_time_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            import time

            started = time.time()
            """,
            select=["REP002"],
        )
        assert [f.rule for f in report.findings] == ["REP002"]
        assert "time.time" in report.findings[0].message

    def test_aliased_perf_counter_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            from time import perf_counter as pc

            t0 = pc()
            """,
            select=["REP002"],
        )
        assert [f.rule for f in report.findings] == ["REP002"]

    def test_bare_clock_reference_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            import time

            clock = time.monotonic
            """,
            select=["REP002"],
        )
        assert [f.rule for f in report.findings] == ["REP002"]

    def test_datetime_now_fires_once_per_chain(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            import datetime

            stamp = datetime.datetime.now().isoformat()
            """,
            select=["REP002"],
        )
        assert [f.rule for f in report.findings] == ["REP002"]

    def test_sleep_and_injected_clock_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            import time


            class Monitor:
                def __init__(self, clock):
                    self._clock = clock

                def tick(self):
                    time.sleep(0.01)
                    return self._clock()
            """,
            select=["REP002"],
        )
        assert report.findings == []

    def test_clock_module_itself_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/telemetry/clock.py",
            """\
            import time

            MONOTONIC = time.monotonic
            now = time.time()
            """,
            select=["REP002"],
        )
        assert report.findings == []


class TestREP005Layering:
    def test_util_importing_core_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/util/example.py",
            """\
            from repro.core.driver import ESSEConfig
            """,
            select=["REP005"],
        )
        assert [f.symbol for f in report.findings] == ["util->core"]

    def test_core_importing_workflow_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/core/example.py",
            """\
            from repro.workflow.parallel import ParallelESSEWorkflow
            """,
            select=["REP005"],
        )
        assert [f.symbol for f in report.findings] == ["core->workflow"]

    def test_sched_importing_workflow_fires(self, tmp_path):
        # The campaign simulator shares no code with the live task pool:
        # an edge in either direction is a finding.
        report = lint(
            tmp_path,
            "src/repro/sched/example.py",
            """\
            from repro.workflow.faults import FaultInjector
            """,
            select=["REP005"],
        )
        assert [f.symbol for f in report.findings] == ["sched->workflow"]
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            from repro.sched.engine import Simulator
            """,
            select=["REP005"],
        )
        assert [f.symbol for f in report.findings] == ["workflow->sched"]

    def test_workflow_may_import_core_taskmodel(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            from repro.core.taskmodel import reference_task_times
            """,
            select=["REP005"],
        )
        assert report.findings == []

    def test_unknown_package_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/newpkg/example.py",
            """\
            X = 1
            """,
            select=["REP005"],
        )
        assert [f.symbol for f in report.findings] == ["unknown-package:newpkg"]

    def test_root_modules_may_import_anything(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/config.py",
            """\
            from repro.core.driver import ESSEDriver
            from repro.realtime.times import ExperimentTimeline
            """,
            select=["REP005"],
        )
        assert report.findings == []


class TestSuppressions:
    def test_inline_disable_suppresses_one_line(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/sched/example.py",
            """\
            import numpy as np

            a = np.random.default_rng()  # repro-lint: disable=REP001
            b = np.random.default_rng()
            """,
            select=["REP001"],
        )
        assert len(report.findings) == 1
        assert report.findings[0].line == 4
        assert report.n_suppressed == 1

    def test_disable_file_suppresses_everywhere(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/sched/example.py",
            """\
            # repro-lint: disable-file=REP001
            import numpy as np

            a = np.random.default_rng()
            b = np.random.default_rng()
            """,
            select=["REP001"],
        )
        assert report.findings == []
        assert report.n_suppressed == 2

    def test_disable_all_covers_every_rule(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            import time

            t = time.time()  # repro-lint: disable=all
            """,
            select=["REP002"],
        )
        assert report.findings == []
        assert report.n_suppressed == 1

    def test_disable_list_of_rules(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            import time

            t = time.time()  # repro-lint: disable=REP001, REP002
            """,
            select=["REP002"],
        )
        assert report.findings == []

    def test_disable_with_justification_suffix(self, tmp_path):
        # The documented idiom: `disable=REPnnn -- why this is fine`.
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            import time

            t = time.time()  # repro-lint: disable=REP002 -- wall date of record
            """,
            select=["REP002"],
        )
        assert report.findings == []
        assert report.n_suppressed == 1
