"""Effect-summary propagation (tools/lint/summaries.py).

Builds small projects with :func:`build_project` and asserts the
bottom-up SCC fixpoint converges to the right per-function effects:
transitive blocking, RNG taint, param-indexed fsync/replace/close/store
effects, resource-returning helpers, the async non-propagation rule and
the manual-annotation override surface.
"""

import ast
import textwrap

from tools.lint.summaries import build_project, extract_ir


def project_of(files: dict[str, str]):
    irs = {}
    for relpath, source in files.items():
        source = textwrap.dedent(source)
        irs[relpath] = extract_ir(ast.parse(source), source, relpath)
    return build_project(irs)


class TestBlocking:
    def test_direct_blocking_call_recorded(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    import time

                    def nap():
                        time.sleep(1)
                    """,
            }
        )
        assert project.summaries["repro.a:nap"].blocking == "time.sleep"

    def test_blocking_propagates_through_call_chain(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    import time

                    def inner():
                        time.sleep(1)

                    def middle():
                        inner()

                    def outer():
                        middle()
                    """,
            }
        )
        outer = project.summaries["repro.a:outer"]
        assert outer.blocking == "middle -> inner -> time.sleep"

    def test_blocking_converges_inside_recursion_cycle(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    import time

                    def ping(n):
                        if n:
                            pong(n - 1)

                    def pong(n):
                        time.sleep(1)
                        ping(n)
                    """,
            }
        )
        assert project.summaries["repro.a:pong"].blocking == "time.sleep"
        assert project.summaries["repro.a:ping"].blocking is not None

    def test_async_callee_does_not_propagate_blocking(self):
        # An async def that blocks is async's own bug (REP010 flags it
        # there); awaiting it is not a blocking call in the caller.
        project = project_of(
            {
                "src/repro/a.py": """\
                    import time

                    async def slow():
                        time.sleep(1)

                    async def caller():
                        await slow()
                    """,
            }
        )
        assert project.summaries["repro.a:slow"].blocking == "time.sleep"
        assert project.summaries["repro.a:caller"].blocking is None

    def test_annotation_survives_into_summary(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    def fetch():  # repro-lint: blocking -- reads a snapshot
                        return 1
                    """,
            }
        )
        summ = project.summaries["repro.a:fetch"]
        assert summ.annotated_blocking
        assert summ.blocking is not None
        assert project.annotated_blocking["fetch"] == ("src/repro/a.py", 1)


class TestRngTaint:
    def test_legacy_global_rng_taints_callers(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    import numpy as np

                    def draw():
                        return np.random.rand(3)

                    def wrapper():
                        return draw()
                    """,
            }
        )
        assert project.summaries["repro.a:draw"].rng is not None
        assert "draw" in project.summaries["repro.a:wrapper"].rng


class TestParamEffects:
    def test_fsync_and_replace_params_by_index(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    import os

                    def sync(handle):
                        handle.flush()

                    def publish(tmp, final):
                        os.replace(tmp, final)
                    """,
            }
        )
        assert project.summaries["repro.a:sync"].fsync_params == {0}
        assert project.summaries["repro.a:publish"].replace_src_params == {0}

    def test_durable_replace_call_covers_fsync_and_replace(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    from repro.util import fsio

                    def publish(tmp, final):
                        fsio.durable_replace(tmp, final)
                    """,
            }
        )
        summ = project.summaries["repro.a:publish"]
        assert 0 in summ.fsync_params
        assert 0 in summ.replace_src_params

    def test_write_params_seen_through_method(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    def dump(handle, payload):
                        handle.write_text(payload)
                    """,
            }
        )
        assert 0 in project.summaries["repro.a:dump"].write_params

    def test_self_offset_on_method_params(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    import os

                    class Publisher:
                        def sync(self, handle):
                            os.fsync(handle)
                    """,
            }
        )
        # `handle` is param index 1 (after self).
        assert project.summaries["repro.a:Publisher.sync"].fsync_params == {1}

    def test_close_and_store_params(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    def finish(handle):
                        handle.close()

                    def keep(registry, handle):
                        registry.append(handle)
                    """,
            }
        )
        assert project.summaries["repro.a:finish"].close_params == {0}
        assert project.summaries["repro.a:keep"].store_params == {1}

    def test_param_effects_flow_through_wrappers(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    import os

                    def _sync(fd):
                        os.fsync(fd)

                    def sync_then_close(fd):
                        _sync(fd)
                        os.close(fd)
                    """,
            }
        )
        summ = project.summaries["repro.a:sync_then_close"]
        assert 0 in summ.fsync_params


class TestResourceReturns:
    def test_helper_returning_open_handle(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    def acquire(path):
                        handle = open(path)
                        return handle
                    """,
            }
        )
        assert project.summaries["repro.a:acquire"].returns_resource is not None

    def test_identity_returns_params(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    def passthrough(handle):
                        return handle
                    """,
            }
        )
        assert project.summaries["repro.a:passthrough"].returns_params == {0}


class TestUnknownCalls:
    def test_unresolved_call_marks_summary(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    def run(cb):
                        cb()
                    """,
            }
        )
        assert project.summaries["repro.a:run"].unknown_calls

    def test_fully_resolved_pure_function_is_clean(self):
        project = project_of(
            {
                "src/repro/a.py": """\
                    def add(a, b):
                        return a + b

                    def twice(a):
                        return add(a, a)
                    """,
            }
        )
        summ = project.summaries["repro.a:twice"]
        assert not summ.unknown_calls
        assert summ.blocking is None
        assert summ.rng is None


class TestDependencySignature:
    def test_signature_changes_when_callee_effect_changes(self):
        caller = """\
            from repro.util import helper

            def run():
                return helper()
            """
        clean = project_of(
            {
                "src/repro/util.py": "def helper():\n    return 1\n",
                "src/repro/app.py": caller,
            }
        )
        dirty = project_of(
            {
                "src/repro/util.py": (
                    "import time\n\ndef helper():\n    time.sleep(1)\n"
                ),
                "src/repro/app.py": caller,
            }
        )
        assert clean.dependency_signature(
            "src/repro/app.py"
        ) != dirty.dependency_signature("src/repro/app.py")

    def test_signature_stable_for_unrelated_change(self):
        caller = """\
            from repro.util import helper

            def run():
                return helper()
            """
        before = project_of(
            {
                "src/repro/util.py": "def helper():\n    return 1\n",
                "src/repro/app.py": caller,
            }
        )
        after = project_of(
            {
                "src/repro/util.py": (
                    "def helper():\n    return 1\n\ndef other():\n    return 2\n"
                ),
                "src/repro/app.py": caller,
            }
        )
        assert before.dependency_signature(
            "src/repro/app.py"
        ) == after.dependency_signature("src/repro/app.py")


class TestShippedHitPath:
    """REP010's worked example: what the product server runs on its loop.

    ``ProductService.cached`` is called from an ``async def`` without an
    executor; that is sound only while its effect summary blocks on
    nothing, with no annotation or suppression helping it.  ``handle``,
    the same lookup plus the miss work, must keep being convicted -- it is
    what the inference would say about ``cached`` if a file read crept in.
    """

    def summaries(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        irs = {}
        for path in sorted((root / "src" / "repro").rglob("*.py")):
            relpath = path.relative_to(root).as_posix()
            source = path.read_text()
            irs[relpath] = extract_ir(ast.parse(source), source, relpath)
        return build_project(irs).summaries

    def test_cached_blocks_on_nothing_and_handle_is_convicted(self):
        summaries = self.summaries()
        service = "repro.products.service:ProductService."
        assert summaries[service + "cached"].blocking is None
        assert not summaries[service + "cached"].annotated_blocking
        for helper in ("LRUCache.peek", "LRUCache.touch"):
            assert summaries["repro.products.cache:" + helper].blocking is None
        assert summaries["repro.products.service:_signature"].blocking is None
        assert summaries[service + "handle"].blocking.endswith(".read_text()")
        assert "_snapshot" in summaries[service + "handle"].blocking

    def test_no_suppression_in_the_products_package(self):
        from pathlib import Path

        package = Path(__file__).resolve().parents[2] / "src" / "repro" / "products"
        for path in package.glob("*.py"):
            assert "repro-lint:" not in path.read_text(), path.name
