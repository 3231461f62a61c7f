"""Helpers shared by the workflow tests."""

from repro.workflow import TaskStatus


def attempt_records(status, code):
    """Names of the ``pemodel`` attempt records that say ``code``.

    ``docs/FAILURE_MODEL.md`` documents them: one
    ``pemodel.<first>-<last>.a<k>.status`` per batch attempt, naming its
    members, and one ``pemodel.<i>.a<k>.status`` per member whose attempt
    failed.
    """
    return {
        path.name
        for path in status.root.glob("pemodel.*.a*.status")
        if TaskStatus(int(path.read_text().split()[0])) is code
    }
