"""Rule modules; importing this package registers every rule.

Add a new rule by creating a module here with a ``@register``-decorated
:class:`tools.lint.core.Rule` subclass and importing it below (see
``docs/STATIC_ANALYSIS.md`` for the bar a new rule has to clear).
"""

from tools.lint.rules import (  # noqa: F401  -- imported for registration
    clocks,
    determinism,
    layering,
    resources,
)
