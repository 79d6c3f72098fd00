"""Imports what hypothesis imports to report a failing example, once, before any test runs.

hypothesis reaches libcst through ``hypothesis.extra._patching`` when a
property fails, and libcst's import raises a ``DeprecationWarning`` from
``mypy_extensions.TypedDict``. Under ``-W error``, or the suite's own
``error::DeprecationWarning``, that warning would replace the falsifying
example with an internal error. Imported here with that one warning ignored,
the module is cached, and the report imports nothing new. Without libcst,
hypothesis skips that module too, and no warning is raised.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
