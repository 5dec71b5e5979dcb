"""The Buchberger kernel's entry points, as the rest of the package calls them.

The implementation lives in _pykernel; this module re-exports it so callers
go through one stable name.
"""

from ._pykernel import DEFAULT_BUDGET, IMPL, buchberger, normal_form

__all__ = ["DEFAULT_BUDGET", "IMPL", "buchberger", "normal_form"]
