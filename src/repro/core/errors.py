"""Exception hierarchy for the fpt-core framework.

All framework errors derive from :class:`FptError` so callers can catch a
single base class.  Configuration problems (bad syntax, unsatisfiable
wiring) are reported as :class:`ConfigError`; mistakes made by module
implementations (writing to an undeclared output, re-declaring an output)
are reported as :class:`ModuleError`.
"""

from __future__ import annotations

from typing import Optional


class FptError(Exception):
    """Base class for all fpt-core errors."""


class ConfigError(FptError):
    """The configuration file is syntactically or semantically invalid.

    Mirrors the paper's behaviour (section 3.3): if the DAG cannot be
    fully constructed -- an input references a missing instance or output,
    or the wiring contains a cycle -- fpt-core terminates.

    ``line_no`` and ``line_text`` locate the offending configuration line
    when the error originated from (or can be traced back to) a parsed
    configuration file; both are ``None`` for errors with no file
    position (e.g. programmatically built specs).  ``code`` is the
    ``repro lint`` code of the problem: ``FPT000`` (a syntax error) unless
    the raiser knows better.
    """

    def __init__(
        self,
        message: str,
        *,
        line_no: Optional[int] = None,
        line_text: Optional[str] = None,
        code: str = "FPT000",
    ) -> None:
        super().__init__(message)
        self.line_no = line_no
        self.line_text = line_text
        self.code = code

    def describe(self) -> str:
        """The message plus the offending config line, when known."""
        text = str(self)
        if self.line_no is not None and "line " not in text.split(":")[0]:
            text = f"line {self.line_no}: {text}"
        if self.line_text:
            text += f"\n    {self.line_text.strip()}"
        return text


class ModuleError(FptError):
    """A module implementation violated the plug-in API contract."""


class SchedulerError(FptError):
    """The scheduler was driven incorrectly (e.g. time moved backwards)."""
