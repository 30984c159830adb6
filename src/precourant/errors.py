"""Exception types shared across the library."""


class PrecourantError(Exception):
    """Base class for all library errors."""


class ChartMismatchError(PrecourantError):
    """Two values built over different charts were combined."""


class RankMismatchError(PrecourantError):
    """A section's length does not match the bundle rank."""


class DegreeError(PrecourantError):
    """A form or cochain has an inadmissible degree for the operation."""


class MembershipError(PrecourantError):
    """A cochain fails the contraction-membership test required here."""


class ConstructionError(PrecourantError):
    """Builder input fails one of its stated preconditions.

    Carries a short machine-readable code and a witness description.
    """

    def __init__(self, code: str, witness: str = ""):
        self.code = code
        self.witness = witness
        msg = code if not witness else f"{code}: {witness}"
        super().__init__(msg)


class TaskError(PrecourantError):
    """A task name is unknown, the manifest lacks a block the task needs,
    or no task is named (an empty `task`)."""

    def __init__(self, task: str, missing: str = ""):
        self.task = task
        self.missing = missing
        super().__init__(
            f"task {task!r} needs {missing}" if missing
            else f"unknown task {task!r}" if task
            else "no task to run: name tasks in [meta] or with --task"
        )


class ParseError(PrecourantError):
    """Positioned syntax error for the literal grammars and the manifest."""

    def __init__(self, line: int, column: int, expected: str, found: str = ""):
        self.line = line
        self.column = column
        self.expected = expected
        # runaway text, longer than any real key or name, shows 20 characters
        self.found = found if len(found) <= 64 else found[:20] + "..."
        msg = f"line {line}, column {column}: expected {expected}"
        if found:
            msg += f", found {self.found!r}"
        super().__init__(msg)
