"""Scalar fields underlying the matrix spaces: the reals, the complex
numbers and the quaternions.

Quaternions enter and leave as float arrays whose last axis holds the
four components (w, x, y, z) of w + x*i + y*j + z*k; the matrix layer
stores them as complex adjoint matrices (see ``matrices``).  ``brief``
echoes a bad input in the one-line errors of every parser from here up.
"""

from __future__ import annotations

import enum
import reprlib

_ECHO_CHARS = 60  # longest echo of a bad input in an error message
_ECHO = reprlib.Repr()
_ECHO.maxlevel = _ECHO.maxlist = _ECHO.maxtuple = _ECHO.maxdict = _ECHO_CHARS
_ECHO.maxstring = _ECHO.maxother = _ECHO.maxlong = _ECHO_CHARS


def brief(*values) -> str:
    """The reprs of bad inputs, comma separated, for a one-line error: whole
    up to _ECHO_CHARS characters, else cut there with "...".  reprlib renders
    at most _ECHO_CHARS items and levels of a value, so no huge or deep value
    is rendered whole; below that, every repr but a dict's (its keys sorted)
    is the builtin one."""
    text = ", ".join(map(_ECHO.repr, values[:_ECHO_CHARS]))
    return text if len(text) <= _ECHO_CHARS else text[: _ECHO_CHARS - 3] + "..."


class ScalarField(enum.Enum):
    REAL = "R"
    COMPLEX = "C"
    QUATERNION = "H"

    @property
    def dim(self) -> int:
        """Real dimension of the field (1, 2 or 4)."""
        return _FIELD_DIMS[self.value]

    @classmethod
    def parse(cls, label: str) -> "ScalarField":
        if isinstance(label, str) and label.upper() in _FIELD_DIMS:
            return cls(label.upper())
        raise ValueError(f"unknown scalar field {brief(label)}, expected one of R, C, H")


_FIELD_DIMS = {"R": 1, "C": 2, "H": 4}  # keyed on the value: hashing a member is slow

