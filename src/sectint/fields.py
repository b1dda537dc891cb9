"""Scalar fields underlying the matrix spaces: the reals, the complex
numbers and the quaternions.

Quaternions enter and leave as float arrays whose last axis holds the
four components (w, x, y, z) of w + x*i + y*j + z*k; the matrix layer
stores them as complex adjoint matrices (see ``matrices``).
"""

from __future__ import annotations

import enum


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
        raise ValueError(f"unknown scalar field {label!r}, expected one of R, C, H")


_FIELD_DIMS = {"R": 1, "C": 2, "H": 4}  # keyed on the value: hashing a member is slow

