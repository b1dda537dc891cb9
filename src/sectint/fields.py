"""Scalar fields underlying the matrix spaces: the reals, the complex
numbers and the quaternions.

Quaternions are carried as float arrays whose last axis holds the four
components (w, x, y, z) of w + x*i + y*j + z*k.  Internally the matrix
layer prefers the complex-pair form q = c1 + c2*j with c1 = w + x*i and
c2 = y + z*i; converters between the two layouts live here.
"""

from __future__ import annotations

import enum

import numpy as np


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


def quat_to_pair(q):
    """(..., 4) float components -> (..., 2) complex pair (c1, c2)."""
    q = np.asarray(q, dtype=float)
    c1 = q[..., 0] + 1j * q[..., 1]
    c2 = q[..., 2] + 1j * q[..., 3]
    return np.stack([c1, c2], axis=-1)
