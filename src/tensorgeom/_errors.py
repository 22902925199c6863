"""The typed numerical errors every module raises, and ``_stack``.

They live apart from ``expr`` so that the tensor modules, and a ``tensor``
launch of the CLI, need not load the expression language.  ``expr``
re-exports both errors.
"""

from __future__ import annotations

import numpy as np


class NumericalFailure(ArithmeticError):
    """Base of every typed numerical error in tensorgeom (a pole, overflow, a
    degenerate frame or metric); each subclass also keeps its builtin base."""


class DomainError(NumericalFailure):
    """A builtin was evaluated outside its domain (log of non-positive,
    division by zero, sqrt of a negative, a pole of tan, overflow, a
    non-finite result, ...).  ``point`` names the coordinates where it was
    raised, as "(u, v) = (0.5, 0.1)"; ``detail`` is the message without it."""

    def __init__(self, message: str, expression: str | None = None, offset: int | None = None,
                 point: str | None = None):
        self.reason = message
        self.expression = expression
        self.offset = offset
        text = message
        if expression is not None:
            text += f" in '{expression}'"
        if offset is not None:
            text += f" (offset {offset})"
        self.detail = text
        super().__init__(text if point is None else f"{text} at {point}")


def _stack(values) -> np.ndarray:
    """Components (floats at one point, arrays of one shape on a batch) as one
    array with the components on its last axis."""
    if type(values[0]) is not np.ndarray:
        return np.array(values, dtype=float)
    return np.stack(values, axis=-1)
