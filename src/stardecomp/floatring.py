"""Floating-point complex matrix domain: positivity via eigenvalue bounds."""

from __future__ import annotations

import numpy as np

from .elements import Element
from .errors import PreconditionError


def is_positive_float(a: Element) -> bool:
    """Self-adjoint within eps_eq and min eigenvalue >= -eps_psd (relative)."""
    if a.domain.exact:
        raise PreconditionError("float-ring operation on a non-float element")
    tol = a.domain.tol
    scale = max(a.norm(), 1.0)
    if (a - a.star()).norm() > tol.eps_eq * scale:
        return False
    herm = (a.mat + a.mat.conj().T) / 2
    return float(np.linalg.eigvalsh(herm).min()) >= -tol.eps_psd * scale
