"""Verification workbench for finite strictly unital A-infinity categories.

Exact-arithmetic tooling over the rationals or prime fields: structure and
relation validation for categories given by sparse structure constants,
decreasing filtrations and their compatibility checks, the quotient category
of a filtered algebra on objects 0..n-1, one-sided twisted complexes with
semiorthogonality reports, and Hochschild-cocycle deformations of square-zero
extensions.  The sign conventions shared by every module are documented in
:mod:`ainfbench.ainf` and :mod:`ainfbench.perfmod`.

The Python API is the modules (``ainfbench.ainf``, ``ainfbench.perfmod``,
...), each name importable from the module that defines it; the package root
exports only the two field constructors.
"""

from .scalars import GF, QQ

__all__ = ["GF", "QQ"]
