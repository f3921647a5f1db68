"""Elasticity-flavoured vector-valued SPD problems (audikw_1 regime).

audikw_1 is a 3-D structural matrix with three displacement degrees of
freedom per mesh node and ≈82 non-zeros per row.  Our stand-in couples
a 27-point scalar stencil with a 3×3 SPD inter-component block::

    A = S_27 ⊗ C,   C = (1-c)·I₃ + c·𝟙𝟙ᵀ-style SPD coupling

giving exactly 81 nnz/row in the interior, 3 consecutive dofs per grid
point (the partition helper keeps nodes aligned to dof triples), and a
condition number ``cond(S)·cond(C)``.  Kronecker products of SPD
matrices are SPD, so the result is SPD by construction.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..exceptions import ConfigurationError
from .poisson import _kron, poisson_3d_27pt

#: Degrees of freedom per grid point in the vector-valued problems.
DOFS_PER_POINT = 3


def coupling_block(coupling: float = 0.3) -> np.ndarray:
    """3×3 SPD inter-component coupling matrix.

    ``coupling`` in [0, 1): off-diagonal weight relative to the
    diagonal.  0 decouples the displacement components; values close to
    1 make the block nearly singular (ill conditioned).
    """
    if not 0.0 <= coupling < 1.0:
        raise ConfigurationError(f"coupling must be in [0, 1), got {coupling}")
    c = np.full((DOFS_PER_POINT, DOFS_PER_POINT), coupling)
    np.fill_diagonal(c, 1.0)
    return c


def elasticity_3d(
    nx: int,
    ny: int | None = None,
    nz: int | None = None,
    anisotropy: tuple[float, float, float] = (1.0, 1.0, 1.0),
    coupling: float = 0.3,
) -> sp.csr_matrix:
    """Vector-valued 3-D operator with 3 dofs per point, ~81 nnz/row."""
    scalar = poisson_3d_27pt(nx, ny, nz, anisotropy=anisotropy)
    block = coupling_block(coupling)
    return _kron(scalar, sp.csr_matrix(block)).tocsr()


def n_unknowns(nx: int, ny: int | None = None, nz: int | None = None) -> int:
    """Number of unknowns of :func:`elasticity_3d` for a given grid."""
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    return nx * ny * nz * DOFS_PER_POINT
