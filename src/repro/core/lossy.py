"""Lossy buddy checkpointing — IMCR through a compression model.

The lossy-checkpointing regime (arXiv:1804.11268): checkpoints pass
through an absolute-error-bound compressor, so the per-checkpoint
volume (local copies, buddy messages, recovery transfers) shrinks by
the modelled ratio — but a restored state is only accurate to the
error bound, and that error re-enters CG as a perturbed iterate.  CG
is self-correcting for such bounded perturbations (it simply resumes
from a slightly different point on the energy-norm landscape), so the
trade is extra iterations against cheaper checkpoints — exactly the
overhead balance the campaign report A/Bs against exact IMCR and
ESR/ESRP.

The strategy reuses the whole IMCR machinery via the two
checkpoint-content hooks (:meth:`IMCRStrategy._checkpoint_block` /
:meth:`IMCRStrategy._checkpoint_nbytes`); only what is *stored* and
how big it is on the wire change.  The quantiser is seeded and purely
elementwise, so trajectories are deterministic and backend-invariant.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..faults.lossy import CompressionModel
from .imcr import IMCRStrategy


class LossyIMCRStrategy(IMCRStrategy):
    """IMCR with SZ-style error-bounded checkpoint compression."""

    name = "lossy_imcr"

    def __init__(
        self,
        T: int,
        phi: int = 1,
        error_bound: float = 1e-4,
        ratio: float = 4.0,
        seed: int = 0,
    ):
        super().__init__(T=T, phi=phi)
        if error_bound <= 0:
            raise ConfigurationError(f"error_bound must be > 0, got {error_bound}")
        self.compressor = CompressionModel(error_bound=error_bound, ratio=ratio, seed=seed)

    def _checkpoint_block(self, block: np.ndarray) -> np.ndarray:
        # Decompressed-on-arrival representation: the quantised values
        # (|error| <= error_bound) are what a restore hands back to CG.
        return self.compressor.compress(block)

    def _checkpoint_nbytes(self, nbytes: int) -> int:
        return self.compressor.compressed_bytes(nbytes)

    def replay_horizon(self, failures) -> int | None:
        # The quantiser reads every checkpoint's values, and a restore
        # hands back perturbed ones: always run for real.
        return 0
