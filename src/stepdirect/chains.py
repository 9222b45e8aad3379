"""The Gibbs chain loop and column-oriented storage for its output."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .rngstats import SummaryRow, summarize

__all__ = ["ChainOutput", "mc_standard_error", "run_chain"]


@dataclass
class ChainOutput:
    """Saved draws (post burn-in, post thinning) with their metadata."""

    names: list[str]
    draws: np.ndarray  # shape (n_saved, n_params)
    burnin: int
    thin: int
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.draws = np.asarray(self.draws, dtype=float)
        if self.draws.ndim != 2 or self.draws.shape[1] != len(self.names):
            raise DomainError("draws must be (n_saved, n_params) matching names")

    @property
    def n_saved(self) -> int:
        return self.draws.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.names.index(name)]

    def summaries(self) -> dict[str, SummaryRow]:
        return {name: summarize(self.draws[:, j]) for j, name in enumerate(self.names)}


def run_chain(scan, row, names, iters, burnin, thin, rejects_name, extras) -> ChainOutput:
    """Run a Gibbs chain for ``iters`` iterations and save every ``thin``-th
    state after ``burnin``.

    ``scan()`` updates the chain's state in place by one iteration and
    returns that iteration's reject count; ``row()`` returns the state's
    saved values in ``names`` order. The counts go to
    ``extras[rejects_name]``, one per iteration, ahead of ``extras``.
    """
    if iters < 0 or burnin < 0 or thin < 1:
        raise DomainError("need iters >= 0, burnin >= 0, thin >= 1")
    rejects = np.zeros(iters, dtype=int)
    saved = []
    for it in range(iters):
        rejects[it] = scan()
        if it >= burnin and (it - burnin) % thin == 0:
            saved.append(row())
    draws = np.asarray(saved) if saved else np.empty((0, len(names)))
    return ChainOutput(names, draws, burnin, thin, {rejects_name: rejects, **extras})


def mc_standard_error(draws) -> float:
    """Batch-means Monte Carlo standard error of the chain mean."""
    x = np.asarray(draws, dtype=float).ravel()
    n = x.size
    if n < 4:
        raise DomainError("need at least 4 draws for a batch-means MCSE")
    n_batches = max(2, int(np.floor(np.sqrt(n))))
    batch_size = n // n_batches
    trimmed = x[: n_batches * batch_size]
    means = trimmed.reshape(n_batches, batch_size).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(n_batches))
