"""Named, independently seeded random streams.

Every stochastic component in the simulator (per-link fading, MAC backoff,
application jitter, ...) draws from its own stream, keyed by a string name.
Streams are derived from a root seed with ``numpy.random.SeedSequence``
spawned per name, so:

* the same (seed, name) pair always produces the same draws — runs are
  bit-for-bit reproducible;
* adding a new consumer does not perturb the draws of existing ones —
  experiments stay comparable across code revisions;
* replications use disjoint randomness by bumping the ``replicate`` index
  rather than ad hoc seed arithmetic.

The channel's per-link and per-node streams are read through
:class:`RawDraws` chunks (:meth:`RngStreams.normals` /
:meth:`RngStreams.uniforms`): the same values in the same order as one
scalar call per draw, at a fraction of the cost.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import numpy as np

#: Raw draws fetched per refill of a :class:`RawDraws` chunk.  Fixed, so
#: a chunked stream holds at most this many draws in memory and runs at
#: most this far past the last value anyone consumed.
DRAW_CHUNK = 32


class RawDraws(list):
    """The prefetched raw draws of one stream, next draw last.

    numpy's ``standard_normal(size=n)`` and ``random(size=n)`` consume the
    bit stream exactly as n scalar calls do (``tests/test_batch_kernel.py``
    ``TestNumpyBitstreamContract``), so refilling in chunks of
    :data:`DRAW_CHUNK` yields the scalar sequence, as Python floats.  Hot
    paths take a draw with ``draws.pop() if draws else draws.take()``;
    everything else calls :meth:`take`.  A refill replaces the spent chunk
    rather than growing a history, unlike the batched kernel's
    :class:`repro.channel.batch_draws.Block`.
    """

    __slots__ = ("_fill",)

    def __init__(self, fill: Callable[[int], np.ndarray]) -> None:
        super().__init__()
        self._fill = fill

    def take(self) -> float:
        """The stream's next raw draw, refilling an empty chunk first."""
        if not self:
            chunk = self._fill(DRAW_CHUNK).tolist()
            chunk.reverse()
            self.extend(chunk)
        return self.pop()


class RngStreams:
    """A factory of named ``numpy.random.Generator`` streams.

    Parameters
    ----------
    seed:
        Root seed of the whole simulation run.
    replicate:
        Replication index; the paper averages metrics over 3 runs, which we
        realize as replicates 0..2 of the same seed.
    """

    def __init__(self, seed: int = 0, replicate: int = 0) -> None:
        self.seed = int(seed)
        self.replicate = int(replicate)
        self._streams: Dict[str, np.random.Generator] = {}
        self._chunks: Dict[str, RawDraws] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(self._derive(name))
            self._streams[name] = gen
        return gen

    def normals(self, name: str) -> RawDraws:
        """The chunked ``standard_normal()`` draws of stream ``name``.

        The chunk belongs to the stream and lives as long as this factory,
        so a consumer that forgets its own history (a fading reset) picks
        up exactly where the stream left off.  A chunked stream must only
        be read through its chunk."""
        return self._chunk(name, "standard_normal")

    def uniforms(self, name: str) -> RawDraws:
        """The chunked ``random()`` draws of stream ``name`` (numpy's
        default ``uniform()`` is the same value); see :meth:`normals`."""
        return self._chunk(name, "random")

    def _chunk(self, name: str, method: str) -> RawDraws:
        draws = self._chunks.get(name)
        if draws is None:
            draws = RawDraws(getattr(self.stream(name), method))
            self._chunks[name] = draws
        return draws

    def _derive(self, name: str) -> np.random.SeedSequence:
        # Hash the name to a stable 64-bit key; SeedSequence mixes it with
        # the root seed and replicate index.
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        name_key = int.from_bytes(digest[:8], "little")
        return np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.replicate, name_key)
        )

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """Draw one uniform sample from the named stream."""
        return float(self.stream(name).uniform(low, high))

    def normal(self, name: str, loc: float = 0.0, scale: float = 1.0) -> float:
        """Draw one normal sample from the named stream."""
        return float(self.stream(name).normal(loc, scale))

    def exponential(self, name: str, mean: float) -> float:
        """Draw one exponential sample with the given mean."""
        return float(self.stream(name).exponential(mean))

    def integers(self, name: str, low: int, high: int) -> int:
        """Draw one integer uniformly from ``[low, high)``."""
        return int(self.stream(name).integers(low, high))

    def __repr__(self) -> str:
        return (
            f"RngStreams(seed={self.seed}, replicate={self.replicate}, "
            f"streams={len(self._streams)})"
        )
