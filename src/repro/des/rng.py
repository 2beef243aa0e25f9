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

A stream's starting state is a pure function of (seed, replicate, name),
and every run of one answer shares its seed and replicate, so the state
is derived once per process (:func:`_initial_state`, a bounded memo) and
each run's stream starts from it (:func:`generator_from_state`) instead
of hashing a fresh ``SeedSequence``: the same generator, about 5x cheaper
to build.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable, Dict, Tuple

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


@functools.lru_cache(maxsize=None)
def _placeholder_seed():
    """A seed sequence for a bit generator whose state is replaced right
    after construction: it skips a real seed sequence's entropy hashing.
    Such a generator is only ever drawn from, never spawned."""
    from numpy.random.bit_generator import ISeedSequence

    class PlaceholderSeed(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return PlaceholderSeed()


def generator_from_state(bit_generator_type, state: dict) -> np.random.Generator:
    """A generator over a ``bit_generator_type`` bit generator that starts
    in ``state`` (a bit generator's ``.state`` dict), never seeded."""
    bit_generator = bit_generator_type(_placeholder_seed())
    bit_generator.state = state
    return np.random.Generator(bit_generator)


@functools.lru_cache(maxsize=1024)
def _initial_state(seed: int, replicate: int, name: str) -> Tuple[int, int]:
    """The PCG64 ``(state, inc)`` that ``default_rng`` seeds stream
    ``name`` of ``(seed, replicate)`` with.  Hash the name to a stable
    64-bit key; ``SeedSequence`` mixes it with the root seed and the
    replicate index.  Bounded: a run opens ~20 streams, so this holds
    every stream of ~50 (seed, replicate) pairs."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    name_key = int.from_bytes(digest[:8], "little")
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(replicate, name_key)
    )
    state = np.random.PCG64(sequence).state["state"]
    return state["state"], state["inc"]


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
            state, inc = _initial_state(self.seed, self.replicate, name)
            gen = generator_from_state(np.random.PCG64, {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            })
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
