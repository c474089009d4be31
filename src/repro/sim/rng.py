"""Deterministic random-number streams.

Every stochastic component (synthetic trace, QoS synthesis, estimate noise,
job-mix shuffling) draws from its own named substream spawned from a single
root seed, so adding a new consumer never perturbs the draws of existing
ones — a standard reproducibility idiom for simulation studies.

:meth:`RngStreams.get` defines a stream: ``default_rng`` of
``SeedSequence(entropy=seed, spawn_key=(blake2b(name),))``.
:meth:`RngStreams.prime` builds many streams at once to the same
definition.  It runs the ``SeedSequence`` pool mixing and
``generate_state`` in numpy ``uint32`` arithmetic over all the names
together, then hands each PCG64 its seed words through a small
``ISeedSequence`` shim.  A fault run primes one stream per node: on a
2-vCPU VM, 128 streams take about 0.6 ms primed against 2.5 ms through
``get``, a few per cent of a short fault run.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Dict, Iterable

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words, as ``SeedSequence`` reads it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def pcg64_seed_words(entropy: int, spawn_words: np.ndarray) -> np.ndarray:
    """PCG64 seed words of ``SeedSequence(entropy, spawn_key=key)`` per key.

    Row ``i`` of ``spawn_words`` (``uint32``, shape ``(n, k)``) holds key
    ``i`` as ``SeedSequence`` coerces it: its 32-bit words, low first.
    Returns the ``(n, 4)`` ``uint64`` array whose row ``i`` equals that
    sequence's ``generate_state(4, np.uint64)``.

    The run entropy is mixed into the pool once, in Python integers.  Only
    the spawn words differ between keys, so they alone are mixed as numpy
    ``uint32`` arrays (whose arithmetic wraps as the C code's does), all
    four pool words at once: one spawn word enters each pool word through
    its own hash step, and no step reads another pool word.
    """
    hash_const = _INIT_A

    def hash_steps(count: int, mult: int = _MULT_A) -> list[tuple[int, int]]:
        """The (xor, multiplier) pairs of the next ``count`` hash steps."""
        nonlocal hash_const
        steps = []
        for _ in range(count):
            xor = hash_const
            hash_const = (hash_const * mult) & _MASK32
            steps.append((xor, hash_const))
        return steps

    def hashmix(value: int) -> int:
        ((xor, mult),) = hash_steps(1)
        value = ((value ^ xor) * mult) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    run = _uint32_words(entropy)
    # A spawned sequence pads short run entropy to the pool size.
    run += [0] * (_POOL_SIZE - len(run))
    pool = [hashmix(word) for word in run[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in run[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # Rows are pool words, columns keys.
    pool = np.array(pool, dtype=np.uint32)[:, None]
    for column in np.asarray(spawn_words, dtype=np.uint32).T:
        xor, mult = np.array(hash_steps(_POOL_SIZE), dtype=np.uint32).T[:, :, None]
        value = (column ^ xor) * mult
        pool = mix(pool, value ^ (value >> _XSHIFT))
    # generate_state(4, uint64): eight uint32 words cycled off the pool.
    hash_const = _INIT_B
    xor, mult = np.array(hash_steps(8, _MULT_B), dtype=np.uint32).T[:, :, None]
    value = (np.concatenate([pool, pool]) ^ xor) * mult
    words = (value ^ (value >> _XSHIFT)).T.astype("<u4", order="C")
    return words.view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """The ``ISeedSequence`` shim that hands a PCG64 its known seed words.

    Defined on first use: importing ``numpy.random`` with this module, before
    any stream exists, raised perfbench's peak RSS by about 0.5 MB.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds the four uint64 words of one PCG64 seed")
            return self.words

    return SeedWords


class RngStreams:
    """A registry of named, independent :class:`numpy.random.Generator` s.

    >>> streams = RngStreams(seed=42)
    >>> a = streams.get("arrivals")
    >>> b = streams.get("qos")
    >>> a is streams.get("arrivals")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._root = np.random.SeedSequence(self.seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The substream seed is derived from ``(root seed, name)`` so the same
        name always yields the same sequence for a given root seed,
        independent of creation order.
        """
        if name not in self._streams:
            digest = int.from_bytes(
                hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(),
                "little",
            )
            child = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=(digest,)
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def prime(self, names: Iterable[str]) -> None:
        """Create the generators of ``names`` in one pass.

        Each stream draws exactly what :meth:`get` would have created;
        streams that exist already are kept.  A name whose 64-bit digest
        fits one 32-bit word (its spawn key is then one word, not two) goes
        through :meth:`get`.
        """
        streams = self._streams
        todo = [name for name in dict.fromkeys(names) if name not in streams]
        if not todo:
            return
        raw = b"".join(
            hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
            for name in todo
        )
        keys = np.frombuffer(raw, dtype="<u4").reshape(-1, 2)
        two_words = keys[:, 1] != 0
        rows = iter(pcg64_seed_words(self._root.entropy, keys[two_words]))
        generator, pcg64 = np.random.Generator, np.random.PCG64
        seed_words = _seed_words_type()
        for name, full in zip(todo, two_words.tolist()):
            if full:
                streams[name] = generator(pcg64(seed_words(next(rows))))
            else:
                self.get(name)

    def names(self) -> list[str]:
        """Names of streams created so far (for diagnostics)."""
        return sorted(self._streams)
