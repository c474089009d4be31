"""Unit tests for deterministic RNG streams."""

import numpy as np
import pytest

from repro.sim import RngStreams
from repro.sim.rng import pcg64_seed_words


def test_same_name_returns_same_generator():
    streams = RngStreams(seed=7)
    assert streams.get("a") is streams.get("a")


def test_streams_are_independent_of_creation_order():
    s1 = RngStreams(seed=7)
    s2 = RngStreams(seed=7)
    # Create in different orders; draws per name must match.
    a1 = s1.get("alpha").random(5)
    b1 = s1.get("beta").random(5)
    b2 = s2.get("beta").random(5)
    a2 = s2.get("alpha").random(5)
    assert np.allclose(a1, a2)
    assert np.allclose(b1, b2)


def test_different_names_give_different_sequences():
    streams = RngStreams(seed=7)
    a = streams.get("alpha").random(8)
    b = streams.get("beta").random(8)
    assert not np.allclose(a, b)


def test_different_seeds_give_different_sequences():
    a = RngStreams(seed=1).get("x").random(8)
    b = RngStreams(seed=2).get("x").random(8)
    assert not np.allclose(a, b)


def test_long_names_differing_past_eight_chars_are_distinct():
    streams = RngStreams(seed=3)
    a = streams.get("scenario-workload-1").random(4)
    b = streams.get("scenario-workload-2").random(4)
    assert not np.allclose(a, b)


def test_names_lists_created_streams():
    streams = RngStreams(seed=0)
    streams.get("b")
    streams.get("a")
    assert streams.names() == ["a", "b"]


# -- bulk seeding ---------------------------------------------------------------

PRIME_SEEDS = list(range(41)) + [2**32, 2**64 + 3, 2**127 + 5, 2**130 + 11]
PRIME_NAMES = (
    [f"faults.node{i}" for i in range(200)]
    + [f"faults.domain.rack{r}" for r in range(16)]
    + ["faults.cascade", "qos", "trace"]
)


@pytest.mark.parametrize("seed", PRIME_SEEDS)
def test_primed_streams_draw_what_get_creates(seed):
    """``2**130 + 11`` has five words of run entropy, more than the pool."""
    primed = RngStreams(seed=seed)
    primed.prime(PRIME_NAMES)
    plain = RngStreams(seed=seed)
    for name in PRIME_NAMES:
        assert np.array_equal(primed.get(name).random(8), plain.get(name).random(8)), name


def test_prime_is_idempotent_and_independent_of_order():
    forward = RngStreams(seed=5)
    forward.prime(PRIME_NAMES)
    first = {name: forward.get(name) for name in PRIME_NAMES}
    forward.prime(PRIME_NAMES)
    assert all(forward.get(name) is first[name] for name in PRIME_NAMES)
    backward = RngStreams(seed=5)
    backward.get("qos")  # an existing stream is kept, not re-created
    backward.prime(PRIME_NAMES[::-1] + PRIME_NAMES[:3])
    for name in PRIME_NAMES:
        assert np.array_equal(first[name].random(8), backward.get(name).random(8))


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, 2**130 + 11])
def test_seed_words_of_a_one_word_spawn_key_match_seed_sequence(seed):
    """A digest below ``2**32`` is a one-word spawn key; ``prime`` hands
    such names to ``get``, but the derivation itself handles any width."""
    digests = [0, 1, 12_345, 2**32 - 1]
    words = pcg64_seed_words(seed, np.array([[d] for d in digests], dtype=np.uint32))
    for row, digest in zip(words, digests):
        child = np.random.SeedSequence(entropy=seed, spawn_key=(digest,))
        assert np.array_equal(row, child.generate_state(4, np.uint64))


def test_a_vector_draw_equals_as_many_scalar_draws():
    """The injector draws a cascade's edges in one ``random(k)`` call; the
    fault histories pinned elsewhere assume it equals ``k`` scalar draws."""
    for k in (0, 1, 7, 64):
        vector = RngStreams(seed=11).get("faults.cascade")
        scalar = RngStreams(seed=11).get("faults.cascade")
        assert vector.random(k).tolist() == [float(scalar.random()) for _ in range(k)]
        assert vector.random() == scalar.random()
