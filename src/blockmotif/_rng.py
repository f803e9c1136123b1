"""Deterministic keyed random streams built on splitmix64 mixing.

Every random quantity in the package is derived from a 64-bit key that is a
pure function of a master seed and a tuple of integer stream labels.  Each
stream yields exactly one variate (by inversion of its distribution's CDF),
so results never depend on evaluation order, block size, or thread schedule.

The mixing function is the splitmix64 finalizer; a stream key is obtained by
folding each label into the state with a golden-ratio multiply followed by a
remix.  The scalar functions work on arbitrary-precision ints and are the
reference; the numpy (uint64) ones produce identical values for whole arrays
at once: ``replicate_keys`` gives the keys ``(seed, r)`` of a block of
replicates, and ``key_chains`` / ``fold_labels`` extend every key of an
array by one label at a time.  A label enters a key only through its word
``label * golden`` (``label_words``), so the sampler computes the words of
its vertex and block labels once per call and folds each block's event
labels into its block prefix in one array operation (``_mix64_np`` remixes
in place, with one scratch array).
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# one double in [0, 1) from the top 53 bits of a 64-bit word
_INV53 = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective scramble of a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def substream_key(seed: int, *labels: int) -> int:
    """64-bit key of the substream of ``seed`` addressed by integer labels.

    ``substream_key(s)`` initialises the chain; each label is folded in with
    a golden-ratio multiply and remixed, so (seed, a, b) and (seed, a', b')
    collide only if the label tuples collide under the scramble.
    """
    z = mix64((seed + _GOLDEN) & _MASK)
    for lab in labels:
        z = mix64(z ^ ((lab * _GOLDEN) & _MASK))
    return z


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every word, in place: ``z`` must be an array the
    caller lets it overwrite.

    The shifted words go to one scratch array, so the only memory besides
    ``z`` is one more array of its size.
    """
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_MIX_A)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX_B)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def key_chains(seeds: np.ndarray) -> np.ndarray:
    """Vectorized ``substream_key(seed)`` over uint64 seeds."""
    with np.errstate(over="ignore"):
        return _mix64_np(seeds + np.uint64(_GOLDEN))


def label_words(labels) -> np.ndarray:
    """The words ``label * golden`` (mod 2**64) that fold integer labels."""
    with np.errstate(over="ignore"):
        return np.asarray(labels).astype(np.uint64) * np.uint64(_GOLDEN)


def fold_labels(keys: np.ndarray, labels) -> np.ndarray:
    """Fold one label into each key: ``substream_key(s, *prefix, label)``
    from keys ``substream_key(s, *prefix)``, broadcasting keys against
    the integer ``labels``."""
    return _mix64_np(keys ^ label_words(labels))


def replicate_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """``substream_key(seed, r)`` for every replicate index r in ``indices``."""
    return fold_labels(key_chains(np.uint64(seed & _MASK)), indices)


def uniform_from_key(key: int) -> float:
    """The single double in [0, 1) carried by a stream key."""
    return (key >> 11) * _INV53


def uniforms_from_keys(keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`uniform_from_key`."""
    u = (keys >> np.uint64(11)).astype(np.float64)
    u *= _INV53
    return u
