"""numpy's PCG64 random stream in pure Python, bit for bit.

random_permutation and top_eigenvalue draw from the stream of
numpy.random.Generator(numpy.random.PCG64(seed)), so they give numpy's
answers without importing numpy.random.  Each part is built as numpy
builds it:

- SeedSequence hashes the seed's 32-bit words into a pool of four words,
  and the pool into the 128-bit state and increment;
- PCG64 (O'Neill 2014) steps a 128-bit LCG and outputs the XSL-RR
  permutation of the new state, a 64-bit word;
- integers(0, k) takes the 32-bit halves of those words, low half first,
  and maps each to [0, k) by Lemire's multiply-and-reject draw (2019);
- random() takes the top 53 bits of a whole word.

tests/test_rng.py checks each against numpy's generator.
"""

from .core import InputError

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int) -> list:
    """SeedSequence(seed).generate_state(8): the seed's 32-bit words, least
    significant first, hashed into the pool and the pool into 8 words."""
    if seed < 0:
        raise InputError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return out


class PCG64:
    """The stream of numpy.random.Generator(numpy.random.PCG64(seed)) for a
    non-negative integer seed; a negative one raises InputError, a
    ValueError as numpy's is."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        w = _seed_words(seed)
        # generate_state(4, uint64) pairs the words little-endian; the
        # first two 64-bit words are the state's high and low halves and
        # the last two the stream's
        state = (w[1] << 32 | w[0]) << 64 | w[3] << 32 | w[2]
        stream = (w[5] << 32 | w[4]) << 64 | w[7] << 32 | w[6]
        self._inc = (stream << 1 | 1) & _MASK128
        self._state = ((self._inc + state) * _MULTIPLIER + self._inc) & _MASK128
        self._half = None

    def next64(self) -> int:
        """The next 64-bit output word."""
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def next32(self) -> int:
        """The next 32-bit half: the low half of a new word, then its high half."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self.next64()
        self._half = word >> 32
        return word & _MASK32

    def integer_below(self, k: int) -> int:
        """integers(0, k) for 2 <= k <= 2**32: the high word of a 32-bit
        half times k, drawn again while the low word is below 2**32 mod k."""
        m = self.next32() * k
        if m & _MASK32 < k:
            threshold = (1 << 32) % k
            while m & _MASK32 < threshold:
                m = self.next32() * k
        return m >> 32

    def random(self) -> float:
        """random(): a double in [0, 1) from the top 53 bits of a word."""
        return (self.next64() >> 11) * (1.0 / (1 << 53))
