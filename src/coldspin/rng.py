"""A frozen standard-normal stream in plain Python, and the one place
that knows how numpy seeds one.

normal_draws(state, inc, count) returns the draws of
np.random.Generator(np.random.PCG64) from that state's
standard_normal(count), and the state after them, bit for bit, on the
standard library alone.  seeded_state(seed) is the state of
np.random.PCG64(seed), and spawned_states(seed, key, count) those of
PCG64(SeedSequence(seed, spawn_key=(key, i))) for i below count, so
normal_draws(*seeded_state(seed), n)[0] are the first n standard normals
of np.random.default_rng(seed).  Every other module takes its noise as
plain numbers drawn here.  The module holds:

- numpy's SeedSequence hash (numpy/random/bit_generator.pyx), written once
  with explicit 32-bit masks so that it runs unchanged on Python ints, on
  uint64 arrays of them and on Uint64Lanes, many uint64 values packed in
  one int; the kinds mix in one entropy, so spawned_states hashes the seed
  and key words its sequences share once, as ints, and finishes all its
  sequences at once on a lanes word of their indices;
- PCG64 seeding and its XSL-RR output (numpy/random/src/pcg64/pcg64.h; M.
  E. O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
  Good Algorithms for Random Number Generation", HMC-CS-2014-0905, 2014);
- next_double, and numpy's 256-layer ziggurat random_standard_normal
  (numpy/random/src/distributions/distributions.c; G. Marsaglia and W. W.
  Tsang, J. Stat. Softw. 5(8), 2000), with its tail and wedge branches.

The stream is frozen here: it does not move when NumPy changes its
Generator streams, which NEP 19 allows between releases, nor with the CPU
features numpy dispatches on.  Like numpy's, the wedge test calls the C
library's exp and the tail its log1p.

The ki/wi/fi tables are numpy's ki_double, wi_double and fi_double, copied
exactly from numpy 2.4's compiled libnpyrandom and stored as their
little-endian bytes: rerunning the ziggurat recursion does not reproduce
them to the last bit.  NumPy is Copyright (c) 2005-2025, NumPy Developers,
and numpy.random Copyright (c) 2019 Kevin Sheppard, both under the 3-clause
BSD license, whose text closes this module.
"""

from __future__ import annotations

import operator
import struct
from math import exp, log1p

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence (bit_generator.pyx)
POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier (pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# the ziggurat's base-strip edge r and 1/r (distributions.c)
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596
_WORD_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53


def uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: little-endian 32-bit
    words, at least one."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed and spawn key entries must be >= 0, got {value!r}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value, hash_const: int, mult: int) -> tuple:
    """SeedSequence's hash step: the hashed value, and the next hash
    constant, which depends only on how many steps came before."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def mix_entropy(entropy: list) -> list:
    """SeedSequence's mix_entropy: the pool words after hashing the entropy
    words into the pool."""
    hash_const = _INIT_A
    words = []
    for i in range(POOL_SIZE):
        # a short entropy runs the hash out on zeros
        value, hash_const = _hashmix(entropy[i] if i < len(entropy) else 0,
                                     hash_const, _MULT_A)
        words.append(value)
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hashmix(words[i_src], hash_const, _MULT_A)
                words[i_dst] = _mix(words[i_dst], value)
    for word in entropy[POOL_SIZE:]:
        for i_dst in range(POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const, _MULT_A)
            words[i_dst] = _mix(words[i_dst], value)
    return words


def seed_sequence_words(entropy: list) -> list:
    """SeedSequence.generate_state(4, np.uint64) for the assembled entropy
    words (a spawned sequence pads its seed's words to POOL_SIZE before
    appending its spawn key): eight 32-bit words, read in little-endian
    pairs as four 64-bit words.

    Each entropy word is an int below 2**32, or a uint64 array or a
    Uint64Lanes of them with one element per sequence, and the kinds mix:
    every product of two 32-bit values fits in 64 bits, and every result is
    masked back to 32.  Int words ahead of the first array or lanes word
    are hashed once, as ints, for all the sequences.
    """
    pool_words = mix_entropy(entropy)
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value, hash_const = _hashmix(pool_words[i % POOL_SIZE], hash_const, _MULT_B)
        words.append(value)
    return [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]


def pcg64_seed(s0, s1, s2, s3) -> tuple:
    """(state, inc) of PCG64 seeded with four 64-bit SeedSequence words, as
    ints or as object arrays of them: pcg_setseq_128_srandom_r(initstate,
    initseq) steps twice from zero."""
    initstate = s0 << 64 | s1
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    return ((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc


class Uint64Lanes:
    """A vector of uint64 values packed into one int, 128 bits apart, with
    numpy uint64 arrays' wrapping arithmetic for the operators the
    SeedSequence hash uses (^, &, |, *, -, and << and >> by under 64 bits,
    against another vector or an int): so the hash seeds many sequences at
    once on the standard library, each operator one big-int operation over
    all lanes.

    A lane leaves 64 spare bits for a product by an int below 2**64 before
    it wraps, and subtraction borrows from a 2**64 added to each lane, so no
    carry or borrow crosses into the next lane.
    """

    __slots__ = ("bits", "ones", "mask")

    def __init__(self, values):
        """The lanes of values (ints below 2**64), in order."""
        values = list(values)
        self.ones = int.from_bytes(struct.pack("<2Q", 1, 0) * len(values), "little")
        self.mask = _MASK64 * self.ones
        self.bits = int.from_bytes(
            struct.pack(f"<{2 * len(values)}Q", *(w for v in values for w in (v, 0))), "little"
        )

    def _new(self, bits: int) -> Uint64Lanes:
        lanes = object.__new__(Uint64Lanes)
        lanes.bits, lanes.ones, lanes.mask = bits & self.mask, self.ones, self.mask
        return lanes

    def _lanes(self, other) -> int:
        return other.bits if type(other) is Uint64Lanes else (other & _MASK64) * self.ones

    def __xor__(self, other):
        return self._new(self.bits ^ self._lanes(other))

    def __and__(self, other):
        return self._new(self.bits & self._lanes(other))

    def __or__(self, other):
        return self._new(self.bits | self._lanes(other))

    def __mul__(self, other: int):
        return self._new(self.bits * (other & _MASK64))

    def __sub__(self, other):
        return self._new((self.bits | self.ones << 64) - self._lanes(other))

    def __rsub__(self, other: int):
        return self._new((self._lanes(other) | self.ones << 64) - self.bits)

    def __lshift__(self, n: int):  # n below 64, as for the arrays
        return self._new(self.bits << n)

    def __rshift__(self, n: int):
        return self._new(self.bits >> n & (_MASK64 >> n) * self.ones)

    __rxor__, __rand__, __ror__, __rmul__ = __xor__, __and__, __or__, __mul__

    def tolist(self) -> list[int]:
        n = (self.ones.bit_length() + 127) // 128
        return list(struct.unpack(f"<{2 * n}Q", self.bits.to_bytes(16 * n, "little"))[::2])


def seeded_state(seed: int) -> tuple[int, int]:
    """(state, inc) of np.random.PCG64(seed)."""
    return pcg64_seed(*seed_sequence_words(uint32_words(seed)))


def spawned_states(seed: int, key: int, count: int) -> list[tuple[int, int]]:
    """(state, inc) of np.random.PCG64(np.random.SeedSequence(seed,
    spawn_key=(key, i))) for every i in range(count), at once.

    The entropy is the seed's words, padded to the pool as a spawned
    sequence pads them, then key, which all the sequences share and which
    are hashed once in ints, then one Uint64Lanes of the indices, one lane
    per sequence; each sequence's four seed words seed its PCG64 in ints.
    count is at most 2**32, so that every index is one 32-bit word.
    """
    if count > 2**32:
        raise ValueError(f"count must be at most 2**32, got {count!r}")
    lead = uint32_words(seed)
    lead += [0] * (POOL_SIZE - len(lead))
    words = seed_sequence_words(lead + uint32_words(key) + [Uint64Lanes(range(count))])
    return [pcg64_seed(*cell) for cell in zip(*(word.tolist() for word in words))]


def normal_draws(state: int, inc: int, count: int) -> tuple[list[float], int]:
    """numpy's random_standard_normal, count times from a PCG64 in (state,
    inc): the draws a Generator on it returns for standard_normal(count),
    and the state it leaves.

    One 64-bit word picks a layer (8 bits), a sign (1 bit) and a 52-bit
    abscissa.  The LCG step, the XSL-RR output and the test against the
    layer's rectangle run inline here; the rectangle accepts 99.3 % of
    words, and _outside_rectangle finishes the rest.
    """
    draws = []
    append = draws.append
    mult, mask64, mask128 = _PCG_MULT, _MASK64, _MASK128
    ki, wi = ki_double, wi_double
    for _ in range(count):
        while True:
            state = (state * mult + inc) & mask128
            value = (state >> 64 ^ state) & mask64
            rot = state >> 122
            # rotated right by rot; every field is read from the low 64 bits
            word = value >> rot | value << (64 - rot)
            idx = word & 0xFF
            rabs = word >> 9 & 0x000FFFFFFFFFFFFF
            x = rabs * wi[idx]
            if word & 0x100:
                x = -x
            if rabs < ki[idx]:
                break
            x, state = _outside_rectangle(idx, rabs, x, state, inc)
            if x is not None:
                break
        append(x)
    return draws, state


def _next_double(state: int, inc: int) -> tuple[int, float]:
    """One LCG step, and next_double of its XSL-RR output: the output's top
    53 bits over 2**53."""
    state = (state * _PCG_MULT + inc) & _MASK128
    value = (state >> 64 ^ state) & _MASK64
    rot = state >> 122
    word = (value >> rot | value << (64 - rot)) & _MASK64
    return state, (word >> 11) * _WORD_TO_DOUBLE


def _outside_rectangle(idx: int, rabs: int, x: float, state: int, inc: int) -> tuple:
    """random_standard_normal for a word outside its layer's rectangle:
    layer 0 samples the tail beyond r, and the other layers test the wedge
    under the density.  Returns the draw, or None when the wedge rejects x
    and a new word must be drawn, with the state after the uniform doubles
    drawn here."""
    if idx == 0:
        while True:
            # 1 - U keeps log1p off -1
            state, u = _next_double(state, inc)
            xx = -_NOR_INV_R * log1p(-u)
            state, u = _next_double(state, inc)
            yy = -log1p(-u)
            if yy + yy > xx * xx:
                return (-(_NOR_R + xx) if rabs >> 8 & 1 else _NOR_R + xx), state
    state, u = _next_double(state, inc)
    if (fi_double[idx - 1] - fi_double[idx]) * u + fi_double[idx] < exp(-0.5 * x * x):
        return x, state
    return None, state


# numpy's ziggurat tables (see the module docstring)
ki_double = struct.unpack("<256Q", bytes.fromhex("""
    6aef25803df30e00 0000000000000000 a8c6fb98be080c00 4281bdfa54a30d00
    eaeec17ef6510e00 7ef7d3e955b20e00 b9ca7e814bef0e00 aa44fa0a47190f00
    18cbff61ed370f00 5c256195464f0f00 96a31be4a5610f00 a49653757a700f00
    9a4428ecb27c0f00 d357630cf1860f00 de258357a68f0f00 dad04dc724970f00
    09f5db07a99d0f00 74fa81f560a30f00 f84b5bde6fa80f00 dc54d360f1ac0f00
    0fb91867fbb00f00 c674538d9fb40f00 77fe6623ecb70f00 0ee5a1e9ecba0f00
    ed0b049dabbd0f00 576cff6030c00f00 48a2371082c20f00 d15be27aa6c40f00
    31ee7a97a2c60f00 a49628a97ac80f00 85de4b5e32ca0f00 1a2302e9cccb0f00
    c439f8124dcd0f00 99ec8f4db5ce0f00 30c91dbf07d00f00 e6c4d64d46d10f00
    50f4e2a872d20f00 1ec9f04f8ed30f00 78b490999ad40f00 530f92b898d50f00
    ec998ec089d60f00 32e8c8a96ed70f00 e8087b5448d80f00 8c2cad8b17d90f00
    d2ada707ddd90f00 8c5e107099da0f00 202ec05d4ddb0f00 d0fc5b5cf9db0f00
    7d9ab9eb9ddc0f00 9d7218813bdd0f00 902f3488d2dd0f00 649f366463de0f00
    4e518d70eede0f00 2eb4a60174df0f00 40ed9965f4df0f00 f224bce46fe00f00
    58a225c2e6e00f00 4cb8283c59e10f00 993fbc8cc7e10f00 aa1cdbe931e20f00
    911bda8598e20f00 8641b58ffbe20f00 4a8d55335be30f00 2a00d099b7e30f00
    7fad9ee910e40f00 3477d44667e40f00 5c094cd3bae40f00 2495d2ae0be50f00
    78bc4ef759e50f00 1212e4c8a5e50f00 8986133eefe50f00 7810d96f36e60f00
    78d5c6757be60f00 aa111e66bee60f00 f2f4e555ffe60f00 02a700593ee70f00
    399e3e827be70f00 a27070e3b6e70f00 4342778df0e70f00 8cf0539028e80f00
    3a1735fb5ee80f00 640884dc93e80f00 bccef041c7e80f00 f64e7d38f9e80f00
    1d9b87cc29e90f00 ea88d30959e90f00 a29a93fb86e90f00 664871acb3e90f00
    d5b69426dfe90f00 7ce6ab7309ea0f00 a466f19c32ea0f00 2c9532ab5aea0f00
    1a74d5a681ea0f00 f01cde97a7ea0f00 20d9f385ccea0f00 3ce66578f0ea0f00
    13ec2f7613eb0f00 4a2afe8535eb0f00 b46231ae56eb0f00 fa84e2f476eb0f00
    1420e65f96eb0f00 7c9dcff4b4eb0f00 d049f4b8d2eb0f00 3e2e6eb1efeb0f00
    e8bd1ee30bec0f00 155ab15227ec0f00 d3af9d0442ec0f00 96f129fd5bec0f00
    f4ee6c4075ec0f00 b40c50d28dec0f00 121f91b6a5ec0f00 fe27c4f0bcec0f00
    15fb5484d3ec0f00 b3c88874e9ec0f00 b7917fc4feec0f00 2885357713ed0f00
    0349848f27ed0f00 4c2f24103bed0f00 6e58adfb4ded0f00 ddc3985460ed0f00
    e84f411d72ed0f00 82a9e45783ed0f00 c82ca40694ed0f00 04b7852ba4ed0f00
    b46a74c8b3ed0f00 526641dfc2ed0f00 526ea471d1ed0f00 d38a3c81dfed0f00
    8099900feded0f00 14d40f1efaed0f00 c44b12ae06ee0f00 065ad9c012ee0f00
    e00690571eee0f00 24654b7329ee0f00 bce40a1534ee0f00 3c9bb83d3eee0f00
    f48229ee47ee0f00 86b01d2751ee0f00 417f40e959ee0f00 2eb4283562ee0f00
    f197580b6aee0f00 7a073e6c71ee0f00 827b325878ee0f00 ba067bcf7eee0f00
    b24a48d284ee0f00 4363b6608aee0f00 51c8cc7a8fee0f00 da257e2094ee0f00
    ea29a85198ee0f00 5c48130e9cee0f00 f47372559fee0f00 aecc6227a2ee0f00
    ac426b83a4ee0f00 712dfc68a6ee0f00 fad66ed7a7ee0f00 0afa04cea8ee0f00
    3b33e84ba9ee0f00 10642950a9ee0f00 5e07c0d9a8ee0f00 547689e7a7ee0f00
    241d4878a6ee0f00 839ea28aa4ee0f00 dae4221da2ee0f00 2420352e9fee0f00
    2eaf26bc9bee0f00 e4f224c597ee0f00 3a0a3c4793ee0f00 167555408eee0f00
    7a9c36ae88ee0f00 fd3d7f8e82ee0f00 88b8a7de7bee0f00 ff37ff9b74ee0f00
    5ebda9c36cee0f00 7e009e5264ee0f00 8828a3455bee0f00 b6574e9951ee0f00
    cf06004a47ee0f00 502ce1533cee0f00 d82ae0b230ee0f00 0582ad6224ee0f00
    5a3cb85e17ee0f00 47142aa209ee0f00 cc49e327fbed0f00 6c2176eaebed0f00
    7e0422e4dbed0f00 d339ce0ecbed0f00 f42c0464b9ed0f00 c938e9dca6ed0f00
    8de9377293ed0f00 36a8381c7fed0f00 2bc0b9d269ed0f00 00ae068d53ed0f00
    22a4de413ced0f00 d82f6ae723ed0f00 44e62f730aed0f00 34fe07daefec0f00
    b8b70e10d4ec0f00 b46e9508b7ec0f00 c13012b698ec0f00 78a90d0a79ec0f00
    fe310ff557ec0f00 62c9866635ec0f00 35b3b44c11ec0f00 d06f8e94ebeb0f00
    92b6a029c4eb0f00 dc0ceef59aeb0f00 4285c9e16feb0f00 9e1fadd342eb0f00
    4b2d0bb013eb0f00 e9021a59e2ea0f00 572299aeaeea0f00 26e38e8d78ea0f00
    e573fdcf3fea0f00 f6d98d4c04ea0f00 3b562fd6c5e90f00 a447a93b84e90f00
    28471d473fe90f00 d6c576bdf6e80f00 e6e8c45daae80f00 eab17ae059e80f00
    40a990f604e80f00 c0338248abe70f00 a56a1f754ce70f00 02a22a10e8e60f00
    d8abb6a07de60f00 7e30389f0ce60f00 42f7387394e50f00 8072977014e50f00
    58f436d48be40f00 371efdbff9e30f00 9cb1ee355de30f00 fee42f12b5e20f00
    5755990300e20f00 148378823ce10f00 b067eec468e00f00 aa712bb082df0f00
    aafe7ec587de0f00 fd3bc60975dd0f00 13bf29e546dc0f00 82022ef8f8da0f00
    75bab2e185d90f00 04cf48efe6d70f00 0b65bdad13d60f00 12f0e24901d40f00
    acc7b4a7a1d10f00 9e1f7604e2ce0f00 b2115ed8a8cb0f00 222dcd6ed2c70f00
    ed221e2f2bc30f00 3ab8c08165bd0f00 345400c406b60f00 74282a5840ac0f00
    9845011e979e0f00 fc1da448fa890f00 2c30f0f7c5660f00 4a1c334b5a1a0f00
"""))
wi_double = struct.unpack("<256d", bytes.fromhex("""
    79d915783b49cf3c c6f6fde30b8d8b3c b45b2c3caf50923c 613b4438b97c953c
    0ca72fe8fc01983c bcd04c2e0c239a3c f761382f4d009c3c 7472745a2fac9d3c
    c3d54c2d48329f3c adbb8e27324da03c 435d023b05f5a03c 77364197a692a13c
    f51a7a8fa227a23c 80d863382eb5a23c f59157c03f3ca33c 2fb1a2c19ebda33c
    559bff8def39a43c a7fe3d36bbb1a43c 74d31a627525a53c 96ce07a78095a53c
    ea7ed9cf3102a63c 3d7ca361d26ba63c 70050092a2d2a63c a6f846d3da36a73c
    772ab310ad98a73c 43f546ad45f8a73c 770a4353cc55a83c 9a767b9e64b1a83c
    98cf4ea92e0ba93c ea1e2c824763a93c 46c5388ec9b9a93c 2ca7a4dccc0eaa3c
    59cd776d6762aa3c 3016106eadb4aa3c 9c6c136db105ab3c 297a42878455ab3c
    3a9f528e36a4ab3c 3282bf2ad6f1ab3c f34e59f9703eac3c 613b32a5138aac3c
    8b2672fec9d4ac3c 48b7800e9f1ead3c 101fe4299d67ad3c c3b82300ceafad3c
    5376f1a93af7ad3c feedd2b5eb3dae3c 006f7a33e983ae3c ce82f9bd3ac9ae3c
    2662f084e70daf3c 88f6d854f651af3c aed7879e6d95af3c ac2efa7d53d8af3c
    ec3442e0560db03c 9a8f39f5402eb03c fca5169eea4eb03c 10a0725b566fb03c
    0bf47190868fb03c 1361bc847dafb03c 7fcc4b663dcfb03c 6b08164bc8eeb03c
    ee159532200eb13c be0f3107472db13c 41918e9f3e4cb13c 1e20c4bf086bb13c
    34da781aa789b13c 886dee511ba8b13c cb2af8f866c6b13c 2ed4e0938be4b13c
    9fa040998a02b23c e9c6c4726520b23c 1fc3e97d1d3eb23c fb6ba90cb45bb23c
    7fd31d662a79b23c 1bd719c78196b23c da2eb862bbb3b23c 53b8e162d8d0b23c
    8ea9cbe8d9edb23c d7486e0dc10ab33c 30b9f4e18e27b33c a15e26704444b33c
    d552cabae260b33c 6a5805be6a7db33c 64b2b26fdd99b33c 033db8bf3bb6b33c
    e01d569886d2b33c 835a72debeeeb33c 749ee071e50ab43c 5d74a62dfb26b43c
    a4303ce80043b43c 5dc7ca73f75eb43c 36c3669edf7ab43c 2f8f4832ba96b43c
    5d4102f687b2b43c dc11b3ac49ceb43c 05a6381600eab43c 62555eefab05b53c
    5a8b0af24d21b53c 4f666ad5e63cb53c c8b21b4e7758b53c 785f550e0074b53c
    14850ec6818fb53c 591b2423fdaab53c 3d737dd172c6b53c d38c2f7be3e1b53c
    385e9fc84ffdb53c c31fa360b818b63c a2b0a2e81d34b63c 0b26b704814fb63c
    7296c957e26ab63c 3731b1834286b63c b1b25029a2a1b63c bb43b3e801bdb63c
    52d3286162d8b63c 54f86131c4f3b63c eb688bf7270fb73c c61469518e2ab73c
    dcee70dcf745b73c 1f73e5356561b73c 49f4effad67cb73c 93bdbac84d98b73c
    09148b3ccab3b73c fb22dbf34ccfb73c e7de738cd6eab73c 1fea86a46706b83c
    7686c8da0022b83c 159f89cea23db83c bdf5d11f4e59b83c c57e7a6f0375b83c
    2df7475fc390b83c 43c005928eacb83c 9c0ca1ab65c8b83c 276a445149e4b83c
    8fb573293a00b93c 478328dc381cb93c fc0aef124638b93c 8aa203796254b93c
    eed570bb8e70b93c 312a2e89cb8cb93c bf993f9319a9b93c 2cd9d58c79c5b93c
    11746f2bece1b93c 4ad2fa2672feb93c 9236f9390c1bba3c 5bc8a221bb37ba3c
    88bb0b9e7f54ba3c a4a94a725a71ba3c 3d31a0644c8eba3c 08f19f3e56abba3c
    cef55acd78c8ba3c 36b38be1b4e5ba3c 1aa1c34f0b03bb3c 5b989af07c20bb3c
    000ce0a00a3ebb3c 033dce41b55bbb3c 27893fb97d79bb3c 3cf7e5f16497bb3c
    6e2585db6bb5bb3c a2c02e6b93d3bb3c 83ae819bdcf1bb3c a016ec6c4810bc3c
    2d7af0e5d72ebc3c 1c0d6e138c4dbc3c 0587ec08666cbc3c 17a6ebe0668bbc3c
    aba236bd8faabc3c 90d63bc7e1c9bc3c 37e068305ee9bc3c 6e8f8b320609bd3c
    20ef3710db28bd3c 47c63315de48bd3c 23f1e7961069bd3c a5fbd7f47389bd3c
    706e209909aabd3c 0e49fcf8d2cabd3c 372e5295d1ebbd3c 1cd249fb060dbe3c
    f646eac4742ebe3c 88d1c1991c50be3c 25fe972f0072be3c 0abf2a4b2194be3c
    086ff7c081b6be3c 3aa7107623d9be3c a9ec016108fcbe3c 2153c28a321fbf3c
    6d4db70fa442bf3c 6801c9205f66bf3c 82978904668abf3c bf227118bbaebf3c
    85e72fd260d3bf3c 0bf618c159f8bf3c 75a0d347d40ec03c 47c98f02a821c03c
    ab02a983a934c03c c7f53e4eda47c03c 7eb3adf63b5bc03c 6826a723d06ec03c
    172e638f9882c03c 54a2e8089796c03c c4c07175cdaac03c 48d4eed13dbfc03c
    303daa34ead3c03c 936511cfd4e8c03c b69fa6effffdc03c 417020046e13c13c
    355dbb9b2129c13c 6d09c4691d3fc13c 3b2e60486455c13c f3ee9d3bf96bc13c
    6112d274df82c13c aceb4e561a9ac13c 8e2f7f77adb1c13c 94a671a99cc9c13c
    39aee4fbebe1c13c 01d9e2c29ffac13c 81cc049dbc13c23c eed36f7a472dc23c
    249caca44547c23c e05876c7bc61c23c 2e59a8fab27cc23c 780e77cd2e98c23c
    520a2a5337b4c23c 97db9631d4d0c23c f578a9b10deec23c eeae56d2ec0bc33c
    a3a4685e7b2ac33c a312ae05c449c33c 40a8337ad269c33c 0a415692b38ac33c
    fa88ae7075acc33c a60417b327cfc33c 75f460aadbf2c33c dae5b99ca417c43c
    945e5415983dc43c 153aa744ce64c43c bc439c75628dc43c 275a6b9d73b7c43c
    0289cd0d25e3c43c 41ace9539f10c53c 427e3a521140c53c 1be44aa9b171c53c
    d98d718bc0a5c53c fed03a248adcc53c 4c1e86cf6916c63c ea6a007bce53c63c
    c3e59fbe4095c63c 32e2098d6bdbc63c 347a5ff02827c73c 730609569579c73c
    8cced6f42dd4c73c 34f229050339c83c 147caabf0fabc83c 96446f94e02ec93c
    ab574001eecbc93c 5a779478dc8fca3c b1fd78381f98cb3c 33ad0982b43bcd3c
"""))
fi_double = struct.unpack("<256d", bytes.fromhex("""
    000000000000f03f 87f079c96a44ef3f 15a96c5b54b7ee3f 77f027e0113fee3f
    95de04a76fd3ed3f f2bc57069270ed3f dc19a1784914ed3f eb2da7a833bdec3f
    7f78a9ce5e6aec3f eabaeed91c1bec3f 82dce14eebceeb3f 52f58f3a6585eb3f
    10dd34823a3eeb3f a2e86c3f2af9ea3f 04257af1feb5ea3f e1c950d58b74ea3f
    0faff5fdaa34ea3f d81f65ee3bf6e93f 8106248d22b9e93f c17a6157467de93f
    477a1bc29142e93f 4f7131bdf108e93f a80ae64f55d0e83f 02dfba48ad98e83f
    acbc37fceb61e83f 6ecf560f052ce83f cbe2204bedf6e73f 58689c779ac2e73f
    d5b0a03c038fe73f 56d870071f5ce73f 126d3ff4e529e73f ee7aeaba50f8e63f
    895a639e58c7e63f 2a3b515ef796e63f 23e3922a2767e63f 180c5598e237e63f
    652680982409e63f 6aff4a6fe8dae53f 895cc8ac29ade53f 8f8d4c26e47fe53f
    469e8df01353e53f d56c655ab526e53f 67b620e8c4fae43f c04e494f3fcfe43f
    7852dc7221a4e43f 1250df5f6879e43f 7936494a114fe43f e35f358a1925e43f
    825b58997efbe33f a331af103ed2e33f 0ecd62a655a9e33f d500da2bc380e33f
    e950f58b8458e33f 353a70c99730e33f ef3864fdfa08e33f ee3bea55ace1e23f
    4a95d714aabae23f 15cd938ef293e23f ed040529846de23f 84db905a5d47e23f
    f2f72fa97c21e23f 209692a9e0fbe13f 699954fe87d6e13f 11d13f5771b1e13f
    503c9b709b8ce13f da3986120568e13f 9ca95e10ad43e13f 381f3148921fe13f
    135932a2b3fbe03f a042411010d8e03f aed9708da6b4e03f 815d991d7691e03f
    363cf0cc7d6ee03f 2e3fa6afbc4be03f 2a828be13129e03f c4cab885dc06e03f
    a1bd7b8c77c9df3f ca00a9a79d85df3f f37a2fcb2942df3f 958f7e711affde3f
    541fbd206ebcde3f c5c34e6a237ade3f 859b5fea3838de3f 093a7647adf6dd3f
    b1560b327fb5dd3f 33de2664ad74dd3f 801002a13634dd3f 6d5baeb419f4dc3f
    48a8c07355b4dc3f c7d700bbe874dc3f b82c1d6fd235dc3f 176a617c11f7db3f
    916d71d6a4b8db3f 1b1307788b7adb3f ca31b362c43cdb3f 5285a19e4effda3f
    9e5a5f3a29c2da3f 80d8a44a5385da3f 4dc020eacb48da3f 3e844639920cda3f
    df931e5ea5d0d93f c6c018840495d93f 939fe0dbae59d93f 17cb339ba31ed93f
    15f1b9fce1e3d83f 8891de3f69a9d83f b65aaca8386fd83f d90daa7f4f35d83f
    11d9b811adfbd73f b014f4af50c2d73f eb5292af3989d73f edb1c7696750d73f
    4c61a93bd917d73f aa4c12868edfd63f 21de88ad86a7d63f e2cb251ac16fd63f
    15e57b373d38d63f c8d28074fa00d63f 44c27643f8c9d53f beeed6193693d53f
    00013d70b35cd53f ed3b53c26f26d53f 926dbf8e6af0d43f a29c1057a3bad43f
    d46aad9f1985d43f fe24c3efcc4fd43f 197a35d1bc1ad43f dbd28ed0e8e5d33f
    ae43f17c50b1d33f 79130868f37cd33f 9ed1f925d148d33f 2ff65a4de914d33f
    660721773be1d23f dd3f963ec7add23f 1eb14d418c7ad23f 89de171f8a47d23f
    9eccf779c014d23f 168118f62ee2d13f 50f0c239d5afd13f e85454edb27dd13f
    67ee34bbc74bd13f 2324cf4f131ad13f c409875995e8d03f da42b2884db7d03f
    3643908f3b86d03f d9e942225f55d03f 7e74c7f6b724d03f c593df898be8cf3f
    3532b88c1088cf3f d298e96cfe27cf3f 449cc9a454c8ce3f dd3c28b21269ce3f
    84714516380ace3f 0a90c755c4abcd3f 4f51b2f8b64dcd3f cc6f5e8a0ff0cc3f
    53df7199cd92cc3f 479dd8b7f035cc3f a118be7a78d9cb3f aa31877a647dcb3f
    3ad1cc52b421cb3f 071857a267c6ca3f 7e26190b7e6bca3f 3d7e2d32f710ca3f
    5afed2bfd2b6c93f 277c6a5f105dc93f 69fa74bfaf03c93f 5b819291b0aac83f
    389a818a1252c83f 75711f62d5f9c73f 23a368d3f8a1c73f a6b57a9c7c4ac73f
    1647967e60f3c63f 5cf2213ea49cc63f 9cf1ada24746c63f f983f8764af0c53f
    6c1df388ac9ac53f 3568c8a96d45c53f c11fe3ad8df0c43f 2dcef56c0c9cc43f
    d57503c2e947c43f ae31698b25f4c33f eed7e8aabfa0c33f 88abb405b84dc33f
    652a7c840efbc23f 1a077a13c3a8c23f b75e83a2d556c23f 343c18254605c23f
    427d759214b4c13f 632da8e54063c13f b96ea21dcb12c13f ba09523db3c2c03f
    85bfb84bf972c03f 2a7d06549d23c03f 2c226bcb3ea9bf3f 1c0e5229ff0bbf3f
    4ba59af27b6fbe3f 8fe87661b5d3bd3f e591bdb9ab38bd3f 0a743b495f9ebc3f
    15100b68d004bc3f 33e2f278ff6bbb3f 33f6cae9ecd3ba3f 8662ea33993cba3f
    195b9ddc04a6b93f aba0a4753010b93f 5228bf9d1c7bb83f d6ef3e01cae6b73f
    7611aa5a3953b73f 4c4a69736bc0b63f 184d8524612eb63f a46674571b9db53f
    ae2bfa069b0cb53f 13221b40e17cb43f 869a2623efedb33f 703ed9e4c55fb33f
    11319bcf66d2b23f 910ddd44d345b23f 7d8997be0cbab13f 9d17f2d0142fb13f
    2596152ceda4b03f 97e4309e971bb03f 356e6c2b2c26af3f 8151b247d516ae3f
    62f1adfe2e09ad3f 2c2a280f3efdab3f 705f389007f3aa3f 635529f990eaa93f
    abb5682ae0e3a83f 1e27af77fbdea73f 64d098b3e9dba63f d4adf23cb2daa53f
    5d27110e5ddba43f cbee98cef2dda33f 97f43de87ce2a23f bc6a1f9f05e9a13f
    1180962e98f1a03f c4a518d781f89f3f 758c82db1a129e3f 1a09cd8319309c3f
    f8eb224e9f529a3f 0ac100b6d179983f 82bf0bf4daa5963f 64b0fbf2ead6943f
    135eab8d380d933f 123060340349913f 49dd724f2a158f3f ac8f4f278da48b3f
    78a48d0d0441883f e0cf1a4296eb843f 922f952992a5813f 3768ecf860e17c3f
    5db80cd9a89e763f fdb1b0031f8a703f 67b0c1439f5f653f 0ff7b9b605a6543f
"""))


# NumPy's license, which covers the three tables above and the arithmetic
# this module transcribes:
#
# Copyright (c) 2005-2025, NumPy Developers.
# Copyright (c) 2019 Kevin Sheppard.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are
# met:
#
#     * Redistributions of source code must retain the above copyright
#        notice, this list of conditions and the following disclaimer.
#
#     * Redistributions in binary form must reproduce the above
#        copyright notice, this list of conditions and the following
#        disclaimer in the documentation and/or other materials provided
#        with the distribution.
#
#     * Neither the name of the NumPy Developers nor the names of any
#        contributors may be used to endorse or promote products derived
#        from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
