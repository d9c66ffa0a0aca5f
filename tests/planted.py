"""Seeds that make SplitMix64 draw a chosen value at a chosen position, so a
test can plant a draw that `randrange` rejects instead of searching for one."""

GAMMA, MIX1, MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _unxorshift(y, s):
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def seed_drawing(u, at):
    """A seed whose output number `at` (0-based) is u: SplitMix64's output
    function is a bijection of the state, inverted step by step."""
    z = _unxorshift(u, 31)
    z = z * pow(MIX2, -1, 2**64) % 2**64
    z = _unxorshift(z, 27)
    z = z * pow(MIX1, -1, 2**64) % 2**64
    z = _unxorshift(z, 30)
    return (z - (at + 1) * GAMMA) % 2**64
