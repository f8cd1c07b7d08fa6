"""The first values of every numpy `Generator` call the package makes, on fixed seeds.

Every byte pin rests on these values.  NumPy keeps a bit generator's raw
stream stable across versions (NEP 19), but not the algorithms of the
`Generator` methods that turn it into integers, uniforms and exponentials.
If numpy changes one of them, the test of that method fails here, naming the
numpy version, instead of the byte pins failing without a cause.  The values
were recorded on numpy 2.4.6.
"""

from __future__ import annotations

import numpy as np
import pytest

#: the stream keys the package seeds with: mobility's [seed, 101] and an
#: interval's [seed, interval, channel, tag]
MOBILITY = [1, 101]
INTERVAL = [1, 5, 0, 1]


CANARIES = {
    # default_rng from a list seed: the seed sequence and the PCG64 stream
    "default_rng": (MOBILITY, lambda r: r.bit_generator.random_raw(3).tolist(),
                    [3387446984526871269, 12134042229514233897, 8449591211079085009]),
    # scalar bounded integers, as mobility's turns and streets and the
    # emergency's origin and instant draw them
    "integers (scalar)": (INTERVAL,
                          lambda r: [int(r.integers(0, 2)) for _ in range(4)]
                          + [int(r.integers(7)) for _ in range(2)],
                          [0, 1, 1, 0, 6, 0]),
    # blocks of bounded integers, as back-off counters and channel picks
    # draw them; the second block starts on the first's spare 32-bit half
    "integers (block)": (INTERVAL,
                         lambda r: r.integers(0, 16, size=8).tolist()
                         + r.integers(0, 3, size=5).tolist(),
                         [4, 12, 9, 4, 13, 1, 8, 7, 1, 0, 1, 1, 1]),
    "random": (INTERVAL, lambda r: [r.random() for _ in range(3)],
               [0.7649533530431638, 0.2873109417548556, 0.1088258260564815]),
    "uniform": (INTERVAL, lambda r: [r.uniform(0.9, 1.1), r.uniform(0.0, 1500.0)],
                [1.052990670608633, 430.96641263228344]),
    # a scalar, as spawn gaps draw it, then a block, as hand-offs draw them
    "exponential": (INTERVAL,
                    lambda r: [r.exponential(0.04)] + r.exponential(1 / 2000, size=3).tolist(),
                    [0.007659600993350293, 0.0005694968301149996,
                     0.00017160217072399885, 0.0004423027686996185]),
}


@pytest.mark.parametrize("call", list(CANARIES))
def test_generator_calls_draw_the_recorded_values(call):
    seed, take, recorded = CANARIES[call]
    drawn = take(np.random.default_rng(seed))
    assert drawn == recorded, (
        f"numpy {np.__version__} draws {drawn} from Generator {call} on seed {seed}, "
        f"where numpy 2.4.6 drew {recorded}: every simulated byte pin moves with it"
    )
