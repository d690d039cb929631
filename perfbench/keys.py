"""Key stream and arrival schedule of the serving probe.

Both are pure functions of the workload seed: the same seed gives the same
(circuit, seed) keys in the same order at the same scheduled times, and the
programs under test only ever see the generated submits.

Shape of the stream (README.md, "The serving probe"):
  * WARM keys are submitted before measuring, so the cache starts warm.
    They are the most popular keys and the same for every seed: a fixed
    catalogue of popular work, so the bulk of the hits replays the same
    partitions whatever the seed.
  * Every MISS_EVERY-th request introduces a new key (a cache miss).
  * Every other request repeats an earlier key, drawn Zipf-skewed by
    introduction rank, and only from keys introduced at least GAP requests
    earlier, so a repeat never races its own first computation. The draws
    walk a golden-ratio sequence from a seeded offset instead of taking
    independent uniforms, so every seed repeats each rank in the same
    proportions.
  * Introduction rank r always belongs to CIRCUITS[r % len(CIRCUITS)], so
    the circuit mix of hits and misses is the same for every seed; the
    seed picks the keys introduced during the run, the draw offset and the
    arrival times.
"""

import bisect
import random

CIRCUITS = ["ila16x8", "ila24x12", "ila32x16", "c1908", "c2670"]
METHODS = ["evolution", "standard"]
WARM = 20
MISS_EVERY = 20
GAP = 100
ZIPF_S = 0.8
GOLDEN = 0.6180339887498949


def _rng(seed, stream):
    return random.Random(f"perfbench/{stream}/{seed}")


def key_stream(seed, count):
    """Returns (warm_keys, stream): lists of (circuit, seed) tuples."""
    used_seeds = set()

    def new_key(rng, rank):
        while True:
            s = rng.randrange(1, 2**31)
            if s not in used_seeds:
                used_seeds.add(s)
                return (CIRCUITS[rank % len(CIRCUITS)], s)

    warm_rng = _rng(0, "warm")
    introduced = [new_key(warm_rng, r) for r in range(WARM)]
    rng = _rng(seed, "keys")
    u = rng.random()
    introduced_at = [-GAP] * WARM
    cumulative = []
    total = 0.0
    stream = []
    for i in range(count):
        if i % MISS_EVERY == MISS_EVERY // 2:
            key = new_key(rng, len(introduced))
            introduced.append(key)
            introduced_at.append(i)
        else:
            eligible = bisect.bisect_right(introduced_at, i - GAP)
            while len(cumulative) < eligible:
                total += 1.0 / (len(cumulative) + 1) ** ZIPF_S
                cumulative.append(total)
            u = (u + GOLDEN) % 1.0
            key = introduced[bisect.bisect_left(
                cumulative, u * cumulative[eligible - 1], 0, eligible)]
        stream.append(key)
    return introduced[:WARM], stream


def arrival_schedule(seed, rate, count):
    """Poisson arrivals at `rate` per second: offsets from the phase start."""
    rng = _rng(seed, "arrivals")
    t = 0.0
    times = []
    for _ in range(count):
        t += rng.expovariate(rate)
        times.append(t)
    return times


def first_occurrences(warm, stream):
    """Indices of `stream` whose key appears there for the first time and is
    not a warm key: the requests that are cache misses by construction."""
    seen = set(warm)
    misses = set()
    for i, key in enumerate(stream):
        if key not in seen:
            seen.add(key)
            misses.add(i)
    return misses
