"""One set-up sample, taken in a fresh interpreter by `worker.py`.

    python3 bench/probe.py

Prints two times: `import relfd.cli`, and a fixed piece of pure-Python work
of the kind relfd does (tuples hashed into sets and dicts that outgrow the
CPU caches).  The second runs no relfd code, so only the machine's speed
moves it; `run.py` scales a run's times by it.
"""

import time

SIZE = 100_000  # distinct tuples, to outgrow the CPU caches as relfd does


def speed() -> float:
    """Time of the fixed work, about 0.25 s: a set of SIZE distinct tuples
    and a dict of sets indexing it, as relfd builds relations and images."""
    t0 = time.perf_counter()
    pairs = {(i % 2011, i % 1999, i % 7) for i in range(SIZE)}
    image: dict = {}
    for a, b, c in pairs:
        image.setdefault((a, c), set()).add(b)
    del pairs, image
    return time.perf_counter() - t0


if __name__ == "__main__":
    t0 = time.perf_counter()
    import relfd.cli  # noqa: F401
    print(time.perf_counter() - t0, speed())
