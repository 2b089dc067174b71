"""Deterministic random-instance streams for agreement and property suites."""

import random

from hypothesis import strategies as st

from fuzzrel import ImplicationKind, generate_random_system


def iter_random_systems(
    master_seed: int,
    count: int,
    kind: ImplicationKind | None = None,
    max_dim: int = 5,
    decimals: int | None = 2,
):
    """Yield `count` random systems with sizes drawn in 1..max_dim.

    When `kind` is None, each draw picks a kind round-robin so mixed suites
    cover all three implications evenly.
    """
    master = random.Random(master_seed)
    kinds = list(ImplicationKind)
    for index in range(count):
        m = master.randint(1, max_dim)
        n = master.randint(1, max_dim)
        seed = master.randrange(2**32)
        chosen = kind if kind is not None else kinds[index % len(kinds)]
        yield generate_random_system(m, n, chosen, seed, decimals=decimals)


def random_unit_vector(rng: random.Random, length: int, decimals: int | None = 2):
    draw = (lambda: round(rng.random(), decimals)) if decimals is not None else rng.random
    return tuple(draw() for _ in range(length))


@st.composite
def tied_systems(draw, max_dim=20):
    """(gamma, beta) with full-precision or 2-decimal entries, dims
    1..max_dim, and ties on purpose: a small pool of shared values (0 and 1
    among them), rows and columns copied from a base matrix, zeroed columns
    and gamma entries set to a beta entry."""
    rng = draw(st.randoms(use_true_random=False))
    decimals = draw(st.sampled_from([2, None]))
    pool = draw(st.lists(st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.3]), max_size=3))

    def entry():
        if pool and rng.random() < 0.3:
            return rng.choice(pool)
        x = rng.random()
        return round(x, 2) if decimals == 2 else x

    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    base_m = draw(st.integers(1, m))
    base_n = draw(st.integers(1, n))
    base = [[entry() for _ in range(base_n)] for _ in range(base_m)]
    base_beta = [entry() for _ in range(base_m)]
    rows = list(range(base_m)) + [rng.randrange(base_m) for _ in range(m - base_m)]
    cols = list(range(base_n)) + [rng.randrange(base_n) for _ in range(n - base_n)]
    rng.shuffle(rows)
    rng.shuffle(cols)
    gamma = [[base[r][c] for c in cols] for r in rows]
    beta = [base_beta[r] for r in rows]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in gamma:
            row[i] = 0.0
    for _ in range(draw(st.integers(0, 3))):
        gamma[rng.randrange(m)][rng.randrange(n)] = beta[rng.randrange(m)]
    return tuple(map(tuple, gamma)), tuple(beta)
