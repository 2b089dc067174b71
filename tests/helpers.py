"""Deterministic random-instance streams for agreement and property suites,
the full-evaluation membership test that the exact ones are compared with,
and the whole-column scans that the pruned cell scans are compared with."""

import random
from itertools import repeat

from hypothesis import strategies as st

from fuzzrel import ImplicationKind, generate_random_system


class BoolLike:
    """A stand-in for numpy's bool True: neither a `bool` nor a
    `numbers.Real`, yet it orders against a float as 1 does."""

    def __lt__(self, other):
        return 1 < other

    def __le__(self, other):
        return 1 <= other

    def __gt__(self, other):
        return 1 > other

    def __ge__(self, other):
        return 1 >= other


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


def full_membership(ar, gamma, columns, beta, kind, delta, row, slack) -> bool:
    """The membership test of `fuzzrel.oracle.tolerance_membership` by full
    evaluation on the instance `ar` (`FLOAT` or `EXACT`): image <= upper +
    slack at row `row`, or at every row when `row` is None, with lower,
    upper = ar.shifted_bounds(beta, delta) and image the closure of lower by
    `ar.solve_and_recompose`.  `columns` is gamma^t, `kind` an
    ImplicationKind and `row` an index of gamma, none of them checked.  It
    is the reference of the exact membership tests, not the bisection's
    path, which reads the system's column fronts instead
    (`Arithmetic.membership`)."""
    lower, upper = ar.shifted_bounds(beta, delta)
    _, image = ar.solve_and_recompose(gamma, columns, kind, lower)
    if row is not None:
        return image[row] <= upper[row] + slack
    return all(a <= b + slack for a, b in zip(image, upper))


def whole_columns(cell, fields=lambda cells: (cells,)):
    """A table entry of `fuzzrel.algebra.column_scan` that hands every cell
    of a column all the pairs (us[l], xs[l]) of that column, in row order:
    cell (l, i) is cell(us[l], xs[l], pairs), for a cell formula `cell`
    such as an entry of `Arithmetic.maxt_cells`.  A column gives `fields`
    of the tuple of its cells, its flat field tuples: by default the one
    field of values such as max-t cells.  It reads nothing of the system,
    and prunes nothing, so a scan through it is the reference that the
    pruned scans are held to."""
    def entry(xs, prepared):
        return lambda us, i: fields(tuple(map(cell, us, xs, repeat(tuple(zip(us, xs))))))
    return entry


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


def interval_pass(matrix, columns, rhs, kind, delta, maxt):
    """The interval pass of `fuzzrel.oracle._decided` as whole float
    compositions, the test-only reference of the row-by-row pass: each
    vector is shifted as a whole and padded down and up by MEMBERSHIP_PAD,
    the inner level is composed over every column at both bounds of its
    vector, and the outer level over every row at both bounds of the inner
    one, each result padded on its own side.  `columns` is the matrix's
    transpose, `maxt` selects the closure of `exact_maxt_membership`.

    Returns, per row, its decision, "true", "false" or "open", and the index
    of the first term whose pessimistic bound settles it true (None when no
    term does): the term the row-by-row pass stops at."""
    from fuzzrel.algebra import FLOAT
    from fuzzrel.oracle import MEMBERSHIP_PAD

    def pad(v):
        return FLOAT.shifted_bounds(v, MEMBERSHIP_PAD)

    def level(residual, rows, v_lo, v_hi):
        compose = (FLOAT.min_impl_rows if residual else FLOAT.max_t_rows)[kind]
        return (
            FLOAT.lower_shift(compose(rows, v_lo), MEMBERSHIP_PAD),
            FLOAT.upper_shift(compose(rows, v_hi), MEMBERSHIP_PAD),
        )

    lower, upper = map(pad, FLOAT.shifted_bounds(rhs, float(delta)))
    shift, bound = (upper, lower) if maxt else (lower, upper)
    inner = level(maxt, columns, *shift)
    outer = level(not maxt, matrix, *inner)
    small, big = (bound, outer) if maxt else (outer, bound)
    decisions = [
        "false" if small[0][i] > big[1][i] else "open" if small[1][i] > big[0][i] else "true"
        for i in range(len(matrix))
    ]
    # the pessimistic bound of each outer term: the high one of a residuum
    # against the low bound of the right-hand side, the low one of a t-norm
    # against its high bound
    side = 0 if maxt else 1
    op = (FLOAT.t_norms if maxt else FLOAT.residua)[kind]
    firsts = []
    for i, row in enumerate(matrix):
        terms = pad(tuple(map(op, row, inner[side])))[side]
        settles = [
            j for j, t in enumerate(terms)
            if (t >= bound[1][i] if maxt else t <= bound[0][i])
        ]
        firsts.append(settles[0] if settles else None)
    return decisions, firsts
