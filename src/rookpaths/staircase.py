"""Staircase step arrays and the walks they trace on square grids.

A walk in K_n [box] K_m is determined by a start vertex and an array of
steps, each a (drow, dcol) int pair moving along a single row or
column.  The staircase array for odd n concatenates (n-1)/2 "stretches";
stretch k has 2n entries alternating (0, 2k-1) and (2k-1, 0) and ends
with (2k, 0), so it sums to (1, 0).  For n an odd prime the resulting
walk from (0, 0) is a path that meets every orbit of the cyclic
row-shift group exactly once, which is what makes the construction
useful downstream.

A walk is (n, m, path), the path its vertex indices row * m + col; vertex
objects are built only for witnesses.  It is a path when the indices are
distinct; first_repeated_vertex names the first repeat, which is exactly
a contiguous run of steps summing to (0, 0), whose sums
partial_stretch_sum gives in closed form for one stretch.  The orbit
check is a step-array criterion: a walk repeats a row-shift orbit iff
some pair of steps violates the column-sum conditions implemented in
one_edge_per_orbit.
"""

from __future__ import annotations

from itertools import pairwise
from typing import Iterable, NamedTuple, Sequence

from .grid import DimensionError, GridGraph


class ConstructionInvalid(RuntimeError):
    """A constructed walk failed one of its certification checks."""

    def __init__(self, check: str, message: str, witness=None):
        super().__init__(message)
        self.check = check
        self.witness = witness


def _require_stretch(n: int, k: int = 1) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"staircase arrays need odd n >= 3, got {n}")
    if not 1 <= k <= (n - 1) // 2:
        raise ValueError(f"stretch index must satisfy 1 <= k <= {(n - 1) // 2}, got {k}")


def stretch(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Stretch k for width n: 2n steps alternating (0, 2k-1), (2k-1, 0), ending (2k, 0)."""
    _require_stretch(n, k)
    c = 2 * k - 1
    return tuple([(0, c) if g % 2 else (c, 0) for g in range(1, 2 * n)]) + ((2 * k, 0),)


def staircase_array(n: int) -> tuple[tuple[int, int], ...]:
    """Concatenation of stretches 1 .. (n-1)/2; n(n-1) (drow, dcol) steps in total."""
    _require_stretch(n)
    return tuple([p for k in range(1, (n - 1) // 2 + 1) for p in stretch(n, k)])


def partial_stretch_sum(n: int, k: int, p: int, q: int) -> tuple[int, int]:
    """Sum of entries p..q (1-based, inclusive) of stretch k, componentwise mod n.

    Closed form: entries at even positions contribute to the row
    coordinate and odd positions to the column coordinate, 2k-1 each,
    except that the final entry 2n contributes 2k to the row.  For n an
    odd prime the result is never (0, 0).
    """
    _require_stretch(n, k)
    if not 1 <= p <= q <= 2 * n:
        raise ValueError(f"need 1 <= p <= q <= {2 * n}, got p={p}, q={q}")
    c = 2 * k - 1
    if q != 2 * n:
        row = (q // 2 - (p - 1) // 2) * c % n
        col = ((q + 1) // 2 - p // 2) * c % n
    else:
        row = (1 - ((p - 1) // 2) * c) % n
        col = (-(p // 2) * c) % n
    return (row, col)


class Walk(NamedTuple):
    """A walk on K_n [box] K_m, stored as its vertex indices row * m + col; the rest is derived."""

    n: int
    m: int
    path: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.path) - 1

    def step_pairs(self) -> list[tuple[int, int]]:
        """Differences of consecutive vertices, reduced mod (n, m), as (drow, dcol) pairs."""
        n, m, path = self.n, self.m, self.path
        return [((b // m - a // m) % n, (b - a) % m) for a, b in pairwise(path)]


def _normalize_steps(arr: Iterable, n: int, m: int) -> list[tuple[int, int]]:
    steps = []
    for i, raw in enumerate(map(tuple, arr)):
        dr, dc = raw[0] % n, raw[1] % m
        if (dr == 0) == (dc == 0):
            raise ValueError(
                f"step {i + 1} = {raw} does not move along one grid line mod ({n},{m})"
            )
        steps.append((dr, dc))
    return steps


def _index_walk(start: int, steps, n: int, m: int) -> Walk:
    """The walk from vertex index ``start`` along reduced steps."""
    path = [start]
    for dr, dc in steps:
        start = (start // m + dr) % n * m + (start % m + dc) % m
        path.append(start)
    return Walk(n, m, tuple(path))


def walk_from_array(start, arr: Sequence[tuple[int, int]], n: int, m: int) -> Walk:
    """The walk from the (row, col) pair ``start`` whose i-th vertex adds the first i steps.

    Steps are (drow, dcol) int pairs, reduced mod (n, m); each must move
    along exactly one grid line after reduction.
    """
    if n < 2 or m < 2:
        raise DimensionError(f"walks need n, m >= 2, got {n} x {m}")
    row, col = start
    return _index_walk(row % n * m + col % m, _normalize_steps(arr, n, m), n, m)


def first_repeated_vertex(walk: Walk):
    """Earliest coincidence (i, j, vertex) with vertex_i == vertex_j, or None.

    j is the first position whose vertex occurred before, and i is that
    vertex's first position.
    """
    seen: dict[int, int] = {}
    for j, v in enumerate(walk.path):
        i = seen.setdefault(v, j)
        if i != j:
            return i, j, GridGraph(walk.n, walk.m).vertices()[v]
    return None


def is_path(walk: Walk) -> bool:
    """True iff no contiguous run of steps sums to (0, 0), i.e. no vertex repeats."""
    return len(set(walk.path)) == len(walk.path)


def first_orbit_conflict(arr: Sequence[tuple[int, int]], n: int, m: int | None = None):
    """First pair of step indices (0-based) whose edges share a row-shift orbit, or None.

    For the walk edges e_i = {v_{i-1}, v_i}, edges i+1 and j+1 lie in one
    orbit of the cyclic row-shift group exactly when either
      (a) the column components of steps i+1 .. j sum to 0 and
          a_{i+1} == a_{j+1}, or
      (b) the column components of steps i+1 .. j+1 sum to 0 and
          a_{i+1} == -a_{j+1},
    all arithmetic mod (n, m).  This is a pure step-array criterion; no
    orbit is ever enumerated, and one pass over the steps finds the pair.
    """
    if m is None:
        m = n
    steps = _normalize_steps(arr, n, m)
    # With c_i the column sum of steps 0 .. i-1 mod m, key a triple (c, dr, dc)
    # as the integer (c * n + dr) * m + dc, injective since c < m, dr < n, dc < m.
    # Then (a) holds for (i, j) iff key(c_j, step j) == key(c_i, step i), and (b)
    # iff key(c_{j+1}, -step j) == key(c_i, step i).  Scanning i downwards, ``least``
    # maps a key to the least j > i giving it either way, so the last pair found
    # is the first in (i, j) order.
    least: dict = {}
    found = None
    col = sum(dc for _, dc in steps) % m  # c_{i+1}
    for i in range(len(steps) - 1, -1, -1):
        dr, dc = steps[i]
        back = (col * n + -dr % n) * m + -dc % m
        col = (col - dc) % m
        here = (col * n + dr) * m + dc
        if here in least:
            found = (i, least[here])
        least[here] = least[back] = i
    return found


def one_edge_per_orbit(arr: Sequence[tuple[int, int]], n: int, m: int | None = None) -> bool:
    """True iff the walk of ``arr`` uses at most one edge from each row-shift orbit."""
    return first_orbit_conflict(arr, n, m) is None


def build_staircase_path(n: int) -> Walk:
    """The staircase walk from (0, 0) on K_n [box] K_n, checked to be a path.

    For an odd prime n the walk is a path meeting every row-shift orbit
    once; build_orbit_decomposition's certificate decides the orbit
    transversal, and verify re-checks it.  Every odd composite n fails
    the path check, with a ConstructionInvalid naming the repeated
    vertex: for a prime factor p, stretch k = (p+1)/2 steps by p, so any
    2n/p consecutive entries of its first 2n - 1 sum to (n, n), which is
    (0, 0) mod n.
    """
    walk = _index_walk(0, staircase_array(n), n, n)
    if not is_path(walk):
        i, j, v = rep = first_repeated_vertex(walk)
        raise ConstructionInvalid(
            "path", f"staircase walk revisits {v} at positions {i} and {j}", witness=rep
        )
    return walk
