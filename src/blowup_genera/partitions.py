"""Young diagrams and the fixed-point index sets of both moduli families.

Torus fixed points of the rank-r framed moduli on the plane are r-tuples
of Young diagrams.  On the blown-up plane they are triples
(Y-tuple, Z-tuple, kvec) of two r-tuples and an integer vector, subject
to an integer weight constraint.  All enumerations here are total,
deterministic and pure; the fixed-point enumerations are memoized, so
each index set is built once per process and shared read-only.

Grading convention used throughout the package: a blow-up fixed point
with diagram weight w = sum(|Y_i| + |Z_i|) and lattice vector kvec sits
in q-degree

    2*r*w + sum_{i<j} (k_i - k_j)**2  =  2*r*n + k*(r - k),

where k = sum(kvec) and n is the instanton number.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, isqrt
from typing import Iterator, NamedTuple

from .records import Record


class Box(NamedTuple):
    """Cell of a Young diagram, 1-based matrix convention (row i, column j)."""

    i: int
    j: int


class Partition:
    """Weakly decreasing tuple of positive parts; the empty partition is allowed."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if b > a:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive: {parts}")
        self.parts = parts

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """Row length at 1-based row i, zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def transpose_part(self, j: int) -> int:
        """Column length at 1-based column j, zero beyond the first row."""
        return sum(1 for p in self.parts if p >= j)

    def transpose(self) -> "Partition":
        width = self.parts[0] if self.parts else 0
        return Partition(self.transpose_part(j) for j in range(1, width + 1))

    def boxes(self) -> Iterator[Box]:
        for i, row in enumerate(self.parts, start=1):
            for j in range(1, row + 1):
                yield Box(i, j)

    def __contains__(self, box: Box) -> bool:
        return 1 <= box.j <= self.part(box.i)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"


def arm_leg(p: Partition, box: Box) -> tuple[int, int]:
    """Arm and leg of ``box`` measured in ``p``, as signed integers.

    arm = (length of row i) - j, leg = (length of column j) - i.  The box
    need not lie inside ``p``; rows and columns beyond the diagram count
    as length zero, so boxes outside get negative values.
    """
    return p.part(box.i) - box.j, p.transpose_part(box.j) - box.i


@lru_cache(maxsize=None)
def _part_lists(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _part_lists(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each exactly once, in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(Partition(parts) for parts in _part_lists(n, n))


class PartitionTuple(Record):
    """r-tuple of Young diagrams indexing a fixed point of the plane moduli."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[Partition, ...]):
        self._set(entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def total_size(self) -> int:
        return sum(p.size for p in self.entries)

    def __repr__(self):
        inner = ", ".join(str(list(p.parts)) for p in self.entries)
        return f"PartitionTuple({inner})"


def _compositions(n: int, r: int) -> Iterator[tuple[int, ...]]:
    # all r-part compositions of n with nonnegative parts, first part descending
    if r == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, r - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def enumerate_tuples(r: int, n: int) -> tuple[PartitionTuple, ...]:
    """All r-tuples of partitions with total size n, in a fixed order."""
    if r < 1:
        raise ValueError("r must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for comp in _compositions(n, r):
        for combo in product(*(enumerate_partitions(c) for c in comp)):
            out.append(PartitionTuple(combo))
    return tuple(out)


class LatticeVector(Record):
    """Integer vector (k_1, ..., k_r) of exceptional-curve degrees."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        self._set(entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def k(self) -> int:
        return sum(self.entries)

    @property
    def pair_form(self) -> int:
        """sum_{i<j} (k_i - k_j)**2, the positive quadratic form on sum-zero vectors."""
        ks = self.entries
        return sum(
            (ks[i] - ks[j]) ** 2 for i in range(len(ks)) for j in range(i + 1, len(ks))
        )

    def __repr__(self):
        return f"LatticeVector({list(self.entries)})"


# The lowest layer of the sum-k lattice holds the balanced vectors, whose
# k0 = k mod r largest entries exceed the others by one: C(r, k0) vectors at
# the minimum pair_form k0*(r - k0).  An enumeration reaching that layer
# with more vectors than this is refused before it starts, and any other is
# stopped once it has found more vectors than this in all.  At r = 100 the
# layer holds 4,950 vectors for k = 2 and about 10**29 for k = 50; at
# (r, k) = (30, 4) it holds 27,405, and compute-yk to that layer takes
# about 3 s on a 2-core machine.
MAX_LATTICE_LAYER = 10**5


class LatticeTooLargeError(ValueError):
    """A lattice enumeration, or its lowest layer alone, exceeds MAX_LATTICE_LAYER vectors."""


def enumerate_lattice_vectors(r: int, k: int, qform_bound: int) -> tuple[LatticeVector, ...]:
    """All integer vectors with sum k and pair_form at most qform_bound.

    The form is positive definite on the sum-k affine sublattice, so the
    set is finite.  Since pair_form = r*sum(k_i**2) - k**2, a prefix with
    sum s and square sum S extends by x, with m coordinates left to
    choose (x included) and rest = k - s, only if the balanced real
    completion fits:

        r*((m - 1)*(S + x**2) + (rest - x)**2) <= (m - 1)*(qform_bound + k**2).

    The recursion takes each coordinate from the integer interval of
    that quadratic inequality in x; for m = 2 the test is exact and the
    last coordinate is forced, so every leaf is a valid vector.  The
    result is ordered lexicographically in the first r - 1 coordinates.
    A bound below the lowest layer gives no vectors; one that reaches it
    raises LatticeTooLargeError when that layer alone holds more than
    MAX_LATTICE_LAYER vectors, before any is enumerated, and otherwise as
    soon as the enumeration has found more than MAX_LATTICE_LAYER vectors.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if qform_bound < 0:
        raise ValueError("qform_bound must be nonnegative")
    k0 = k % r
    if qform_bound < k0 * (r - k0):
        return ()
    if comb(r, k0) > MAX_LATTICE_LAYER:
        raise LatticeTooLargeError(
            f"the lowest lattice layer at r={r}, k={k} holds C({r}, {k0}) = {comb(r, k0):.3e} "
            f"vectors, more than MAX_LATTICE_LAYER = {MAX_LATTICE_LAYER}"
        )
    if r == 1:
        return (LatticeVector((k,)),)
    cap = qform_bound + k * k
    out = []

    def extend(prefix: tuple[int, ...], rest: int, sq: int) -> None:
        m = r - len(prefix)
        # r*m*x^2 - 2*r*rest*x + r*(rest^2 + (m-1)*sq) - (m-1)*cap <= 0
        disc = (r * rest) ** 2 - r * m * (r * (rest * rest + (m - 1) * sq) - (m - 1) * cap)
        if disc < 0:
            return
        root = isqrt(disc)
        lo = -((root - r * rest) // (r * m))
        hi = (r * rest + root) // (r * m)
        for x in range(lo, hi + 1):
            if m == 2:
                out.append(LatticeVector(prefix + (x, rest - x)))
            else:
                extend(prefix + (x,), rest - x, sq + x * x)
        if len(out) > MAX_LATTICE_LAYER:
            raise LatticeTooLargeError(
                f"the lattice at r={r}, k={k} with pair_form <= {qform_bound} holds more "
                f"than MAX_LATTICE_LAYER = {MAX_LATTICE_LAYER} vectors"
            )

    extend((), k, 0)
    return tuple(out)


def check_k(r: int, k: int) -> None:
    """Raise ValueError unless 0 <= k < r."""
    if not 0 <= k < r:
        raise ValueError(f"k must satisfy 0 <= k < r, got k={k}, r={r}")


def blowup_virtual_dim(r: int, k: int, n: int) -> int:
    """q-degree of the blow-up moduli component with invariants (r, k, n)."""
    return 2 * r * n + k * (r - k)


def check_verify_order(r: int, k: int, order: int) -> None:
    """Raise ValueError unless order reaches k(r-k): below it zhat and Y_k * Z are both 0."""
    first = blowup_virtual_dim(r, k, 0)
    if order < first:
        raise ValueError(
            f"order must reach the first blow-up degree k(r-k) = {first}, "
            f"got order={order}, r={r}, k={k}"
        )


def blowup_max_n(r: int, k: int, order: int) -> int:
    """Smallest n >= 0 with blowup_virtual_dim(r, k, n) >= order: the cutoff reaching q**order."""
    return max(-(-(order - k * (r - k)) // (2 * r)), 0)


class BlowupFixedPoint(Record):
    """Triple (Y-tuple, Z-tuple, kvec) indexing a blow-up fixed point."""

    __slots__ = _fields = ("y_tuple", "z_tuple", "kvec")

    def __init__(self, y_tuple: PartitionTuple, z_tuple: PartitionTuple, kvec: LatticeVector):
        if not (y_tuple.rank == z_tuple.rank == kvec.rank):
            raise ValueError("tuple and vector ranks disagree")
        self._set(y_tuple, z_tuple, kvec)

    @property
    def rank(self) -> int:
        return self.kvec.rank

    @property
    def k(self) -> int:
        return self.kvec.k

    @property
    def weight(self) -> int:
        return self.y_tuple.total_size + self.z_tuple.total_size

    @property
    def virtual_dim(self) -> int:
        return 2 * self.rank * self.weight + self.kvec.pair_form

    def instanton_number(self) -> int:
        """Recover n from the triple; the grading identity makes this exact."""
        r, k = self.rank, self.k
        rem = self.virtual_dim - k * (r - k)
        if rem % (2 * r) != 0:
            raise ValueError(f"inconsistent fixed point {self}")
        return rem // (2 * r)

    def __repr__(self):
        return f"BlowupFixedPoint({self.y_tuple!r}, {self.z_tuple!r}, {self.kvec!r})"


@lru_cache(maxsize=None)
def enumerate_blowup_fixed_points(r: int, k: int, n: int) -> tuple[BlowupFixedPoint, ...]:
    """All blow-up fixed points with invariants (r, k, n), in a fixed order.

    Requires 0 <= k < r.  For each admissible lattice vector the remaining
    q-degree must be a nonnegative multiple of 2r; anything else is
    excluded (the congruence makes the multiple automatic when sum(kvec)
    equals k, the check is a guard against convention drift).
    """
    check_k(r, k)
    if n < 0:
        raise ValueError("n must be nonnegative")
    vdim = blowup_virtual_dim(r, k, n)
    out = []
    for kvec in enumerate_lattice_vectors(r, k, vdim):
        rem = vdim - kvec.pair_form
        if rem < 0 or rem % (2 * r) != 0:
            continue
        w = rem // (2 * r)
        for wy in range(w, -1, -1):
            for yt in enumerate_tuples(r, wy):
                for zt in enumerate_tuples(r, w - wy):
                    out.append(BlowupFixedPoint(yt, zt, kvec))
    return tuple(out)

