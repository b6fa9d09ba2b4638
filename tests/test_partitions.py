"""Diagram primitives and fixed-point enumeration, checked against
independent oracles (pentagonal recurrence, brute-force generation,
generating-function convolution)."""

import re
from itertools import product
from math import isqrt

import pytest

from blowup_genera import partitions
from blowup_genera.blowup_factor import yk_euler, yk_gottsche, yk_main
from blowup_genera.coefficients import sample_specialization
from blowup_genera.genera import SeriesRequest, zhat_series
from blowup_genera.partitions import (
    Box,
    LatticeTooLargeError,
    LatticeVector,
    Partition,
    arm_leg,
    blowup_virtual_dim,
    enumerate_blowup_fixed_points,
    enumerate_lattice_vectors,
    enumerate_partitions,
    enumerate_tuples,
)
from blowup_genera.verify import verify_corollary, verify_limit_consistency, verify_main_theorem


# -- oracles ---------------------------------------------------------------

def partition_count_pentagonal(n: int) -> int:
    """p(n) via the pentagonal-number recurrence, independent of enumeration."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            j += 1
        p[m] = total
    return p[n]


def brute_force_partitions(n: int) -> set[tuple[int, ...]]:
    """All weakly decreasing positive sequences summing to n, by filtering
    every composition (exponential, fine for small n)."""
    if n == 0:
        return {()}
    found = set()
    for length in range(1, n + 1):
        for combo in product(range(1, n + 1), repeat=length):
            if sum(combo) == n and all(a >= b for a, b in zip(combo, combo[1:])):
                found.add(combo)
    return found


def tuple_count_series(r: int, top: int) -> list[int]:
    """Coefficients of prod_m (1 - q^m)^-r up to q^top by plain convolution."""
    coeffs = [1] + [0] * top
    for _ in range(r):
        for m in range(1, top + 1):
            # multiply by (1 - q^m)^-1: running sum along stride m
            for e in range(m, top + 1):
                coeffs[e] += coeffs[e - m]
    return coeffs


# -- partitions ------------------------------------------------------------

def test_partition_validation():
    assert Partition().size == 0
    assert Partition((3, 1)).size == 4
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_transpose_and_membership():
    lam = Partition((4, 2, 1))
    assert lam.transpose().parts == (3, 2, 1, 1)
    assert lam.transpose().transpose() == lam
    assert Box(1, 4) in lam
    assert Box(2, 3) not in lam
    assert len(list(lam.boxes())) == lam.size


def test_arm_leg_examples():
    lam = Partition((2, 1))
    assert arm_leg(lam, Box(1, 1)) == (1, 1)
    assert arm_leg(lam, Box(1, 2)) == (0, 0)
    assert arm_leg(Partition(), Box(1, 1)) == (-1, -1)


def test_arm_leg_sign_conventions():
    lam = Partition((3, 2))
    for box in lam.boxes():
        a, l = arm_leg(lam, box)
        assert a >= 0 and l >= 0
    # outside the diagram: row beyond length gives negative leg,
    # column beyond the row gives negative arm
    assert arm_leg(lam, Box(5, 1))[1] < 0
    assert arm_leg(lam, Box(1, 4))[0] < 0


def test_enumerate_partitions_base_cases():
    assert [p.parts for p in enumerate_partitions(0)] == [()]
    assert [p.parts for p in enumerate_partitions(1)] == [(1,)]
    assert len(enumerate_partitions(4)) == 5


def test_enumerate_partitions_descending_lex_order():
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == sorted(got, reverse=True)
    assert got[0] == (4,) and got[-1] == (1, 1, 1, 1)


@pytest.mark.parametrize("n", range(0, 9))
def test_enumerate_partitions_against_brute_force(n):
    assert {p.parts for p in enumerate_partitions(n)} == brute_force_partitions(n)
    assert len(enumerate_partitions(n)) == len(set(enumerate_partitions(n)))


def test_partition_counts_pentagonal_recurrence():
    for n in range(31):
        assert len(enumerate_partitions(n)) == partition_count_pentagonal(n)


# -- tuples ----------------------------------------------------------------

def test_enumerate_tuples_examples():
    assert len(enumerate_tuples(1, 2)) == 2
    assert len(enumerate_tuples(2, 2)) == 5
    only = enumerate_tuples(2, 0)
    assert len(only) == 1 and only[0].total_size == 0


def test_enumerate_tuples_counts_match_generating_function():
    for r in (1, 2, 3):
        expected = tuple_count_series(r, 8)
        for n in range(9):
            assert len(enumerate_tuples(r, n)) == expected[n]


def test_enumerate_tuples_deterministic():
    assert enumerate_tuples(2, 3) == enumerate_tuples(2, 3)


# -- lattice vectors ---------------------------------------------------------

def test_lattice_vector_examples():
    assert enumerate_lattice_vectors(1, 0, 100) == (LatticeVector((0,)),)
    got = {v.entries for v in enumerate_lattice_vectors(2, 1, 9)}
    assert got == {(1, 0), (0, 1), (2, -1), (-1, 2)}
    assert enumerate_lattice_vectors(2, 0, 0) == (LatticeVector((0, 0)),)


def test_lattice_vectors_complete_against_wide_scan():
    r, k, bound = 3, 2, 12
    got = {v.entries for v in enumerate_lattice_vectors(r, k, bound)}
    wide = set()
    for head in product(range(-8, 9), repeat=r - 1):
        vec = LatticeVector(head + (k - sum(head),))
        if vec.pair_form <= bound:
            wide.add(vec.entries)
    assert got == wide


def box_scan_lattice_vectors(r: int, k: int, bound: int) -> tuple[LatticeVector, ...]:
    """The original enumerator: scan the box of heads within isqrt(bound) + 1
    of k/r in r - 1 coordinates, complete the sum, and filter.  The filter
    uses pair_form = r*sum(k_i**2) - k**2 on plain ints to stay fast;
    test_pair_form_identity checks that identity against the definition."""
    if r == 1:
        return (LatticeVector((k,)),)
    slack = isqrt(bound) + 1
    heads = product(range(-(-k // r) - slack, k // r + slack + 1), repeat=r - 1)
    out = []
    for head in heads:
        vec = head + (k - sum(head),)
        if r * sum(x * x for x in vec) - k * k <= bound:
            out.append(LatticeVector(vec))
    return tuple(out)


def test_pair_form_identity():
    for r in range(1, 5):
        for vec in product(range(-3, 4), repeat=r):
            k = sum(vec)
            assert LatticeVector(vec).pair_form == r * sum(x * x for x in vec) - k * k


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_lattice_vectors_match_box_scan(r):
    # same tuple in the same order, also for k outside [0, r)
    for k in range(-3, r + 3):
        for bound in range(30):
            assert enumerate_lattice_vectors(r, k, bound) == box_scan_lattice_vectors(
                r, k, bound
            ), (r, k, bound)


def test_pair_form_values():
    assert LatticeVector((1, 0)).pair_form == 1
    assert LatticeVector((2, -1)).pair_form == 9
    assert LatticeVector((1, 0, 0)).pair_form == 2


def test_lowest_lattice_layer_cap(monkeypatch):
    # C(6, 3) = 20 balanced vectors at pair_form 9 are within a cap of 20;
    # C(7, 3) = 35 at pair_form 12 are not, for k = 3 and k = 3 + 7 alike
    monkeypatch.setattr(partitions, "MAX_LATTICE_LAYER", 20)
    assert len(enumerate_lattice_vectors(6, 3, 9)) == 20
    for k in (3, 10):
        with pytest.raises(LatticeTooLargeError, match=r"C\(7, 3\) = 3\.500e\+01"):
            enumerate_lattice_vectors(7, k, 12)
    # a bound below the lowest layer has no vectors and is never refused; at
    # (100, 50) the pruned recursion alone would search for minutes to find none
    assert enumerate_lattice_vectors(7, 3, 11) == ()
    assert enumerate_lattice_vectors(100, 50, 2499) == ()


# -- blow-up fixed points -----------------------------------------------------

def test_blowup_fixed_point_examples():
    assert len(enumerate_blowup_fixed_points(1, 0, 0)) == 1
    pts = enumerate_blowup_fixed_points(1, 0, 1)
    assert len(pts) == 2
    assert pts[0].y_tuple.total_size == 1 and pts[0].z_tuple.total_size == 0
    assert pts[1].y_tuple.total_size == 0 and pts[1].z_tuple.total_size == 1

    pts = enumerate_blowup_fixed_points(2, 1, 0)
    assert len(pts) == 2
    assert all(fp.weight == 0 for fp in pts)
    assert {fp.kvec.entries for fp in pts} == {(1, 0), (0, 1)}


def test_blowup_fixed_point_constraint_and_n_roundtrip():
    for r in (1, 2, 3):
        for k in range(r):
            for n in range(4):
                for fp in enumerate_blowup_fixed_points(r, k, n):
                    assert fp.virtual_dim == blowup_virtual_dim(r, k, n)
                    assert fp.k == k
                    assert fp.instanton_number() == n


# every caller of check_k, as a function of (r, k)
CHECK_K_CALLERS = {
    "yk_main": lambda r, k: yk_main(r, k, 4),
    "yk_gottsche": lambda r, k: yk_gottsche(r, k, 4),
    "yk_euler": lambda r, k: yk_euler(r, k, 4),
    "zhat_series": lambda r, k: zhat_series(
        SeriesRequest(rank=r, max_n=1, spec=sample_specialization(r, 1), k=k)
    ),
    "enumerate_blowup_fixed_points": lambda r, k: enumerate_blowup_fixed_points(r, k, 1),
    "verify_main_theorem": lambda r, k: verify_main_theorem(r, k, 4, (1,)),
    "verify_corollary": lambda r, k: verify_corollary(r, k, 4, (1,)),
    "verify_limit_consistency": lambda r, k: verify_limit_consistency(r, k, 4, (1,)),
}


@pytest.mark.parametrize("k", [2, -1])
@pytest.mark.parametrize("caller", CHECK_K_CALLERS)
def test_check_k_callers_reject_out_of_range_k(caller, k):
    message = f"k must satisfy 0 <= k < r, got k={k}, r=2"
    with pytest.raises(ValueError, match=re.escape(message)):
        CHECK_K_CALLERS[caller](2, k)


def test_enumerations_are_deterministic():
    a = enumerate_blowup_fixed_points(2, 1, 2)
    b = enumerate_blowup_fixed_points(2, 1, 2)
    assert a == b
    # the memoized result equals a fresh enumeration
    assert enumerate_blowup_fixed_points.__wrapped__(2, 1, 2) == a
