"""Surrogate-scale checks of the cylinder-removal recursion and the
block-avoidance counting bound.  Counts use exact integers; floats appear
only in the e^-s comparison."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import EnumerationCap, NumericOverflow, PreconditionViolated, SymbolOutOfRange
from .ifs import exceeds
from .rotation import find_rotation_word, steering_suffix

ENUMERATION_CAP = 500_000  # cylinders of one removal step


@dataclass
class RemovalTrace:
    masses: list  # mu(Omega_0)=1, mu(Omega_1), ...
    c: float  # removal ratio: min mass of [t target] over |t| <= N0
    n0: int  # suffix length bound actually observed
    survivors: int  # cylinder count of the final survivor set


def removal_recursion(ifs, target, phi, eps, steps):
    """Finite-depth run of the cylinder-removal construction.

    Survivor sets are kept as explicit disjoint cylinder lists.  Each step
    steers every survivor cylinder v with a suffix t_v (copies of a small
    rotation word) so that v.t_v points near phi, removes [v t_v target] and
    re-partitions the remainder into cylinders one block deeper.
    """
    if steps < 0:
        raise PreconditionViolated("steps >= 0 required")
    for sym in target:
        if not 1 <= sym <= ifs.m:
            raise SymbolOutOfRange(f"symbol {sym} outside 1..{ifs.m}")
    a = find_rotation_word(ifs, eps)
    survivors = [()]
    masses = [1.0]
    max_suffix = 0
    for _ in range(steps):
        next_survivors = []
        removed_mass = 0.0
        for v in survivors:
            t_v = steering_suffix(ifs, v, phi, eps, a)
            max_suffix = max(max_suffix, len(t_v))
            block = len(t_v) + len(target)
            forbidden = t_v + target
            if exceeds(ifs.m, block, ENUMERATION_CAP):
                raise EnumerationCap(f"expansion m^{block} exceeds cap {ENUMERATION_CAP}")
            # expand [v] into cylinders one block deeper, minus [v t_v target]
            for w in itertools.product(range(1, ifs.m + 1), repeat=block):
                if w == forbidden:
                    removed_mass += ifs.mu_mass(v + w)
                else:
                    next_survivors.append(v + w)
            if len(next_survivors) > ENUMERATION_CAP:
                raise EnumerationCap(f"survivor cylinders exceed cap {ENUMERATION_CAP}")
        survivors = next_survivors
        masses.append(masses[-1] - removed_mass)
    n0 = max_suffix
    worst_block = n0 + len(target)
    c = min(f.r for f in ifs.maps) ** (ifs.gamma * worst_block)
    return RemovalTrace(masses=masses, c=c, n0=n0, survivors=len(survivors))


def avoidance_count(m, s, blocks):
    """Exact count and closed-form bound, as a pair, for words of length
    blocks*s with one forbidden continuation per consecutive s-block.  The
    blocks are independent, so the count is the product (m^s - 1)^blocks and
    the bound is exact: both entries are that one integer."""
    if m < 2 or s < 1 or blocks < 1:
        raise PreconditionViolated("m >= 2, s >= 1, blocks >= 1 required")
    count = (m**s - 1) ** blocks
    return count, count


def e_bound_holds(m, s):
    """The relaxation (1 - m^-s)^(m^s * s) <= e^-s."""
    return (1.0 - m ** (-float(s))) ** (m**s * s) <= math.exp(-s)


def h2_length_bound(m, s, blocks, r):
    """(#avoiding words) * 3 * r^L with L = blocks*s, plus whether the
    schedule-scale relaxation 3 e^-s applies (it needs blocks >= m^s * s)."""
    if abs(r - 1.0 / m) > 1e-12:
        raise PreconditionViolated("r = 1/m required")
    # m^s - 1 >= m^s / 2, so the count has at least blocks*(s log2 m - 1)
    # bits; refuse a float-overflowing count before forming the integer
    if blocks * (s * math.log2(m) - 1.0) >= 1024:
        raise NumericOverflow(f"({m}^{s} - 1)^{blocks} exceeds the float range")
    exact, _ = avoidance_count(m, s, blocks)
    L = blocks * s
    value = float(exact) * 3.0 * r**L
    applicable = blocks >= m**s * s
    within = value <= 3.0 * math.exp(-s) + 1e-15
    return {
        "value": value,
        "e_bound": 3.0 * math.exp(-s),
        "e_bound_applicable": applicable,
        "within_e_bound": within,
    }
