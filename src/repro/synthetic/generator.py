"""Synthetic table generator (Section 4.2.2).

The paper: "tables with two integer attributes (a and b) in sizes from 10
to 500000 tuples.  The attribute values where drawn from a gaussian
distribution with a fixed mean and a standard derivation of 100 times the
table size."

We follow that for ``b`` — the attribute the ``range`` predicates select
on; because the standard deviation grows with the table size, a
fixed-width window selects a roughly constant number of tuples at every
size, which is what lets the paper vary relation sizes while keeping the
selected subsets comparable.  For ``a`` — the attribute compared through
the ANY/ALL sublinks — a size-proportional spread would make equality
matches vanish at large sizes, so ``a`` uses a fixed spread (documented
substitution; it preserves the join selectivity the experiment needs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..api import Connection

#: Standard deviation multiplier from the paper.
B_STDDEV_PER_ROW = 100
#: Fixed spread of the comparison attribute ``a``.
A_STDDEV = 100


@dataclass(frozen=True)
class SyntheticConfig:
    """Sizes and seed for one synthetic database instance."""

    input_size: int = 1000       # |R1|, the selection's input
    sublink_size: int = 1000     # |R2|, the sublink's relation
    seed: int = 0


def synthetic_rows(size: int, seed: int) -> list[tuple[int, int]]:
    """Deterministic rows ``(a, b)`` for one table."""
    rng = random.Random(f"synthetic-{seed}-{size}")
    rows = []
    b_sigma = B_STDDEV_PER_ROW * max(size, 1)
    for _ in range(size):
        a = round(rng.gauss(0, A_STDDEV))
        b = round(rng.gauss(0, b_sigma))
        rows.append((a, b))
    return rows


def load_synthetic(config: SyntheticConfig) -> Connection:
    """A session over tables ``r1`` and ``r2`` per *config*."""
    conn = Connection()
    conn.create_table("r1", [("a", "int"), ("b", "int")])
    conn.create_table("r2", [("a", "int"), ("b", "int")])
    conn.insert("r1", synthetic_rows(config.input_size, config.seed))
    conn.insert("r2", synthetic_rows(config.sublink_size, config.seed + 1))
    return conn
