"""Seeded input generators for the three workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical inputs, and the program under test only ever sees the
generated sources.
"""

from __future__ import annotations

from repro.bench.synthetic import generate_function
from repro.fuzz import generate_c

#: Rounds per function of the library-batch translation unit: the shape
#: of ``openssl_like_source`` (mostly small utility functions, a few
#: larger ones) with the sizes fixed instead of drawn from the seed.
#: Drawn sizes made one seed's batch cost 5x another's, so run-to-run
#: figures measured the seed, not the program.
LIBRARY_ROUNDS = (2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10, 12, 14)

#: Rounds per function of the daemon workload's monorepo.
MONOREPO_ROUNDS = (2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6)


def _unit(prefix: str, rounds: tuple[int, ...], seed: int) -> list[str]:
    return [generate_function(f"{prefix}_{index:03d}", size,
                              seed=seed * 1009 + index)
            for index, size in enumerate(rounds)]


def library_unit(seed: int) -> str:
    """The OpenSSL-shaped translation unit of the library batch."""
    return "\n\n".join(_unit("ossl_fn", LIBRARY_ROUNDS, seed))


class Monorepo:
    """The daemon workload's source tree: one translation unit of
    :data:`MONOREPO_ROUNDS` functions plus a stream of one-function
    edits.  Each edit rewrites one function's state initialisation with
    a constant no earlier edit used, so every edit is a fresh cache
    miss for that function and a hit for the others."""

    def __init__(self, seed: int):
        self.functions = _unit("repo_fn", MONOREPO_ROUNDS, seed)
        self.source = "\n\n".join(self.functions)
        self.names = [f"repo_fn_{index:03d}"
                      for index in range(len(self.functions))]

    def edit(self, number: int, function: int) -> str:
        """The tree with function ``function`` edited for the
        ``number``-th time (``number`` >= 0 keeps edits distinct)."""
        old = "state[i] = x0 + i;"
        new = f"state[i] = x0 + i + {number + 1};"
        parts = list(self.functions)
        if old not in parts[function]:
            raise ValueError(f"function {function} has no edit site")
        parts[function] = parts[function].replace(old, new, 1)
        return "\n\n".join(parts)


def conformance_programs(seed: int, count: int):
    """``count`` seeded conformance-profile programs."""
    base = seed * 7919
    return [generate_c(base + offset, profile="conformance")
            for offset in range(count)]
