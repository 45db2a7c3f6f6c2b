"""Graph algorithms substrate: bipartite matching."""

from .bipartite import hopcroft_karp, maximum_matching_size, perfect_matching

__all__ = [
    "hopcroft_karp",
    "maximum_matching_size",
    "perfect_matching",
]
