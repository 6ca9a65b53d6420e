"""Enumeration of coloured tournaments: exhaustive and sampled.

Every labelled instance on n vertices corresponds to one mixed-radix integer:
pair slots in lexicographic order are base-(2*colours) digits, slot 0 least
significant, digit = orientation * colours + colour.  Exhaustive mode counts
through these integers; shard k of m takes the residue class k mod m, so
shards partition the space exactly.  Sampled mode draws digits uniformly
from a Philox counter-based generator in fixed 65536-row blocks, so shards of
one seed slice the same stream.
EnumerationSpec owns the slot layout, computed once per spec, and the map
from shard positions to global indices and sample blocks (`index`,
`block_positions`); the kernel and the campaigns read both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from .core import Colour, ColouredTournament, pair_slots, slot_index

if TYPE_CHECKING:
    import numpy as np

SAMPLE_BLOCK_ROWS = 65536

MODES = ("exhaustive", "sampled")
FILTERS = ("none", "two-colour-vertices")

DEFAULT_BUDGET = 10**8
INDEX_LIMIT = 2**63  # global indices fit one signed 64-bit integer
WORD_BITS = 64  # colours * n <= 64: where the kernel is tested against the engine


class BudgetExceededError(ValueError):
    """Requested exhaustive space is larger than the configured budget."""


def pattern_pinned_codes(
    n: int, pattern: tuple[Colour, ...], colours: int = 3
) -> dict[int, int]:
    """Pair codes pinning the Hamilton cycle 0 -> 1 -> ... -> n-1 -> 0 with
    the repeating colour pattern along its arcs."""
    if n % len(pattern) != 0:
        raise ValueError(f"order {n} not divisible by pattern period {len(pattern)}")
    pinned: dict[int, int] = {}
    for i in range(n):
        j = (i + 1) % n
        colour = pattern[i % len(pattern)]
        if i < j:  # slot pair (i, j) oriented forward
            pinned[slot_index(n, i, j)] = int(colour)
        else:  # closing arc (n-1) -> 0 runs against slot orientation
            pinned[slot_index(n, j, i)] = colours + int(colour)
    return pinned


@dataclass(frozen=True)
class EnumerationSpec:
    """A reproducible description of which instances a campaign visits."""

    n: int
    colours: int = 3
    mode: str = "exhaustive"
    samples: int = 0
    seed: int = 0
    filter: str = "none"
    pattern: tuple[Colour, ...] | None = None
    shard: tuple[int, int] = (0, 1)
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order must be >= 1")
        if self.colours not in (2, 3):
            raise ValueError("colour count must be 2 or 3")
        if self.colours * self.n > WORD_BITS:
            raise ValueError(f"campaigns support colours * order <= {WORD_BITS} "
                             f"(order <= {WORD_BITS // self.colours} with "
                             f"{self.colours} colours)")
        _check_seed(self.seed)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.filter not in FILTERS:
            raise ValueError(f"unknown filter {self.filter!r}")
        k, m = self.shard
        if m < 1 or not 0 <= k < m:
            raise ValueError(f"invalid shard {k}/{m}")
        if self.pattern is not None:
            if not self.pattern:
                raise ValueError("pattern needs at least one colour")
            if self.n < 3:
                raise ValueError("a patterned Hamilton cycle needs order >= 3")
            if any(int(c) >= self.colours for c in self.pattern):
                raise ValueError("pattern colour outside the palette")
            object.__setattr__(self, "pattern", tuple(map(Colour, self.pattern)))
            self.pinned  # validates divisibility
        if self.mode == "sampled":
            if self.samples < 1:
                raise ValueError("sampled mode needs samples >= 1")
        elif self.samples:
            raise ValueError("samples only meaningful in sampled mode")
        elif self.seed:  # to_dict drops it, so it would change nothing but merges
            raise ValueError("seed only meaningful in sampled mode")
        if self.mode == "exhaustive" and self.space > self.budget:
            raise BudgetExceededError(
                f"exhaustive space {self.space} exceeds budget {self.budget}; "
                "use sampled mode (--samples N) or raise --budget"
            )
        if self.index_count > INDEX_LIMIT:
            raise ValueError(f"{self.mode} index space {self.index_count} exceeds "
                             "the campaign index limit 2**63")

    # -- geometry (the layout is cached read-only, outside the fields) ---------

    @property
    def base(self) -> int:
        return 2 * self.colours

    @cached_property
    def pinned(self) -> dict[int, int]:
        if self.pattern is None:
            return {}
        return pattern_pinned_codes(self.n, self.pattern, self.colours)

    @cached_property
    def free_slots(self) -> tuple[int, ...]:
        pinned = self.pinned
        return tuple(s for s in range(len(pair_slots(self.n))) if s not in pinned)

    @cached_property
    def space(self) -> int:
        """Size of the exhaustive index space (over free slots)."""
        return self.base ** len(self.free_slots)

    @property
    def index_count(self) -> int:
        """Number of global indices this spec's mode ranges over."""
        return self.samples if self.mode == "sampled" else self.space

    def shard_size(self) -> int:
        k, m = self.shard
        total = self.index_count
        return (total - k + m - 1) // m if total > k else 0

    def index(self, position: int) -> int:
        """Global index of shard position `position`."""
        return self.shard[0] + position * self.shard[1]

    def block_positions(self, block: int) -> range:
        """The shard positions whose global index lies in sample block
        `block`, rows block*65536 onwards: empty where a shard modulus
        above 65536 steps over the block."""
        k, m = self.shard
        # the first position at or past row r is ceil((r - k) / m), within the shard
        lo, hi = (min(self.shard_size(), max(0, -((k - r) // m)))
                  for r in (block * SAMPLE_BLOCK_ROWS, (block + 1) * SAMPLE_BLOCK_ROWS))
        return range(lo, hi)

    def unsharded(self) -> "EnumerationSpec":
        return replace(self, shard=(0, 1))

    def to_dict(self) -> dict:
        """JSON-ready echo of every reproducibility-relevant field."""
        d = {
            "n": self.n,
            "colours": self.colours,
            "mode": self.mode,
            "filter": self.filter,
            "shard": list(self.shard),
            "budget": self.budget,
        }
        if self.mode == "sampled":
            d["samples"] = self.samples
            d["seed"] = self.seed
        if self.pattern is not None:
            d["pattern"] = "".join(c.char for c in self.pattern)
        return d


# -- indices and codes ---------------------------------------------------------


def index_to_codes(spec: EnumerationSpec, index: int) -> tuple[int, ...]:
    """Full per-slot code tuple of the instance at one exhaustive index."""
    codes = [0] * len(pair_slots(spec.n))
    for s, code in spec.pinned.items():
        codes[s] = code
    for s in spec.free_slots:
        index, digit = divmod(index, spec.base)
        codes[s] = digit
    return tuple(codes)


def instance_at(spec: EnumerationSpec, index: int) -> ColouredTournament:
    return ColouredTournament.from_codes(
        spec.n, index_to_codes(spec, index), colours=spec.colours
    )


def shard_indices(spec: EnumerationSpec) -> range:
    """Global indices belonging to this spec's shard, in increasing order."""
    k, m = spec.shard
    return range(k, spec.index_count, m)


# -- sampling ------------------------------------------------------------------


def _check_seed(seed: int) -> None:
    """Philox keys take one unsigned 64-bit seed."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def philox_digits(
    seed: int, base: int, width: int, block: int, rows: int
) -> np.ndarray:
    """Digits in [0, base) for the first `rows` rows of sample block `block`
    (rows block*65536 onwards) of the seed's stream, as a uint8 array of
    shape (rows, width).

    One Philox counter block per sample block keyed by the seed, consumed by
    the generator's bounded-integer draw in row order, so a row depends only
    on the seed, the base, the width and its position: a short draw is a
    prefix of the full block.
    """
    import numpy as np  # here only: the CLI reads FILTERS without loading numpy
    _check_seed(seed)
    key = np.array([seed, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(counter=[0, 0, 0, block], key=key))
    return gen.integers(0, base, size=(rows, width), dtype=np.uint8)


def sample_block(
    spec: EnumerationSpec, block: int, rows: int = SAMPLE_BLOCK_ROWS
) -> np.ndarray:
    """Digits for the first `rows` sample rows of block `block`, rows
    block*65536 onwards, as a uint8 array of shape (rows, free slot count).

    All shards of a seed see identical blocks, so slicing rows by index is
    stable under any shard layout, and a short draw is a prefix of the full
    block.
    """
    return philox_digits(spec.seed, spec.base, len(spec.free_slots), block, rows)


def sample_codes(spec: EnumerationSpec, index: int) -> tuple[int, ...]:
    """Full code tuple of sample row `index` of the spec's stream."""
    block, row = divmod(index, SAMPLE_BLOCK_ROWS)
    digits = sample_block(spec, block, row + 1)[row]
    codes = [0] * len(pair_slots(spec.n))
    for s, code in spec.pinned.items():
        codes[s] = code
    for s, digit in zip(spec.free_slots, digits):
        codes[s] = int(digit)
    return tuple(codes)


# -- streams ---------------------------------------------------------------------


def enumerate_instances(
    spec: EnumerationSpec,
) -> Iterator[tuple[int, ColouredTournament]]:
    """Stream (global index, instance) pairs for the spec's shard, one
    instance at a time.

    Campaigns scan batches from kernel.batch_codes instead; this stream is
    the oracle tests check those batches against.  The index is the
    mixed-radix integer in exhaustive mode and the sample position in sampled
    mode; it is the deterministic tie-break key used by campaign reports.
    """
    for index in shard_indices(spec):
        if spec.mode == "sampled":
            yield index, ColouredTournament.from_codes(
                spec.n, sample_codes(spec, index), colours=spec.colours
            )
        else:
            yield index, instance_at(spec, index)
