"""Vectorized batch evaluation of domination properties.

Campaigns stream instances as uint8 code arrays of shape (batch, pairs),
stored slot-major, and evaluate whole batches at once.  Exhaustive codes
split each index once per run of five free slots and gather the run's
digits from a read-only table; sampled batches slice the Philox blocks
they touch, and a scan draws each block once (SampleBlocks).  The T_3
screen is one lookup per vertex triple into a 216-entry table indexed by
the triple's three slot codes.  Each vertex's adjacency is one packed
word: colour c occupies bits c*n .. c*n+n-1, bit c*n + j set when the
vertex beats j in colour c.  The word is uint32 when colours * n <= 32 and
uint64 up to WORD_BITS; EnumerationSpec refuses larger orders.  Decoding
is two table gathers per pair slot, and one Warshall pass of n steps
closes all colour planes at once.

Everything here is a pure function of the code array; the pure-Python engine
in the domination module computes the same quantities one instance at a time
and serves as the cross-check oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .core import pair_slots, slot_index
from .enumeration import SAMPLE_BLOCK_ROWS, WORD_BITS, EnumerationSpec, sample_block


DIGIT_RUN = 5  # free slots decoded by one lookup into the digit table


@lru_cache(maxsize=None)
def _digit_table(base: int, width: int) -> np.ndarray:
    """Digit j of every integer below base**width, least significant first,
    in row j: shape (width, base**width), so each digit's column of the
    (base**width, width) digit table is one contiguous row."""
    powers = base ** np.arange(width, dtype=np.int64)[:, None]
    table = (np.arange(base**width, dtype=np.int64) // powers % base).astype(np.uint8)
    table.flags.writeable = False
    return table


class SampleBlocks:
    """The sample block one scan of a sampled shard is in.

    A scan covering shard positions [0, stop) draws each block it touches
    once, through the last row the whole scan needs from it, and keeps it
    until a batch asks for another block.  One instance serves one scan;
    nothing is shared between scans.
    """

    def __init__(self, spec: EnumerationSpec, stop: int):
        k, m = spec.shard
        self.spec = spec
        self.last = k + (stop - 1) * m  # last global index the scan reads
        self.block = -1
        self.digits: np.ndarray | None = None

    def get(self, block: int) -> np.ndarray:
        if block != self.block:
            k, m = self.spec.shard
            top = min(self.last, (block + 1) * SAMPLE_BLOCK_ROWS - 1)
            top -= (top - k) % m  # the scan's last row in this block
            self.block = block
            self.digits = sample_block(self.spec, block, top - block * SAMPLE_BLOCK_ROWS + 1)
        return self.digits


def batch_codes(
    spec: EnumerationSpec, start: int, size: int, blocks: SampleBlocks | None = None
) -> np.ndarray:
    """Codes of `size` consecutive shard positions starting at `start`.

    Shard positions count the instances belonging to this spec's shard, in
    increasing global-index order; the result has shape (size, pairs) and
    matches enumeration one instance at a time.  It is a transposed view of
    slot-major storage, so each slot's column is contiguous, as the T_3
    mask and decode_rows read it.

    Exhaustive mode splits each index once per run of DIGIT_RUN free slots
    of one base and gathers the run's digits from a read-only digit table
    of base**width entries.  In sampled mode the rows of shard k of m
    inside one sample block are every m-th row of it; `blocks` is the
    scan's SampleBlocks, so a scan draws each block once.  Without it the
    call draws each block it touches through the last row it needs.
    """
    k, m = spec.shard
    P = len(pair_slots(spec.n))
    out = np.empty((P, size), dtype=np.uint8)
    for s, code in spec.pinned.items():
        out[s] = code
    free = spec.free_slots
    if not free:
        return out.T
    if spec.mode == "sampled":
        slots = slice(None) if len(free) == P else np.array(free, dtype=np.intp)
        blocks = blocks or SampleBlocks(spec, start + size)
        index = k + start * m
        r = 0
        while r < size:
            block, first = divmod(index, SAMPLE_BLOCK_ROWS)
            count = min(size - r, (SAMPLE_BLOCK_ROWS - 1 - first) // m + 1)
            digits = blocks.get(block)[first : first + (count - 1) * m + 1 : m]
            out[slots, r : r + count] = digits.T
            r += count
            index += count * m
        return out.T
    # exact below EnumerationSpec's INDEX_LIMIT = 2**63 (np.arange sizes its
    # result by a float division); a modulus past the space leaves one row
    idx = np.arange(size, dtype=np.uint64)
    if size > 1:
        idx *= np.uint64(m)
    idx += np.uint64(k + start * m)
    chunk = np.empty_like(idx)
    base = spec.base  # one base for every free slot: runs split only by length
    for lo in range(0, len(free), DIGIT_RUN):
        run = free[lo : lo + DIGIT_RUN]
        if lo + DIGIT_RUN < len(free):
            radix = np.uint64(base ** len(run))
            rest = idx // radix
            np.multiply(rest, radix, out=chunk)
            np.subtract(idx, chunk, out=chunk)  # in place: no temporaries
            digits, idx = chunk.view(np.intp), rest
        else:
            digits = idx.view(np.intp)
        table = _digit_table(base, len(run))
        for j, s in enumerate(run):
            table[j].take(digits, out=out[s])
    return out.T


def take_rows(codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """codes[rows] for row numbers `rows`, kept slot-major."""
    return codes.T.take(rows, axis=1).T


def _word(n: int, colours: int) -> type:
    """Narrowest unsigned word holding one bit plane of n bits per colour."""
    bits = colours * n
    if bits > WORD_BITS:
        raise ValueError(
            f"colours * order = {bits} exceeds the kernel's {WORD_BITS}-bit word"
        )
    return np.uint32 if bits <= 32 else np.uint64


@lru_cache(maxsize=None)
def _decode_table(n: int, colours: int) -> np.ndarray:
    """Word bit each code sets, indexed [slot, end, code]; end 0 is the
    slot's lower vertex, end 1 the upper."""
    slots = pair_slots(n)
    table = np.zeros((len(slots), 2, 2 * colours), dtype=_word(n, colours))
    for s, (i, j) in enumerate(slots):
        for c in range(colours):
            table[s, 0, c] = 1 << (c * n + j)
            table[s, 1, colours + c] = 1 << (c * n + i)
    table.flags.writeable = False
    return table


def decode_rows(codes: np.ndarray, n: int, colours: int = 3) -> np.ndarray:
    """Packed adjacency words, shape (batch, n): bit c*n + j of row i is set
    when i -> j is an arc of colour c.

    The result is a transposed view of a vertex-major array, so each vertex's
    column is contiguous.
    """
    table = _decode_table(n, colours)
    by_slot = np.ascontiguousarray(codes.T)
    rows = np.zeros((n, codes.shape[0]), dtype=table.dtype)
    for s, (i, j) in enumerate(pair_slots(n)):
        rows[i] |= table[s, 0].take(by_slot[s])
        rows[j] |= table[s, 1].take(by_slot[s])
    return rows.T


def closure_rows(adj: np.ndarray, n: int, colours: int = 3) -> np.ndarray:
    """Reachability words (paths of length >= 1) of packed adjacency words.

    One Warshall pass closes every colour plane at once: for each k, a row
    that reaches k in colour c gains row k's plane c.  (row >> k) & lanes
    puts "reaches k in colour c" at bit c*n, and multiplying by 2**n - 1
    spreads each such bit over its own plane without carries.
    """
    W = adj.dtype.type
    lanes = W(sum(1 << (c * n) for c in range(colours)))
    fill = W((1 << n) - 1)
    reach = adj.T.copy()  # vertex-major, so reach[k] is contiguous
    step = np.empty_like(reach)
    for k in range(n):
        np.right_shift(reach, W(k), out=step)
        step &= lanes
        step *= fill
        step &= reach[k]
        reach |= step
    return reach.T


def any_reach(codes: np.ndarray, n: int, colours: int = 3) -> np.ndarray:
    """Bit-rows of the dominates relation (reachable in some colour), shape
    (batch, n), in the word type of the packed rows."""
    reach = closure_rows(decode_rows(codes, n, colours), n, colours)
    W = reach.dtype.type
    plane = W((1 << n) - 1)
    out = reach & plane
    for c in range(1, colours):
        out |= (reach >> W(c * n)) & plane
    return out


# -- masks -----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _triangle_table(colours: int, require_cyclic: bool) -> np.ndarray:
    """Whether the codes (a, b, c) of slots (i, j), (i, k), (j, k) of a
    triple i < j < k make a rainbow (cyclic, if required) triangle, indexed
    (a * base + b) * base + c."""
    base = 2 * colours
    table = np.zeros(base**3, dtype=bool)
    for a, b, c in product(range(base), repeat=3):
        rainbow = len({a % colours, b % colours, c % colours}) == 3
        if require_cyclic:  # i -> j -> k -> i or its reverse
            ra, rb, rc = a >= colours, b >= colours, c >= colours
            rainbow = rainbow and ra == rc and rb != ra
        table[(a * base + b) * base + c] = rainbow
    table.flags.writeable = False
    return table


def rainbow_triangle_mask(
    codes: np.ndarray, n: int, colours: int = 3, require_cyclic: bool = True
) -> np.ndarray:
    """Which instances contain a rainbow (default: cyclic rainbow) triangle.

    One table lookup per triple: the three slot codes of the triple form an
    index below base**3 = 216 into a read-only table of rainbow triangles,
    so the index arithmetic stays in uint8 on a slot-major copy of the codes.
    """
    B = codes.shape[0]
    found = np.zeros(B, dtype=bool)
    if n < 3 or colours < 3:
        return found
    table = _triangle_table(colours, require_cyclic)
    base = np.uint8(2 * colours)
    by_slot = np.ascontiguousarray(codes.T, dtype=np.uint8)
    idx = np.empty(B, dtype=np.uint8)
    hit = np.empty(B, dtype=bool)
    for i, j, k in combinations(range(n), 3):
        np.multiply(by_slot[slot_index(n, i, j)], base, out=idx)
        idx += by_slot[slot_index(n, i, k)]
        idx *= base
        idx += by_slot[slot_index(n, j, k)]
        table.take(idx, out=hit)
        found |= hit
    return found


def _covered(reach: np.ndarray, n: int) -> tuple[np.ndarray, np.integer]:
    """Reach rows with each vertex's own bit added, and the all-vertices word."""
    W = reach.dtype.type
    selfbits = W(1) << np.arange(n, dtype=reach.dtype)
    return reach | selfbits, W((1 << n) - 1)


def dominating_vertex_mask(reach: np.ndarray, n: int) -> np.ndarray:
    """Which instances have a vertex dominating all others."""
    covered, full = _covered(reach, n)
    return (covered == full).any(axis=1)


def qualifying_cycle_mask(reach: np.ndarray, n: int) -> np.ndarray:
    """Which instances carry a Hamilton cycle on which every vertex dominates
    exactly the non-predecessors.

    Such a cycle exists iff every vertex fails to dominate exactly one vertex
    and the resulting predecessor map is a single n-cycle; the cycle arcs are
    then forced (u not dominated by v implies the arc u -> v).
    """
    B = reach.shape[0]
    if n < 3:
        return np.zeros(B, dtype=bool)
    covered, full = _covered(reach, n)
    nd = full & ~covered
    singleton = (nd != 0) & ((nd & (nd - 1)) == 0)
    ok = singleton.all(axis=1)
    cand = np.flatnonzero(ok)  # the walk runs only where the map exists
    nd = nd[cand]
    pred = np.zeros_like(nd, dtype=np.int8)
    for j in range(n):
        pred[nd == (1 << j)] = j
    pos = np.zeros(len(cand), dtype=np.int8)
    rows = np.arange(len(cand))
    cycle = np.ones(len(cand), dtype=bool)
    for step in range(1, n + 1):
        pos = pred[rows, pos]
        if step < n:
            cycle &= pos != 0
    ok[cand] = cycle & (pos == 0)
    return ok


def cover_order_tiers(reach: np.ndarray, n: int, k_max: int = 3) -> np.ndarray:
    """Smallest covering-set order per instance, tested up to min(k_max, 3).

    A set covers when the union of its members' dominated sets plus the
    members themselves is everything.  Returns 0 where no set of order
    <= min(k_max, 3) covers; callers fall back to the per-instance engine.
    """
    B = reach.shape[0]
    covered, full = _covered(reach, n)
    order = np.zeros(B, dtype=np.uint8)
    order[(covered == full).any(axis=1)] = 1
    pend = order == 0
    for size in range(2, min(k_max, 3) + 1):
        for members in combinations(range(n), size):
            if not pend.any():
                break
            union = covered[pend, members[0]]
            for v in members[1:]:
                union |= covered[pend, v]
            idx = np.flatnonzero(pend)[union == full]
            order[idx] = size
            pend[idx] = False
    return order


_POPCOUNT8 = np.array([bin(v).count("1") for v in range(8)], dtype=np.uint8)


def two_colour_vertices_mask(codes: np.ndarray, n: int, colours: int = 3) -> np.ndarray:
    """Which instances have every vertex incident to at most two colours."""
    B = codes.shape[0]
    acc = np.zeros((B, n), dtype=np.uint8)
    col = codes % colours
    for s, (i, j) in enumerate(pair_slots(n)):
        bit = np.uint8(1) << col[:, s].astype(np.uint8)
        acc[:, i] |= bit
        acc[:, j] |= bit
    return (_POPCOUNT8[acc] <= 2).all(axis=1)
