"""Vectorized batch evaluation of domination properties.

Campaigns stream instances as uint8 code arrays of shape (batch, pairs),
stored slot-major, and evaluate whole batches at once.  Exhaustive codes
split each index once per run of five free slots and gather the run's
digits from a read-only table; sampled batches slice the Philox blocks
they touch, and a scan draws each block once.  The T_3 screen and the
vertex filter gather nothing: slot code x = orientation * 3 + colour becomes
the one-hot byte 1 << x, and the screen tests every triple i < j < k of one
pair (i, j) with a few byte operations over two contiguous runs of slots.
Each vertex's adjacency is one packed word: colour c occupies bits
c*n .. c*n+n-1, bit c*n + j set when the vertex beats j in colour c.  The
word is uint32 when colours * n <= 32 and uint64 up to WORD_BITS;
EnumerationSpec refuses larger orders.  Decoding is two table gathers per
pair slot, and one Warshall pass of n steps closes all colour planes at once.

Every batch kernel takes an optional Workspace, into which it writes its
temporaries and its result.  Batch-sized arrays allocated afresh come from
pages the allocator has just returned to the OS, so without one every batch
pays a page fault per page it touches (about 5,000 per 2^17-row search call
at n=6); a scan passes one workspace to every call, and faults its buffers
in during its first batch only.  Called without a workspace, a kernel builds
a throwaway one: its result is fresh and its inputs are never modified.

Everything here is a pure function of the code array; the pure-Python engine
in the domination module computes the same quantities one instance at a time
and serves as the cross-check oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import prod

import numpy as np

from .core import pair_slots, slot_index
from .enumeration import SAMPLE_BLOCK_ROWS, WORD_BITS, EnumerationSpec, sample_block


DIGIT_RUN = 5  # free slots decoded by one lookup into the digit table
ONE_HOT_BYTES = 1 << 20  # the most one-hot slot bytes the T_3 mask holds at once


class Workspace:
    """Scratch memory one scan reuses for every batch, and the sample block
    it is in.

    `buffer(name, shape, dtype)` hands out a contiguous view at the start of
    a grow-only flat byte buffer; the shape's last axis counts rows.  Each
    buffer holds room for the largest batch batch_codes has produced here,
    so subsets of a batch (T_3-free rows, filtered rows) never grow it.  A
    kernel's result lives in the buffer named after the kernel and stays
    valid until the next call that writes that buffer: "words" holds the
    packed words decode_rows writes and closure_rows and any_reach close
    and fold in place, and "scratch0".."scratch2" hold temporaries that no
    result outlives.  The T_3 mask writes only its own buffer and the
    scratch buffers, never "words": a scan may call it between any_reach
    and the masks that read the reach words.

    A sampled scan covering shard positions [0, stop) draws each block it
    touches once, through the last row the whole scan needs from it, and
    keeps it until a batch asks for another block.  One workspace serves
    one scan; nothing is shared between scans.
    """

    def __init__(self, stop: int = 0):
        self.stop = stop  # shard positions [0, stop) the scan reads
        self.rows = 0  # rows of the largest batch so far
        self.buffers: dict[str, np.ndarray] = {}
        self.block: tuple | None = None  # (spec, block) of the held digits
        self.digits: np.ndarray | None = None
        self._ramp = np.arange(0, dtype=np.uint64)

    def buffer(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        row_bytes = dtype.itemsize * prod(shape[:-1])
        nbytes = row_bytes * shape[-1]
        flat = self.buffers.get(name)
        if flat is None or flat.size < nbytes:
            self.buffers.pop(name, None)  # free the old buffer before the new one
            flat = np.empty(max(nbytes, row_bytes * self.rows), dtype=np.uint8)
            self.buffers[name] = flat
        return flat[:nbytes].view(dtype).reshape(shape)

    def ramp(self, size: int) -> np.ndarray:
        """0, 1, ..., size - 1 as uint64 (read-only)."""
        if len(self._ramp) < size:
            self._ramp = np.arange(max(size, self.rows), dtype=np.uint64)
            self._ramp.flags.writeable = False
        return self._ramp[:size]

    def holds(self, name: str, array: np.ndarray) -> bool:
        return name in self.buffers and np.may_share_memory(self.buffers[name], array)

    def sample_block(self, spec: EnumerationSpec, block: int, stop: int) -> np.ndarray:
        """Digits of sample block `block`, drawn through the last row of
        shard positions [0, max(stop, self.stop)) in it."""
        k, m = spec.shard
        top = min(k + (max(stop, self.stop) - 1) * m, (block + 1) * SAMPLE_BLOCK_ROWS - 1)
        top -= (top - k) % m  # the scan's last row in this block
        rows = top - block * SAMPLE_BLOCK_ROWS + 1
        if self.block != (spec, block) or len(self.digits) < rows:
            self.digits = None  # drop the previous block before drawing the next
            self.digits = sample_block(spec, block, rows)
            self.block = (spec, block)
        return self.digits


@lru_cache(maxsize=None)
def _digit_table(base: int, width: int) -> np.ndarray:
    """Digit j of every integer below base**width, least significant first,
    in row j: shape (width, base**width), so each digit's column of the
    (base**width, width) digit table is one contiguous row."""
    powers = base ** np.arange(width, dtype=np.int64)[:, None]
    table = (np.arange(base**width, dtype=np.int64) // powers % base).astype(np.uint8)
    table.flags.writeable = False
    return table


def batch_codes(
    spec: EnumerationSpec, start: int, size: int, ws: Workspace | None = None
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
    inside one sample block are every m-th row of it; the scan's workspace
    draws each block once.  Without one the call draws each block it
    touches through the last row it needs.
    """
    ws = ws or Workspace()
    ws.rows = max(ws.rows, size)
    k, m = spec.shard
    P = len(pair_slots(spec.n))
    out = ws.buffer("batch_codes", (P, size), np.uint8)
    for s, code in spec.pinned.items():
        out[s] = code
    free = spec.free_slots
    if not free:
        return out.T
    if spec.mode == "sampled":
        slots = slice(None) if len(free) == P else np.array(free, dtype=np.intp)
        index = k + start * m
        r = 0
        while r < size:
            block, first = divmod(index, SAMPLE_BLOCK_ROWS)
            count = min(size - r, (SAMPLE_BLOCK_ROWS - 1 - first) // m + 1)
            digits = ws.sample_block(spec, block, start + size)
            out[slots, r : r + count] = digits[first : first + (count - 1) * m + 1 : m].T
            r += count
            index += count * m
        return out.T
    # exact below EnumerationSpec's INDEX_LIMIT = 2**63; a modulus past the
    # space leaves one row
    idx, chunk, rest = (ws.buffer(f"scratch{i}", (size,), np.uint64) for i in range(3))
    if size > 1:
        np.multiply(ws.ramp(size), np.uint64(m), out=idx)
    else:
        idx.fill(0)
    idx += np.uint64(k + start * m)
    base = spec.base  # one base for every free slot: runs split only by length
    for lo in range(0, len(free), DIGIT_RUN):
        run = free[lo : lo + DIGIT_RUN]
        if lo + DIGIT_RUN < len(free):
            radix = np.uint64(base ** len(run))
            np.floor_divide(idx, radix, out=rest)
            np.multiply(rest, radix, out=chunk)
            np.subtract(idx, chunk, out=chunk)
            digits, idx, rest = chunk.view(np.intp), rest, idx
        else:
            digits = idx.view(np.intp)
        table = _digit_table(base, len(run))
        for j, s in enumerate(run):
            table[j].take(digits, out=out[s])
    return out.T


def take_rows(codes: np.ndarray, rows: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """codes[rows] for row numbers `rows`, kept slot-major.

    Writes whichever of its two buffers `codes` does not live in, so a
    selection from a selection (the filter's rows, then their T_3-free
    rows) keeps the first one.
    """
    ws = ws or Workspace()
    name = "take_rows_again" if ws.holds("take_rows", codes) else "take_rows"
    out = ws.buffer(name, (codes.shape[1], len(rows)), codes.dtype)
    np.take(codes.T, rows, axis=1, out=out)
    return out.T


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


def decode_rows(
    codes: np.ndarray, n: int, colours: int = 3, ws: Workspace | None = None
) -> np.ndarray:
    """Packed adjacency words, shape (batch, n): bit c*n + j of row i is set
    when i -> j is an arc of colour c.

    The result is a transposed view of a vertex-major array, so each vertex's
    column is contiguous.  Codes must lie below 2 * colours, as every code
    array batch_codes or ColouredTournament.to_codes makes does: the gathers
    wrap instead of checking bounds, because a bounds-checked take copies
    its output array on every call.
    """
    ws = ws or Workspace()
    table = _decode_table(n, colours)
    B = codes.shape[0]
    rows = ws.buffer("words", (n, B), table.dtype)
    rows.fill(0)  # a reused buffer holds the previous batch
    bits = ws.buffer("scratch0", (B,), table.dtype)
    code = ws.buffer("scratch1", (B,), np.intp)
    for s, (i, j) in enumerate(pair_slots(n)):
        np.copyto(code, codes[:, s])  # one index conversion for both gathers
        table[s, 0].take(code, out=bits, mode="wrap")
        rows[i] |= bits
        table[s, 1].take(code, out=bits, mode="wrap")
        rows[j] |= bits
    return rows.T


def closure_rows(
    adj: np.ndarray, n: int, colours: int = 3, ws: Workspace | None = None
) -> np.ndarray:
    """Reachability words (paths of length >= 1) of packed adjacency words.

    One Warshall pass closes every colour plane at once: for each k, a row
    that reaches k in colour c gains row k's plane c.  (row >> k) & lanes
    puts "reaches k in colour c" at bit c*n, and multiplying by 2**n - 1
    spreads each such bit over its own plane without carries.  Words that
    decode_rows wrote into the same workspace are closed in place.
    """
    ws = ws or Workspace()
    W = adj.dtype.type
    lanes = W(sum(1 << (c * n) for c in range(colours)))
    fill = W((1 << n) - 1)
    reach = ws.buffer("words", adj.T.shape, adj.dtype)  # vertex-major
    if reach.__array_interface__ != adj.T.__array_interface__:
        np.copyto(reach, adj.T)
    step = ws.buffer("scratch0", reach.shape, reach.dtype)
    for k in range(n):
        np.right_shift(reach, W(k), out=step)
        step &= lanes
        step *= fill
        step &= reach[k]
        reach |= step
    return reach.T


def any_reach(
    codes: np.ndarray, n: int, colours: int = 3, ws: Workspace | None = None
) -> np.ndarray:
    """Bit-rows of the dominates relation (reachable in some colour), shape
    (batch, n), in the word type of the packed rows."""
    ws = ws or Workspace()
    reach = closure_rows(decode_rows(codes, n, colours, ws), n, colours, ws).T
    W = reach.dtype.type
    plane = W((1 << n) - 1)
    step = ws.buffer("scratch0", reach.shape, reach.dtype)
    for c in range(1, colours):  # planes above c still hold their own bits
        np.right_shift(reach, W(c * n), out=step)
        step &= plane
        reach |= step
    reach &= plane
    return reach.T


# -- masks -----------------------------------------------------------------------


def rainbow_triangle_mask(
    codes: np.ndarray,
    n: int,
    colours: int = 3,
    require_cyclic: bool = True,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Which instances contain a rainbow (default: cyclic rainbow) triangle.

    No gathers: every slot code becomes its one-hot byte F, and R, the byte
    of the reversed arc, is F with its two 3-bit halves swapped.  A triple
    i < j < k is a cyclic rainbow triangle iff F[ij] | R[ik] | F[jk] is
    0b000111 (i -> j -> k -> i) or 0b111000 (its reverse), that is iff
    R[ik] | F[jk] equals T[ij], the other two bits of F[ij]'s half.  Without
    the cyclic requirement every byte folds to its colour bit
    C = (F | F >> 3) & 7, and the test is C[ik] | C[jk] == 7 ^ C[ij].

    For fixed (i, j) the slots (i, k) and (j, k), k > j, are two contiguous
    runs of pair_slots, so three 2-D operations per pair cover every k: an
    or, an xor with T[ij] that leaves 0 on a hit, and a running minimum.
    Rows go through in chunks whose one-hot bytes fill at most
    ONE_HOT_BYTES, held in "scratch0"; vertex i's runs of R and T go in
    "scratch1", the or and the minimum in "scratch2".
    """
    ws = ws or Workspace()
    B = codes.shape[0]
    found = ws.buffer("rainbow_triangle_mask", (B,), bool)
    if n < 3 or colours < 3:
        found.fill(False)
        return found
    pairs = n * (n - 1) // 2
    chunks = max(1, -(-pairs * B // ONE_HOT_BYTES))
    bounds = [B * c // chunks for c in range(chunks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        _rainbow_rows(codes[lo:hi], n, require_cyclic, ws, found[lo:hi])
    return found


def _rainbow_rows(
    codes: np.ndarray, n: int, require_cyclic: bool, ws: Workspace, found: np.ndarray
) -> None:
    """rainbow_triangle_mask of three colours and n >= 3, into `found`."""
    B = codes.shape[0]
    m = n - 2  # the most vertices k past a pair (i, j)
    one_hot = ws.buffer("scratch0", codes.T.shape, np.uint8)
    np.left_shift(1, codes.T.astype(np.uint8, copy=False), out=one_hot)
    runs = ws.buffer("scratch1", (2, m, B), np.uint8)
    work = ws.buffer("scratch2", (2, m, B), np.uint8)
    either, least = work
    least.fill(0xFF)
    if not require_cyclic:  # F * 9 is F | F << 3 mod 256, so this is C
        one_hot *= 9
        one_hot >>= 3
        one_hot &= 0b111
    for i in range(m):
        first = slot_index(n, i, i + 1)
        near = one_hot[first : first + m - i]  # slots (i, j), j <= n - 2
        far = one_hot[first + 1 : first + 1 + m - i]  # slots (i, k), k >= i + 2
        rev, other = runs[0, : m - i], runs[1, : m - i]
        if require_cyclic:
            spare = either[: m - i]
            np.left_shift(far, 3, out=rev)  # R: the halves of F swapped
            rev &= 0b111000
            np.right_shift(far, 3, out=spare)
            rev |= spare
            np.greater(near, 0b111, out=spare.view(bool))  # F in the upper half
            np.multiply(spare, 0b110001, out=other)
            other += 0b111  # F's half, 7 or 56
            other ^= near  # T
        else:
            rev = far
            np.bitwise_xor(near, 0b111, out=other)
        for j in range(i + 1, n - 1):
            count, r, s = n - 1 - j, j - i - 1, slot_index(n, j, j + 1)
            run = either[:count]
            np.bitwise_or(rev[r : r + count], one_hot[s : s + count], out=run)
            run ^= other[r]
            np.minimum(least[:count], run, out=least[:count])
    np.minimum.reduce(least, axis=0, out=either[0])
    np.equal(either[0], 0, out=found)


def _covered(
    reach: np.ndarray, n: int, ws: Workspace
) -> tuple[np.ndarray, np.integer]:
    """Reach words with each vertex's own bit added, vertex-major (n, batch),
    and the all-vertices word."""
    W = reach.dtype.type
    selfbits = W(1) << np.arange(n, dtype=reach.dtype)
    covered = ws.buffer("scratch0", reach.T.shape, reach.dtype)
    np.bitwise_or(reach.T, selfbits[:, None], out=covered)
    return covered, W((1 << n) - 1)


def dominating_vertex_mask(
    reach: np.ndarray, n: int, ws: Workspace | None = None
) -> np.ndarray:
    """Which instances have a vertex dominating all others."""
    ws = ws or Workspace()
    covered, full = _covered(reach, n, ws)
    flags = ws.buffer("scratch1", covered.shape, bool)
    np.equal(covered, full, out=flags)
    out = ws.buffer("dominating_vertex_mask", (reach.shape[0],), bool)
    return np.logical_or.reduce(flags, axis=0, out=out)


def qualifying_cycle_mask(
    reach: np.ndarray, n: int, ws: Workspace | None = None
) -> np.ndarray:
    """Which instances carry a Hamilton cycle on which every vertex dominates
    exactly the non-predecessors.

    Such a cycle exists iff every vertex fails to dominate exactly one vertex
    and the resulting predecessor map is a single n-cycle; the cycle arcs are
    then forced (u not dominated by v implies the arc u -> v).
    """
    ws = ws or Workspace()
    ok = ws.buffer("qualifying_cycle_mask", (reach.shape[0],), bool)
    if n < 3:
        ok.fill(False)
        return ok
    miss, full = _covered(reach, n, ws)
    np.invert(miss, out=miss)
    miss &= full  # the vertices each vertex does not dominate
    below = ws.buffer("scratch1", miss.shape, miss.dtype)
    np.subtract(miss, 1, out=below)
    np.bitwise_xor(miss, below, out=miss)
    single = ws.buffer("scratch2", miss.shape, bool)
    np.less(below, miss, out=single)  # exactly one bit: m - 1 < m ^ (m - 1)
    np.logical_and.reduce(single, axis=0, out=ok)
    cand = np.flatnonzero(ok)  # the walk runs only where the map exists
    nd = below[:, cand].T + 1  # the one vertex each candidate row misses
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


def cover_order_tiers(
    reach: np.ndarray, n: int, k_max: int = 3, ws: Workspace | None = None
) -> np.ndarray:
    """Smallest covering-set order per instance, exact up to k_max >= 1.

    A set covers when the union of its members' dominated sets plus the
    members themselves is everything.  Returns 0 where no set of order
    <= k_max covers.  Each order tests only the rows no smaller set covers.
    """
    ws = ws or Workspace()
    covered, full = _covered(reach, n, ws)
    flags = ws.buffer("scratch1", covered.shape, bool)
    np.equal(covered, full, out=flags)
    order = ws.buffer("cover_order_tiers", (reach.shape[0],), np.uint8)
    np.logical_or.reduce(flags, axis=0, out=order)
    for size in range(2, min(k_max, n) + 1):
        pend = np.flatnonzero(order == 0)  # rows no smaller set covers
        if not len(pend):
            break
        sub = ws.buffer("scratch1", (n, len(pend)), covered.dtype)
        np.take(covered, pend, axis=1, out=sub)
        union = ws.buffer("scratch2", (len(pend),), covered.dtype)
        hit = np.zeros(len(pend), dtype=bool)
        for first, *rest in combinations(range(n), size):
            np.copyto(union, sub[first])
            for v in rest:
                union |= sub[v]
            hit |= union == full
        order[pend[hit]] = size
    return order


def two_colour_vertices_mask(
    codes: np.ndarray, n: int, colours: int = 3, ws: Workspace | None = None
) -> np.ndarray:
    """Which instances have every vertex incident to at most two colours.

    Row i of a vertex-major accumulator is the or of the one-hot bytes of
    i's slots: for each vertex i, from the last down, one reduction sets it
    from the run of slots (i, k), k > i, and one 2-D or adds that run to the
    rows of the vertices k.  Folding the two orientation halves of a row
    together gives 0b111 when the vertex sees all three colours.
    """
    ws = ws or Workspace()
    B = codes.shape[0]
    by_slot = codes.T.astype(np.uint8, copy=False)
    acc = ws.buffer("scratch1", (n, B), np.uint8)
    spare = ws.buffer("scratch0", (n, B), np.uint8)
    acc[n - 1].fill(0)
    for i in range(n - 2, -1, -1):  # a row's reduction comes before its or-ins
        first = slot_index(n, i, i + 1)
        run = spare[: n - 1 - i]
        np.left_shift(1, by_slot[first : first + n - 1 - i], out=run)
        np.bitwise_or.reduce(run, axis=0, out=acc[i])
        acc[i + 1 :] |= run
    np.right_shift(acc, colours, out=spare)
    acc |= spare
    acc &= (1 << colours) - 1
    flags = spare.view(bool)
    np.equal(acc, 0b111, out=flags)
    out = ws.buffer("two_colour_vertices_mask", (B,), bool)
    np.logical_or.reduce(flags, axis=0, out=out)
    return np.logical_not(out, out=out)
