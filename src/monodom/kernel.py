"""Vectorized batch evaluation of domination properties.

Campaigns stream instances as uint8 code arrays of shape (batch, pairs),
stored slot-major, and evaluate whole batches at once.  Exhaustive codes
read the free slots in runs of five: the lowest run, periodic in the shard
position, is one slice of a per-scan digit tile; a higher run is repeated
over the stretches on which it is constant, or gathered row by row from a
read-only digit table when the shard modulus comes within STRETCH_ROWS of
its place value.
Sampled batches slice the Philox blocks EnumerationSpec.block_positions
puts their rows in; a scan draws each block once, on its own helper thread,
one block ahead of the batches it evaluates.  The T_3 screen and the vertex
filter gather nothing: slot code x = orientation * 3 + colour becomes the
one-hot byte 1 << x, and the T_3 screen tests every triple i < j < k of one
pair (i, j) for a cyclic rainbow triangle with a few byte operations over
two contiguous runs of slots.
Reachability is bit-sliced: one bit per instance, 64 instances per uint64
word, so each numpy pass settles 64 rows per word.  Bit r % 64 of plane
[c, i, j] word r // 64 is set when row r has i => j in colour c.  Decoding
is one compare and one np.packbits per code value and one gather through a
(colours, n, n) slot table; Warshall closes every colour in n steps of one
broadcast and and one or; the masks read the any-colour planes.  Every
kernel call takes its whole batch in one pass, so its temporaries grow
with the batch.  any_reach returns a Reach, which also shows each row's
relation as n uint64 words, bit j of word i set when i => j: the pure
engine's any_rows, which are Python ints, for oracles and spot checks.
The kernel refuses colours * n > WORD_BITS, as EnumerationSpec does: that
is the range over which it is tested against the engine.

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

from concurrent.futures import Future, ThreadPoolExecutor
from functools import lru_cache
from itertools import combinations
from math import gcd, prod

import numpy as np

from .core import pair_slots, slot_index
from .enumeration import SAMPLE_BLOCK_ROWS, WORD_BITS, EnumerationSpec, sample_block


DIGIT_RUN = 5  # free slots per run: one digit-table column, 6**5 = 7,776 at most
# a higher run is repeated over its stretches when they average at least this
# many rows, and gathered row by row below that: each stretch costs several
# times a gathered row (its bound, its digits, np.repeat), and on 2^15-row
# batches at n=6 and n=7 the two ways break even near 3 rows a stretch
STRETCH_ROWS = 4
WORD_ROWS = 64  # rows per bit-plane word: row r is bit r % 64 of word r // 64


class Workspace:
    """Scratch memory one scan reuses for every batch, and the sample blocks
    it draws.

    `buffer(name, shape, dtype, most)` hands out a contiguous view at the
    start of a grow-only flat byte buffer; the shape's last axis counts
    rows, or plane words of WORD_ROWS rows (`planes`).  A buffer that grows
    makes room for `most` entries of that axis, by default the largest batch
    batch_codes has produced here, so subsets of a batch (T_3-free rows,
    filtered rows) never grow it.  A kernel's result lives in the buffer
    named after the kernel and stays valid until the next call that writes
    that buffer: "planes" holds the colour planes decode_rows writes and
    closure_rows closes in place, "any_reach" the any-colour planes of a
    Reach, and "scratch0".."scratch2" temporaries that no result outlives.
    The T_3 mask writes only its own buffer and the scratch buffers, never
    "any_reach": a scan may call it between any_reach and the masks that
    read the Reach.  "digit_tile" holds the exhaustive scan's lowest-run
    digits (`digit_tile`), built once per scan, at most 5 x (7,776 + 2^15)
    bytes, about 0.2 MB, with 2^15-row batches.

    A sampled scan reading shard positions below `stop` draws each block
    it touches once, through the last row the scan needs from it.  Every
    draw goes to the scan's one-thread `pool` and its result is taken when
    the block is needed, so the helper draws the next block while the scan
    evaluates the current one.  At most two blocks are alive: the one the
    scan is in, copied into the "sample_block" buffer, and the one being
    drawn (`ahead`).  Without a pool (direct batch_codes calls) draws run
    in the caller.  One workspace serves one scan.
    """

    def __init__(self, stop: int = 0, pool: ThreadPoolExecutor | None = None):
        self.stop = stop  # shard positions [0, stop) bound the scan's draws
        self.pool = pool
        self.rows = 0  # rows of the largest batch so far
        self.buffers: dict[str, np.ndarray] = {}
        self.block: tuple | None = None  # (spec, block, stop) of the held digits
        self.digits: np.ndarray | None = None  # a view of the "sample_block" buffer
        self.ahead: tuple | None = None  # ((spec, block, stop), future) of the next draw
        self.tile: tuple | None = None  # (base, width, k, m, columns) of the "digit_tile" buffer
        self._ramp = np.arange(0, dtype=np.uint64)

    def buffer(
        self, name: str, shape: tuple[int, ...], dtype, most: int | None = None
    ) -> np.ndarray:
        dtype = np.dtype(dtype)
        row_bytes = dtype.itemsize * prod(shape[:-1])
        nbytes = row_bytes * shape[-1]
        flat = self.buffers.get(name)
        if flat is None or flat.size < nbytes:
            self.buffers.pop(name, None)  # free the old buffer before the new one
            most = self.rows if most is None else most
            flat = np.empty(max(nbytes, row_bytes * most), dtype=np.uint8)
            self.buffers[name] = flat
        return flat[:nbytes].view(dtype).reshape(shape)

    def planes(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A bit-plane buffer: uint64, its last axis counts words of WORD_ROWS
        rows, with room for the words of self.rows rows."""
        return self.buffer(name, shape, np.uint64, _plane_words(self.rows))

    def ramp(self, size: int) -> np.ndarray:
        """0, 1, ..., size - 1 as uint64 (read-only)."""
        if len(self._ramp) < size:
            self._ramp = np.arange(max(size, self.rows), dtype=np.uint64)
            self._ramp.flags.writeable = False
        return self._ramp[:size]

    def digit_tile(
        self, base: int, width: int, k: int, m: int, start: int, size: int
    ) -> np.ndarray | None:
        """The lowest run's digits at shard positions start .. start + size - 1
        of shard k of m, digit j of `width` in row j, or None when the period
        is wider than self.rows (gathering then costs less).  They are one
        contiguous slice of a tile whose column p < period + self.rows holds
        the digits of (k + p * m) % base**width: the columns repeat every
        base**width / gcd(m, base**width) <= base**width positions.

        Built from one period and copied onward, into the "digit_tile"
        buffer, when the shard, the width or the column count changes; at
        most 5 x (7,776 + 2^15) bytes in a scan of 2^15-row batches."""
        radix = base**width
        k, m = k % radix, m % radix  # a shard's k and m can pass 2**63
        period = radix // gcd(m, radix)
        if period > self.rows:
            return None
        columns = period + self.rows
        key = (base, width, k, m, columns)
        tile = self.buffer("digit_tile", (width, columns), np.uint8, columns)
        if self.tile != key:
            values = (k + np.arange(period, dtype=np.int64) * m) % radix
            tile[:, :period] = np.take(_digit_table(base, width), values, axis=1)
            filled = period
            while filled < columns:  # a whole number of periods, doubled each pass
                step = min(filled, columns - filled)
                tile[:, filled : filled + step] = tile[:, :step]
                filled += step
            self.tile = key
        return tile[:, start % period :][:, :size]

    def holds(self, name: str, array: np.ndarray) -> bool:
        return name in self.buffers and np.may_share_memory(self.buffers[name], array)

    def sample_block(self, spec: EnumerationSpec, block: int, stop: int) -> np.ndarray:
        """Digits of sample block `block`, drawn through the last row of
        shard positions [0, max(stop, self.stop)) in it; the spec's
        block_positions says which positions lie in a block.

        The block is taken from the draw submitted ahead of it, or else
        from one submitted now, and copied into the "sample_block" buffer
        over the previous block.  Then the draw of the next block holding
        one of those positions is submitted, so one block is drawn ahead
        and none that the positions skip.

        The copy frees each drawn array before the next draw allocates
        one, so the helper's heap holds one block at a time and every draw
        reuses the same memory.  Kept alive until the next block was
        taken, two drawn arrays took turns in that heap, and a small
        allocation of the helper could split the hole one left; from then
        on every block needed fresh memory, and peak RSS rose by a further
        block in most 28-second runs of the sampled-n9 benchmark.
        """
        stop = max(stop, self.stop)
        key = (spec, block, stop)
        if self.block != key:
            self.block = self.digits = None
            ahead, future = self.ahead or (None, None)
            self.ahead = None
            if ahead != key:
                future = self._draw(spec, block, stop)
            drawn = future.result()
            flat = self.buffer("sample_block", (drawn.size,), np.uint8, drawn.size)
            self.digits = flat.reshape(drawn.shape)
            np.copyto(self.digits, drawn)
            del drawn, future  # the drawn array dies before the next draw allocates one
            self.block = key
            following = spec.block_positions(block).stop  # the first position past the block
            if following < stop:  # a modulus above 65536 can step over block + 1
                following = spec.index(following) // SAMPLE_BLOCK_ROWS
                self.ahead = (spec, following, stop), self._draw(spec, following, stop)
        return self.digits

    def _draw(self, spec: EnumerationSpec, block: int, stop: int) -> Future:
        last = min(spec.block_positions(block).stop, stop) - 1  # its last position below stop
        args = spec, block, spec.index(last) % SAMPLE_BLOCK_ROWS + 1
        if self.pool is not None:
            return self.pool.submit(sample_block, *args)
        drawn = Future()
        drawn.set_result(sample_block(*args))
        return drawn


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

    Exhaustive mode reads the free slots in runs of DIGIT_RUN, whose value
    at row p is (k + (start + p) * m) // place % radix, three ways:
    - the lowest run (place 1) is periodic in the shard position, so it is
      one contiguous slice of the workspace's digit_tile, if it has one;
    - a higher run with m < place takes consecutive values, each on a
      stretch of about place / m rows; where the stretches average at least
      STRETCH_ROWS rows, the digits of those ~size * m / place values come
      from the read-only digit table and np.repeat spreads them over their
      stretches;
    - any other run, m >= place / STRETCH_ROWS or a lowest run without a
      tile, has a value every row or few rows: the indices are divided
      once per run and every row's digits gathered from the table.
    In sampled mode a sample block's rows of shard k of m (its
    block_positions) are every m-th row of it; the scan's workspace draws
    each block once, one block ahead on the scan's helper thread.  Without
    one the call draws each block it touches, through the last row it
    needs, in the caller.
    Positions outside [0, spec.shard_size()) raise ValueError.
    """
    positions = spec.shard_size()
    if start < 0 or size < 0 or start + size > positions:
        raise ValueError(f"positions [{start}, {start + size}) lie outside the shard "
                         f"of {positions} positions")
    ws = ws or Workspace()
    ws.rows = max(ws.rows, size)
    k, m = spec.shard
    P = len(pair_slots(spec.n))
    out = ws.buffer("batch_codes", (P, size), np.uint8)
    for s, code in spec.pinned.items():
        out[s] = code
    free = spec.free_slots
    if not free or not size:
        return out.T
    if spec.mode == "sampled":
        slots = slice(None) if len(free) == P else np.array(free, dtype=np.intp)
        position, stop = start, start + size
        while position < stop:
            block, first = divmod(spec.index(position), SAMPLE_BLOCK_ROWS)
            end = min(spec.block_positions(block).stop, stop)
            # no view of a block outlives its copy, so that a "sample_block"
            # buffer that grows for the next block frees the old one
            out[slots, position - start : end - start] = ws.sample_block(
                spec, block, stop)[first::m][: end - position].T
            position = end
        return out.T
    # runs of DIGIT_RUN free slots, lowest first: index x's digits in a run
    # of place value `place` are those of x // place % base**len(run)
    base, first = spec.base, spec.index(start)  # first: the batch's first index
    runs = [free[lo : lo + DIGIT_RUN] for lo in range(0, len(free), DIGIT_RUN)]
    place, idx = 1, None
    for run in runs:
        radix = base ** len(run)
        table = _digit_table(base, len(run))
        tile = ws.digit_tile(base, len(run), k, m, start, size) if place == 1 else None
        if tile is not None:
            for j, s in enumerate(run):
                out[s] = tile[j]
        elif STRETCH_ROWS * m <= place:
            # the value x // place steps by at most 1 a row: the batch meets
            # the ~size * m / place values from `value` on in stretches, and
            # stretch v starts at the first row with x >= (value + v) * place
            value, past = divmod(first, place)
            count = (first + (size - 1) * m) // place - value + 1
            bounds = np.arange(count + 1, dtype=np.int64) * place
            bounds += m - 1 - past
            bounds //= m  # ceil((v * place - past) / m)
            bounds[0], bounds[-1] = 0, size
            counts = bounds[1:] - bounds[:-1]
            # wrap mode steps an index down by radix at a time: start below it
            lowest = value % radix
            digits = np.take(table, np.arange(lowest, lowest + count), axis=1, mode="wrap")
            for j, s in enumerate(run):
                out[s] = np.repeat(digits[j], counts)
        else:
            # every row its own value: divide out place, then gather; exact
            # below EnumerationSpec's INDEX_LIMIT = 2**63, and a modulus past
            # the space leaves one row
            if idx is None:
                idx, chunk, rest = (ws.buffer(f"scratch{i}", (size,), np.uint64) for i in range(3))
                if size > 1:
                    np.multiply(ws.ramp(size), np.uint64(m), out=idx)
                else:
                    idx.fill(0)
                idx += np.uint64(first)
                idx //= np.uint64(place)
            np.floor_divide(idx, np.uint64(radix), out=rest)
            np.multiply(rest, np.uint64(radix), out=chunk)
            np.subtract(idx, chunk, out=chunk)
            digits, idx, rest = chunk.view(np.intp), rest, idx
            for j, s in enumerate(run):
                table[j].take(digits, out=out[s])
        place *= radix
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


def _check_word(n: int, colours: int) -> None:
    """Refuse colours * n > WORD_BITS: the range tested against the engine."""
    bits = colours * n
    if bits > WORD_BITS:
        raise ValueError(
            f"colours * order = {bits} exceeds the kernel's {WORD_BITS}-bit word"
        )


def _plane_words(rows: int) -> int:
    """Words of a bit plane holding `rows` rows."""
    return -(-rows // WORD_ROWS)


class Reach:
    """The dominates relation of a batch (reachable in some colour) as bit
    planes: bit r % 64 of planes[i, j, r // 64] is set when row r has a
    monochromatic path i => j of length >= 1.  Bits past the last row are 0.

    The masks read the planes.  The word view serves oracles and spot
    checks: reach[row] is that row's n reach words (bit j of word i set
    when i => j), reach[row, x] one of them, and np.asarray(reach) all of
    them, shape (rows, n), as uint64.
    """

    __slots__ = ("planes", "rows")

    def __init__(self, planes: np.ndarray, rows: int):
        self.planes, self.rows = planes, rows

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, len(self.planes)

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, key):
        row, *rest = key if isinstance(key, tuple) else (key,)
        rows = np.arange(self.rows)[row]
        words = self._words(np.atleast_1d(rows))
        return (words[0] if np.ndim(rows) == 0 else words)[tuple(rest)]

    def __array__(self, dtype=None, copy=None):
        words = self._words(np.arange(self.rows))
        return words if dtype is None else words.astype(dtype)

    def _words(self, rows: np.ndarray) -> np.ndarray:
        word, bit = np.divmod(rows, WORD_ROWS)
        bits = self.planes[:, :, word] >> bit.astype(np.uint64) & np.uint64(1)
        bits <<= np.arange(len(self.planes), dtype=np.uint64)[:, None]
        return np.bitwise_or.reduce(bits, axis=1).T


@lru_cache(maxsize=None)
def _slot_table(n: int, colours: int) -> np.ndarray:
    """Row of the packed code planes that adjacency plane [c, i, j] copies:
    code c of slot (i, j) when i < j, code colours + c of slot (j, i) when
    i > j, and on the diagonal the zero row past all of them."""
    slots = pair_slots(n)
    P = len(slots)
    table = np.full((colours, n, n), 2 * colours * P, dtype=np.intp)
    for s, (i, j) in enumerate(slots):
        for c in range(colours):
            table[c, i, j] = c * P + s
            table[c, j, i] = (colours + c) * P + s
    table.flags.writeable = False
    return table


def decode_rows(
    codes: np.ndarray, n: int, colours: int = 3, ws: Workspace | None = None
) -> np.ndarray:
    """Adjacency planes, shape (colours, n, n, words): bit r % 64 of
    [c, i, j, r // 64] is set when row r has the arc i -> j in colour c.

    Each code value takes one compare over the slot-major codes and one
    np.packbits along the rows, which gives one packed plane per slot; one
    gather through a cached (colours, n, n) slot table lays them out.
    Codes must lie below 2 * colours, as every code array batch_codes or
    ColouredTournament.to_codes makes does: a larger code sets no bit.
    """
    ws = ws or Workspace()
    _check_word(n, colours)
    table = _slot_table(n, colours)
    B, P = codes.shape
    W = _plane_words(B)
    packed = ws.planes("scratch1", (2 * colours * P + 1, W))
    packed_bytes = packed.view(np.uint8)
    full = -(-B // 8)  # bytes np.packbits fills per plane
    packed_bytes[:, full:] = 0  # a reused buffer holds the previous batch
    packed_bytes[-1] = 0
    equal = ws.buffer("scratch0", (P, B), bool)
    for code in range(2 * colours):
        np.equal(codes.T, code, out=equal)
        packed_bytes[code * P : (code + 1) * P, :full] = np.packbits(equal, axis=1, bitorder="little")
    planes = ws.planes("planes", table.shape + (W,))
    np.take(packed, table.reshape(-1), axis=0, out=planes.reshape(table.size, W), mode="clip")
    return planes


def closure_rows(
    adj: np.ndarray, n: int, colours: int = 3, ws: Workspace | None = None
) -> np.ndarray:
    """Reachability planes (paths of length >= 1) of adjacency planes.

    Warshall in n steps, each one broadcast and and one or over every
    colour at once: for each k, [c, i, j] gains [c, i, k] & [c, k, j].
    Planes that decode_rows wrote into the same workspace are closed in
    place.
    """
    ws = ws or Workspace()
    reach = ws.planes("planes", adj.shape)
    if reach.__array_interface__ != adj.__array_interface__:
        np.copyto(reach, adj)
    step = ws.planes("scratch2", adj.shape)
    for k in range(n):
        np.bitwise_and(reach[:, :, k, None], reach[:, None, k], out=step)
        reach |= step
    return reach


def any_reach(
    codes: np.ndarray, n: int, colours: int = 3, ws: Workspace | None = None
) -> Reach:
    """The dominates relation (reachable in some colour) of every row:
    decode_rows and closure_rows over the whole batch, then the colour
    planes or-ed into the result's planes."""
    ws = ws or Workspace()
    B = codes.shape[0]
    reach = closure_rows(decode_rows(codes, n, colours, ws), n, colours, ws)
    out = ws.planes("any_reach", (n, n, _plane_words(B)))
    np.bitwise_or.reduce(reach, axis=0, out=out)
    return Reach(out, B)


# -- masks -----------------------------------------------------------------------


def rainbow_triangle_mask(
    codes: np.ndarray, n: int, colours: int = 3, ws: Workspace | None = None
) -> np.ndarray:
    """Which instances contain a T_3, a cyclic rainbow triangle.  With fewer
    than three colours no triangle is rainbow.

    No gathers: every slot code becomes its one-hot byte F, and R, the byte
    of the reversed arc, is F with its two 3-bit halves swapped.  A triple
    i < j < k is a cyclic rainbow triangle iff F[ij] | R[ik] | F[jk] is
    0b000111 (i -> j -> k -> i) or 0b111000 (its reverse), that is iff
    R[ik] | F[jk] equals T[ij], the other two bits of F[ij]'s half.

    For fixed (i, j) the slots (i, k) and (j, k), k > j, are two contiguous
    runs of pair_slots, so three 2-D operations per pair cover every k: an
    or, an xor with T[ij] that leaves 0 on a hit, and a running minimum.
    The batch's one-hot bytes go in "scratch0", vertex i's runs of R and T
    in "scratch1", the or and the minimum in "scratch2".
    """
    ws = ws or Workspace()
    B = codes.shape[0]
    found = ws.buffer("rainbow_triangle_mask", (B,), bool)
    if n < 3 or colours < 3:
        found.fill(False)
        return found
    m = n - 2  # the most vertices k past a pair (i, j)
    one_hot = ws.buffer("scratch0", codes.T.shape, np.uint8)
    np.left_shift(1, codes.T.astype(np.uint8, copy=False), out=one_hot)
    runs = ws.buffer("scratch1", (2, m, B), np.uint8)
    work = ws.buffer("scratch2", (2, m, B), np.uint8)
    either, least = work
    least.fill(0xFF)
    for i in range(m):
        first = slot_index(n, i, i + 1)
        near = one_hot[first : first + m - i]  # slots (i, j), j <= n - 2
        far = one_hot[first + 1 : first + 1 + m - i]  # slots (i, k), k >= i + 2
        rev, other, spare = runs[0, : m - i], runs[1, : m - i], either[: m - i]
        np.left_shift(far, 3, out=rev)  # R: the halves of F swapped
        rev &= 0b111000
        np.right_shift(far, 3, out=spare)
        rev |= spare
        np.greater(near, 0b111, out=spare.view(bool))  # F in the upper half
        np.multiply(spare, 0b110001, out=other)
        other += 0b111  # F's half, 7 or 56
        other ^= near  # T
        for j in range(i + 1, n - 1):
            count, r, s = n - 1 - j, j - i - 1, slot_index(n, j, j + 1)
            run = either[:count]
            np.bitwise_or(rev[r : r + count], one_hot[s : s + count], out=run)
            run ^= other[r]
            np.minimum(least[:count], run, out=least[:count])
    np.minimum.reduce(least, axis=0, out=either[0])
    return np.equal(either[0], 0, out=found)


ALL_ROWS = ~np.uint64(0)  # a plane word with every row's bit set


def _covered(reach: Reach, ws: Workspace) -> np.ndarray:
    """The reach planes with each vertex covering itself: plane [i, i] all
    ones, padding bits included."""
    covered = ws.planes("scratch0", reach.planes.shape)
    np.copyto(covered, reach.planes)
    diagonal = np.arange(len(covered))
    covered[diagonal, diagonal] = ALL_ROWS
    return covered


def _dominating(covered: np.ndarray, ws: Workspace) -> np.ndarray:
    """The plane of the rows in which some vertex dominates all others,
    from the _covered planes."""
    n, W = covered.shape[1:]
    every = ws.planes("scratch1", (n + 1, W))
    np.bitwise_and.reduce(covered, axis=1, out=every[:n])  # vertex i covers all
    return np.bitwise_or.reduce(every[:n], axis=0, out=every[n])


def _unpack(plane: np.ndarray, rows: int, out: np.ndarray) -> np.ndarray:
    """Bits 0 .. rows-1 of a plane into `out`, one byte per row."""
    bits = np.unpackbits(plane.view(np.uint8), count=rows, bitorder="little")
    np.copyto(out.view(np.uint8), bits)
    return out


def dominating_vertex_mask(reach: Reach, n: int, ws: Workspace | None = None) -> np.ndarray:
    """Which instances have a vertex dominating all others."""
    ws = ws or Workspace()
    out = ws.buffer("dominating_vertex_mask", (reach.rows,), bool)
    return _unpack(_dominating(_covered(reach, ws), ws), reach.rows, out)


def qualifying_cycle_mask(reach: Reach, n: int, ws: Workspace | None = None) -> np.ndarray:
    """Which instances carry a Hamilton cycle on which every vertex dominates
    exactly the non-predecessors.

    Such a cycle exists iff every vertex fails to dominate exactly one vertex
    and the resulting predecessor map is a single n-cycle; the cycle arcs are
    then forced (u not dominated by v implies the arc u -> v).  Two plane
    accumulators settle "misses exactly one" for every row at once, and the
    predecessor walk runs only on the rows that pass.
    """
    ws = ws or Workspace()
    ok = ws.buffer("qualifying_cycle_mask", (reach.rows,), bool)
    if n < 3:
        ok.fill(False)
        return ok
    miss = _covered(reach, ws)
    np.invert(miss, out=miss)  # [i, j]: i does not dominate j
    accumulators = ws.planes("scratch1", (3,) + miss.shape[1:])
    once, twice, both = accumulators
    accumulators[:2].fill(0)
    for j in range(n):
        np.bitwise_and(once, miss[:, j], out=both)
        twice |= both
        once |= miss[:, j]
    np.invert(twice, out=twice)
    once &= twice  # vertex i misses exactly one vertex
    np.bitwise_and.reduce(once, axis=0, out=both[0])
    cand = np.flatnonzero(_unpack(both[0], reach.rows, ok))
    word, bit = np.divmod(cand, WORD_ROWS)
    bits = miss[:, :, word] >> bit.astype(np.uint64) & np.uint64(1)
    pred = np.argmax(bits, axis=1).T.astype(np.int8)  # the one vertex each misses
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
    reach: Reach, n: int, k_max: int = 3, ws: Workspace | None = None
) -> np.ndarray:
    """Smallest covering-set order per instance, exact up to k_max >= 1.

    A set covers when the union of its members' dominated sets plus the
    members themselves is everything.  Returns 0 where no set of order
    <= k_max covers.  Each order runs only while some row is uncovered.
    """
    ws = ws or Workspace()
    B = reach.rows
    hit, one, covers = ws.planes("scratch2", (3, reach.planes.shape[-1]))
    covered = _covered(reach, ws)
    np.copyto(covers, _dominating(covered, ws))  # rows some smaller set covers
    order = ws.buffer("cover_order_tiers", (B,), np.uint8)
    _unpack(covers, B, order)
    union = ws.planes("scratch1", covered.shape[1:])
    for size in range(2, min(k_max, n) + 1):
        if order.all():
            break
        hit.fill(0)
        for first, *rest in combinations(range(n), size):
            np.bitwise_or(covered[first], covered[rest[0]], out=union)
            for v in rest[1:]:
                union |= covered[v]
            np.bitwise_and.reduce(union, axis=0, out=one)
            hit |= one
        np.invert(covers, out=one)
        one &= hit  # rows this order covers first
        covers |= hit
        order[np.unpackbits(one.view(np.uint8), count=B, bitorder="little").view(bool)] = size
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
