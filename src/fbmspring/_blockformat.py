"""CSV block formatter: ``'%.17g' %`` of every value of a table, with numpy.

``BlockFormatter.rows`` turns a 2-D float table into CSV lines, in pieces of
``BLOCK_VALUES`` values that it formats in scratch arrays reused from one
piece to the next. Only the CLI's CSV writer imports this module, so a run
that writes no CSV never builds its tables.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: Values per formatted block: sets the size of ``BlockFormatter``'s scratch arrays.
BLOCK_VALUES = 16_384
_U64 = np.uint64
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp splits a double into two 26-bit halves


# Indexed by k = 16 - x for decimal exponents x in -4..16: every 10**k, k <= 22,
# is an exact double; and its two Veltkamp halves.
_POW10 = np.array([float(10**k) for k in range(21)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_QUADS = np.arange(10_000, dtype=np.int64)
_ZEROS4 = sum((_QUADS % 10**i == 0).astype(np.int64) for i in range(1, 5))
# "%04d" of 0..9999 as four ASCII bytes, first digit lowest, and in bits 32 and
# up the number of digits up to the last nonzero one (-16 for 0000).
_GROUP = (sum((_QUADS // 10**(3 - b) % 10 + 48) << (8 * b) for b in range(4))
          | (np.where(_QUADS > 0, 4 - _ZEROS4, -16) << 32))


def _cell_masks() -> list[np.ndarray]:
    """The masks that lay out a cell, one array per mask, row 17 * k + last for exponent x = 16 - k.

    A cell is 26 bytes, NUL where nothing prints, read as three little-endian
    words and two bytes: byte 0 the sign, bytes 1..5 the "0.000" prefix of
    exponents -4..-1, byte 7 the leading digit (digit 0), words 1 and 2
    (``q1``, ``q2``) digits 1..16 and byte 25 the separator. Digits behind
    digit ``last`` are cleared, and the point after digit s = x < ``last``
    moves the digits behind it up one byte, into byte 24 at most.
    """
    k, last = np.divmod(np.arange(21 * 17), 17)
    x = 16 - k
    s = np.where((x >= 0) & (x < last), x, 16)
    low_bytes = np.array([(1 << (8 * b)) - 1 for b in range(9)], dtype=_U64)  # the low b bytes of a word

    def low(b):
        return low_bytes[np.clip(b, 0, 8)]

    def point(at):  # "." at byte ``at`` of a word, and nothing where ``at`` lies outside 0..7
        return np.where((at >= 0) & (at < 8), _U64(ord(".")) << (8 * np.clip(at, 0, 7)).astype(_U64), _U64(0))

    prefix = [int.from_bytes(b"\0" + b"0." + b"0" * (-1 - x), "little") if x < 0 else 0 for x in range(16, -5, -1)]
    keep1, keep2 = low(last), low(last - 8)
    move1, move2 = ~low(s + 1), ~low(s - 7)
    eight, top = _U64(8), _U64(56)
    return [
        np.array(prefix, dtype=_U64)[k],  # word 0: the prefix
        keep1 & low(s),  # word 1: the digits of q1 that stay,
        (keep1 << eight) & move1,  # those that move up a byte,
        point(s),  # and the point
        keep2 & low(s - 8),  # word 2: the same for q2,
        (keep2 << eight) & move2,
        (keep1 >> top) & move2,  # with q1's last digit moving in,
        point(np.where(s < 16, s - 8, -1)),
        np.where(s < 16, keep2 >> top, _U64(0)),  # byte 24: q2's last digit, moved out of word 2
    ]


_PREFIX, _STAY1, _MOVE1, _POINT1, _STAY2, _MOVE2, _CARRY2, _POINT2, _CARRY3 = _cell_masks()


class BlockFormatter:
    """Formats tables as CSV rows, block by block, in scratch arrays it keeps.

    Every block of ``BLOCK_VALUES`` values is formatted in the same arrays,
    written with ``out=``, so the pages a block needs stay mapped from one
    block to the next instead of going back to the kernel and being faulted
    in again. The arrays hold the largest block formatted so far, so a short
    table allocates only what it uses. ``text`` holds one 26-byte cell per
    value, laid out as ``_cell_masks`` says, and ``words`` views it as each
    cell's three words and its last two bytes.
    """

    size = 0

    def rows(self, block: np.ndarray) -> Iterator[bytearray]:
        """``",".join(["%.17g"] * dim) + "\n"`` of each row of a 2-D block, in pieces of ``BLOCK_VALUES`` values."""
        dim = block.shape[1]
        flat = np.ascontiguousarray(block, dtype=np.float64).ravel()
        if self.size < min(flat.size, BLOCK_VALUES):
            self._allocate(min(flat.size, BLOCK_VALUES))
        for start in range(0, flat.size, BLOCK_VALUES):
            yield self._format(flat[start : start + BLOCK_VALUES], start % dim, dim)

    def _allocate(self, size: int) -> None:
        self.size = size
        self.floats = np.empty((7, size))
        self.ints = np.empty((9, size), dtype=np.int64)
        self.flags = np.empty((2, size), dtype=bool)
        self.text = bytearray(26 * size)
        self.cells = np.frombuffer(self.text, dtype=np.uint8).reshape(size, 26)
        self.words = [np.ndarray(size, dtype, self.text, offset, (26,))
                      for dtype, offset in ((_U64, 0), (_U64, 8), (_U64, 16), (np.uint16, 24))]

    def _format(self, values: np.ndarray, column: int, dim: int) -> bytearray:
        """ASCII of at most ``BLOCK_VALUES`` consecutive values of a row-major table of ``dim`` columns.

        ``values[0]`` lies in ``column``; each value is followed by "," or, in
        the last column, by a line feed. ``%.17g`` prints a finite value in
        fixed notation when its decimal exponent x after rounding to 17 digits
        lies in -4..16. For those values and for zeros the digits come from
        integer arithmetic: ``|v| * 10**k``, k = 16 - x, is split exactly into
        a double ``p`` and its error ``t``, rounded half to even as Python's
        ``dtoa`` does, and laid out through the byte tables above. Where ``p``
        lies inside (1e16, 1e17), as it does for almost every value,
        ``log10``'s x is right, ``p`` is even and the digits are
        ``p + rint(t)``, with no carry. Every other nonzero value (exact
        powers of ten, values next to one that ``log10`` misses, nan, inf,
        exponent notation, subnormals) is formatted with ``%`` one at a time
        and spliced in.
        """
        m = values.size
        a, p, t, u, v, w, f = self.floats[:, :m]
        k, n, lead, g1, g2, g3, g4, quad, c = self.ints[:, :m]
        inside, flag = self.flags[:, :m]
        word = [w[:m] for w in self.words]
        np.abs(values, out=a)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # nan, inf and 0 are not inside
            np.log10(a, out=f)
            np.floor(f, out=f)
            np.subtract(16.0, f, out=f)
            np.clip(f, 0.0, 20.0, out=f)
            np.copyto(k, f, casting="unsafe")  # nan casts to any k; its p is not inside
            # p + t = a * 10**k exactly, p the rounded product (Dekker), from Veltkamp halves of a and 10**k
            np.take(_POW10, k, out=u, mode="clip")
            np.multiply(a, u, out=p)
            np.multiply(a, _SPLIT, out=v)
            np.subtract(v, a, out=w)
            np.subtract(v, w, out=v)  # the high half of a
            a -= v  # and its low half
            np.take(_POW10_HI, k, out=u, mode="clip")
            np.take(_POW10_LO, k, out=w, mode="clip")
            np.multiply(v, u, out=t)
            t -= p
            v *= w
            t += v
            u *= a
            t += u
            w *= a
            t += w
            np.greater(p, 1e16, out=inside)
            np.less(p, 1e17, out=flag)
            inside &= flag
            np.rint(t, out=t)
            np.copyto(n, p, casting="unsafe")
            np.copyto(g1, t, casting="unsafe")
        n += g1
        at = np.flatnonzero(np.logical_not(inside, out=flag))
        n[at] = 0  # zeros print as "0", and so do the values % prints until they are spliced in
        k[at] = 16
        slow = at[values[at] != 0.0]  # nan too
        # the 17 digits of n: a leading digit, then four groups of four
        np.floor_divide(n, 10**16, out=lead)
        np.multiply(lead, 10**16, out=g1)
        n -= g1
        np.floor_divide(n, 10**8, out=g2)
        np.multiply(g2, 10**8, out=g1)
        np.subtract(n, g1, out=g4)
        np.floor_divide(g2, 10**4, out=g1)
        np.multiply(g1, 10**4, out=g3)
        g2 -= g3
        np.floor_divide(g4, 10**4, out=g3)
        np.multiply(g3, 10**4, out=n)
        g4 -= n
        # q1, q2: digits 1..8 and 9..16 as ASCII words; c: the layout row 17 * k + last
        q1, q2, h = g1.view(_U64), g3.view(_U64), n.view(_U64)
        np.subtract(16, k, out=c)  # x: the integer digits always print
        np.maximum(c, 0, out=c)
        for low, high, first in ((g1, g2, 0), (g3, g4, 8)):  # q1 from groups 1 and 2, q2 from 3 and 4
            for group, digits in ((low, first), (high, first + 4)):
                np.take(_GROUP, group, out=quad, mode="clip")
                np.right_shift(quad, 32, out=n)
                n += digits
                np.maximum(c, n, out=c)
                if group is low:
                    np.bitwise_and(quad, 0xFFFFFFFF, out=low)
            np.left_shift(quad.view(_U64), _U64(32), out=h)
            np.bitwise_or(low.view(_U64), h, out=low.view(_U64))
        np.multiply(k, 17, out=n)
        c += n
        r, s = g2.view(_U64), g4.view(_U64)
        np.take(_PREFIX, c, out=r, mode="clip")
        np.add(lead, 48, out=lead)
        np.left_shift(lead.view(_U64), _U64(56), out=s)
        r |= s
        np.signbit(values, out=flag)
        np.multiply(flag, _U64(ord("-")), out=s)
        np.bitwise_or(r, s, out=word[0])
        np.take(_STAY1, c, out=r, mode="clip")
        r &= q1
        np.take(_MOVE1, c, out=s, mode="clip")
        np.left_shift(q1, _U64(8), out=h)
        s &= h
        r |= s
        np.take(_POINT1, c, out=s, mode="clip")
        np.bitwise_or(r, s, out=word[1])
        np.take(_STAY2, c, out=r, mode="clip")
        r &= q2
        np.take(_MOVE2, c, out=s, mode="clip")
        np.left_shift(q2, _U64(8), out=h)
        s &= h
        r |= s
        np.take(_CARRY2, c, out=s, mode="clip")
        np.right_shift(q1, _U64(56), out=h)
        s &= h
        r |= s
        np.take(_POINT2, c, out=s, mode="clip")
        np.bitwise_or(r, s, out=word[2])
        np.take(_CARRY3, c, out=r, mode="clip")
        np.right_shift(q2, _U64(56), out=h)
        r &= h
        r |= _U64(ord(",") << 8)
        np.copyto(word[3], r, casting="unsafe")
        word[3][(dim - 1 - column) % dim :: dim] ^= np.uint16((ord(",") ^ ord("\n")) << 8)
        if slow.size:
            spliced = b"".join((b"%.17g" % v).ljust(25, b"\0") for v in values[slow].tolist())
            self.cells[slow, :25] = np.frombuffer(spliced, dtype=np.uint8).reshape(-1, 25)
        # a bytearray keeps its buffer when translate shrinks it, so the heap keeps its pages too
        text = self.text if m == self.size else self.text[: 26 * m]
        return text.translate(None, b"\0")
