"""A stdlib-only embedder written from the README wire contract: the tests' oracle.

It imports nothing from lsblab. It walks the visiting order one pixel (lsbm)
or one pair (lsbmr) at a time on a plain 2-D list, so every open step reads
its 3x3 neighbors live, with bounds checks, after all earlier changes.
"""

import random


def visiting_order(n, seed, traversal):
    """raster visits 0..n-1; permuted is random.Random(seed).shuffle of that list."""
    order = list(range(n))
    if traversal == "permuted":
        random.Random(seed % 2**64).shuffle(order)
    return order


def framed(bits):
    """The payload bit count as 32 big-endian bits, then the payload."""
    return [int(b) for b in format(len(bits), "032b")] + [int(b) for b in bits]


def f_pair(y1, y2):
    return ((y1 >> 1) + y2) & 1


def vote(grid, y, x, threshold):
    """(down sum, up sum) over the in-bounds neighbors n of c with |c - n| < threshold."""
    c = grid[y][x]
    down = up = 0
    for ny in (y - 1, y, y + 1):
        for nx in (x - 1, x, x + 1):
            if (ny, nx) != (y, x) and 0 <= ny < len(grid) and 0 <= nx < len(grid[0]):
                d = c - grid[ny][nx]
                if abs(d) < threshold:
                    down += abs(d - 1)
                    up += abs(d + 1)
    return down, up


def embed(rows, bits, method, seed, traversal="raster", threshold=4):
    """The stego rows for a cover given as rows of ints, under one of the four methods."""
    grid = [list(row) for row in rows]
    width = len(grid[0])
    coins = random.Random(seed % 2**64)

    def open_step(idx):
        y, x = divmod(idx, width)
        c = grid[y][x]
        if c in (0, 255):
            step = 1 if c == 0 else -1
        else:
            down, up = vote(grid, y, x, threshold) if method.endswith("_improved") else (0, 0)
            if down != up:
                step = 1 if up < down else -1
            else:
                step = 1 if coins.getrandbits(1) else -1
        grid[y][x] = c + step

    def value(idx):
        return grid[idx // width][idx % width]

    def put(idx, v):
        grid[idx // width][idx % width] = v

    message = framed(bits)
    order = visiting_order(len(grid) * width, seed, traversal)
    if not method.startswith("lsbmr"):
        for idx, bit in zip(order, message):
            if value(idx) & 1 != bit:
                open_step(idx)
        return grid
    if len(message) % 2:
        message.append(0)
    for i1, i2, s1, s2 in zip(order[0::2], order[1::2], message[0::2], message[1::2]):
        y1, y2 = value(i1), value(i2)
        if y1 & 1 == s1:
            if f_pair(y1, y2) != s2:
                open_step(i2)
        elif y1 > 0 and f_pair(y1 - 1, y2) == s2:
            put(i1, y1 - 1)
        elif y1 < 255 and f_pair(y1 + 1, y2) == s2:
            put(i1, y1 + 1)
        else:  # saturated y1: step inward, which flips f, and let y2 flip it back
            put(i1, 1 if y1 == 0 else 254)
            open_step(i2)
    return grid
