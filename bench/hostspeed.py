"""Host-speed reference: a fixed kernel timed next to every measurement.

The benchmark's shared 2-core host changes speed by up to 1.7x within
seconds as other tenants load it, which moves every wall time with it.  A
fixed kernel of the same mix as the program (per-row Python loops over
small numpy arrays with float formatting and parsing, large array sorts,
and building and walking small trees of objects) is timed before and after
each measured interval.  The interval is then scaled by NOMINAL_S / (mean
kernel time), which expresses it in seconds at the speed where the kernel
takes NOMINAL_S.  The kernel is benchmark code only, so no
change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.012  # about the kernel time on the 2-core host the benchmark was tuned on
REPEATS = 3

_rng = np.random.default_rng(0)
_ROWS = _rng.random((150, 45))
_BLOCKS = _rng.random((3, 3, 12000))
_LENGTHS = _rng.random(3200).tolist()


class _Node:
    __slots__ = ("name", "length", "children")

    def __init__(self, name, length, children):
        self.name = name
        self.length = length
        self.children = children


def kernel() -> float:
    """About 12 ms of the program's three kinds of work on the reference host."""
    total = 0.0
    for row in _ROWS:  # per-row loop over small arrays, like the per-tree loops
        order = np.argsort(row, kind="stable")
        total += float(row[order[-1]] - row.min())
        text = ",".join(f"{v:.12g}" for v in row[:8])
        total += sum(float(t) for t in text.split(","))
        counts: dict[int, int] = {}
        for k in order[:12].tolist():
            counts[k % 5] = counts.get(k % 5, 0) + 1
        total += len(counts)
    for block in _BLOCKS:  # large gathers and sorts, like the three-point check
        top = np.sort(block[:, np.argsort(block[0], kind="stable")], axis=0)
        total += float(np.max(top[2] - top[1]))
    lengths = iter(_LENGTHS)
    for _ in range(150):  # build and walk small trees of objects, like parsing
        nodes = [_Node(f"t{i}", next(lengths), []) for i in range(10)]
        while len(nodes) > 1:
            nodes = [_Node(None, next(lengths), nodes[i:i + 2]) for i in range(0, len(nodes), 2)]
        stack, depths = [(nodes[0], 0.0)], {}
        while stack:
            node, depth = stack.pop()
            depth += node.length
            if node.children:
                stack.extend((child, depth) for child in node.children)
            else:
                depths[node.name] = depth
        total += max(depths.values())
    return total


def kernel_seconds() -> float:
    """Median of REPEATS timed kernel runs."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scale(before: float, after: float) -> float:
    """Factor turning a wall time bracketed by two kernel timings into nominal seconds."""
    return NOMINAL_S / ((before + after) / 2.0)
