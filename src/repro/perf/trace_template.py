"""Extend a step trace meta-executed at reduced stack depth to full depth.

Every block of a stack (AlphaFold's 48 Evoformer blocks, the transformer's
decoder layers) launches the same kernels, so meta-executing all of them
repeats the same shape propagation.  The trace builder meta-executes each
declared stack (:attr:`repro.workloads.Workload.block_stacks`) cut to
:data:`TEMPLATE_DEPTH` blocks, and :func:`extend_stack` turns those records
into exactly the records a full-depth execution emits.

Method.  Each record of a stack gets its block index relative to the
previous record of that stack: a step of -1, 0 or +1.  After a larger jump
it is indexed from the nearer end instead (the first or the last block).
In that form every pass through the stack (each recycling iteration's
forward, the backward, the ascending pass unfused no-checkpoint policies
end with) has an interior that is one *unit* repeated: a fixed run of
records, scope-less gradient accumulations between blocks included, whose
steps sum to ±1.  Depth 4 leaves at least two copies of the unit in every
pass (depth 3 leaves one in a checkpointed backward, and a unit cannot be
read off one copy).  Inserting ``depth - 4`` more copies into each run and
turning the indices back into absolute ones gives the full trace.

The extension refuses (returns None) when a jump lands on an interior
block, when no repeating run exists, when a rebuilt index leaves
``[0, depth)``, or when the interior blocks end with different record
counts; the caller then meta-executes at full depth, which is also the
oracle the tests hold this module to.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Optional, Sequence

from ..framework.tracer import KernelRecord

#: Blocks per stack the reduced meta-execution runs.
TEMPLATE_DEPTH = 4

# Markers for a stack record indexed from an end after a jump.
_FIRST, _LAST = "first", "last"


def _block_of(scope: str, head: str):
    """``(index, rest)`` when ``scope`` lies in block ``head<index>``,
    else ``(None, None)``."""
    if not scope.startswith(head):
        return None, None
    rest = scope[len(head):]
    cut = rest.find("/")
    digits = rest if cut < 0 else rest[:cut]
    if not digits.isdigit():
        return None, None
    return int(digits), ("" if cut < 0 else rest[cut:])


def _unit_period(keys: List[int], steps: List[int], jumps: List[int],
                 moves: List[int], at: int) -> int:
    """Length of the unit that starts at block move ``moves[at]`` and
    repeats at least once right after it (0 when there is none)."""
    i = moves[at]
    n = len(keys)
    for j in moves[at + 1:]:
        if jumps[j] != jumps[i] or abs(steps[j] - steps[i]) > 1:
            break  # a unit spans no jump and moves the index by one
        p = j - i
        if i + 2 * p > n:
            break
        if (keys[j] == keys[i] and abs(steps[j] - steps[i]) == 1
                and keys[i:j] == keys[j:j + p]):
            return p
    return 0


def extend_stack(records: Sequence[KernelRecord], prefix: str,
                 depth: int) -> Optional[List[KernelRecord]]:
    """The records of a step whose stack ``prefix`` ran
    :data:`TEMPLATE_DEPTH` blocks, extended to ``depth`` blocks.

    Returns None when the reduced records lack the structure the extension
    needs (see the module docstring).
    """
    head = prefix + "."
    n = len(records)
    parsed: dict = {}
    intern: dict = {}
    keys: List[int] = []
    index: List[Optional[int]] = []
    rests: List[Optional[str]] = []
    marks: list = []  # per record: None, a step in (-1, 0, 1), or an end
    prev = None
    for r in records:
        scope = r.scope
        hit = parsed.get(scope)
        if hit is None:
            hit = parsed[scope] = _block_of(scope, head)
        b, rest = hit
        if b is None:
            token = scope
            mark = None
        else:
            step = None if prev is None else b - prev
            if step in (-1, 0, 1):
                mark = step
            elif b == 0:
                mark = _FIRST
            elif b == TEMPLATE_DEPTH - 1:
                mark = _LAST
            else:
                return None  # a jump onto an interior block
            prev = b
            token = (mark, rest)
        index.append(b)
        rests.append(rest)
        marks.append(mark)
        key = (r.name, r.category, r.flops, r.bytes, r.shape, r.dtype, token,
               r.fused, r.phase, r.tunable,
               None if r.tags is None else repr(r.tags))
        keys.append(intern.setdefault(key, len(intern)))

    # Prefix sums: index displacement and jump count before each position.
    steps = [0] + list(accumulate(m if m in (-1, 1) else 0 for m in marks))
    jumps = [0] + list(accumulate(m in (_FIRST, _LAST) for m in marks))
    moves = [i for i, m in enumerate(marks) if m in (-1, 1)]

    runs = []  # (start, period) of each repeating run, in order
    covered = 0
    for at, i in enumerate(moves):
        if i < covered:
            continue
        p = _unit_period(keys, steps, jumps, moves, at)
        if not p:
            continue
        lo = i
        while lo > covered and keys[lo - 1] == keys[lo - 1 + p]:
            lo -= 1
        hi = i + 2 * p
        while hi < n and keys[hi] == keys[hi - p]:
            hi += 1
        runs.append((lo, p))
        covered = hi
    if not runs:
        return None

    # Splice depth - TEMPLATE_DEPTH more copies of each run's first unit in.
    extra = depth - TEMPLATE_DEPTH
    order: List[int] = []
    last = 0
    for lo, p in runs:
        order.extend(range(last, lo))
        order.extend(list(range(lo, lo + p)) * extra)
        last = lo
    order.extend(range(last, n))

    # Rebuild absolute indices.  Records equal up to their block index
    # (same key) and rebuilt into the same block are equal, so they share
    # one object, as records of a trace loaded from the store do.
    out: List[KernelRecord] = []
    counts = [0] * depth
    made: dict = {}
    b = None
    for i in order:
        r = records[i]
        mark = marks[i]
        if mark is None:
            out.append(r)
            continue
        if mark == _FIRST:
            b = 0
        elif mark == _LAST:
            b = depth - 1
        else:  # the first stack record is always indexed from an end
            b += mark
        if not 0 <= b < depth:
            return None
        counts[b] += 1
        if b != index[i]:
            slot = (keys[i], b)
            copy = made.get(slot)
            if copy is None:
                copy = made[slot] = KernelRecord(
                    r.name, r.category, r.flops, r.bytes, r.shape, r.dtype,
                    f"{head}{b}{rests[i]}", r.fused, r.phase, r.tunable,
                    r.tags)
            r = copy
        out.append(r)
    if len(set(counts[1:-1])) > 1:
        return None
    return out
