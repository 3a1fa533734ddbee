"""Workload definitions and the seeded input generators.

``run.py`` and the child processes share this module.  ``run.py`` only
needs call indices; the sweep points come from the scenario optimizer's own
search space, so :func:`block_points` imports ``repro`` when it is called.

A *call* is one ``estimate_step_time`` invocation, identified by its index
``i`` within a run.  ``af-*`` workloads repeat the fixed 64-rank golden
scenario, so every call is the same input whatever the seed.  ``sweep-*``
workloads estimate points of ``repro.optimize.space.knob_space(model)``
around the workload's base scenario: its rank- and cost-stage knobs
(``gpu``, ``batch`` as ``dp_degree``, ``cuda_graphs``, ``gc_disabled``,
``ddp_bucket_mb``) take the optimizer's candidate values, and
``nonblocking_pipeline`` is True, as ``apply_point`` sets it.  Trace- and
partition-stage knobs keep the base's values, so trace, partition and cost
arrays stay cached, as on the optimizer's incremental path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List

#: Search-space stages a sweep varies.
SWEEP_STAGES = ("rank", "cost")

#: Sweep blocks covered by ``golden.json``; a run never goes past them, so
#: every call of a golden seed has a recorded digest.
MAX_SWEEP_BLOCKS = 20
#: Upper bound on ``af-*`` children per run (each is one cold process).
MAX_AF_CHILDREN = 200

#: Seeds whose digests ``--record-golden`` writes: 0 for development, 1
#: held out.
GOLDEN_SEEDS = (0, 1)

#: ``Scenario.seed`` stride between workload seeds: call ``i`` of seed ``s``
#: uses ``1 + s * SCENARIO_SEED_STRIDE + i``, unique within a run, so the
#: step-estimate memo never serves a timed call.
SCENARIO_SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    model: str            # repro workload registry name
    sweep: bool           # knob-space points (True) or the fixed golden call
    private_store: bool   # every child starts with an empty disk store

    @property
    def block(self) -> int:
        """Calls one child makes."""
        return SWEEP_BLOCK if self.sweep else 1

    @property
    def max_blocks(self) -> int:
        return MAX_SWEEP_BLOCKS if self.sweep else MAX_AF_CHILDREN

    @property
    def prefill(self) -> bool:
        """An untimed child fills the shared store before the timed ones."""
        return not self.private_store


#: Why each workload was chosen is in BENCHMARK.json and bench/README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("af-cold", "alphafold", sweep=False, private_store=True),
    Workload("af-warmstore", "alphafold", sweep=False, private_store=False),
    Workload("sweep-alphafold", "alphafold", sweep=True, private_store=False),
    Workload("sweep-transformer", "transformer", sweep=True,
             private_store=False),
)}

#: Points one sweep child estimates: every (batch, bucket) cell of the
#: search space twice, with complementary values of the two-valued knobs,
#: so each candidate value of every knob is in the same share of calls as
#: in the full space.  ``test_sweep_block_is_a_balanced_fraction`` checks
#: that the space still has this shape.
SWEEP_BLOCK = 18


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}") from None


def block_calls(workload: Workload, block: int) -> List[int]:
    """Call indices of one block."""
    return list(range(block * workload.block, (block + 1) * workload.block))


def block_points(model: str) -> List[Dict[str, object]]:
    """The sweep's scenario overrides for one block, in call order.

    The knobs of :data:`SWEEP_STAGES` with more than two candidates form
    the cells; each cell is estimated twice, with complementary values of
    the two-valued knobs, so each of those is balanced within every cell.
    The pattern of the first copy steps through all combinations from cell
    to cell.  Every block is the same points in the same order: the seed
    only sets ``Scenario.seed``, so a run's median does not depend on which
    points a seed drew or on how many blocks fit in it.
    """
    from repro.optimize.space import knob_space

    knobs = [k for k in knob_space(model) if k.stage in SWEEP_STAGES]
    cells = [k for k in knobs if len(k.values) > 2]
    pairs = [k for k in knobs if len(k.values) == 2]
    points = []
    for i, cell in enumerate(itertools.product(*(k.values for k in cells))):
        pattern = i % 2 ** len(pairs)
        for bits in (pattern, ~pattern):
            point: Dict[str, object] = {k.name: v for k, v in zip(cells, cell)}
            point.update((k.name, k.values[(bits >> j) & 1])
                         for j, k in enumerate(pairs))
            point["dp_degree"] = point.pop("batch")
            point["nonblocking_pipeline"] = True
            points.append(point)
    return points


def call_overrides(workload: Workload, seed: int, call: int,
                   points: List[Dict[str, object]]) -> Dict[str, object]:
    """Scenario fields that call ``call`` of ``seed`` sets over the base.

    ``points`` is :func:`block_points` of the workload's model.  ``af-*``
    calls override nothing: they are the golden scenario.
    """
    if not workload.sweep:
        return {}
    overrides = dict(points[call % len(points)])
    overrides["seed"] = 1 + seed * SCENARIO_SEED_STRIDE + call
    return overrides
