"""One scenario per (``batch``, ``ddp_bucket_mb``) cell of the optimizer's
knob space, around a workload's 64-rank bench scenario.

The two-valued rank- and cost-stage knobs (``gpu``, ``cuda_graphs``,
``gc_disabled``) step through their combinations from cell to cell, and
each cell gets its own ``Scenario.seed``.
"""

import itertools
from typing import List

from repro.optimize.space import knob_space
from repro.perf.scaling import Scenario
from repro.workloads import get_workload


def knob_cell_scenarios(model: str) -> List[Scenario]:
    knobs = {k.name: k.values for k in knob_space(model)}
    base = get_workload(model).bench_scenario_kwargs()
    scenarios = []
    cells = itertools.product(knobs["batch"], knobs["ddp_bucket_mb"])
    for i, (batch, bucket_mb) in enumerate(cells):
        scenarios.append(Scenario(workload=model, **dict(
            base, gpu=knobs["gpu"][i % 2],
            cuda_graphs=knobs["cuda_graphs"][i // 2 % 2],
            gc_disabled=knobs["gc_disabled"][i // 4 % 2],
            dp_degree=batch, ddp_bucket_mb=bucket_mb, seed=i)))
    return scenarios
