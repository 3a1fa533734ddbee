"""ScaleFold reproduction library.

Reproduces "ScaleFold: Reducing AlphaFold Initial Training Time to 10
Hours" (DAC 2024) as a trace-driven performance simulation on a real
numeric substrate.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the paper-vs-measured record.

Quick start::

    from repro import ScaleFold
    print(ScaleFold.scalefold().step_time().total_s)
"""

from .core import (EXPERIMENTS, OPTIMIZATIONS, ExperimentResult, ScaleFold,
                   run_experiment)
from .model import AlphaFold, AlphaFoldConfig, KernelPolicy

__version__ = "1.0.0"

__all__ = [
    "EXPERIMENTS", "OPTIMIZATIONS", "ExperimentResult", "ScaleFold",
    "run_experiment",
    "AlphaFold", "AlphaFoldConfig", "KernelPolicy",
    "__version__",
]
