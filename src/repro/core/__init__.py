"""ScaleFold public API: facade, experiment registry."""

from .experiments import EXPERIMENTS, ExperimentResult, run_experiment
from .optimizations import OPTIMIZATIONS, Optimization, by_key, format_table
from .report import generate_report, write_report
from .scalefold import ScaleFold

__all__ = [
    "EXPERIMENTS", "ExperimentResult", "run_experiment",
    "OPTIMIZATIONS", "Optimization", "by_key", "format_table", "ScaleFold",
    "generate_report", "write_report",
]
