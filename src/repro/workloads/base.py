"""The :class:`Workload` protocol and the named workload registry.

A *workload* is one trainable model family the simulation stack can run end
to end: it knows how to build its model and loss (in meta or numeric mode),
what a canonical input batch looks like, how its trace is cache-keyed, how
it shards under model parallelism (DAP/tensor-parallel scope hints plus the
collective bundles each step issues), how it converges, and which analysis
thresholds fit its kernel stream.

Every layer above the framework — trace building, cost modeling, the
distributed step simulator, time-to-train, trace lint, the bench harness and
the CLI — consumes workloads only through this protocol and the registry, so
adding a third workload means implementing one subclass and registering it;
nothing in ``perf``/``train``/``analysis`` needs to change.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # imported lazily to keep this module dependency-light
    from ..distributed.dap import CommBundle
    from ..framework.tensor import Tensor
    from ..train.convergence import ConvergenceModel


class Workload:
    """Contract one model family implements to flow through the whole stack.

    Subclasses override the class attributes and the build/batch methods;
    the config plumbing (presets, fingerprints) is generic over any
    dataclass config that carries a ``kernel_policy`` field and exposes
    ``tiny``/``small``/``full`` classmethod presets.
    """

    #: Registry key; also the first component of every trace cache key.
    name: str = ""
    #: The config dataclass with ``tiny``/``small``/``full`` presets.
    config_cls: type = None  # type: ignore[assignment]
    #: Named size presets resolvable via :meth:`preset`.
    presets: Tuple[str, ...] = ("tiny", "small", "full")
    #: Scope prefixes the model-parallel partitioner may shard.
    shardable_scopes: Tuple[str, ...] = ()
    #: Stacks of identical blocks, as (scope prefix, config depth field):
    #: block ``i`` scopes as ``<prefix>.<i>``.  The trace builder
    #: meta-executes each stack at a few blocks and extends it to full
    #: depth; a workload that declares none is meta-executed at full depth.
    block_stacks: Tuple[Tuple[str, str], ...] = ()
    #: Approximate parameter count (checkpoint payload sizing).
    checkpoint_params: int = 0
    #: Data-parallel convergence cap (samples per optimizer step).
    max_batch_size: int = 256
    #: Benchmark-run batch size / quality target / resume point.
    mlperf_batch_size: int = 256
    mlperf_target: float = 0.8
    mlperf_start_samples: float = 0.0
    #: Per-workload trace-lint thresholds (merged under user overrides):
    #: e.g. the TL004 kernel budget, which is calibrated per kernel stream.
    trace_lint_params: Dict[str, object] = {}
    #: Serving: exponent of per-request device work in request length
    #: relative to the preset's canonical length (the fleet model scales
    #: the calibrated forward cost by ``(length / base_length) ** alpha``).
    serve_length_exponent: float = 1.0

    # ------------------------------------------------------------------
    # Configs
    # ------------------------------------------------------------------
    def preset(self, name: str, policy=None):
        """Resolve a named size preset (``tiny``/``small``/``full``)."""
        if name not in self.presets:
            raise ValueError(f"workload {self.name!r} has no preset {name!r}; "
                             f"choose from {list(self.presets)}")
        return getattr(self.config_cls, name)(policy)

    def full_config(self, policy=None):
        return self.preset("full", policy)

    def config_fingerprint(self, cfg) -> Tuple:
        """Hashable (field, value) signature of every model dimension.

        Combined with :attr:`name` this is the workload half of a trace
        cache key, so two workloads (or two sizes of one workload) can
        never alias each other in the memo or the on-disk store.
        """
        return tuple((f.name, getattr(cfg, f.name))
                     for f in dataclasses.fields(cfg)
                     if f.name != "kernel_policy")

    # ------------------------------------------------------------------
    # Model + loss + batch
    # ------------------------------------------------------------------
    def build(self, cfg):
        """Instantiate ``(model, loss_fn)`` for ``cfg``.

        Called inside ``meta_build()`` for trace profiling and outside it
        for numeric execution; implementations must support both.
        """
        raise NotImplementedError

    def meta_batch(self, cfg, dtype) -> Dict[str, "Tensor"]:
        """A shape-only input batch at config sizes."""
        raise NotImplementedError

    def call(self, model, loss_fn, batch, n_recycle: int = 1):
        """Run one forward + loss; returns the scalar loss tensor."""
        outputs = model(batch)
        loss, _ = loss_fn(outputs, batch)
        return loss

    # ------------------------------------------------------------------
    # Parallelism hints
    # ------------------------------------------------------------------
    def dap_comm_bundles(self, cfg, n: int, itemsize: int,
                         checkpointing: bool) -> List["CommBundle"]:
        """Per-boundary collective bundles one step issues when the model
        dimension is sharded ``n`` ways (DAP for AlphaFold, tensor parallel
        for the transformer)."""
        return []

    # ------------------------------------------------------------------
    # Convergence + data pipeline
    # ------------------------------------------------------------------
    def convergence(self) -> "ConvergenceModel":
        """The calibrated quality-vs-samples curve for this workload."""
        raise NotImplementedError

    def prep_time_series(self, seed: int = 5, n: int = 1024) -> np.ndarray:
        """Per-sample host data-preparation seconds (loader stall model)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Serving (prediction requests through repro.serve)
    # ------------------------------------------------------------------
    def serve_length(self, cfg) -> int:
        """Canonical request length of ``cfg`` (residues / tokens) — the
        reference point the fleet model's length scaling is anchored to."""
        raise NotImplementedError

    def sample_request_lengths(self, rng: np.random.Generator,
                               n: int) -> np.ndarray:
        """Draw ``n`` request lengths from the serving traffic
        distribution (what users actually submit, not the training crop)."""
        raise NotImplementedError

    def request_batch(self, cfg, request_id: int) -> Dict[str, "Tensor"]:
        """A *numeric* input batch for one inference request, deterministic
        in ``request_id`` (the broker's CPU feature-prep stage calls this)."""
        raise NotImplementedError

    def infer(self, model, batch):
        """One forward pass, no loss — the serving execution path."""
        return model(batch)

    # ------------------------------------------------------------------
    # Bench
    # ------------------------------------------------------------------
    def bench_scenario_kwargs(self, gpu: str = "H100") -> Dict[str, object]:
        """Scenario kwargs (minus ``workload``) for the golden multi-rank
        estimate this workload contributes to the cross-workload table:
        the ScaleFold system at DAP-8 x DP-8 (64 ranks)."""
        from ..perf.scaling import Scenario  # perf.scaling imports workloads

        scenario = Scenario.scalefold(gpu=gpu, dp_degree=8)
        return {name: getattr(scenario, name) for name in (
            "policy", "gpu", "dap_n", "dp_degree", "cuda_graphs",
            "gc_disabled", "torch_compile", "nonblocking_pipeline")}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Workload {self.name!r}>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
DEFAULT_WORKLOAD = "alphafold"

_REGISTRY: Dict[str, Workload] = {}


def register_workload(workload: Workload) -> Workload:
    """Register a workload under its :attr:`Workload.name`."""
    if not workload.name:
        raise ValueError("workload must define a non-empty name")
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload {workload.name!r}")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: Union[str, Workload]) -> Workload:
    """Look a workload up by registry name (idempotent on instances)."""
    if isinstance(name, Workload):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; registered: {list_workloads()}"
        ) from None


def list_workloads() -> List[str]:
    return sorted(_REGISTRY)


def unregister_workload(name: str) -> Optional[Workload]:
    """Remove a workload (tests only); returns it, or None if absent."""
    return _REGISTRY.pop(name, None)
