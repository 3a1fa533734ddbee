"""Dynamic Axial Parallelism (FastFold), applied to measured kernel traces.

DAP-n shards a single sample's Evoformer activations along a non-reductive
axis across n GPUs: MSA ops shard the sequence axis, pair ops shard one
residue axis.  Switching between row-wise and column-wise operators requires
an all-to-all; the outer-product-mean and the pair-bias broadcast require
all-gathers (FastFold §3).  The Structure Module and data pipeline cannot be
sharded ("serial modules", §3.1 of the ScaleFold paper).

:func:`partition_step` takes a single-rank :class:`StepTrace` and produces
the per-rank record list: every kernel inside a shardable scope has its
FLOPs/bytes divided by n (its *shape* also shrinks, so the roofline model
sees the smaller, less efficient workload — the "poor kernel scalability"
barrier), and the collectives the rank must issue sit between the records
as COMM records at their block boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from ..framework.tracer import KernelCategory, KernelRecord
from ..model.config import AlphaFoldConfig
from .collectives import Collective, CommEvent

if TYPE_CHECKING:  # avoid a circular import at runtime (perf -> datapipe
    # -> sim -> distributed -> perf, and workloads -> distributed); both are
    # only types here.
    from ..perf.trace_builder import StepTrace
    from ..workloads.base import Workload

#: Scope prefixes whose kernels DAP shards (the MSA/pair trunk).  Every
#: other scope stays serial (§3.1: the structure module, plus the small
#: embedders and loss, which OpenFold also leaves replicated).
SHARDABLE_SCOPES = (
    "alphafold/evoformer",
    "alphafold/extra_msa_stack",
    "alphafold/template_stack",
)


def _shard_shape(shape: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    """Shrink the leading axis by n (how DAP splits the work)."""
    if not shape:
        return shape
    first = max(shape[0] // n, 1)
    return (first,) + tuple(shape[1:])


def is_shardable(record: KernelRecord,
                 scopes: Tuple[str, ...] = SHARDABLE_SCOPES) -> bool:
    return record.scope.startswith(scopes)


@dataclass
class CommBundle:
    """The collectives issued at one block boundary of one stack.

    ``scope_prefix`` + ``phase`` locate the bundle inside a kernel trace:
    the distributed simulator places it after the block's compute records,
    so communication happens at its *actual trace position* instead of
    being lumped into a single additive term.
    """

    scope_prefix: str
    phase: str  # "forward" | "backward"
    events: List[CommEvent]

    @property
    def payload_bytes(self) -> float:
        return sum(ev.payload_bytes for ev in self.events)


def dap_comm_bundles(cfg: AlphaFoldConfig, n: int, itemsize: int,
                     checkpointing: bool) -> List[CommBundle]:
    """Per-block-boundary collective bundles one step issues under DAP-n.

    Per Evoformer block and direction (fwd/bwd): two all-to-alls for the
    row<->column axis switches of the MSA track, one all-to-all for the pair
    track's triangle-op axis switch, and one all-gather feeding the
    outer-product-mean / pair bias.  Activation checkpointing repeats the
    forward collectives during recompute, so each backward block boundary
    carries two bundles.
    """
    if n <= 1:
        return []
    msa_bytes = cfg.n_seq * cfg.n_res * cfg.c_m * itemsize
    extra_bytes = cfg.n_extra_seq * cfg.n_res * cfg.c_e * itemsize
    pair_bytes = cfg.n_res * cfg.n_res * cfg.c_z * itemsize

    def block_events(track_bytes: float, pair: float) -> List[CommEvent]:
        return [
            # MSA track: row<->column axis switches around the column
            # attention, plus the transition re-shard.
            CommEvent(Collective.ALL_TO_ALL, track_bytes, n),
            CommEvent(Collective.ALL_TO_ALL, track_bytes, n),
            # Pair track: triangle-op axis switches (out/in, start/end).
            CommEvent(Collective.ALL_TO_ALL, pair, n),
            CommEvent(Collective.ALL_TO_ALL, pair, n),
            # Pair-bias / outer-product gathers.
            CommEvent(Collective.ALL_GATHER, pair, n),
            CommEvent(Collective.ALL_GATHER, pair, n),
        ]

    def template_events() -> List[CommEvent]:
        # Template stack: pair-track only.
        return [CommEvent(Collective.ALL_TO_ALL, pair_bytes, n),
                CommEvent(Collective.ALL_GATHER, pair_bytes, n)]

    # fwd once per block; bwd once per block, twice when checkpoint
    # recompute replays the forward collectives.
    backward_passes = 2 if checkpointing else 1
    bundles: List[CommBundle] = []
    stacks = (
        ("alphafold/evoformer", cfg.evoformer_blocks,
         lambda: block_events(msa_bytes, pair_bytes)),
        ("alphafold/extra_msa_stack", cfg.extra_msa_blocks,
         lambda: block_events(extra_bytes, pair_bytes)),
        ("alphafold/template_stack", cfg.template_blocks, template_events),
    )
    for prefix, blocks, make in stacks:
        for _ in range(blocks):
            bundles.append(CommBundle(prefix, "forward", make()))
        for _ in range(blocks * backward_passes):
            bundles.append(CommBundle(prefix, "backward", make()))
    return bundles


def _bundle_record(bundle: CommBundle, dtype: str) -> KernelRecord:
    """A COMM kernel record standing for one collective bundle in a trace."""
    return KernelRecord(
        name="dap_comm_bundle",
        category=KernelCategory.COMM,
        flops=0.0,
        bytes=bundle.payload_bytes,
        shape=(),
        dtype=dtype,
        scope=bundle.scope_prefix,
        fused=False,
        phase=bundle.phase,
        tunable=None,
        tags={"dap_bundle": bundle.events},
    )


def _interleave_bundles(records: List[KernelRecord],
                        bundles: List[CommBundle],
                        dtype: str) -> List[KernelRecord]:
    """Insert one COMM record per bundle at its block boundary.

    Bundles of a (stack, phase) group are spread evenly across that group's
    records: bundle b of k lands after the ceil((b+1)/k)-quantile record —
    i.e. at the end of its block's compute span.  Stacks whose records are
    missing from the trace degrade to the end of the phase.
    """
    groups: dict = {}
    for bundle in bundles:
        groups.setdefault((bundle.scope_prefix, bundle.phase), []).append(bundle)

    phase_last: dict = {}
    for i, r in enumerate(records):
        phase_last[r.phase] = i

    insertions: List[Tuple[int, int, CommBundle]] = []
    order = 0
    for (prefix, phase), group in groups.items():
        idxs = [i for i, r in enumerate(records)
                if r.phase == phase and r.scope.startswith(prefix)]
        if not idxs:
            idxs = [phase_last.get(phase, len(records) - 1)]
        k = len(group)
        span = len(idxs)
        for b, bundle in enumerate(group):
            after = idxs[((b + 1) * span) // k - 1]
            insertions.append((after + 1, order, bundle))
            order += 1
    insertions.sort(key=lambda item: (item[0], item[1]))

    out: List[KernelRecord] = []
    ptr = 0
    for position, _order, bundle in insertions:
        out.extend(records[ptr:position])
        ptr = position
        out.append(_bundle_record(bundle, dtype))
    out.extend(records[ptr:])
    return out


def partition_step(step: "StepTrace", n: int, workload: "Workload",
                   cfg) -> List[KernelRecord]:
    """Shard a single-rank step trace across a model-parallel group of n.

    Records in ``workload.shardable_scopes`` are scaled down by n, and the
    per-block collective bundles of ``workload.dap_comm_bundles(cfg, ...)``
    (DAP for AlphaFold, tensor parallel for the transformer) are
    interleaved as COMM kernel records at their actual trace positions,
    each carrying its :class:`CommEvent` list in ``tags["dap_bundle"]``;
    the distributed step simulator schedules communication there.
    ``cfg`` must be the config ``step`` was traced at, so the bundles are
    sized from the same activations.
    """
    if n < 1:
        raise ValueError("model-parallel degree must be >= 1")
    if n == 1:
        return list(step.trace.records)
    scopes = workload.shardable_scopes
    records: List[KernelRecord] = []
    for r in step.trace.records:
        if is_shardable(r, scopes):
            shard = r.scaled(1.0 / n)
            shard.shape = _shard_shape(r.shape, n)
            records.append(shard)
        else:
            records.append(r)
    policy = step.policy
    bundles = workload.dap_comm_bundles(cfg, n, policy.dtype.itemsize,
                                        policy.activation_checkpointing)
    return _interleave_bundles(records, bundles, policy.dtype.name)
