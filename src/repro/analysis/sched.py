"""DES schedule analyzer: deadlock and lost-wakeup detection.

Consumes the audit-event stream :mod:`repro.sim.des` emits while a
simulation runs (``des.audit(recorder)``) and analyzes the *schedule* —
which process acquired which resource while holding what, and who arrived
at which barrier generation — statically, after the fact:

* ``SC001`` lock-order-cycle — the resource-acquisition-order graph (edge
  ``A -> B`` whenever some process requested B while holding A) contains a
  cycle.  A cycle is a *potential* deadlock even when this particular run
  got lucky with timing — exactly the class of bug a passing simulation
  cannot show.
* ``SC002`` missing-barrier-participant — a barrier generation ended the
  run partially arrived: some ranks reached the sync, at least one never
  did (the "barrier a rank never reaches" stall).
* ``SC003`` starved-acquire — an acquire request that was never granted by
  the end of the run: the holder never released (lost wakeup) or the
  resource is deadlocked.
* ``SC004`` barrier-double-arrival — one process arrived twice in a single
  generation, which can complete the barrier while a real participant is
  still missing (masks SC002).
* ``SC005`` unreleased-hold — a process ended the run still holding a
  resource slot it acquired.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..sim import des
from .findings import Finding, Severity
from .rules import RuleConfig, register_rule

register_rule("SC001", "sched", Severity.ERROR, "lock-order-cycle",
              "The resource-acquisition-order graph contains a cycle: two "
              "processes acquire the same resources in opposite orders "
              "(potential deadlock, even if this run completed).")
register_rule("SC002", "sched", Severity.ERROR, "missing-barrier-participant",
              "A barrier generation ended the run partially arrived; at "
              "least one expected participant never reached the sync.")
register_rule("SC003", "sched", Severity.ERROR, "starved-acquire",
              "An acquire request was never granted: the holder never "
              "released, or the resource is deadlocked.")
register_rule("SC004", "sched", Severity.WARNING, "barrier-double-arrival",
              "One process arrived twice in a single barrier generation, "
              "which can trip the barrier while a real participant is "
              "missing.")
register_rule("SC005", "sched", Severity.WARNING, "unreleased-hold",
              "A process ended the run still holding a resource slot.")


@dataclass
class SchedEvent:
    """One audited scheduling operation (see ``des._audit_event``)."""

    kind: str     # acquire_request | acquire_grant | release |
                  # barrier_arrive | barrier_release
    obj: str      # resource / barrier name
    actor: str    # process name ("" for engine-side events)
    generation: int = -1
    parties: int = -1
    capacity: int = -1
    sim: int = -1  # Simulator.audit_id; one recording may span several runs


class ScheduleRecorder:
    """Collects audit events; install with :meth:`recording`."""

    def __init__(self) -> None:
        self.events: List[SchedEvent] = []

    def __call__(self, event: Dict[str, object]) -> None:
        self.events.append(SchedEvent(
            kind=str(event["kind"]),
            obj=str(event["object"]),
            actor=str(event.get("actor", "")),
            generation=int(event.get("generation", -1)),  # type: ignore[arg-type]
            parties=int(event.get("parties", -1)),        # type: ignore[arg-type]
            capacity=int(event.get("capacity", -1)),      # type: ignore[arg-type]
            sim=int(event.get("sim", -1)),                # type: ignore[arg-type]
        ))

    @contextlib.contextmanager
    def recording(self) -> Iterator["ScheduleRecorder"]:
        with des.audit(self):
            yield self


# ----------------------------------------------------------------------
# Lock-order graph
# ----------------------------------------------------------------------
@dataclass
class _Edge:
    held: str
    wanted: str
    actor: str  # sample process exhibiting the order


def _acquisition_order_edges(events: List[SchedEvent]) -> List[_Edge]:
    held: Dict[str, List[str]] = {}
    edges: Dict[Tuple[str, str], _Edge] = {}
    for ev in events:
        if ev.kind == "acquire_request":
            for h in held.get(ev.actor, ()):  # every held -> wanted order
                if h != ev.obj and (h, ev.obj) not in edges:
                    edges[(h, ev.obj)] = _Edge(h, ev.obj, ev.actor)
        elif ev.kind == "acquire_grant":
            held.setdefault(ev.actor, []).append(ev.obj)
        elif ev.kind == "release":
            holds = held.get(ev.actor, [])
            if ev.obj in holds:
                holds.remove(ev.obj)
    return list(edges.values())


def find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Simple cycles of a ``{node: successors}`` order graph, each rotated
    to start at its smallest node, deduplicated, in discovery order (the
    schedule and the concurrency analyzers share it)."""
    cycles: List[List[str]] = []
    seen: Set[Tuple[str, ...]] = set()

    def canonical(path: List[str]) -> Tuple[str, ...]:
        pivot = min(range(len(path)), key=lambda i: path[i])
        return tuple(path[pivot:] + path[:pivot])

    def dfs(node: str, path: List[str], on_path: Set[str]) -> None:
        for nxt in sorted(graph.get(node, ())):
            if nxt in on_path:
                cycle = path[path.index(nxt):]
                canon = canonical(cycle)
                if canon not in seen:
                    seen.add(canon)
                    cycles.append(list(canon))
                continue
            on_path.add(nxt)
            dfs(nxt, path + [nxt], on_path)
            on_path.remove(nxt)

    for start in sorted(graph):
        dfs(start, [start], {start})
    return cycles


# ----------------------------------------------------------------------
# Analyzer
# ----------------------------------------------------------------------
def analyze_schedule(events: List[SchedEvent],
                     config: Optional[RuleConfig] = None) -> List[Finding]:
    """Run every schedule rule over a recorded event stream.

    A recording may span several independent :class:`~repro.sim.des.Simulator`
    runs that reuse object names (every distributed step names its barrier
    ``"dap-sync"``); accounting happens per run (``SchedEvent.sim``) and
    findings with the same identity across runs are reported once.
    """
    cfg = config or RuleConfig()
    findings: List[Finding] = []
    for sim_id in sorted({ev.sim for ev in events}):
        findings.extend(_analyze_one_run(
            [ev for ev in events if ev.sim == sim_id], cfg))
    out: List[Finding] = []
    seen = set()
    for f in findings:
        fp = f.fingerprint()
        if fp not in seen:
            seen.add(fp)
            out.append(f)
    return out


def _analyze_one_run(events: List[SchedEvent],
                     cfg: RuleConfig) -> List[Finding]:
    out: List[Finding] = []

    # --- SC001: acquisition-order cycles -----------------------------
    edges = _acquisition_order_edges(events)
    by_pair = {(e.held, e.wanted): e for e in edges}
    graph: Dict[str, Set[str]] = {}
    for e in edges:
        graph.setdefault(e.held, set()).add(e.wanted)
    for cycle in find_cycles(graph):
        ring = " -> ".join(cycle + [cycle[0]])
        actors = sorted({by_pair[(a, b)].actor
                         for a, b in zip(cycle, cycle[1:] + [cycle[0]])
                         if (a, b) in by_pair})
        f = cfg.finding(
            "SC001", cycle[0],
            f"acquisition-order cycle {ring} (exhibited by "
            f"{', '.join(actors)})", key="->".join(cycle),
            fix_hint="impose a global acquisition order on these resources")
        if f is not None:
            out.append(f)

    # --- SC003 / SC005: grants and releases accounting ----------------
    pending: Dict[Tuple[str, str], int] = {}   # (actor, obj) -> open requests
    holds: Dict[Tuple[str, str], int] = {}     # (actor, obj) -> held slots
    for ev in events:
        key = (ev.actor, ev.obj)
        if ev.kind == "acquire_request":
            pending[key] = pending.get(key, 0) + 1
        elif ev.kind == "acquire_grant":
            pending[key] = pending.get(key, 0) - 1
            holds[key] = holds.get(key, 0) + 1
        elif ev.kind == "release":
            holds[key] = holds.get(key, 0) - 1
    for (actor, obj), n in sorted(pending.items()):
        if n > 0:
            f = cfg.finding(
                "SC003", obj,
                f"{actor or '<unnamed process>'} has {n} acquire(s) of "
                f"{obj!r} that were never granted by the end of the run",
                key=f"{actor}:{obj}")
            if f is not None:
                out.append(f)
    for (actor, obj), n in sorted(holds.items()):
        if n > 0:
            f = cfg.finding(
                "SC005", obj,
                f"{actor or '<unnamed process>'} still holds {n} slot(s) "
                f"of {obj!r} at the end of the run",
                key=f"{actor}:{obj}",
                fix_hint="release in a finally block so early exits cannot "
                         "leak the slot")
            if f is not None:
                out.append(f)

    # --- SC002 / SC004: barrier participation -------------------------
    arrivals: Dict[str, Dict[int, List[str]]] = {}
    released: Dict[str, Set[int]] = {}
    parties: Dict[str, int] = {}
    for ev in events:
        if ev.kind == "barrier_arrive":
            arrivals.setdefault(ev.obj, {}).setdefault(
                ev.generation, []).append(ev.actor)
            parties[ev.obj] = ev.parties
        elif ev.kind == "barrier_release":
            released.setdefault(ev.obj, set()).add(ev.generation)
            parties[ev.obj] = ev.parties
    for name, gens in sorted(arrivals.items()):
        n_parties = parties.get(name, -1)
        ever = sorted({a for actors in gens.values() for a in actors})
        for gen, actors in sorted(gens.items()):
            dupes = sorted({a for a in actors if actors.count(a) > 1})
            if dupes:
                f = cfg.finding(
                    "SC004", name,
                    f"{', '.join(dupes)} arrived more than once in "
                    f"generation {gen} of barrier {name!r}",
                    key=f"gen{gen}:{','.join(dupes)}")
                if f is not None:
                    out.append(f)
            if gen not in released.get(name, set()):
                missing = sorted(set(ever) - set(actors))
                detail = (f"; participants seen in earlier generations but "
                          f"not here: {', '.join(missing)}" if missing else "")
                f = cfg.finding(
                    "SC002", name,
                    f"barrier {name!r} generation {gen} ended the run with "
                    f"{len(actors)} of {n_parties} arrivals{detail}",
                    key=f"gen{gen}")
                if f is not None:
                    out.append(f)
    return out


def record_and_analyze(run, config: Optional[RuleConfig] = None
                       ) -> Tuple[List[Finding], List[SchedEvent]]:
    """Convenience: run ``run()`` under a recorder, then analyze."""
    recorder = ScheduleRecorder()
    with recorder.recording():
        run()
    return analyze_schedule(recorder.events, config), recorder.events
