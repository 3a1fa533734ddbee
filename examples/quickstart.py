#!/usr/bin/env python
"""Quickstart: the three things this library does.

1. Train a (tiny) AlphaFold numerically on synthetic proteins — the real
   model, loss, autograd, and the reference-vs-fused kernel paths.
2. Profile a paper-scale training step (93.8M parameters, ~150k kernel
   launches) via shape-only execution and regenerate Table 1.
3. Simulate the distributed ScaleFold configuration and print the headline
   step times and time-to-train.

Run: python examples/quickstart.py
"""

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # standalone run from a source checkout
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import ScaleFold


def train_tiny() -> None:
    print("=" * 70)
    print("1. Numeric training: tiny AlphaFold on synthetic proteins")
    print("=" * 70)
    sf = ScaleFold.tiny()
    result = sf.train(steps=5, dataset_size=4)
    for record in result.records:
        print(f"  step {record.step}: loss={record.loss:.4f} "
              f"(fape={record.parts['fape']:.4f}, "
              f"grad_norm={record.grad_norm:.4f})")
    first, last = result.losses[0], result.losses[-1]
    print(f"  loss {first:.4f} -> {last:.4f} "
          f"({'improved' if last < first else 'no improvement yet'})")


def profile_full_size() -> None:
    print()
    print("=" * 70)
    print("2. Paper-scale profiling (meta execution) — Table 1")
    print("=" * 70)
    sf = ScaleFold.reference(gpu="A100")
    trace = sf.trace()
    print(f"  model parameters: {trace.n_params / 1e6:.1f}M "
          f"(paper: 97M) in {len(trace.param_shapes)} tensors "
          f"(paper: >4000)")
    print(f"  kernel launches per step: {trace.n_kernels:,} "
          f"(paper: >150,000)")
    table = sf.profile()
    print()
    for line in table.format().splitlines():
        print("  " + line)
    print(f"  simulated step time: {table.total_seconds:.2f}s "
          f"(paper reference: 6.76s on A100)")


def simulate_scalefold() -> None:
    print()
    print("=" * 70)
    print("3. ScaleFold at cluster scale (simulated)")
    print("=" * 70)
    for dap_n, paper in ((1, 1.80), (8, 0.65)):
        est = ScaleFold.scalefold(gpu="H100", dap_n=dap_n).step_time()
        print(f"  H100 DAP-{dap_n}: step {est.total_s:.3f}s "
              f"(paper: {paper}s) — compute {est.compute_s:.3f}s, "
              f"comm {est.dap_comm_s:.3f}s, imbalance {est.imbalance_s:.3f}s")

    run = ScaleFold.scalefold().mlperf_run()
    print(f"  MLPerf HPC OpenFold: {run.total_minutes:.2f} min "
          f"on 2080 H100s (paper: 7.51 min), "
          f"final lDDT {run.curve[-1].lddt:.3f}")

    pretrain = ScaleFold.scalefold().pretraining_sim()
    print(f"  Pretraining from scratch: {pretrain.total_hours:.2f} hours "
          f"(paper: <10 hours)")


if __name__ == "__main__":
    train_tiny()
    profile_full_size()
    simulate_scalefold()
