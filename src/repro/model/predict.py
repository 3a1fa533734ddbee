"""Inference: predict structures with a trained model and write PDB files.

The downstream artifact of any folding system is a structure file.  This
module runs the model forward (with recycling), extracts CA coordinates and
per-residue confidence (pLDDT), and serializes a CA-trace PDB — enough for
visualization tools and for round-trip tests.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..framework import no_grad
from ..framework.tensor import Tensor
from .alphafold import AlphaFold
from .metrics import lddt_ca

#: Amino-acid three-letter codes indexed by our synthetic aatype ids.
AA3 = ("ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS", "ILE",
       "LEU", "LYS", "MET", "PHE", "PRO", "SER", "THR", "TRP", "TYR", "VAL")


@dataclass
class Prediction:
    """One predicted structure."""

    ca_coords: np.ndarray          # (N, 3)
    plddt: np.ndarray              # (N,) in [0, 100]
    aatype: np.ndarray             # (N,) int
    lddt_vs_true: Optional[float] = None

    @property
    def n_res(self) -> int:
        return self.ca_coords.shape[0]

    @property
    def mean_plddt(self) -> float:
        return float(self.plddt.mean())


def plddt_from_logits(logits: np.ndarray) -> np.ndarray:
    """Expected lDDT (x100) from binned pLDDT-head logits.

    Standard AF2 post-processing: softmax over bins, expectation against
    bin centers.
    """
    n_bins = logits.shape[-1]
    centers = (np.arange(n_bins) + 0.5) / n_bins
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    return 100.0 * probs @ centers


def predict(model: AlphaFold, batch: Dict[str, Tensor],
            n_recycle: Optional[int] = None) -> Prediction:
    """Run inference on one sample."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            out = model(batch, n_recycle=n_recycle)
    finally:
        model.train(was_training)
    coords = out["positions"].numpy().astype(np.float64)
    plddt = plddt_from_logits(out["plddt_logits"].numpy().astype(np.float64))
    aatype = batch["target_feat"].numpy().argmax(-1).astype(np.int64)
    lddt = None
    if "ca_coords" in batch and not batch["ca_coords"].is_meta:
        lddt = float(lddt_ca(coords, batch["ca_coords"].numpy()
                             .astype(np.float64)))
    return Prediction(ca_coords=coords, plddt=plddt, aatype=aatype,
                      lddt_vs_true=lddt)


# ----------------------------------------------------------------------
# PDB serialization (CA trace)
# ----------------------------------------------------------------------
def to_pdb(prediction: Prediction, chain_id: str = "A",
           remark: str = "SCALEFOLD REPRO PREDICTION") -> str:
    """Serialize a CA trace in PDB format (pLDDT in the B-factor column)."""
    lines: List[str] = [f"REMARK 250 {remark}"]
    for i in range(prediction.n_res):
        x, y, z = prediction.ca_coords[i]
        aa = AA3[int(prediction.aatype[i]) % len(AA3)]
        b = min(max(prediction.plddt[i], 0.0), 99.99)
        lines.append(
            f"ATOM  {i + 1:>5}  CA  {aa} {chain_id}{i + 1:>4}    "
            f"{x:8.3f}{y:8.3f}{z:8.3f}{1.00:6.2f}{b:6.2f}           C")
    lines.append("TER")
    lines.append("END")
    return "\n".join(lines) + "\n"


def from_pdb(text: str) -> Prediction:
    """Parse a CA-trace PDB back into a :class:`Prediction` (round trip)."""
    coords: List[List[float]] = []
    plddt: List[float] = []
    aatype: List[int] = []
    for line in io.StringIO(text):
        if not line.startswith("ATOM"):
            continue
        name = line[12:16].strip()
        if name != "CA":
            continue
        coords.append([float(line[30:38]), float(line[38:46]),
                       float(line[46:54])])
        plddt.append(float(line[60:66]))
        res3 = line[17:20].strip()
        aatype.append(AA3.index(res3) if res3 in AA3 else 0)
    if not coords:
        raise ValueError("no CA atoms found in PDB text")
    return Prediction(ca_coords=np.array(coords, np.float64),
                      plddt=np.array(plddt, np.float64),
                      aatype=np.array(aatype, np.int64))


def write_pdb(prediction: Prediction, path: str, **kwargs) -> None:
    with open(path, "w") as handle:
        handle.write(to_pdb(prediction, **kwargs))
