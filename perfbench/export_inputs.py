"""Regenerate the frozen benchmark circuits in ``perfbench/inputs/``.

Run once from the repository root::

    PYTHONPATH=src python3 perfbench/export_inputs.py

It draws the suite with ``full_suite(seed=20260322)``, writes each chosen
circuit as OpenQASM 2.0 through ``repro.circuits.qasm.to_qasm``, and
records the file's SHA-256 in ``inputs/MANIFEST.json``.  The benchmark
never calls this script: it reads the committed files and refuses any
whose checksum no longer matches, so a change to the circuit generators
cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import json
import os

SUITE_SEED = 20260322

#: circuit name -> (workload, why it was chosen)
CHOSEN = {
    "qft_n3": (
        "trasyn-suite",
        "ft_algorithm category; first of the suite's stratified order",
    ),
    "tfim_n2": (
        "trasyn-suite",
        "quantum_hamiltonian category; first of the stratified order",
    ),
    "qaoa_n4_p1": (
        "trasyn-suite",
        "qaoa category (its MaxCut cost layer is the Z-only Ising structure); "
        "repeated angles give the cache its hits",
    ),
    "qaoa_n16_p2": (
        "routed-esp",
        "fills the 16-qubit grid, so layout and swaps matter",
    ),
    "heisenberg_n14_s2": (
        "routed-esp",
        "XX/YY/ZZ Trotter steps: many rotations sharing few angles",
    ),
    "qft_n12": (
        "routed-esp",
        "all-to-all controlled phases: the most swaps per rotation",
    ),
}


def main() -> None:
    from repro.analysis.atomic_io import atomic_write_text
    from repro.bench_circuits.suite import full_suite
    from repro.circuits.qasm import to_qasm

    here = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.path.join(here, "inputs")
    os.makedirs(out_dir, exist_ok=True)
    cases = {c.name: c for c in full_suite(seed=SUITE_SEED)}
    manifest = {
        "provenance": f"repro.bench_circuits.suite.full_suite(seed={SUITE_SEED})",
        "circuits": {},
    }
    for name, (workload, why) in CHOSEN.items():
        case = cases[name]
        text = to_qasm(case.circuit)
        atomic_write_text(os.path.join(out_dir, f"{name}.qasm"), text)
        manifest["circuits"][name] = {
            "file": f"{name}.qasm",
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "category": case.category,
            "qubits": case.n_qubits,
            "rotations": case.n_rotations,
            "workload": workload,
            "why": why,
        }
    atomic_write_text(
        os.path.join(out_dir, "MANIFEST.json"), json.dumps(manifest, indent=2) + "\n"
    )


if __name__ == "__main__":
    main()
