"""Re-record bench/reference.json, the pinned answers the benchmark checks against.

    python3 bench/record.py

Pins what the current program returns, so run it only when a change is
meant to alter these answers, and review the diff:
  - expander_seed0: verdict, subspaces checked and first refuting W for
    every candidate of the default seed (the enumeration-order invariant);
  - witness: verifier verdict, failing clause and a digest of the part
    dimension list for every case a seed can draw;
  - sl2p_lower: the Kazhdan lower bracket for each prime.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402
from kronhf import sl2p  # noqa: E402


def record():
    expander = [list(wl.expander_op(inp)) for inp in wl.expander_inputs(0)]
    witness = {}
    for fam, param, eps in wl.witness_cases():
        inp = wl.WitnessInput(wl.witness_key(fam, param, eps), fam, param, eps,
                              wl.witness_module(fam, param))
        ok, clause, dims = wl.witness_op(inp)
        witness[inp.key] = {"ok": ok, "clause": clause, "parts": len(dims),
                            "dim_n": sum(dims), "dims_sha256": wl.dims_digest(dims)}
    lower = {str(p): sl2p.kazhdan_lower_bound(sl2p.adjoint_generators(p))
             for p in wl.SL2P_TRIALS}
    return {"expander_seed0": expander, "witness": witness, "sl2p_lower": lower}


if __name__ == "__main__":
    out = BENCH / "reference.json"
    out.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
