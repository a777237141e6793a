"""Write reference.json: the coefficient sets the workloads compute, as the
current code produces them.  The benchmark's reference gate compares every
set it computes against this table.

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to alter the coefficients, and say so
in the change.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def main():
    sets = {}

    def add(h):
        sets[wl.set_key(h.kernel_model, h.kernel_params, h.d, h.n, h.kappa)] = wl.hydro_values(h)

    add(wl.warm_up())
    for op in wl.build_highn(0, None, None):
        add(op.run(op.kernel))
    (wl.HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=wl.HERE / "out") as tmp:
        for op, spec in zip(wl.build_sweep(0, None, Path(tmp)), wl.SWEEP_SPECS):
            rc, path = op.run(None)
            if rc != 0:
                raise SystemExit(f"sweep {spec} exited with {rc}")
            for key, _model, _params, _d, values in wl.read_sweep_csv(path, spec):
                sets[key] = values
    wl.REFERENCE_FILE.write_text(json.dumps(
        {"about": "c1, c2, c3, beta, gamma, zeta1..zeta13 per coefficient set, "
                  "as computed by the seed code; written by make_reference.py",
         "sets": sets}, indent=1) + "\n")
    print(f"wrote {len(sets)} sets to {wl.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
