"""Capture the reference outputs that the benchmark compares against.

    python3 benchmarks/capture_reference.py

Writes ``benchmarks/reference/presets.npz`` (the four ``tjcm preset`` CSVs)
and ``benchmarks/reference/sweep.npz`` (every sweep op of the default
seed).  The committed files were captured from the tree as it stood when
the benchmark was added; re-capturing on a later tree would hide any drift
of its outputs, so do it only on purpose.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import numpy as np

import run


def main() -> int:
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    env = run.child_env()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        presets = {}
        for name in run.PRESETS:
            csv = os.path.join(tmp, f"{name}.csv")
            subprocess.run(run.CLI + ["preset", name, "--out", csv], check=True,
                           cwd=run.ROOT, env=env)
            header, data = run.read_table(csv)
            presets[name], presets[f"{name}_header"] = data, np.array(header)
        np.savez_compressed(run.REFERENCE_DIR / "presets.npz", **presets)

        sys.path.insert(0, str(run.SRC))
        from tjcm.scan import run_scan, write_csv

        params = run.sweep_params(run.DEFAULT_SEED)
        tables = []
        for p in params:
            csv = os.path.join(tmp, "sweep.csv")
            write_csv(run_scan(run.sweep_config(*p)), csv)
            header, data = run.read_table(csv)
            tables.append(data)
        np.savez_compressed(run.REFERENCE_DIR / "sweep.npz", params=np.array(params),
                            header=np.array(header), data=np.stack(tables))
    return 0


if __name__ == "__main__":
    sys.exit(main())
