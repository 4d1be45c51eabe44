"""Smoke test of the command-line scripts under scripts/ on desk.ini.

Each script runs as its own process, as a user would start it; the three
start at once, since each is mostly interpreter and import time.
"""

import os
import subprocess
import sys
from pathlib import Path

from capsbeam.accel_sim import estimate_latency
from capsbeam.config import load_config
from capsbeam.data_model import count_flops

ROOT = Path(__file__).resolve().parent.parent
DESK = str(ROOT / "configs" / "desk.ini")


def test_scripts_run_on_desk_config(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argvs = {
        "design_space": ["--config", DESK],
        "make_weights": ["--config", DESK, "--out", str(tmp_path / "w.cbwb")],
        "run_pipeline": ["--config", DESK, "--out", str(tmp_path / "pipeline")],
    }
    procs = {
        name: subprocess.Popen([sys.executable, str(ROOT / "scripts" / f"{name}.py"), *argv],
                               env=env, cwd=tmp_path, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
        for name, argv in argvs.items()
    }
    stdout = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (name, err)
        stdout[name] = out
    assert (tmp_path / "w.cbwb").stat().st_size > 0
    run = load_config(DESK)
    grid = f"{run.grid.num_rows}x{run.grid.num_cols}"
    assert f"flops on {grid} grid: {count_flops(run.capsnet, run.grid)}\n" in stdout["make_weights"]

    # design_space's optimized block is the pruned, resident estimate at
    # the config's [prune] ratio, as `capsbeam sim --pruned` writes it.
    label, block = stdout["design_space"].split("\noptimized (")[1].split("\n", 1)
    assert block == estimate_latency(run.capsnet, run.grid, run.accel, pruned=True,
                                     policy="weights_resident",
                                     prune_ratio=run.prune.ratio).to_csv()
    assert block == (tmp_path / "pipeline" / "sim_opt" / "sim_report.csv").read_text()
    assert label == f"resident, pruned {run.prune.ratio:g}):"
