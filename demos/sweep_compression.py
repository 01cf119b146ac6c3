#!/usr/bin/env python3
"""Walkthrough: sweep the compression rate and noise level over a small
grid and consolidate the results into one CSV.

Each grid point repeats the transmit/receive cycle over seeded trials, so
rerunning this script reproduces the same numbers byte for byte.  The
consolidated table has one row per point ordered by (rate, noise).
"""

import os
import tempfile

from rmoamp import ExperimentConfig, sweep

# 1. a shared base configuration: mixture source, mixture denoiser
base = dict(
    source={"kind": "gauss-mixture", "n": 1024, "seed": 100,
            "weights": [0.9, 0.1], "means": [0.0, 0.0],
            "stds": [0.01, 1.0]},
    channel={"kind": "conditioned", "kappa": 10.0},
    prior={"kind": "analytic-gauss-mixture", "weights": [0.9, 0.1],
           "means": [0.0, 0.0], "variances": [1e-4, 1.0]},
    max_iters=10,
    num_trials=2,
)

# 2. the grid: three rates at two noise levels
grid = [ExperimentConfig(beta=beta, sigma=sigma, **base)
        for beta in (0.25, 0.5, 0.75)
        for sigma in (0.05, 0.3)]

# 3. run it; artifacts land under a scratch directory
out_dir = os.path.join(tempfile.gettempdir(), "rmoamp_sweep_demo")
text, reports = sweep(grid, output_dir=out_dir)

print(text)
print(f"consolidated CSV also written to {out_dir}/sweep.csv")

# 4. read the trend off the table
print("mean PSNR by (rate, noise):")
for report in reports:
    cfg = report.config
    print(f"  rate {cfg.beta:<5} noise {cfg.sigma:<5} -> "
          f"{report.aggregate('mean_psnr'):6.2f} dB over {len(report.trials)} trials")
