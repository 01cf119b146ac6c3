"""The benchmark's workloads: seeded inputs, one timed pass each, and checks.

Every workload is built from one integer seed.  The seed is expanded into
the source, operator, channel, noise and divergence seeds the program
receives, so the same seed gives the same inputs and the same outputs.
A *pass* is one call to the public entry point a user would make
(``run_experiment`` or ``sweep``); the benchmark repeats passes back to back
in one process (closed loop, one caller, at most one bridge child at a time).

Each workload class states in ``why`` the reason it exists; BENCHMARK.json
carries the same lines.

Left for a later benchmark change: a 256x256 image (n=65536, beta=0.5).  At
this commit its channel alone would hold about 17 GB of dense factors, more
than this benchmark may use.
"""

import dataclasses
import itertools
import os
import sys

import numpy as np

from rmoamp.experiment import ExperimentConfig, run_experiment, sweep
from rmoamp.fileio import read_pgm, write_pgm

MIXTURE = {"weights": [0.9, 0.1], "means": [0.0, 0.0]}
MIXTURE_STDS = [0.01, 1.0]
MIXTURE_PRIOR = dict(MIXTURE, kind="analytic-gauss-mixture",
                     variances=[s * s for s in MIXTURE_STDS])
MIXTURE_SOURCE = dict(MIXTURE, kind="gauss-mixture", stds=MIXTURE_STDS)
KAPPA10 = {"kind": "conditioned", "kappa": 10.0,
           "spectrum_shape": "geometric"}
IMAGE_SHAPE = (32, 32)
BRIDGE_SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "bridge_server.py")
# float32 transport of every denoiser input and output; in sizing the
# bridge and in-process PSNRs differed by at most 2e-5 dB
BRIDGE_PSNR_TOL_DB = 1e-3


def derive_seeds(seed):
    """Source, operator, channel, noise and divergence seeds from one seed."""
    words = np.random.SeedSequence(seed).generate_state(5)
    keys = ("source", "operator", "channel", "noise", "divergence")
    return {k: int(w) for k, w in zip(keys, words)}


def _config(seeds, **fields):
    return ExperimentConfig(operator_seed=seeds["operator"],
                            channel_seed=seeds["channel"],
                            noise_seed=seeds["noise"],
                            divergence_seed=seeds["divergence"], **fields)


def write_test_pattern(path, seed, shape=IMAGE_SHAPE):
    """A seeded ramp, grating, discs and boxes, written as 8-bit PGM.

    Sizes and grey levels are fixed and only positions, phase and the order
    of the levels come from the seed, so every seed gives a pattern of
    about the same complexity.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    rows, cols = shape
    yy, xx = np.mgrid[0:rows, 0:cols].astype(np.float64)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    img = 0.5 + 0.2 * (np.cos(angle) * (xx / cols - 0.5)
                       + np.sin(angle) * (yy / rows - 0.5))
    img += 0.05 * np.sin(2.0 * np.pi * (xx / 12.0 + rng.uniform()))
    for radius, level in zip((0.3, 0.25, 0.2),
                             rng.permutation([0.15, 0.5, 0.85])):
        r = radius * rows
        cy, cx = rng.uniform(r, rows - r), rng.uniform(r, cols - r)
        img[(yy - cy) ** 2 + (xx - cx) ** 2 < r * r] = level
    for (h, w), level in zip(((8, 12), (6, 16), (10, 8)),
                             rng.permutation([0.25, 0.65, 0.9])):
        y0, x0 = rng.integers(0, rows - h), rng.integers(0, cols - w)
        img[y0:y0 + h, x0:x0 + w] = level
    write_pgm(path, np.clip(img, 0.0, 1.0))


class Workload:
    """Inputs for one seed, one timed pass, and the workload's own checks.

    The constructor makes every input from the seed (files go under
    ``workdir``); ``run_pass()`` makes one call through the public API and
    returns the MetricReports it produced; ``check(reports)`` returns
    (trial position, message) pairs for outputs that are wrong, with
    position None for the whole pass.
    """

    name = None

    def __init__(self, seed, workdir):
        self.seeds = derive_seeds(seed)

    def run_pass(self):
        return [run_experiment(self.config)]

    def check(self, reports):
        return []


class DenseBridge(Workload):
    name = "dense-bridge"
    why = ("n=8192 m=4096 fast-DCT channel behind the external-bridge mixture "
           "denoiser: dense factor builds and applies, a child spawn per trial "
           "and a stdio round trip per denoise block every trial")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # Half of criterion 7's n, so that one run repeats the pass often
        # enough for a steady median.  Two trials per call, so a bridge kept
        # alive across trials would show.
        argv = [sys.executable, BRIDGE_SERVER,
                "--weights", repr(MIXTURE_PRIOR["weights"]),
                "--means", repr(MIXTURE_PRIOR["means"]),
                "--variances", repr(MIXTURE_PRIOR["variances"])]
        self.config = _config(
            self.seeds,
            source=dict(MIXTURE_SOURCE, n=8192, seed=self.seeds["source"]),
            beta=0.5, sigma=0.05, channel=dict(KAPPA10, factor_method="fast"),
            prior={"kind": "external-bridge", "argv": argv, "timeout": 30.0},
            num_trials=2)
        self._reference = None

    def check(self, reports):
        # the same trials with the same mixture denoiser run in-process; run
        # once per benchmark run, outside the timed passes
        if self._reference is None:
            local = dataclasses.replace(self.config, prior=MIXTURE_PRIOR)
            self._reference = [t.psnr for t in run_experiment(local).trials]
        bad = []
        for i, (t, ref) in enumerate(zip(reports[0].trials, self._reference)):
            if not abs(t.psnr - ref) <= BRIDGE_PSNR_TOL_DB:
                bad.append((i, f"bridge PSNR {t.psnr:.4f} dB differs from "
                               f"in-process {ref:.4f} dB"))
        return bad


class SweepGrid(Workload):
    name = "sweep-grid"
    why = ("one sweep over the criterion-9 haar grid, a flow-matching point "
           "and two PGM images on tdl-fading channels: QR and SVD builds, "
           "repeated factors, the sampler, file loads, SSIM and writes")
    betas = (0.1, 0.4, 0.7)
    sigmas = (0.05, 0.5)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        source_seed = itertools.count(self.seeds["source"])
        # criterion 9's grid, one trial per point: each point draws its own
        # source, and the two noise levels at a rate share the channel seed,
        # so they draw identical channel factors
        self.grid = [
            _config(self.seeds, beta=b, sigma=s,
                    source=dict(MIXTURE_SOURCE, n=2048,
                                seed=next(source_seed)),
                    channel=dict(KAPPA10, factor_method="haar"),
                    prior=MIXTURE_PRIOR)
            for b in self.betas for s in self.sigmas]
        # criterion 7's setup at n=2048 with source and noise scaled by 1/10
        # (at peak 1 the unscaled setup reads about -1.7 dB); the sampler
        # with the source's own Gaussian velocity gives the analytic-gaussian
        # PSNR and is the benchmark's measure of the diffusion layer
        self.grid.append(_config(
            self.seeds,
            source={"kind": "gaussian", "n": 2048, "std": 0.1,
                    "seed": next(source_seed)},
            beta=0.5, sigma=0.065, channel=dict(KAPPA10, factor_method="fast"),
            prior={"kind": "flow-matching", "num_steps": 20,
                   "predictor": {"kind": "gaussian", "var0": 0.01}}))
        # Below full rate the zero-filled inverse drops part of every image,
        # and with a linear (Gaussian) denoiser the loop diverges on some
        # fading draws, which left SSIM near zero or negative; a 32x32 image
        # at beta=1 with the DCT threshold prior gives steady quality.  Two
        # images halve the part of the PSNR spread that comes from the
        # pattern.
        for j in range(2):
            image = os.path.join(workdir, f"pattern{j}.pgm")
            write_test_pattern(image, next(source_seed))
            self.grid.append(_config(
                self.seeds, source=image, beta=1.0, sigma=0.05,
                channel={"kind": "tdl-fading"},
                prior={"kind": "dct-soft-threshold"},
                output_dir=os.path.join(workdir, f"artifacts{j}")))

    def run_pass(self):
        self.csv_text, reports = sweep(self.grid)
        return reports

    def check(self, reports):
        rows = self.csv_text.strip().splitlines()
        if len(rows) != 1 + len(self.grid) or len(reports) != len(self.grid):
            return [(None, f"sweep returned {len(rows) - 1} rows and "
                           f"{len(reports)} reports for {len(self.grid)} "
                           f"points")]
        bad = []
        position = 0
        for report in reports:
            if report.config.output_dir is not None:
                path = os.path.join(report.config.output_dir,
                                    "recon_trial0.pgm")
                img, _ = read_pgm(path)
                if img.shape != IMAGE_SHAPE:
                    bad.append((position, f"{path} has shape {img.shape}"))
            position += len(report.trials)
        return bad


WORKLOADS = {w.name: w for w in (DenseBridge, SweepGrid)}
