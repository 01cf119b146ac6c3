"""Experiment orchestration and the command-line front end."""

import json
import socket
import struct
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from rmoamp import (
    AnalyticGaussianPrior,
    BridgePrior,
    DctSoftThresholdPrior,
    DdimPrior,
    ExperimentConfig,
    FadingProfile,
    FlowMatchingPrior,
    GaussianMixturePrior,
    InvalidParameterError,
    MetricReport,
    SourceSignal,
    TrialResult,
    baseline_psnr,
    build_channel,
    build_prior,
    rayleigh_fit_statistic,
    read_matrix,
    run_experiment,
    save_source_pgm,
    sweep,
    write_matrix,
    write_pgm,
)
from rmoamp import channel as channel_mod
from rmoamp import specs
from rmoamp.cli import config_from_dict, main, parse_config_text
from rmoamp.echo_bridge import serve
from rmoamp.experiment import (OUTPUT_ROOT_ENV, SWEEP_COLUMNS, TRIAL_COLUMNS,
                               _SIGMA_MAX, run_trial)
from rmoamp.receiver import TRACE_COLUMNS


def toy_config(**overrides):
    base = dict(source={"kind": "gaussian", "n": 64, "seed": 9},
                beta=1.0, sigma=0.0, max_iters=6)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_json_object_passthrough(self):
        data = parse_config_text('{"beta": 0.5, "sigma": 0.1}')
        assert data == {"beta": 0.5, "sigma": 0.1}

    def test_key_value_lines_nest_on_dots(self):
        text = ("# toy run\n"
                "source.kind=gaussian\n"
                "source.n=64\n"
                "beta=0.5\n"
                "\n"
                "prior.kind=analytic-gaussian  # denoiser\n")
        data = parse_config_text(text)
        assert data == {"source": {"kind": "gaussian", "n": 64},
                        "beta": 0.5,
                        "prior": {"kind": "analytic-gaussian"}}

    def test_values_parse_as_json_when_possible(self):
        data = parse_config_text("a=[1, 2]\nb=true\nc=plain text\n")
        assert data == {"a": [1, 2], "b": True, "c": "plain text"}

    def test_missing_equals_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("a=1\nnonsense\n")

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"source": {"kind": "gaussian"}, "bogus": 1})

    def test_output_dir_override(self, tmp_path):
        cfg = config_from_dict(
            {"source": {"kind": "gaussian", "n": 8, "seed": 0}},
            output_dir=str(tmp_path))
        assert cfg.output_dir == str(tmp_path)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            toy_config(beta=0.0)
        with pytest.raises(InvalidParameterError):
            toy_config(beta=1.5)
        with pytest.raises(InvalidParameterError):
            toy_config(sigma=-0.1)
        with pytest.raises(InvalidParameterError, match="got nan"):
            toy_config(sigma=float("nan"))
        with pytest.raises(InvalidParameterError):
            toy_config(num_trials=0)

    @pytest.mark.parametrize("tolerance,message", [
        (float("nan"), "config 'tolerance' must be finite, got nan"),
        (0.0, "tolerance must be > 0, got 0.0"),
        (-1e-4, "tolerance must be > 0, got -0.0001")],
        ids=["nan", "0.0", "-0.0001"])
    def test_tolerance_must_be_positive(self, tolerance, message):
        # a NaN tolerance never converges: the loop ran to max_iters
        with pytest.raises(InvalidParameterError, match=message):
            toy_config(tolerance=tolerance)

    def test_sigma_whose_square_overflows_is_refused(self):
        # sigma ** 2 raised OverflowError out of run_experiment, which
        # aborted a whole sweep
        with pytest.raises(InvalidParameterError, match="got 1e[+]200"):
            toy_config(sigma=1e200)
        edge = toy_config(sigma=_SIGMA_MAX)
        assert np.isfinite(edge.sigma ** 2)
        with pytest.raises(InvalidParameterError):
            toy_config(sigma=float(np.nextafter(_SIGMA_MAX, np.inf)))

    def test_receiver_config_offsets_divergence_seed(self):
        cfg = toy_config(divergence_seed=4, max_iters=7, tolerance=1e-6)
        rc = cfg.receiver_config(trial=2)
        assert rc.divergence_seed == 6
        assert rc.max_iters == 7
        assert rc.tolerance == 1e-6


class TestBuilders:
    def test_prior_kinds(self):
        assert isinstance(build_prior({"kind": "analytic-gaussian"}),
                          AnalyticGaussianPrior)
        gm = build_prior({"kind": "analytic-gauss-mixture",
                          "weights": [0.5, 0.5], "means": [-1.0, 1.0],
                          "variances": [0.1, 0.1]})
        assert isinstance(gm, GaussianMixturePrior)
        assert isinstance(build_prior({"kind": "dct-soft-threshold"}),
                          DctSoftThresholdPrior)
        dd = build_prior({"kind": "ddim", "alpha_bar": [0.9, 0.5, 0.1]})
        assert isinstance(dd, DdimPrior)
        assert dd.schedule.alpha_bar.tolist() == [0.9, 0.5, 0.1]
        fm = build_prior({"kind": "flow-matching", "num_steps": 7})
        assert isinstance(fm, FlowMatchingPrior)
        assert fm.num_steps == 7

    def test_external_bridge_spawn(self):
        prior = build_prior({
            "kind": "external-bridge",
            "argv": [sys.executable, "-m", "rmoamp.echo_bridge"],
            "snr_kind": "ddim"})
        try:
            assert isinstance(prior, BridgePrior)
            assert prior.snr_kind == "ddim"
            out = prior.client.denoise_once(np.ones(3), 0.5, 1.0)
            assert np.array_equal(out, np.ones(3))
        finally:
            prior.client.close()

    def test_unknown_kinds_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_prior({"kind": "oracle"})
        with pytest.raises(InvalidParameterError):
            build_prior({"kind": "ddim", "predictor": {"kind": "cnn"}})
        with pytest.raises(InvalidParameterError):
            build_channel({"kind": "rician"}, 16, 0.0, 0)

    def test_channel_kinds(self):
        ident = build_channel({"kind": "identity"}, 16, 0.01, 0)
        assert ident.sigma2 == 0.01
        cond = build_channel({"kind": "conditioned", "kappa": 4.0}, 16, 0.0, 3)
        assert cond.condition_number() == pytest.approx(4.0)
        tdl = build_channel({"kind": "tdl-fading", "num_taps": 2,
                             "tap_powers": (0.5, 0.5), "num_symbols": 4},
                            16, 0.0, 1)
        assert tdl.m_rows == 16


class TestRunExperiment:
    def test_noiseless_full_rate_hits_psnr_ceiling(self):
        report = run_experiment(toy_config(num_trials=2))
        assert len(report.trials) == 2
        assert report.num_errors == 0
        assert [t.psnr for t in report.trials] == [99.0, 99.0]
        assert report.mean_psnr == 99.0
        assert all(np.isnan(t.ssim) for t in report.trials)  # 1-D source
        assert all(t.nfe == 0 for t in report.trials)  # analytic prior

    def test_artifacts_written(self, tmp_path):
        cfg = toy_config(output_dir=str(tmp_path))
        run_experiment(cfg)
        trace_text = (tmp_path / "trace_trial0.csv").read_text()
        assert trace_text.splitlines()[0] == ",".join(TRACE_COLUMNS)
        trials_text = (tmp_path / "trials.csv").read_text()
        assert trials_text.splitlines()[0] == ",".join(TRIAL_COLUMNS)
        agg_text = (tmp_path / "aggregate.csv").read_text()
        assert agg_text.splitlines()[0] == ",".join(SWEEP_COLUMNS)
        recon = read_matrix(str(tmp_path / "recon_trial0.mat"))
        assert recon.shape == (1, 64)

    def test_rerun_is_bit_identical(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_experiment(toy_config(sigma=0.2, beta=0.5, num_trials=2,
                                      output_dir=str(out)))
            texts.append((out / "trials.csv").read_text()
                         + (out / "trace_trial0.csv").read_text()
                         + (out / "trace_trial1.csv").read_text()
                         + (out / "aggregate.csv").read_text())
        assert texts[0] == texts[1]

    def test_image_source_gets_pgm_recon_and_ssim(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(0))
        img = SourceSignal(rng.random(64), shape=(8, 8))
        src_path = tmp_path / "src.pgm"
        save_source_pgm(img, str(src_path))
        cfg = toy_config(source=str(src_path), output_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert (tmp_path / "recon_trial0.pgm").exists()
        assert report.trials[0].psnr == 99.0
        assert report.trials[0].ssim == pytest.approx(1.0, rel=1e-9)

    def test_nfe_counts_predictor_evaluations(self):
        cfg = toy_config(sigma=0.1, max_iters=3, tolerance=1e-12,
                         num_trials=2,
                         prior={"kind": "flow-matching", "num_steps": 5})
        report = run_experiment(cfg)
        # denoise + shared-probe divergence per iteration, 5 Euler steps
        # each; the prior is shared, so each trial counts only its own
        for t in report.trials:
            assert t.error == ""
            assert t.nfe == 10 * t.iterations

    def test_external_bridge_prior_round_trips(self):
        cfg = toy_config(sigma=0.05, max_iters=2, source={
            "kind": "gaussian", "n": 32, "seed": 9},
            prior={"kind": "external-bridge",
                   "argv": [sys.executable, "-m", "rmoamp.echo_bridge"]})
        report = run_experiment(cfg)
        t = report.trials[0]
        assert t.error == ""
        assert t.nfe == 2 * t.iterations

    def test_failed_trial_recorded_not_raised(self):
        cfg = toy_config(prior={"kind": "analytic-gauss-mixture",
                                "weights": [0.5, 0.2],
                                "means": [0.0, 0.0],
                                "variances": [1.0, 1.0]})
        report = run_experiment(cfg)
        assert report.num_errors == 1
        assert np.isnan(report.trials[0].psnr)
        assert np.isnan(report.mean_psnr)

    def test_output_root_env_prefixes_relative_dirs(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        run_experiment(toy_config(output_dir="nested/run"))
        assert (tmp_path / "nested" / "run" / "trials.csv").exists()

    @pytest.mark.parametrize("var0,faulted", [(0.0, True), (1.0, False)])
    def test_trials_csv_counts_faulted_iterations(self, tmp_path, var0,
                                                  faulted):
        # var0 = 0 is the point-mass prior: its denoiser output is all zeros,
        # so every iteration falls back
        cfg = toy_config(sigma=0.1, beta=0.5, max_iters=4, tolerance=1e-12,
                         channel={"kind": "conditioned", "kappa": 10.0},
                         prior={"kind": "analytic-gaussian", "var0": var0},
                         output_dir=str(tmp_path))
        report = run_experiment(cfg)
        t = report.trials[0]
        assert t.iterations == 4 and t.error == ""
        assert t.faults == (t.iterations if faulted else 0)
        rows = (tmp_path / "trials.csv").read_text().splitlines()
        assert rows[0] == "trial,psnr,ssim,iterations,nfe,faults,error"
        fields = dict(zip(TRIAL_COLUMNS, rows[1].split(",")))
        assert fields["faults"] == str(t.faults)

    def test_run_trial_returns_trace_and_estimate(self):
        cfg = toy_config()
        result, trace, estimate = run_trial(
            replace(cfg, prior=build_prior(cfg.prior)), 0)
        assert result.trial == 0
        assert len(trace) == result.iterations
        assert estimate.n == 64


ECHO_ARGV = [sys.executable, "-m", "rmoamp.echo_bridge"]


def bridge_config(**prior):
    """Three short trials behind the echo server (or ``prior``'s bridge)."""
    return toy_config(sigma=0.05, max_iters=2, num_trials=3,
                      source={"kind": "gaussian", "n": 32, "seed": 9},
                      prior=dict(kind="external-bridge",
                                 **(prior or {"argv": ECHO_ARGV})))


# malformed sources: (file name and bytes, or a spec dict; error text)
BAD_SOURCES = {
    "cut-mat-header": (("cut.mat", b"OAMPMAT1" + struct.pack("<Q", 4)),
                       "truncated matrix header"),
    "huge-mat-header": (("huge.mat", b"OAMPMAT1"
                         + struct.pack("<QQ", 2 ** 40, 2 ** 40)),
                        "truncated matrix payload"),
    "word-in-pgm-header": (("word.pgm", b"P5\n2 two\n255\n\x00\x01"),
                           "not an integer"),
    "no-kind": ({"n": 64, "seed": 9}, "'kind'"),
    "no-n": ({"kind": "gaussian", "seed": 9}, "'n'"),
    "missing-file": (None, "nowhere.pgm"),
    "negative-n": ({"kind": "gaussian", "n": -1, "seed": 9},
                   "'n' must be an integer >= 1, got -1"),
    "word-n": ({"kind": "gaussian", "n": "abc", "seed": 9},
               "'n' must be an integer >= 1, got 'abc'"),
    "string-num-pieces": ({"kind": "piecewise-constant", "n": 64, "seed": 9,
                           "num_pieces": "3"},
                          "'num_pieces' must be an integer >= 1, got '3'"),
    "not-a-spec": (5, "source must be a path or a spec dict, got 5"),
    "word-std": ({"kind": "gaussian", "n": 64, "seed": 9, "std": "x"},
                 "'std' must be a number, got 'x'"),
    "word-stds": ({"kind": "gauss-mixture", "n": 64, "seed": 9,
                   "weights": [0.9, 0.1], "means": [0.0, 0.0],
                   "stds": "ab"},
                  "'stds' must be a list of numbers, got 'ab'"),
    "long-means": ({"kind": "gauss-mixture", "n": 64, "seed": 9,
                    "weights": [0.9, 0.1], "means": [0.0, 0.0, 1.0],
                    "stds": [0.1, 1.0]},
                   "'means' must have one entry per weight: 3 for 2"),
    "negative-weight": ({"kind": "gauss-mixture", "n": 64, "seed": 9,
                         "weights": [1.5, -0.5], "means": [0.0, 0.0],
                         "stds": [0.1, 1.0]},
                        "mixture weights must be >= 0 and sum to 1"),
    # an int path would name one of the process's own file descriptors
    "int-path": ({"kind": "matrix", "path": 2},
                 "source spec 'path' must be a string, got 2"),
    "list-path": ({"kind": "matrix", "path": ["a"]},
                  "source spec 'path' must be a string, got ['a']"),
    "misspelt-std": ({"kind": "gaussian", "n": 64, "seed": 9, "stdd": 5},
                     "source spec has unknown key 'stdd'; kind 'gaussian' "
                     "takes 'n', 'seed', 'mean', 'std'"),
}


def bad_source(name, tmp_path):
    source, _ = BAD_SOURCES[name]
    if source is None:
        return str(tmp_path / "nowhere.pgm")
    if not isinstance(source, tuple):
        return source
    filename, data = source
    (tmp_path / filename).write_bytes(data)
    return str(tmp_path / filename)


class TestBadSource:
    """A malformed source fails its trials; it does not abort the run."""

    @pytest.mark.parametrize("name", sorted(BAD_SOURCES))
    def test_one_error_row_per_trial(self, name, tmp_path):
        report = run_experiment(toy_config(source=bad_source(name, tmp_path),
                                           num_trials=2))
        assert [t.trial for t in report.trials] == [0, 1]
        assert report.num_errors == 2
        assert all(BAD_SOURCES[name][1] in t.error for t in report.trials)

    @pytest.mark.parametrize("name", sorted(BAD_SOURCES))
    def test_cli_run_exits_1_without_traceback(self, name, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"source": bad_source(name, tmp_path),
                                    "num_trials": 2, "max_iters": 2}))
        proc = subprocess.run(
            [sys.executable, "-m", "rmoamp.cli", "run", str(path)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr


BAD_PRIORS = {
    "bridge-no-host": ({"kind": "external-bridge"},
                       "prior spec has no 'host' key"),
    "mixture-no-weights": ({"kind": "analytic-gauss-mixture",
                            "means": [0.0, 0.0], "variances": [1.0, 1.0]},
                           "prior spec has no 'weights' key"),
    "word-weights": ({"kind": "analytic-gauss-mixture", "weights": "ab",
                      "means": [0.0, 0.0], "variances": [1.0, 1.0]},
                     "prior spec 'weights' must be numbers, got 'ab'"),
    "word-var0": ({"kind": "analytic-gaussian", "var0": "x"},
                  "'var0' must be a number, got 'x'"),
    "word-ddim-num-steps": ({"kind": "ddim", "num_steps": "x"},
                            "'num_steps' must be an integer >= 2, got 'x'"),
    "missing-bridge-program": ({"kind": "external-bridge",
                                "argv": ["/nonexistent/denoiser"]},
                               "cannot start the prior's bridge"),
    "kind-not-a-spec": ("ddim", "prior must be a spec dict, got 'ddim'"),
    "int-argv": ({"kind": "external-bridge", "argv": 5},
                 "prior spec 'argv' must be a non-empty list of strings, "
                 "got 5"),
    "int-in-argv": ({"kind": "external-bridge", "argv": [5]},
                    "prior spec 'argv' must be a non-empty list of strings, "
                    "got [5]"),
    "empty-argv": ({"kind": "external-bridge", "argv": []},
                   "prior spec 'argv' must be a non-empty list of strings, "
                   "got []"),
    "int-host": ({"kind": "external-bridge", "host": 5, "port": 9},
                 "prior spec 'host' must be a string, got 5"),
    "nan-var0": ({"kind": "analytic-gaussian", "var0": float("nan")},
                 "prior spec 'var0' must be finite, got nan"),
    "nan-mixture-variance": ({"kind": "analytic-gauss-mixture",
                              "weights": [0.5, 0.5], "means": [0.0, 0.0],
                              "variances": [float("nan"), 1.0]},
                             "prior spec 'variances' must be finite, "
                             "got [nan, 1.0]"),
    "word-predictor": ({"kind": "ddim", "predictor": "x"},
                       "predictor must be a spec dict, got 'x'"),
    "list-predictor": ({"kind": "flow-matching", "predictor": [1]},
                       "predictor must be a spec dict, got [1]"),
    "negative-predictor-var0": ({"kind": "ddim",
                                 "predictor": {"var0": -1.0}},
                                "predictor spec 'var0' must be >= 0, "
                                "got -1.0"),
    "bridge-no-port": ({"kind": "external-bridge", "host": "localhost"},
                       "prior spec has no 'port' key"),
    "misspelt-num-steps": ({"kind": "ddim", "num_step": 5},
                           "prior spec has unknown key 'num_step'"),
    "alpha-bar-with-num-steps": ({"kind": "ddim", "alpha_bar": [0.9, 0.1],
                                  "num_steps": 5},
                                 "prior spec gives both 'alpha_bar' and "
                                 "'num_steps'"),
    "argv-with-host": ({"kind": "external-bridge", "argv": ECHO_ARGV,
                        "host": "localhost"},
                       "prior spec gives both 'argv' and 'host'"),
    "misspelt-predictor-var0": ({"kind": "flow-matching",
                                 "predictor": {"var": 2.0}},
                                "predictor spec has unknown key 'var'"),
}


class TestBadPrior:
    """A malformed prior spec fails its trials; it does not abort the run."""

    @pytest.mark.parametrize("name", sorted(BAD_PRIORS))
    def test_one_error_row_per_trial(self, name):
        spec, message = BAD_PRIORS[name]
        report = run_experiment(toy_config(prior=spec, num_trials=2))
        assert [t.trial for t in report.trials] == [0, 1]
        assert report.num_errors == 2
        assert all(message in t.error for t in report.trials)

    @pytest.mark.parametrize("name", sorted(BAD_PRIORS))
    def test_cli_run_exits_1_without_traceback(self, name, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"source": toy_config().source,
                                    "prior": BAD_PRIORS[name][0],
                                    "num_trials": 2, "max_iters": 2}))
        proc = subprocess.run(
            [sys.executable, "-m", "rmoamp.cli", "run", str(path)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr


def fading(**keys):
    return dict(kind="tdl-fading", **keys)


# malformed channel specs: (spec, error text)
BAD_CHANNELS = {
    "kind-not-a-spec": ("identity",
                        "channel must be a spec dict, got 'identity'"),
    "unknown-kind": ({"kind": "quantum"}, "unknown channel kind 'quantum'"),
    "word-doppler-rate": (fading(doppler_rate="x"),
                          "channel spec 'doppler_rate' must be a number, "
                          "got 'x'"),
    "nan-doppler-rate": (fading(doppler_rate=float("nan")),
                         "channel spec 'doppler_rate' must be finite, "
                         "got nan"),
    "word-num-symbols": (fading(num_symbols="x"),
                         "'num_symbols' must be an integer >= 1, got 'x'"),
    "word-tap-powers": (fading(tap_powers="abc"),
                        "'tap_powers' must be a list of numbers, got 'abc'"),
    "string-num-taps": (fading(num_taps="3"),
                        "'num_taps' must be an integer >= 1, got '3'"),
    "list-factor-method": ({"kind": "conditioned", "factor_method": ["haar"]},
                           "unknown factor_method ['haar']"),
    "inf-kappa": ({"kind": "conditioned", "kappa": float("inf")},
                  "condition number must be finite, got inf"),
    "inf-doppler-rate": (fading(doppler_rate=float("inf")),
                         "channel spec 'doppler_rate' must be finite, "
                         "got inf"),
    "misspelt-kappa": ({"kind": "conditioned", "kapa": 3.0},
                       "channel spec has unknown key 'kapa'"),
    "identity-kappa": ({"kind": "identity", "kappa": 3.0},
                       "channel spec has unknown key 'kappa'; kind "
                       "'identity' takes no keys"),
}


class TestBadChannel:
    """A malformed channel spec fails its trials; it does not abort the
    run."""

    @pytest.mark.parametrize("name", sorted(BAD_CHANNELS))
    def test_one_error_row_per_trial(self, name):
        spec, message = BAD_CHANNELS[name]
        report = run_experiment(toy_config(channel=spec, num_trials=2))
        assert [t.trial for t in report.trials] == [0, 1]
        assert report.num_errors == 2
        assert all(message in t.error for t in report.trials)

    @pytest.mark.parametrize("name", sorted(BAD_CHANNELS))
    def test_cli_run_exits_1_without_traceback(self, name, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"source": toy_config().source,
                                    "channel": BAD_CHANNELS[name][0],
                                    "num_trials": 2, "max_iters": 2}))
        proc = subprocess.run(
            [sys.executable, "-m", "rmoamp.cli", "run", str(path)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr


# every number-valued key of a spec kind, as the config fields that set it
# to a value; a list-valued key gets the value as one of its entries
SPEC_NUMBER_KEYS = {
    "gaussian-source-mean": lambda x: {"source": dict(
        kind="gaussian", n=64, seed=9, mean=x)},
    "gaussian-source-std": lambda x: {"source": dict(
        kind="gaussian", n=64, seed=9, std=x)},
    "mixture-source-weights": lambda x: {"source": dict(
        kind="gauss-mixture", n=64, seed=9, weights=[0.5, x], means=[0.0, 0.0],
        stds=[1.0, 1.0])},
    "mixture-source-means": lambda x: {"source": dict(
        kind="gauss-mixture", n=64, seed=9, weights=[0.5, 0.5], means=[0.0, x],
        stds=[1.0, 1.0])},
    "mixture-source-stds": lambda x: {"source": dict(
        kind="gauss-mixture", n=64, seed=9, weights=[0.5, 0.5],
        means=[0.0, 0.0], stds=[1.0, x])},
    "conditioned-kappa": lambda x: {"channel": dict(
        kind="conditioned", kappa=x)},
    "fading-tap-powers": lambda x: {"channel": fading(
        tap_powers=[0.6, x, 0.1])},
    "fading-doppler-rate": lambda x: {"channel": fading(doppler_rate=x)},
    "analytic-mean": lambda x: {"prior": dict(
        kind="analytic-gaussian", mean=x)},
    "analytic-var0": lambda x: {"prior": dict(
        kind="analytic-gaussian", var0=x)},
    "mixture-weights": lambda x: {"prior": dict(
        kind="analytic-gauss-mixture", weights=[0.5, x], means=[0.0, 0.0],
        variances=[1.0, 1.0])},
    "mixture-means": lambda x: {"prior": dict(
        kind="analytic-gauss-mixture", weights=[0.5, 0.5], means=[0.0, x],
        variances=[1.0, 1.0])},
    "mixture-variances": lambda x: {"prior": dict(
        kind="analytic-gauss-mixture", weights=[0.5, 0.5], means=[0.0, 0.0],
        variances=[1.0, x])},
    "ddim-alpha-bar": lambda x: {"prior": dict(
        kind="ddim", alpha_bar=[0.9, x, 0.1])},
    "ddim-alpha-start": lambda x: {"prior": dict(
        kind="ddim", num_steps=5, alpha_start=x)},
    "ddim-alpha-end": lambda x: {"prior": dict(
        kind="ddim", num_steps=5, alpha_end=x)},
    "ddim-predictor-mean": lambda x: {"prior": dict(
        kind="ddim", num_steps=5, predictor={"mean": x})},
    "ddim-predictor-var0": lambda x: {"prior": dict(
        kind="ddim", num_steps=5, predictor={"var0": x})},
    "flow-predictor-mean": lambda x: {"prior": dict(
        kind="flow-matching", num_steps=3, predictor={"mean": x})},
    "flow-predictor-var0": lambda x: {"prior": dict(
        kind="flow-matching", num_steps=3, predictor={"var0": x})},
    "bridge-timeout": lambda x: {"prior": dict(
        kind="external-bridge", argv=ECHO_ARGV, timeout=x)},
}
CONFIG_NUMBER_KEYS = ("beta", "sigma", "tolerance")
NON_FINITE = pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf")],
    ids=["nan", "inf", "-inf"])


class TestNonFiniteNumbers:
    """No number-valued key takes NaN or an infinity: a config key fails
    the config, any other key fails every trial."""

    @NON_FINITE
    @pytest.mark.parametrize("key", CONFIG_NUMBER_KEYS)
    def test_config_key_is_refused(self, key, value):
        with pytest.raises(InvalidParameterError,
                           match=f"config '{key}' must be finite"):
            toy_config(**{key: value})

    @NON_FINITE
    @pytest.mark.parametrize("name", sorted(SPEC_NUMBER_KEYS))
    def test_spec_key_gives_one_error_row_per_trial(self, name, value):
        report = run_experiment(toy_config(
            beta=0.5, sigma=0.1, max_iters=3, num_trials=2,
            **SPEC_NUMBER_KEYS[name](value)))
        assert [t.trial for t in report.trials] == [0, 1]
        assert report.num_errors == report.config.num_trials


@pytest.mark.parametrize("source", [{"kind": "matrix", "path": 2},
                                    {"kind": "pgm", "path": 0}],
                         ids=["stderr", "stdin"])
def test_int_source_path_leaves_the_process_fds_open(source, tmp_path):
    # an int path names a descriptor of the process itself: reading it as
    # the source would also close it
    config = tmp_path / "int-path.json"
    config.write_text(json.dumps({"source": source, "num_trials": 2,
                                  "max_iters": 2}))
    script = ("import os, sys\n"
              "from rmoamp.cli import main\n"
              "code = main(['run', sys.argv[1]])\n"
              "os.fstat(0)\n"
              "os.fstat(2)\n"
              "print('exit', code)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(config)],
                          input="P5\n1 1\n255\n\x00", capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, aggregate, last = proc.stdout.splitlines()
    assert (aggregate.split(",")[-1], last) == ("2", "exit 1")  # num_errors


# the smallest spec of each kind in rmoamp.specs: its required keys only.
# An external-bridge spec requires no key alone, but needs argv (or host
# and port); a file source's path is made by the test.
REQUIRED_ONLY = {
    ("source", "gaussian"): {"n": 64, "seed": 9},
    ("source", "gauss-mixture"): {"n": 64, "seed": 9, "weights": [0.5, 0.5],
                                  "means": [0.0, 1.0], "stds": [1.0, 0.5]},
    ("source", "piecewise-constant"): {"n": 64, "seed": 9, "num_pieces": 4},
    ("source", "pgm"): {"path": None},
    ("source", "matrix"): {"path": None},
    ("channel", "identity"): {},
    ("channel", "conditioned"): {},
    ("channel", "tdl-fading"): {},
    ("prior", "analytic-gaussian"): {},
    ("prior", "analytic-gauss-mixture"): {"weights": [0.5, 0.5],
                                          "means": [0.0, 1.0],
                                          "variances": [1.0, 0.25]},
    ("prior", "dct-soft-threshold"): {},
    ("prior", "ddim"): {},
    ("prior", "flow-matching"): {},
    ("prior", "external-bridge"): {"argv": ECHO_ARGV},
    ("predictor", "gaussian"): {},
}
SPEC_TABLES = {"source": specs.SOURCE_KEYS, "channel": specs.CHANNEL_KEYS,
               "prior": specs.PRIOR_KEYS, "predictor": specs.PREDICTOR_KEYS}
SPEC_KINDS = [(name, kind) for name, table in SPEC_TABLES.items()
              for kind in table]
WORD_KEYS = [(name, kind, key) for name, kind in SPEC_KINDS
             for key, rule in SPEC_TABLES[name][kind].items()
             if rule.check in (specs.spec_integer, specs.spec_numbers)]


def spec_fields(name, kind, keys, tmp_path):
    """Config fields that put a ``kind`` spec with ``keys`` in place."""
    spec = dict(keys, kind=kind)
    if spec.get("path", "") is None:
        spec["path"] = str(tmp_path / f"source.{kind}")
        if kind == "pgm":
            write_pgm(spec["path"], np.linspace(0.0, 1.0, 64).reshape(8, 8))
        else:
            write_matrix(spec["path"], np.linspace(0.0, 1.0, 64)[None, :])
    if name == "predictor":
        return {"prior": {"kind": "flow-matching", "num_steps": 2,
                          "predictor": spec}}
    return {name: spec}


class TestSpecTables:
    """Every kind and key in rmoamp.specs, run through run_experiment."""

    @pytest.mark.parametrize("name, kind", SPEC_KINDS)
    def test_kind_builds_from_its_required_keys(self, name, kind, tmp_path):
        keys = REQUIRED_ONLY[name, kind]
        required = {key for key, rule in SPEC_TABLES[name][kind].items()
                    if rule.default is specs.REQUIRED}
        assert set(keys) == required or kind == "external-bridge"
        report = run_experiment(toy_config(
            beta=0.5, sigma=0.1, max_iters=2, num_trials=2,
            **spec_fields(name, kind, keys, tmp_path)))
        assert report.num_errors == 0, report.trials[0].error

    @pytest.mark.parametrize("name, kind, key", WORD_KEYS)
    def test_word_value_gives_one_error_row_per_trial(self, name, kind, key,
                                                      tmp_path):
        rules = SPEC_TABLES[name][kind]
        # drop a required-only key the word's key may not be given with
        keys = {other: value for other, value in
                REQUIRED_ONLY[name, kind].items()
                if key not in rules[other].excludes}
        keys[key] = "x"
        report = run_experiment(toy_config(
            num_trials=2, **spec_fields(name, kind, keys, tmp_path)))
        assert [t.trial for t in report.trials] == [0, 1]
        assert report.num_errors == 2
        assert all(f"{name} spec {key!r} must be" in t.error
                   for t in report.trials)


def test_every_csv_line_has_a_cell_per_column(tmp_path, capsys):
    # a prior kind with a comma, a list-valued kind and error texts with
    # commas ("unknown prior kind 'ddim,'") must not add cells
    grid = [toy_config(prior={"kind": "ddim,"}, num_trials=2,
                       output_dir=str(tmp_path / "comma")),
            toy_config(prior={"kind": ["a", "b"]},
                       output_dir=str(tmp_path / "list")),
            toy_config(beta=0.5, sigma=0.1, max_iters=3,
                       output_dir=str(tmp_path / "good"))]
    text, reports = sweep(grid, output_dir=str(tmp_path))
    assert sorted(r.num_errors for r in reports) == [0, 1, 2]
    assert main(["inspect-channel", "--kind", "conditioned", "--dim", "16",
                 "--output", str(tmp_path / "spectrum.csv")]) == 0
    capsys.readouterr()
    paths = [tmp_path / "sweep.csv", tmp_path / "spectrum.csv",
             tmp_path / "good" / "trace_trial0.csv"]
    for point in ("comma", "list", "good"):
        paths += [tmp_path / point / "trials.csv",
                  tmp_path / point / "aggregate.csv"]
    for path in paths:
        header, *rows = path.read_text().split("\n")[:-1]
        assert rows, path
        width = len(header.split(","))
        assert [len(row.split(",")) for row in rows] == [width] * len(rows), (
            path)


def test_sweep_gives_rows_for_specs_that_are_not_dicts():
    text, reports = sweep([toy_config(prior="ddim", num_trials=2),
                           toy_config(channel="identity", sigma=0.1)])
    rows = sorted(line.split(",") for line in text.splitlines()[1:])
    assert [(row[2], row[3], row[-1]) for row in rows] == [
        ("?", "identity", "2"), ("analytic-gaussian", "?", "1")]


def test_word_kappa_gives_error_rows():
    report = run_experiment(toy_config(
        channel={"kind": "conditioned", "kappa": "x"}, num_trials=2))
    assert report.num_errors == 2
    assert all("condition number must be a number >= 1, got 'x'" in t.error
               for t in report.trials)


class TestSharedPrior:
    def test_one_child_serves_every_trial(self, spawned):
        report = run_experiment(bridge_config())
        assert len(spawned) == 1
        assert [t.error for t in report.trials] == ["", "", ""]
        assert all(t.nfe == 2 * t.iterations for t in report.trials)
        assert spawned[0].poll() is not None  # reaped at the end

    def test_bad_snr_kind_spawns_no_child(self, spawned):
        # the prior's keys are checked before its child is started, so an
        # error leaves no child running
        report = run_experiment(bridge_config(argv=ECHO_ARGV,
                                              snr_kind="bogus"))
        assert [t.error for t in report.trials] == [
            "unknown snr kind 'bogus'"] * 3
        assert spawned == []

    def test_run_trial_leaves_a_built_prior_open(self):
        cfg = bridge_config()
        prior = build_prior(cfg.prior)
        try:
            nfes = []
            for trial in (0, 1):
                result, _, _ = run_trial(replace(cfg, prior=prior), trial)
                assert result.error == "" and not prior.client.closed
                assert result.nfe == 2 * result.iterations
                nfes.append(result.nfe)
            assert prior.eval_count == sum(nfes)
        finally:
            prior.client.close()

    def test_fault_respawns_before_the_next_trial(self, spawned, tmp_path):
        # a late child answers its first request after 1 s, past the 0.3 s
        # timeout, so each trial faults on its own first call; a child shared
        # past the fault would make later trials start on "bridge is closed"
        cfg = replace(bridge_config(argv=ECHO_ARGV + ["--mode", "late"],
                                    timeout=0.3),
                      output_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert len(spawned) == 3
        for t in report.trials:
            rows = (tmp_path / f"trace_trial{t.trial}.csv").read_text()
            first = dict(zip(TRACE_COLUMNS, rows.splitlines()[1].split(",")))
            assert "timeout" in first["fault"]
            assert "bridge is closed" not in first["fault"]
            assert t.faults == t.iterations

    # an exception that ends a server thread fails the test
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnhandledThreadExceptionWarning")
    @pytest.mark.parametrize("mode,connections",
                             [("echo", 1), ("wrong-length", 3)])
    def test_connect_mode_reconnects_only_after_a_fault(self, mode,
                                                        connections):
        lsock = socket.create_server(("127.0.0.1", 0))
        lsock.settimeout(0.1)
        stop = threading.Event()
        conns = []

        def serve_one(conn):
            with conn.makefile("rb") as rfile, conn.makefile("wb") as wfile:
                serve(rfile, wfile, mode)

        def accept_all():
            while not stop.is_set():
                try:
                    conn, _ = lsock.accept()
                except TimeoutError:
                    continue
                conns.append(conn)
                threading.Thread(target=serve_one, args=(conn,),
                                 daemon=True).start()

        thread = threading.Thread(target=accept_all, daemon=True)
        thread.start()
        try:
            report = run_experiment(bridge_config(
                host="127.0.0.1", port=lsock.getsockname()[1]))
        finally:
            stop.set()
            thread.join(timeout=5.0)
            lsock.close()
            for conn in conns:
                conn.close()
        assert len(conns) == connections
        assert all((t.faults == 0) == (mode == "echo")
                   for t in report.trials)

    def test_child_reaped_when_a_trial_raises(self, spawned, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("not an RmOampError")

        monkeypatch.setattr("rmoamp.experiment.run_receiver", explode)
        with pytest.raises(RuntimeError, match="not an RmOampError"):
            run_experiment(bridge_config())
        assert len(spawned) == 1
        assert spawned[0].poll() is not None


class TestMetricReport:
    def make_report(self):
        report = MetricReport(config=toy_config())
        report.trials.append(TrialResult(0, 20.0, 0.5, 3, 6, 0.1))
        report.trials.append(TrialResult(1, 40.0, 0.7, 5, 10, 0.1))
        report.trials.append(TrialResult(
            2, float("nan"), float("nan"), 0, 0, 0.1, error="boom, bang"))
        return report

    def test_aggregates_skip_non_finite(self):
        report = self.make_report()
        assert report.mean_psnr == 30.0
        assert report.std_psnr == 10.0
        assert report.mean_ssim == pytest.approx(0.6)
        assert report.num_errors == 1

    def test_trials_csv_escapes_commas(self):
        text = self.make_report().trials_csv()
        assert "boom; bang" in text
        assert text.splitlines()[0] == ("trial,psnr,ssim,iterations,nfe,"
                                        "faults,error")
        assert text.splitlines()[1] == "0,20.0,0.5,3,6,0,"

    def test_sweep_row_fields(self):
        row = self.make_report().sweep_row()
        assert len(row) == len(SWEEP_COLUMNS)
        assert row[0] == "1.0"
        assert row[2] == "analytic-gaussian"
        assert row[-2:] == ["3", "1"]


class TestBaselineAndSweep:
    def test_baseline_matches_linear_solution(self):
        assert baseline_psnr(toy_config()) == 99.0

    def test_sweep_orders_by_beta_then_sigma(self, tmp_path):
        grid = [toy_config(beta=1.0, sigma=0.0, max_iters=3),
                toy_config(beta=0.5, sigma=0.3, max_iters=3),
                toy_config(beta=0.5, sigma=0.1, max_iters=3)]
        text, reports = sweep(grid, output_dir=str(tmp_path))
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        keys = [(line.split(",")[0], line.split(",")[1])
                for line in lines[1:]]
        assert keys == [("0.5", "0.1"), ("0.5", "0.3"), ("1.0", "0.0")]
        assert (tmp_path / "sweep.csv").read_text() == text
        text2, _ = sweep(grid)
        assert text2 == text

    def test_sweep_keeps_sigma_only_repeats_adjacent(self, monkeypatch):
        # two channel kinds at each rate: ordering by (beta, sigma) alone
        # interleaves them, so no build would reuse the one before
        monkeypatch.setattr(channel_mod, "_last_built", None)
        builds = []
        generate = channel_mod._generate

        def counted(spec, dim, sigma2, seed):
            builds.append((spec["kind"], dim))
            return generate(spec, dim, sigma2, seed)

        monkeypatch.setattr(channel_mod, "_generate", counted)
        grid = [toy_config(beta=b, sigma=s, channel=c, max_iters=2,
                           source={"kind": "gaussian", "n": 256, "seed": 9})
                for c in ({"kind": "conditioned", "kappa": 4.0},
                          {"kind": "tdl-fading"})
                for b in (0.5, 1.0) for s in (0.3, 0.1)]
        text, reports = sweep(grid)
        assert builds == [("conditioned", 128), ("tdl-fading", 128),
                          ("conditioned", 256), ("tdl-fading", 256)]
        keys = [(r.config.beta, r.config.channel["kind"], r.config.sigma)
                for r in reports]
        assert keys == [(b, kind, s) for b in (0.5, 1.0)
                        for kind in ("conditioned", "tdl-fading")
                        for s in (0.1, 0.3)]
        assert len(text.splitlines()) == 1 + len(grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            sweep([])


CONFIG_TEXT = """\
# toy full-rate run
source.kind=gaussian
source.n=64
source.seed=9
beta=1.0
sigma=0.0
prior.kind=analytic-gaussian
num_trials=2
"""


# one spec per channel family, the fading one with no default key
INSPECT_SPECS = [
    {"kind": "identity"},
    {"kind": "conditioned", "kappa": 4.0},
    {"kind": "conditioned", "kappa": 4.0, "spectrum_shape": "linear",
     "factor_method": "fast"},
    {"kind": "tdl-fading", "num_taps": 4, "tap_powers": [0.4, 0.3, 0.2, 0.1],
     "doppler_rate": 0.25, "num_symbols": 3},
]


def inspect_args(spec):
    """``inspect-channel`` arguments that give ``spec``."""
    args = ["--kind", spec["kind"]]
    for key, value in spec.items():
        if key != "kind":
            args += ["--set", f"{key}={json.dumps(value)}"]
    return args


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT)
        return str(path)

    def test_run_prints_aggregate(self, tmp_path, capsys):
        assert main(["run", self.write_config(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert lines[1].split(",")[4] == "99.0"  # mean_psnr

    def test_run_set_overrides(self, tmp_path, capsys):
        code = main(["run", self.write_config(tmp_path),
                     "--set", "sigma=0.5", "--set", "num_trials=1"])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1] == "0.5"
        assert float(row[4]) < 99.0

    def test_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["run", self.write_config(tmp_path),
                     "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "aggregate.csv").exists()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus=1\n")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("rmoamp:")

    @pytest.mark.parametrize("key,what", [("sigma", "a number"),
                                          ("beta", "a number"),
                                          ("num_trials", "an integer >= 1")])
    def test_word_config_value_exits_2(self, key, what, tmp_path, capsys):
        code = main(["run", self.write_config(tmp_path),
                     "--set", f"{key}=abc"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"rmoamp: config {key!r} must be {what}, got 'abc'\n")

    def test_missing_config_exits_2(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == 2
        assert "rmoamp:" in capsys.readouterr().err

    def test_all_trials_failing_exits_1(self, tmp_path, capsys):
        path = tmp_path / "fail.cfg"
        path.write_text(CONFIG_TEXT
                        + 'prior.kind=analytic-gauss-mixture\n'
                        + 'prior.weights=[0.5, 0.2]\n'
                        + 'prior.means=[0.0, 0.0]\n'
                        + 'prior.variances=[1.0, 1.0]\n')
        assert main(["run", str(path)]) == 1
        capsys.readouterr()

    def test_sweep_grid_with_base_and_points(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "base": {"source": {"kind": "gaussian", "n": 32, "seed": 1},
                     "sigma": 0.1, "max_iters": 3},
            "points": [{"beta": 1.0}, {"beta": 0.5}]}))
        assert main(["sweep", str(grid_path),
                     "--output-dir", str(tmp_path / "sw")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "1.0"]
        assert (tmp_path / "sw" / "sweep.csv").exists()

    @pytest.mark.parametrize("grid,message", [
        ({"base": {"source": {"kind": "gaussian", "n": 32, "seed": 1}},
          "points": [{"beta": 1.0}, 5]},
         "sweep grid point 1 must be a JSON object, got 5"),
        ([{"source": {"kind": "gaussian", "n": 32, "seed": 1}}, 5],
         "sweep grid point 1 must be a JSON object, got 5"),
        ({"points": 5}, "a sweep grid is a JSON list of objects"),
        (5, "a sweep grid is a JSON list of objects"),
    ], ids=["base-points", "list", "points-not-a-list", "number"])
    def test_sweep_grid_point_not_an_object_exits_2(self, grid, message,
                                                    tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        assert main(["sweep", str(grid_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rmoamp: {message}")

    def test_infinite_kappa_from_key_value_text_exits_1(self, tmp_path,
                                                        capsys):
        code = main(["run", self.write_config(tmp_path),
                     "--set", "channel.kind=conditioned",
                     "--set", "channel.kappa=Infinity"])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert out[1].split(",")[-1] == "2"  # num_errors

    def test_inspect_conditioned_channel(self, tmp_path, capsys):
        out_csv = tmp_path / "spectrum.csv"
        code = main(["inspect-channel", "--kind", "conditioned",
                     "--dim", "32", "--seed", "3", "--set", "kappa=4",
                     "--output", str(out_csv)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        desc = json.loads(out[0])
        assert desc["kind"] == "conditioned"
        assert "condition=4" in out[1]
        csv_lines = out_csv.read_text().splitlines()
        assert csv_lines[0] == "index,singular_value"
        assert len(csv_lines) == 33

    @pytest.mark.parametrize("spec", INSPECT_SPECS,
                             ids=["identity", "haar", "fast", "fading"])
    def test_inspect_prints_a_spec_that_rebuilds_the_channel(
            self, spec, monkeypatch, tmp_path, capsys):
        built = []

        def keep(*args):
            built.append(build_channel(*args))
            return built[-1]

        monkeypatch.setattr(channel_mod, "build_channel", keep)
        assert main(["inspect-channel", "--dim", "16", "--sigma", "0.3",
                     "--seed", "5", "--samples", "200"]
                    + inspect_args(spec)) == 0
        text = capsys.readouterr().out.splitlines()[0]
        line = json.loads(text)
        assert set(line) == set(specs.CHANNEL_KEYS[spec["kind"]]) | {"kind"}
        assert {key: line[key] for key in spec} == spec
        # a fresh build, not the factors the CLI's build left in the slot
        monkeypatch.setattr(channel_mod, "_last_built", None)
        again = build_channel(line, 16, built[0].sigma2, 5)
        assert np.array_equal(again.dense(), built[0].dense())
        assert again.sigma2 == built[0].sigma2
        # the printed line as a run's channel gives the original's trials
        trials = []
        for name, channel in (("spec", json.dumps(spec)), ("line", text)):
            out_dir = tmp_path / name
            assert main(["run", self.write_config(tmp_path),
                         "--set", "beta=0.5", "--set", "sigma=0.1",
                         "--set", f"channel={channel}",
                         "--output-dir", str(out_dir)]) == 0
            trials.append((out_dir / "trials.csv").read_bytes())
        capsys.readouterr()
        assert trials[0] == trials[1]

    def test_inspect_misspelt_key_exits_2(self, capsys):
        # not a channel with the default kappa of 10
        assert main(["inspect-channel", "--kind", "conditioned", "--dim",
                     "16", "--set", "kapa=3.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "rmoamp: channel spec has unknown key 'kapa'")

    @pytest.mark.parametrize("kind, extra", [
        ("identity", []),
        ("conditioned", ["--set", "kappa=4"]),
        ("conditioned", ["--set", "kappa=4", "--set", "factor_method=fast"]),
        ("tdl-fading", ["--samples", "200", "--set", "num_symbols=4"]),
    ])
    def test_inspect_output_rows_are_numbers(self, tmp_path, capsys, kind,
                                             extra):
        # each row is "index,value" with a plain float, never a numpy repr
        # such as np.float64(...)
        out_csv = tmp_path / "spectrum.csv"
        assert main(["inspect-channel", "--kind", kind, "--dim", "16",
                     "--seed", "3", "--output", str(out_csv)] + extra) == 0
        capsys.readouterr()
        header, *rows = out_csv.read_text().splitlines()
        assert header == "index,singular_value"
        assert len(rows) == 16
        for i, row in enumerate(rows):
            index, value = row.split(",")
            assert int(index) == i
            float(value)
        if kind == "identity":
            assert all(row.split(",")[1] == "1.0" for row in rows)

    def test_inspect_fading_emits_rayleigh_statistic(self, capsys):
        code = main(["inspect-channel", "--kind", "tdl-fading",
                     "--dim", "32", "--samples", "2000", "--seed", "1",
                     "--set", "num_taps=2",
                     "--set", "tap_powers=[0.5, 0.5]",
                     "--set", "num_symbols=8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rayleigh_ks_statistic=" in out
        stat_line = [l for l in out.splitlines()
                     if l.startswith("rayleigh_ks_statistic")][0]
        stat = float(stat_line.split("=")[1].split()[0])
        assert 0.0 < stat < 1.0
        # the channel and the fit read one profile: the overrides plus the
        # default Doppler rate
        desc = json.loads(out.splitlines()[0])
        assert (desc["num_taps"], desc["tap_powers"], desc["num_symbols"],
                desc["doppler_rate"]) == (2, [0.5, 0.5], 8, 0.01)
        profile = FadingProfile(num_taps=2, tap_powers=(0.5, 0.5),
                                doppler_rate=0.01, num_symbols=8)
        assert stat == rayleigh_fit_statistic(profile, 2000, seed=1)[0]

    @pytest.mark.parametrize("args,message", [
        (["--dim", "0"], "dim must be >= 1"),
        (["--dim", "0", "--set", "factor_method=fast"], "dim must be >= 1"),
        (["--kind", "tdl-fading", "--dim", "16", "--samples", "0"],
         "num_samples must be >= 1"),
        (["--seed", "-1"],
         "rmoamp: inspect-channel '--seed' must be an integer >= 0, got -1"),
    ], ids=["haar-dim-0", "fast-dim-0", "fading-samples-0", "seed-negative"])
    def test_inspect_empty_input_exits_2_without_traceback(self, args,
                                                          message):
        proc = subprocess.run(
            [sys.executable, "-m", "rmoamp.cli", "inspect-channel"] + args,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    @pytest.mark.parametrize("lines,overrides,message", [
        ("prior=ddim\nprior.num_steps=5\n", [],
         "cannot set 'prior.num_steps': 'prior' holds 'ddim', not an "
         "object"),
        ("", ["--set", "source.n.x=3"],
         "cannot set 'source.n.x': 'source.n' holds 64, not an object"),
    ], ids=["config-line", "set-override"])
    def test_dotted_key_under_a_non_object_exits_2(self, lines, overrides,
                                                   message, tmp_path,
                                                   capsys):
        path = tmp_path / "dotted.cfg"
        path.write_text(lines + CONFIG_TEXT if lines else CONFIG_TEXT)
        assert main(["run", str(path)] + overrides) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rmoamp: {message}\n"

    @pytest.mark.parametrize("args", [
        ["run", None, "--set", "sigma=1e200"],
        ["inspect-channel", "--dim", "8", "--sigma", "1e200"],
    ], ids=["run", "inspect-channel"])
    def test_sigma_whose_square_overflows_exits_2(self, args, tmp_path):
        args = [self.write_config(tmp_path) if a is None else a for a in args]
        proc = subprocess.run([sys.executable, "-m", "rmoamp.cli"] + args,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("rmoamp: sigma must be in [0, ")

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rmoamp.cli", "run",
             self.write_config(tmp_path)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == ",".join(SWEEP_COLUMNS)
