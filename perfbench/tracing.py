"""Spans and counts recorded around rmoamp's public functions, from outside.

Nothing under ``src/`` is edited.  Each *wrap point* is a public function or
method at the name its caller looks up (``run_trial`` calls
``rmoamp.experiment.build_channel``, ``run_receiver`` calls
``rmoamp.receiver.lmmse_estimate``, and so on).  A wrap point is replaced by
a wrapper that records a span -- name, start, end, parent span, trial id --
in memory and calls through with the same arguments, so results do not
change.  A wrap point whose name no longer exists is skipped, and every
metric that depends on it is reported as ``None`` (unmeasured) instead of
failing the run.  The wrappers never touch a channel's factors.
"""

import functools
import importlib
import inspect
import json
import os
import statistics
import time
import tracemalloc

# span name -> wrap points (module, attribute path) whose calls it records
WRAP_POINTS = {
    "experiment.trial": [("rmoamp.experiment", "run_trial")],
    "sources.load": [("rmoamp.experiment", "load_source")],
    "rm_operator.build": [("rmoamp.experiment", "build_rm_operator")],
    "rm_operator.apply": [("rmoamp.experiment", "rm_forward"),
                          ("rmoamp.receiver", "rm_forward"),
                          ("rmoamp.receiver", "rm_inverse")],
    "channel.build": [("rmoamp.experiment", "build_channel")],
    "channel.transmit": [("rmoamp.channel", "transmit")],
    "channel.apply": [("rmoamp.channel", "ChannelInstance.apply")],
    "receiver.loop": [("rmoamp.experiment", "run_receiver")],
    "receiver.lmmse": [("rmoamp.receiver", "lmmse_estimate")],
    "receiver.correction": [("rmoamp.receiver", "mmse_correction")],
    "priors.denoise": [("rmoamp.receiver", "denoise"),
                       ("rmoamp.sure", "denoise")],
    "sure.divergence": [("rmoamp.receiver", "mc_divergence")],
    "diffusion.integrate": [("rmoamp.diffusion", "fm_integrate")],
    "bridge.spawn": [("rmoamp.bridge", "BridgeClient.spawn")],
    "bridge.call": [("rmoamp.bridge", "BridgeClient.denoise_once")],
    "metrics.psnr": [("rmoamp.experiment", "psnr"),
                     ("rmoamp.receiver", "psnr")],
    "metrics.ssim": [("rmoamp.experiment", "ssim")],
    "fileio.write": [("rmoamp.experiment", "write_pgm"),
                     ("rmoamp.experiment", "write_matrix")],
}

# bridge frame headers: request magic, length, t_star, v; response magic,
# length (rmoamp.bridge)
REQUEST_HEAD_BYTES = 32
RESPONSE_HEAD_BYTES = 16


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, path, make):
        """Replace ``module.path`` with ``make(original)``.

        Returns False, replacing nothing, when the name no longer exists.
        A classmethod is wrapped around its function and stays a classmethod.
        """
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return False
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            return False
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._saved.append((owner, attr, raw))
        return True

    def restore(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "ok", "extra")

    def __init__(self, name, parent, trial):
        self.name = name
        self.parent = parent
        self.trial = trial
        self.start = self.end = 0.0
        self.ok = False
        self.extra = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records a span for every call through the wrap points it installs."""

    def __init__(self, patches):
        self.patches = patches
        self.spans = []
        self.missing = set()
        self._stack = []
        self._trial = None
        self._trials_started = 0

    def install(self):
        for name, points in WRAP_POINTS.items():
            for module, path in points:
                make = functools.partial(self._wrapper, name)
                if not self.patches.wrap(module, path, make):
                    self.missing.add(name)

    def _wrapper(self, name, func):
        extra = _EXTRAS.get(name)
        signature = inspect.signature(func) if extra else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if name == "experiment.trial":
                self._trial = self._trials_started
                self._trials_started += 1
            span = Span(name, self._stack[-1] if self._stack else None,
                        self._trial)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            bound = signature.bind(*args, **kwargs) if extra else None
            watch = name == "channel.build" and not tracemalloc.is_tracing()
            if watch:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                span.ok = True
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if watch:
                    peak = tracemalloc.get_traced_memory()[1]
                    span.extra = {"alloc_peak": peak}
                    tracemalloc.stop()
                if name == "experiment.trial":
                    self._trial = None
            if extra:
                span.extra = dict(span.extra or {},
                                  **extra(bound.arguments, result))
            return result

        return traced

    def dump(self, t0):
        """Spans as rows [name, start, end, parent, trial] relative to t0."""
        return [[s.name, s.start - t0, s.end - t0, s.parent, s.trial]
                for s in self.spans]


def _build_extra(arguments, result):
    # what makes two builds identical, ignoring the noise variance
    key = [arguments["spec"], arguments["dim"], arguments["seed"]]
    return {"key": json.dumps(key, sort_keys=True, default=repr)}


def _call_extra(arguments, result):
    n = result.size
    return {"bytes": REQUEST_HEAD_BYTES + RESPONSE_HEAD_BYTES + 8 * n}


def _write_extra(arguments, result):
    return {"bytes": os.path.getsize(arguments["path"])}


_EXTRAS = {"channel.build": _build_extra, "bridge.call": _call_extra,
           "fileio.write": _write_extra}


class TrialLog:
    """Keeps what ``run_trial`` returns, which ``run_experiment`` drops.

    The trace carries the per-iteration faults a TrialResult does not, so
    the benchmark can count a trial as failed when any iteration faulted.
    """

    def __init__(self, patches):
        self.records = {}
        if not patches.wrap("rmoamp.experiment", "run_trial", self._wrapper):
            raise RuntimeError("rmoamp.experiment.run_trial is gone; the "
                               "benchmark cannot check trial outputs")

    def _wrapper(self, run_trial):
        @functools.wraps(run_trial)
        def logged(cfg, trial):
            result, trace, estimate = run_trial(cfg, trial)
            self.records[id(result)] = (cfg, result, trace, estimate)
            return result, trace, estimate

        return logged

    def get(self, result):
        record = self.records.get(id(result))
        return record if record is not None and record[1] is result else None


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, missing):
    """Per-layer metrics of one traced pass, from its spans.

    ``spans`` is the pass's slice of the tracer's list, with absolute span
    indices as keys: {index: Span}.  Metrics whose spans come from a
    missing wrap point are None.
    """
    by_name = {}
    child_seconds = {}
    for span in spans.values():
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            child_seconds[span.parent] = (child_seconds.get(span.parent, 0.0)
                                          + span.seconds)

    def of(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.seconds for s in of(name))

    def self_time(name):
        return sum(s.seconds - child_seconds.get(i, 0.0)
                   for i, s in spans.items() if s.name == name)

    builds = of("channel.build")
    keys = [s.extra["key"] for s in builds if s.extra]
    denoises = of("priors.denoise")
    probes = [s for s in denoises if s.parent in spans
              and spans[s.parent].name == "sure.divergence"]
    calls = of("bridge.call")
    first_calls = []
    ordered = list(spans.values())
    for pos, span in enumerate(ordered):
        if span.name == "bridge.spawn":
            nxt = next((s for s in ordered[pos + 1:]
                        if s.name == "bridge.call"), None)
            first_calls.append(span.seconds + (nxt.seconds if nxt else 0.0))
    peaks = [s.extra["alloc_peak"] for s in builds
             if s.extra and "alloc_peak" in s.extra]

    metrics = {
        "channel.build_s": ("s", total("channel.build"), ["channel.build"]),
        "channel.build_alloc_peak_mb": (
            "MiB", max(peaks, default=0) / 2 ** 20, ["channel.build"]),
        "channel.apply_calls": ("count", len(of("channel.apply")),
                                ["channel.apply"]),
        "channel.apply_s": ("s", total("channel.apply"), ["channel.apply"]),
        "channel.transmit_s": ("s", total("channel.transmit"),
                               ["channel.transmit"]),
        "channel.repeat_build_frac": (
            "frac", _ratio(len(keys) - len(set(keys)), len(keys)),
            ["channel.build"]),
        "receiver.loop_s": ("s", total("receiver.loop"), ["receiver.loop"]),
        "receiver.self_s": ("s", self_time("receiver.loop"),
                            ["receiver.loop"]),
        "receiver.lmmse_calls": ("count", len(of("receiver.lmmse")),
                                 ["receiver.lmmse"]),
        "receiver.lmmse_s": ("s", total("receiver.lmmse"), ["receiver.lmmse"]),
        "receiver.correction_s": ("s", total("receiver.correction"),
                                  ["receiver.correction"]),
        "priors.denoise_calls": ("count", len(denoises), ["priors.denoise"]),
        "priors.denoise_s": ("s", total("priors.denoise"), ["priors.denoise"]),
        "sure.divergence_calls": ("count", len(of("sure.divergence")),
                                  ["sure.divergence"]),
        "sure.divergence_s": ("s", total("sure.divergence"),
                              ["sure.divergence"]),
        "sure.probe_call_frac": ("frac", _ratio(len(probes), len(denoises)),
                                 ["priors.denoise", "sure.divergence"]),
        "diffusion.integrate_s": ("s", total("diffusion.integrate"),
                                  ["diffusion.integrate"]),
        "bridge.spawns": ("count", len(of("bridge.spawn")), ["bridge.spawn"]),
        "bridge.first_call_s": ("s", _median(first_calls),
                                ["bridge.spawn", "bridge.call"]),
        "bridge.calls": ("count", len(calls), ["bridge.call"]),
        "bridge.call_s_p50": ("s", _median([s.seconds for s in calls]),
                              ["bridge.call"]),
        "bridge.bytes_computed": (
            "B", sum(s.extra["bytes"] for s in calls if s.extra),
            ["bridge.call"]),
        "bridge.ok_frac": ("frac", _ratio(sum(s.ok for s in calls),
                                          len(calls)), ["bridge.call"]),
        "rm_operator.build_s": ("s", total("rm_operator.build"),
                                ["rm_operator.build"]),
        "rm_operator.apply_calls": ("count", len(of("rm_operator.apply")),
                                    ["rm_operator.apply"]),
        "rm_operator.apply_s": ("s", total("rm_operator.apply"),
                                ["rm_operator.apply"]),
        "sources.load_s": ("s", total("sources.load"), ["sources.load"]),
        "metrics.psnr_s": ("s", total("metrics.psnr"), ["metrics.psnr"]),
        "metrics.ssim_s": ("s", total("metrics.ssim"), ["metrics.ssim"]),
        "fileio.write_s": ("s", total("fileio.write"), ["fileio.write"]),
        "fileio.bytes_written": (
            "B", sum(s.extra["bytes"] for s in of("fileio.write") if s.extra),
            ["fileio.write"]),
        "experiment.self_s": ("s", self_time("experiment.trial"),
                              ["experiment.trial"]),
    }
    return {name: (unit, None if missing.intersection(deps) else value)
            for name, (unit, value, deps) in metrics.items()}
