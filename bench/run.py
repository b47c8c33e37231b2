"""penet benchmark: one workload per run, timed from outside the library.

    python3 bench/run.py --workload train-cls --seed 1 --seconds 36 --trace 0

``--seconds`` covers set-up and the timed window. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` spends half of ``--seconds`` on the
untraced measurement, then runs the workload again with every layer
wrapped and prints the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when an output check fails. bench/README.md
explains the workloads and what each metric should move.
"""

import os

# One process, one BLAS thread; this must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import ctypes
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import host
import spans

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-cls", "train-seg", "eval-sweep")

POINTS = 1024              # points per synthetic cloud; with normals din = 6
BATCH = 16                 # training batch size
TRAIN_N = 256              # training point count (FPS from POINTS)
SWEEP_COUNTS = [128, 512, 1024]
CKPT_EPOCHS = 10           # eval-sweep's checkpoint: a short training run
CKPT_N = 128
WARM_CLOUDS = 8            # eval-sweep warm-up sweeps this many test clouds
ACCURACY_FLOOR = 0.5       # sweep accuracy at n=1024; chance is 0.25
LOGIT_TOL = 1e-3           # float32 vs float64 logits, relative to their scale
CHECK_CLOUDS = 4           # clouds per sampled batch in the float64 check
SUM_CHECK_STEPS = 50       # traced steps needed to check the self-time sum
LOAD_WINDOW = 16           # parses per window, and clouds parsed again
                           # at each interlude between timed work
MIN_EPOCHS = 5             # timed epochs, at the least, for the loss check
TRACE_SHARE = 1 / 2        # share of --seconds the traced run gets in
                           # --trace 1; the untraced run gets the rest

SIZES = {
    # setup_reps: full set-ups per run, at least 2; the last one goes on to
    # the timed window
    "full": {"train_per_class": 24, "ckpt_per_class": 8,
             "test_per_class": 16, "setup_reps": 3},
    "tiny": {"train_per_class": 4, "ckpt_per_class": 8,
             "test_per_class": 2, "setup_reps": 2},
}

END_TO_END = {
    "setup_s": "s",
    "clouds_per_s": "1/s",
    "step_ms": "ms",
    "load_clouds_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def fastest(samples, window):
    """The smallest median over runs of ``window`` consecutive samples.

    Interference on a shared host only ever adds time, and it comes and
    goes over seconds, so the fastest short window of a run is the
    program's own cost (timeit's minimum, taken over windows); the median
    inside a window keeps one lucky sample from setting it."""
    chunks = [samples[i:i + window]
              for i in range(0, len(samples) - window + 1, window)]
    return min(statistics.median(c) for c in chunks or [samples])


def _layer_spans(names, methods):
    return [f"{n}.{m}" for n in names for m in methods]


_ENCODER = ["models", "encoder", "encoder.layer1", "encoder.layer2",
            "encoder.layer3", "encoder.relus.0", "encoder.relus.1",
            "aggregate.GlobalPool"]
_CLS_HEAD = ["head"] + [f"head.{l}" for l in (
    "conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "fc1", "relu3",
    "fc2")]
_SEG_HEAD = ["seg"] + [f"seg.{l}" for l in (
    "fc1", "relu1", "fc2", "relu2", "fc3")]
_TRAIN_CALLS = ["numcore.Adam.step", "numcore.softmax_cross_entropy",
                "data.farthest_point_sample", "data.augment",
                "data.load_cloud_text"]

# Spans each workload must record in the traced run; one with no calls
# means a wrapper was lost, which would otherwise read as a speed-up.
EXPECTED_SPANS = {
    "train-cls": _layer_spans(_ENCODER + _CLS_HEAD, ("forward", "backward"))
    + _TRAIN_CALLS,
    "train-seg": _layer_spans(_ENCODER + _SEG_HEAD, ("forward", "backward"))
    + _TRAIN_CALLS,
    "eval-sweep": _layer_spans(_ENCODER + _CLS_HEAD, ("forward",))
    + ["data.farthest_point_sample", "data.load_cloud_text",
       "train.load_checkpoint"],
}
ALL_SPANS = sorted(set().union(*EXPECTED_SPANS.values()))

PER_LAYER = {f"{name}.ms": "ms" for name in ALL_SPANS + ["train.prep"]}
PER_LAYER.update({
    "encoder.layer3.out_mb": "MB",
    "seg.fc1.in_mb": "MB",
    "encoder.layer3.forward.mflop": "MFLOP",
    "encoder.layer3.backward.mflop": "MFLOP",
    "seg.fc1.forward.mflop": "MFLOP",
    "seg.fc1.backward.mflop": "MFLOP",
    "models.mflop_per_cloud": "MFLOP",
    "data.farthest_point_sample.calls_per_cloud": "count",
    "train.step_alloc_peak_mb": "MB",
    "trace.overhead": "ratio",
    "trace.self_sum_ms": "ms",
    **{f"host.{name}_ms": "ms" for name in host.KERNELS},
})


# --------------------------------------------------------------------------
# Environment


def import_penet():
    """penet's modules, imported from this checkout's sources only."""
    pkg = ROOT / "src" / "penet"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: penet sources not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("penet")
    if Path(package.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: imported penet from {package.__file__}, not {pkg}")
    # the package re-exports train(), which hides the penet.train module
    return SimpleNamespace(
        version=package.__version__,
        **{m: importlib.import_module(f"penet.{m}")
           for m in ("data", "numcore", "train")})


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy bundles, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(args, penet):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": "tiny" if args.tiny else "full",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "penet": penet.version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": git_revision(),
    }


# --------------------------------------------------------------------------
# Output checks


@dataclass
class Checks:
    """Operations attempted and checks failed; feeds attempted/failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def ops(self, n: int):
        self.attempted += n

    def ok(self, cond, what: str) -> bool:
        self.attempted += 1
        if not cond:
            self.failures.append(what)
        return bool(cond)


def float64_twin(model):
    """The same model rebuilt in float64 from its named parameters."""
    meta = model.metadata()
    n_out = meta.get("num_classes", meta.get("num_parts"))
    twin = type(model)(meta["din"], n_out, k=meta["k"],
                       depth=meta["encoder_depth"], dtype=np.float64)
    values = model.named_params()
    for p in twin.params():
        p.value[...] = values[p.name]
    return twin


def check_logits(checks, twin, x, out, what):
    ref = twin.forward(x.astype(np.float64))
    finite = bool(np.isfinite(out).all())
    err = float(np.abs(out - ref).max() / max(1.0, np.abs(ref).max()))
    checks.ok(finite and err <= LOGIT_TOL,
              f"{what}: logits differ from the float64 copy by {err:.3g} "
              f"(finite={finite}, tolerance {LOGIT_TOL})")


def check_training(penet, checks, result):
    losses = [row[1] for row in result.rows]
    checks.ok(all(math.isfinite(l) for l in losses),
              f"non-finite train loss in {losses}")
    checks.ok(losses[-1] < losses[0],
              f"loss did not fall: epoch 0 {losses[0]:.4f}, "
              f"last epoch {losses[-1]:.4f}")
    twin = float64_twin(result.model)
    clouds = result.clouds
    for b0 in (0, len(clouds) // 2):
        batch = [penet.data.zero_mean_normalize(
            penet.data.farthest_point_sample(c, TRAIN_N))
            for c in clouds[b0:b0 + CHECK_CLOUDS]]
        x = np.stack([c.features() for c in batch]).astype(np.float32)
        check_logits(checks, twin, x, result.model.forward(x),
                     f"batch at cloud {b0}")


# --------------------------------------------------------------------------
# Instrumentation


def traced_targets(penet, tracer):
    """Wrap each model the train module builds, and the functions it
    looks up; ``instrumented`` wraps load_cloud_text in penet.data."""
    t = penet.train

    def wrapped(cls):
        def make(*args, **kwargs):
            model = cls(*args, **kwargs)
            spans.wrap_model(model, tracer, penet.numcore)
            return model
        return make

    return [
        (t, "Classifier", wrapped(t.Classifier)),
        (t, "Segmenter", wrapped(t.Segmenter)),
        (t, "farthest_point_sample",
         tracer.wrap("data.farthest_point_sample", t.farthest_point_sample)),
        (t, "augment", tracer.wrap("data.augment", t.augment)),
        (t, "softmax_cross_entropy",
         tracer.wrap("numcore.softmax_cross_entropy",
                     t.softmax_cross_entropy)),
    ]


@dataclass
class Clock:
    """Timing the untraced run takes too, one clock read or two per call:
    the (start, end) of every optimiser step and the duration of every
    text parse. A step starts where the last one's ``on_step`` returned."""

    steps: list = field(default_factory=list)
    parses: list = field(default_factory=list)
    resume: float = field(default_factory=time.perf_counter)


def instrumented(penet, clock, tracer=None, on_step=None):
    """Patch penet to fill ``clock``; with a tracer, also record spans."""
    real_adam = penet.train.Adam

    def adam(*args, **kwargs):
        opt = real_adam(*args, **kwargs)
        step = opt.step if tracer is None else \
            tracer.wrap("numcore.Adam.step", opt.step)

        def marked_step(params):
            step(params)
            clock.steps.append((clock.resume, time.perf_counter()))
            if on_step is not None:
                on_step(len(clock.steps))
            clock.resume = time.perf_counter()
        opt.step = marked_step
        return opt

    parse = penet.data.load_cloud_text if tracer is None else \
        tracer.wrap("data.load_cloud_text", penet.data.load_cloud_text)

    def timed_parse(path):
        t0 = time.perf_counter()
        cloud = parse(path)
        clock.parses.append(time.perf_counter() - t0)
        return cloud

    targets = [(penet.train, "Adam", adam),
               (penet.data, "load_cloud_text", timed_parse)]
    if tracer is not None:
        targets += traced_targets(penet, tracer)
    return spans.patched(*targets)


def percentile_ms(seconds, q):
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


HOST = host.Host()
# Kernels like penet's compute: BLAS products, and small numpy calls from
# Python loops (FPS, elementwise layers, Adam). Parsing has its own kernel.
COMPUTE = ("matmul", "loop")


def interlude(penet, manifest, i):
    """Between timed steps or batches: parse the i-th slice of LOAD_WINDOW
    clouds of the set again, and time the host's reference kernels."""
    HOST.probe()
    entries = manifest.entries * 2
    start = i * LOAD_WINDOW % len(manifest.entries)
    part = copy.copy(manifest)
    part.entries = entries[start:start + LOAD_WINDOW]
    penet.data.load_dataset(part)


# --------------------------------------------------------------------------
# train-cls and train-seg


def part_labels(cloud):
    """Four parts from geometry: the signs of z and of x."""
    p = cloud.points
    return (p[:, 2] > 0).astype(np.int64) + 2 * (p[:, 0] > 0)


@dataclass
class TrainPass:
    t0: float
    clock: Clock
    model: object
    rows: list
    clouds: list


def train_pass(penet, work, task, seed, per_class, epochs, tracer=None,
               on_step=None):
    """Set-up (generate, load, build) and train(); epoch 0 is the warm-up.

    After every epoch, outside the timed steps, part of the training set
    is parsed again, so that parses are timed across the whole run and not
    only in set-up."""
    spe = math.ceil(4 * per_class / BATCH)

    def between_steps(k):
        if k % spe == 0:
            interlude(penet, manifest, k // spe - 1)
        if on_step is not None:
            on_step(k)

    clock = Clock()
    t0 = time.perf_counter()
    with instrumented(penet, clock, tracer, between_steps):
        manifest = penet.data.synth_shapes(work, per_class, POINTS, seed=seed)
        clouds = penet.data.load_dataset(manifest)
        if task == "segment":
            for c in clouds:
                c.part_labels = part_labels(c)
        cfg = penet.train.TrainConfig(task=task, epochs=epochs,
                                      batch_size=BATCH, n_points=TRAIN_N,
                                      seed=seed)
        model, rows = penet.train.train(clouds, cfg)
    return TrainPass(t0, clock, model, rows, clouds)


def steady_epochs(steps, spe):
    """Step durations of each whole epoch after the warm-up epoch."""
    d = [b - a for a, b in steps]
    return [d[i:i + spe] for i in range(spe, len(d) - spe + 1, spe)]


def fastest_epoch_ms(epochs):
    """The smallest median step over the epochs, in ms."""
    return min(statistics.median(e) for e in epochs) * 1e3


def measure_train(penet, work, args, seconds, size, checks, task):
    """Set up ``setup_reps`` times; the last set-up goes on to the timed
    window, which fills the rest of ``seconds``. The first also trains one
    steady epoch, to size the window. Timings come from the fastest epoch.
    Also returns the set-up and epoch seconds, to size the traced run, and
    the unscaled step_ms, for trace.overhead."""
    t_end = time.perf_counter() + seconds
    n = 4 * size["train_per_class"]
    spe = math.ceil(n / BATCH)           # steps per epoch
    setups, parses = [], []

    def set_up(epochs):
        result = train_pass(penet, work, task, args.seed,
                            size["train_per_class"], epochs)
        setups.append(result.clock.steps[spe - 1][1] - result.t0)
        parses.extend(result.clock.parses)
        return result

    epoch_s = sum(steady_epochs(set_up(epochs=2).clock.steps, spe)[0])
    for _ in range(size["setup_reps"] - 2):
        set_up(epochs=1)
    setup_s = statistics.median(setups)
    left = t_end - time.perf_counter() - setup_s
    result = set_up(epochs=1 + max(MIN_EPOCHS, round(left / epoch_s)))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    timed = steady_epochs(result.clock.steps, spe)
    checks.ops(sum(len(e) for e in timed))
    check_training(penet, checks, result)
    compute, parse = HOST.slowdown(*COMPUTE), HOST.slowdown("parse")
    step_ms = fastest_epoch_ms(timed)
    metrics = {
        "setup_s": setup_s / compute,
        "clouds_per_s": n / min(sum(e) for e in timed) * compute,
        "step_ms": step_ms / compute,
        "load_clouds_per_s": parse / fastest(parses, LOAD_WINDOW),
        "peak_rss_mb": peak_rss,
    }
    return metrics, (setup_s, epoch_s), step_ms


def trace_train(penet, work, args, seconds, size, checks, pace,
                untraced_ms, task):
    """One more set-up and training run with every layer wrapped, sized
    by the untraced run's set-up and epoch seconds (``pace``) to last about
    ``seconds``. One extra epoch at the end runs under tracemalloc and is
    left out of the timings."""
    n = 4 * size["train_per_class"]
    spe = math.ceil(n / BATCH)
    setup_s, epoch_s = pace
    epochs = 1 + max(MIN_EPOCHS, round((seconds - setup_s) / epoch_s))
    last = epochs * spe                  # steps before the tracemalloc epoch

    def on_step(k):
        if k == last:
            tracemalloc.start()

    tracer = spans.Tracer()
    try:
        result = train_pass(penet, work, task, args.seed,
                            size["train_per_class"], epochs + 1, tracer,
                            on_step)
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check_training(penet, checks, result)
    steps = result.clock.steps[spe:last]
    return reduce_spans(
        tracer, args.workload, until=steps[-1][1], steps=steps,
        clouds_in_steps=len(steps) * BATCH, clouds_total=n,
        alloc_peak=alloc_peak,
        traced_ms=fastest_epoch_ms(
            steady_epochs(result.clock.steps[:last], spe)),
        untraced_ms=untraced_ms, checks=checks)


# --------------------------------------------------------------------------
# eval-sweep


def eval_setup(penet, work, seed, size):
    """Train and save the checkpoint, write the test set, warm up."""
    t0 = time.perf_counter()
    train_seed, test_seed = (int(s) for s in
                             np.random.SeedSequence(seed).generate_state(2))
    clouds = penet.data.load_dataset(penet.data.synth_shapes(
        work / "train", size["ckpt_per_class"], POINTS, seed=train_seed))
    cfg = penet.train.TrainConfig(task="classify", epochs=CKPT_EPOCHS,
                                  batch_size=BATCH, n_points=CKPT_N, seed=seed)
    model, _ = penet.train.train(clouds, cfg)
    penet.train.save_checkpoint(model, work / "model.ckpt")
    penet.data.synth_shapes(work / "test", size["test_per_class"], POINTS,
                            seed=test_seed, split="test")
    sweep_iteration(penet, work, limit=WARM_CLOUDS)
    return time.perf_counter() - t0


@dataclass
class SweepIteration:
    steps: list            # (start, end) of each eval batch
    batch_n: list          # point count of each eval batch
    batch_finite: list
    rows: list
    n_clouds: int


def sweep_iteration(penet, work, limit=None, tracer=None, samples=None):
    """What ``penet sweep`` does: load the checkpoint and the test set,
    then classify at each point count. ``samples`` collects the first
    batch per count for the float64 check. After every eval batch, outside
    its timing, part of the test set is parsed again, so that parses are
    timed across the whole run."""
    load = penet.train.load_checkpoint if tracer is None else \
        tracer.wrap("train.load_checkpoint", penet.train.load_checkpoint)
    model = load(work / "model.ckpt")
    manifest = penet.data.load_manifest(work / "test" / "test.manifest")
    if limit is not None:
        manifest.entries = manifest.entries[:limit]
    clouds = penet.data.load_dataset(manifest)
    steps, counts, finite = [], [], []
    start = time.perf_counter()
    forward = model.forward

    def marked_forward(points):
        nonlocal start
        out = forward(points)
        steps.append((start, time.perf_counter()))
        counts.append(points.shape[1])
        finite.append(bool(np.isfinite(out).all()))
        if samples is not None and points.shape[1] not in samples:
            samples[points.shape[1]] = (points[:CHECK_CLOUDS].copy(),
                                        out[:CHECK_CLOUDS].copy())
        interlude(penet, manifest, len(steps) - 1)
        start = time.perf_counter()
        return out
    model.forward = marked_forward
    rows = penet.train.sweep_point_count(model, clouds, SWEEP_COUNTS)
    return SweepIteration(steps, counts, finite, rows, len(clouds))


def check_sweep(checks, it):
    checks.ops(len(it.steps) + 1)
    checks.ok(all(it.batch_finite), "non-finite logits in the sweep")
    acc = {n: inst for n, inst, _ in it.rows}
    checks.ok(acc.get(1024, 0.0) >= ACCURACY_FLOOR,
              f"sweep accuracy at n=1024 is {acc.get(1024)}, "
              f"floor {ACCURACY_FLOOR}")


def sweep_window(penet, work, seconds, checks, tracer=None, samples=None):
    iterations = []
    t_start = time.perf_counter()
    while not iterations or time.perf_counter() - t_start < seconds:
        it = sweep_iteration(penet, work, tracer=tracer, samples=samples)
        check_sweep(checks, it)
        iterations.append(it)
    return iterations


def check_samples(penet, checks, work, samples):
    """Every sweep loads the same checkpoint, so the float64 copy comes
    from loading it once more."""
    twin = float64_twin(penet.train.load_checkpoint(work / "model.ckpt"))
    checks.ok(sorted(samples) == sorted(SWEEP_COUNTS),
              f"sampled batches at {sorted(samples)}, not {SWEEP_COUNTS}")
    for n, (x, out) in sorted(samples.items()):
        check_logits(checks, twin, x, out, f"sweep batch at n={n}")


def batches(iterations, n):
    """Durations of the eval batches at n points, in the order they ran."""
    return [b - a for it in iterations
            for m, (a, b) in zip(it.batch_n, it.steps) if m == n]


def sweep_rate(iterations):
    """Clouds classified per second over one sweep whose batches each
    take the fastest time seen at their point count."""
    per_sweep = len(batches(iterations[:1], SWEEP_COUNTS[0]))
    sweep_s = sum(per_sweep * min(batches(iterations, n))
                  for n in SWEEP_COUNTS)
    return iterations[0].n_clouds * len(SWEEP_COUNTS) / sweep_s


def sweep_step_ms(iterations):
    """The fastest eval batch at the largest point count."""
    return min(batches(iterations, SWEEP_COUNTS[-1])) * 1e3


def measure_eval(penet, work, args, seconds, size, checks, task=None):
    """Set up ``setup_reps`` times, then sweep for the rest of
    ``seconds``. Also returns the unscaled step_ms, for trace.overhead."""
    t_end = time.perf_counter() + seconds
    setups = [eval_setup(penet, work, args.seed, size)
              for _ in range(size["setup_reps"])]
    samples, clock = {}, Clock()
    with instrumented(penet, clock):
        iterations = sweep_window(penet, work, t_end - time.perf_counter(),
                                  checks, samples=samples)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    check_samples(penet, checks, work, samples)
    compute, parse = HOST.slowdown(*COMPUTE), HOST.slowdown("parse")
    step_ms = sweep_step_ms(iterations)
    metrics = {
        "setup_s": statistics.median(setups) / compute,
        "clouds_per_s": sweep_rate(iterations) * compute,
        # the 1024-point batch skips FPS: BLAS work only
        "step_ms": step_ms / HOST.slowdown("matmul"),
        "load_clouds_per_s": parse / fastest(clock.parses, LOAD_WINDOW),
        "peak_rss_mb": peak_rss,
    }
    return metrics, None, step_ms


def trace_eval(penet, work, args, seconds, size, checks, pace,
               untraced_ms, task=None):
    tracer = spans.Tracer()
    with instrumented(penet, Clock(), tracer):
        iterations = sweep_window(penet, work, seconds, checks,
                                  tracer=tracer)
        until = time.perf_counter()
        tracemalloc.start()
        try:
            check_sweep(checks, sweep_iteration(penet, work, tracer=tracer))
            alloc_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    classified = sum(it.n_clouds for it in iterations) * len(SWEEP_COUNTS)
    return reduce_spans(
        tracer, args.workload, until=until,
        steps=[s for it in iterations for s in it.steps],
        clouds_in_steps=classified, clouds_total=classified,
        alloc_peak=alloc_peak, traced_ms=sweep_step_ms(iterations),
        untraced_ms=untraced_ms, checks=checks, same_steps=False)


# --------------------------------------------------------------------------
# Per-layer metrics


def reduce_spans(tracer, workload, until, steps, clouds_in_steps,
                 clouds_total, alloc_peak, traced_ms, untraced_ms, checks,
                 same_steps=True):
    """Per-layer metrics from the spans that ended by ``until``.

    ``steps`` are the (start, end] intervals of the train steps or eval
    batches. ``train.prep`` is the part of a step no span covers: batch
    assembly in the train module. ``same_steps`` says every step does the
    same work, so a sum of per-span medians should give a step's time.
    ``traced_ms`` and ``untraced_ms`` are the two runs' ``step_ms``.
    """
    recorded = [s for s in tracer.spans if s.end <= until]
    by_name = {}
    for s in recorded:
        by_name.setdefault(s.name, []).append(s)
    for name in EXPECTED_SPANS[workload]:
        checks.ok(name in by_name, f"span {name} recorded no calls")

    ends = [s.end for s in recorded]      # spans are appended as they end
    prep, in_steps, step_s = [], {}, []
    for a, b in steps:
        inside = recorded[bisect_right(ends, a):bisect_right(ends, b)]
        covered = sum(s.end - s.start for s in inside if s.top)
        prep.append(b - a - covered)
        step_s.append(b - a)
        for s in inside:
            in_steps[s.name] = in_steps.get(s.name, 0) + 1

    def median_ms(name):
        calls = by_name.get(name)
        return statistics.median(s.self_s for s in calls) * 1e3 if calls \
            else 0.0

    def per_call(name, attr, reduce):
        calls = by_name.get(name)
        return reduce([getattr(s, attr) for s in calls]) if calls else 0.0

    metrics = {f"{name}.ms": median_ms(name) for name in ALL_SPANS}
    metrics["train.prep.ms"] = statistics.median(prep) * 1e3
    self_sum = metrics["train.prep.ms"] + sum(
        metrics[f"{name}.ms"] * calls / len(steps)
        for name, calls in in_steps.items() if name in by_name)
    traced_p50 = percentile_ms(step_s, 50)
    mflop = sum(s.mflop for s in recorded
                if steps[0][0] < s.end <= steps[-1][1])
    fps_calls = len(by_name.get("data.farthest_point_sample", []))
    mean = statistics.mean
    metrics.update({
        "encoder.layer3.out_mb":
            per_call("encoder.layer3.forward", "out_mb", max),
        "seg.fc1.in_mb": per_call("seg.fc1.forward", "in_mb", max),
        "encoder.layer3.forward.mflop":
            per_call("encoder.layer3.forward", "mflop", mean),
        "encoder.layer3.backward.mflop":
            per_call("encoder.layer3.backward", "mflop", mean),
        "seg.fc1.forward.mflop": per_call("seg.fc1.forward", "mflop", mean),
        "seg.fc1.backward.mflop": per_call("seg.fc1.backward", "mflop", mean),
        "models.mflop_per_cloud": mflop / clouds_in_steps,
        "data.farthest_point_sample.calls_per_cloud": fps_calls / clouds_total,
        "train.step_alloc_peak_mb": alloc_peak / 1e6,
        "trace.overhead": traced_ms / untraced_ms,
        "trace.self_sum_ms": self_sum,
    })
    if same_steps and len(steps) >= SUM_CHECK_STEPS:
        # The self times along a step must account for the traced step,
        # give or take the difference between a sum of medians and a
        # median of sums, which only many steps keep small.
        checks.ok(abs(self_sum / traced_p50 - 1) <= 0.1,
                  f"self times sum to {self_sum:.2f} ms per step, the "
                  f"traced step takes {traced_p50:.2f} ms")
    return metrics


# --------------------------------------------------------------------------


MEASURE = {"train-cls": ("classify", measure_train, trace_train),
           "train-seg": ("segment", measure_train, trace_train),
           "eval-sweep": (None, measure_eval, trace_eval)}


def run(penet, args, work, checks):
    size = SIZES["tiny" if args.tiny else "full"]
    task, measure, trace = MEASURE[args.workload]
    traced_s = args.seconds * TRACE_SHARE if args.trace else 0
    metrics, pace, clock_ms = measure(penet, work, args,
                                      args.seconds - traced_s, size, checks,
                                      task=task)
    if not args.trace:
        return metrics, END_TO_END
    layer = trace(penet, work, args, traced_s, size, checks, pace,
                  clock_ms, task=task)
    layer.update({f"host.{name}_ms": HOST.fastest_ms(name)
                  for name in host.KERNELS})
    return layer, PER_LAYER


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small data and one fewer set-up, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    penet = import_penet()
    print(json.dumps({"env": environment(args, penet)}), flush=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    checks = Checks()
    metrics, units = {}, {}
    try:
        metrics, units = run(penet, args, work, checks)
    except Exception:
        traceback.print_exc()
        checks.ok(False, "exception")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for failure in checks.failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": max(1, checks.attempted),
        "failed": len(checks.failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
