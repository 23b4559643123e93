"""noisylab benchmark: four scenario workloads, end to end and traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ice-learner --seed 9 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One run of a workload is one process. It times ``import noisylab.bench`` in
fresh interpreters (``setup_s``), then runs the workload's scenario in whole
rounds, all at the given seed, until ``--seconds`` have passed (at least two
rounds, so the second can be compared byte for byte with the first). Both
times are rescaled to a reference host speed sampled while they run
(``refloop.py``). Every round's report is checked. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
rounds alternate untraced and traced, and the metrics are the per-layer
figures of the traced rounds (medians over rounds), with ``trace.overhead_s``
the difference of the two rounds' median wall times. The spans of the first
traced round are written to ``.perfbench/``.

``--workload all`` runs every workload in its own process, one after another,
and prints each one's result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refloop import SpeedSampler
from tracing import Target, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# numpy and its BLAS get one thread each: the machine has two shared CPUs.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Wall time from a fresh interpreter to ``noisylab.bench`` imported, at
    reference host speed: the median over ``SETUP_REPEATS`` interpreters.

    Each interpreter times its own import under a :class:`SpeedSampler`
    (``import_noisylab.py``); the interpreter's start-up before that, as seen
    from here, is added unscaled. The sampling runs in the child because the
    scheduler may place it on the other CPU, whose speed a chunk timed in this
    process does not follow."""
    raw, rescaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "import_noisylab.py")],
            cwd=ROOT, env=_env(), check=True, timeout=120, stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - t0
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        startup = wall - child["elapsed_s"]
        raw.append(startup + child["import_s"])
        rescaled.append(startup + child["import_ref_s"])
    print("set-up wall s: " + " ".join(f"{x:.3f}" for x in raw), file=sys.stderr)
    return statistics.median(rescaled)


def _first_len(x, *args, **kwargs) -> int:
    return len(x)


def _n_points(key, n, *args, **kwargs) -> int:
    return n


# The public entry points the traced run wraps, one layer each.
TARGETS = [
    Target("core.rng_generator", "noisylab.core.RngHandle", "generator"),
    Target("core.sample_take", "noisylab.core.Sample", "take"),
    Target("core.empirical_error", "noisylab.core", "empirical_error"),
    Target("learn.select_best_hypothesis", "noisylab.learn", "select_best_hypothesis",
           "candidates", _first_len),
    Target("learn.amplify", "noisylab.learn", "amplify"),
    Target("learn.bad_amplify", "noisylab.learn", "bad_amplify"),
    Target("learn.ice_filter", "noisylab.learn", "ice_filter"),
    Target("noise.nasty_corrupt", "noisylab.noise", "nasty_corrupt"),
    Target("noise.strong_malicious_corrupt", "noisylab.noise", "strong_malicious_corrupt"),
    Target("codes.encode", "noisylab.codes", "encode"),
    Target("codes.mask_to_signs", "noisylab.codes", "mask_to_signs"),
    Target("codes.received_word", "noisylab.codes.ReceivedWord", "__init__"),
    Target("codes.erasure_list_decode", "noisylab.codes", "erasure_list_decode"),
    Target("codes.bitflip_list_decode", "noisylab.codes", "bitflip_list_decode"),
    Target("cryptoprim.extract", "noisylab.cryptoprim", "extract"),
    Target("cryptoprim.prf_truth_table", "noisylab.cryptoprim", "prf_truth_table",
           "points", _n_points),
    Target("sep.concept", "noisylab.sep.SepInstance", "concept"),
    Target("sep.learner", "noisylab.sep", "sep_malicious_learner", durations=True),
    Target("icesep.concept", "noisylab.icesep.IceInstance", "concept"),
    Target("icesep.key_fraction", "noisylab.icesep.IceSepParams", "key_fraction", span=False),
    Target("icesep.learner", "noisylab.icesep", "ice_malicious_learner", durations=True),
    Target("kernels.codeword_table", "noisylab._kernels", "codeword_table"),
    Target("kernels.hamming_scan", "noisylab._kernels", "hamming_scan", "entries", _first_len),
]


class Rounds:
    """Runs one workload's scenario a round at a time and checks each report."""

    def __init__(self, workload, seed: int) -> None:
        from noisylab.bench import ExperimentConfig, run_scenario

        self.run_scenario = run_scenario
        self.w = workload
        self.config = ExperimentConfig(workload.scenario, dict(workload.params), workload.trials, seed)
        self.ops = workload.ops(workload.params, workload.trials, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: tuple[str, list] | None = None

    def run(self, call) -> float:
        """One round through ``call(run_scenario, config)``; returns its wall time."""
        self.attempted += self.ops
        w0 = time.perf_counter()
        try:
            rep = call(self.run_scenario, self.config)
        except Exception as exc:  # a round that raises fails all its operations
            self.failed += self.ops
            self.problems.append(f"round raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - w0
        wall = time.perf_counter() - w0
        problems = self.w.check(rep, self.w.trials, self.w.params, self.ops)
        seen = (json.dumps(rep.to_json_dict(), indent=2, sort_keys=True), rep.records)
        if self._first is None:
            self._first = seen
        elif seen[0] != self._first[0] or seen[1] != self._first[1]:
            problems.append("report differs from the first round at the same seed")
        if problems:
            self.failed += self.ops
            self.problems.extend(problems)
        return wall


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(rounds: Rounds, seconds: float) -> dict:
    """Rounds for ``seconds``, each under a :class:`SpeedSampler`;
    ``wall_ref_s`` is the median over rounds of the round's own wall time at
    reference host speed."""
    samplers: list[SpeedSampler] = []

    def sampled(fn, cfg):
        sampler = SpeedSampler()
        samplers.append(sampler)
        with sampler:
            return fn(cfg)

    t_end = time.perf_counter() + seconds
    while len(samplers) < 2 or time.perf_counter() < t_end:
        rounds.run(sampled)
    name = rounds.w.name
    print(f"{name}: {len(samplers)} rounds, wall s: " + " ".join(f"{s.wall_s:.3f}" for s in samplers), file=sys.stderr)
    print(f"{name}: mean reference chunk ms: "
          + " ".join(f"{1e3 * statistics.fmean(s.chunks):.2f}" for s in samplers), file=sys.stderr)
    rescaled = [s.at_reference_speed() for s in samplers]
    print(f"{name}: at reference speed s: " + " ".join(f"{x:.3f}" for x in rescaled), file=sys.stderr)
    return {
        "wall_ref_s": (statistics.median(rescaled), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def run_traced(rounds: Rounds, seconds: float, name: str, seed: int) -> dict:
    tracer = Tracer(TARGETS)
    plain, traced, per_round = [], [], []
    t_end = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < t_end:
        plain.append(rounds.run(lambda fn, cfg: fn(cfg)))
        tracer.reset()
        tracer.record_spans = not per_round
        tracer.install()
        try:
            traced.append(rounds.run(tracer.run_scenario))
        finally:
            tracer.uninstall()
        tracer.record_spans = False
        per_round.append(tracer.metrics())

    metrics = {
        key: (statistics.median(m[key][0] for m in per_round), unit)
        for key, (_, unit) in per_round[0].items()
    }
    kernels = metrics["kernels.codeword_table.s"][0] + metrics["kernels.hamming_scan.s"][0]
    metrics["kernels.share_pct"] = (100.0 * kernels / metrics["bench.scenario.s"][0], "%")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")

    OUT.mkdir(exist_ok=True)
    layers = sorted({s[1] for s in tracer.spans})
    index = {n: i for i, n in enumerate(layers)}
    spans = sorted(tracer.spans)
    t0 = spans[0][2] if spans else 0.0
    trace = {
        "workload": name,
        "seed": seed,
        "layers": layers,
        "columns": ["id", "layer", "start_s", "end_s", "parent"],
        "spans": [[i, index[n], round(a - t0, 7), round(b - t0, 7), p] for i, n, a, b, p in spans],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with (OUT / f"trace_{name}_seed{seed}.json").open("w") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    return metrics


def run_one(args) -> int:
    setup_s = None if args.trace else measure_setup()
    workload = WORKLOADS[args.workload]
    rounds = Rounds(workload, workload.default_seed if args.seed is None else args.seed)
    if args.trace:
        metrics = run_traced(rounds, args.seconds, args.workload, rounds.config.seed)
    else:
        metrics = run_end_to_end(rounds, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    for p in dict.fromkeys(rounds.problems):
        print(f"{args.workload}: {p}", file=sys.stderr)
    result = {
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key:<42} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=None,
                    help="scenario seed; defaults to the workload's acceptance seed")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "noisylab" / "bench" / "__init__.py").is_file():
        print(f"noisylab sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
