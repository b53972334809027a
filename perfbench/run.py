"""perfbench: the repository's end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 10 --trace 0

Workloads: ``compile-cold``, ``saturate-cold`` and ``serve-zipf`` (see
``README.md`` for what each one is and why).  The program only ever
sees the generated inputs, through its public entry points, and every
output is checked against the reference evaluator (in-process
workloads) or an in-process replay (served plans).

``--trace 0`` reports the end-to-end metrics, measured with no
instrumentation; every time is scaled to a reference host speed by
host-speed probes timed between the requests (``measure.py``).
``--trace 1`` runs the same requests untraced and then traced, and
reports the per-layer metrics: self time per layer
from span wrappers installed by this benchmark around each layer's
public callables, plus the program's own work counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report with sample counts and percentiles.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from digest import combine
from measure import (REFERENCE_PROBE_MS, TAIL_BEYOND, at_reference_speed,
                     calibrate, median_or_zero, per_request_median,
                     speed_probe, summarize, tail_or_zero)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-process rounds per run, by workload.  Every round of a run
#: sends the identical request stream, so request ``i`` is the same
#: work in each.  Each latency is first scaled to the reference host
#: speed by the host-speed probes timed around it
#: (``measure.calibrate``): each vCPU of the shared host this was tuned
#: on runs at two speeds, the slow one taking 1.3-1.8 times as long,
#: for a fraction of a second up to minutes, which no number of rounds
#: within one run averages out.  A request's latency
#: is then its median over the rounds, which drops the one-off stalls
#: a probe cannot see, while the program's own cost (including its
#: garbage-collection pauses, which recur at the same requests) stays
#: in.  Each round's set-up, scaled the same way, is one ``setup_s``
#: sample; ``setup_s`` is their median.
ROUNDS = {"compile-cold": 6, "saturate-cold": 3, "serve-zipf": 6}

#: Traced rounds in a ``--trace 1`` run, interleaved with the first
#: untraced rounds so the tracing overhead compares like with like.
TRACED_ROUNDS = 2

#: Seconds any one child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 150

#: Spans that must fire in a traced run, per workload.  A wrapper on a
#: module attribute silently measures nothing once the program stops
#: looking the attribute up there; this turns that into a failed run.
EXPECTED_SPANS = {
    "compile-cold": ("core.parse", "translate", "rewrite.canon",
                     "rewrite.normalize", "coko.untangle", "optimizer",
                     "exec.compile", "exec.run"),
    "saturate-cold": ("core.parse", "rewrite.canon", "rewrite.normalize",
                      "coko.untangle", "saturate.run", "saturate.extract",
                      "optimizer", "exec.compile", "exec.run"),
    "serve-zipf": ("core.parse", "rewrite.canon", "rewrite.normalize",
                   "coko.untangle", "optimizer"),
}

#: Layer spans reported as ``<layer>.self_ms``.
LAYERS = ("core.parse", "translate", "rewrite.canon", "rewrite.normalize",
          "coko.untangle", "saturate.run", "saturate.extract", "optimizer",
          "exec.compile", "exec.run")


class RunFailed(Exception):
    """The benchmark could not complete a run (no result is printed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(script: str, args: list, log: Path) -> None:
    """Run one perfbench child process to completion."""
    command = [sys.executable, str(HERE / script), *map(str, args)]
    with open(log, "ab") as sink:
        done = subprocess.run(command, stdout=sink, stderr=sink, cwd=ROOT,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RunFailed(f"{script} exited {done.returncode}; "
                        f"log:\n{log.read_text()[-3000:]}")


def inproc(work: Path, name: str, *flags: str) -> dict:
    """Run one in-process round.  A host-speed probe just before the
    launch and the child's probe at the end of set-up bracket its
    set-up time."""
    out = work / f"{name}.json"
    probe = speed_probe()
    run_child("inproc.py", [work / "spec.json", out, time.monotonic(),
                            *flags], work / "children.log")
    result = json.loads(out.read_text())
    result["setup"]["launch_probe_ms"] = probe
    return result


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- metrics -----------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups: list[float], latencies_ms: list[float],
               throughput: float, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metric block plus the sample details printed
    beside it; times are at the reference host speed."""
    latency = summarize(latencies_ms)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "latency_ms.p50": metric(latency["p50"], "ms"),
        "latency_ms.tail": metric(latency["tail"], "ms"),
        "throughput_qps": metric(throughput, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    details = {"setup_s": f"median of {len(setups)} set-ups",
               "latency_ms.p50": f"n={latency['n']}",
               "latency_ms.tail": f"p{latency['tail_pct']} (n="
                                  f"{latency['n']}, {TAIL_BEYOND} beyond)"}
    return metrics, details


def layer_metrics(untraced: list[dict], traced: list[dict],
                  overhead: float) -> dict:
    """Per-layer metrics from untraced and traced rounds of the same
    requests (in-process workloads and the serve-zipf replay);
    ``overhead`` is the traced rounds' extra time over untraced ones.
    Self times are scaled to the reference host speed by the mean of
    each traced round's host-speed probes, set-up phases by the probes
    around the set-up."""
    requests = sum(len(one["latencies_s"]) for one in traced)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for one in traced:
        scale = at_reference_speed(1.0, [value for _, value
                                         in one["probe_marks"]])
        for layer, value in one["trace"]["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + value * scale
        for layer, value in one["trace"]["calls"].items():
            calls[layer] = calls.get(layer, 0) + value
    covered = sum(one["trace"]["covered_s"] for one in traced)
    wall = sum(one["wall_s"] for one in traced)
    get = traced[0]["counts"].get
    out = {name: metric(statistics.median(setup_at_reference(one["setup"],
                                                             key)
                                          for one in untraced), "s")
           for name, key in (("setup.import_s", "import_s"),
                             ("setup.rulebase_s", "rulebase_s"),
                             ("setup.data_s", "data_s"))}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = metric(
            1000 * self_s.get(layer, 0.0) / requests, "ms")
    out.update({
        "rewrite.rewrites": metric(get("engine.rewrites", 0), "count"),
        "rewrite.match_attempts": metric(get("engine.match_attempts", 0),
                                         "count"),
        "rewrite.fire_ratio": metric(ratio(
            get("engine.rewrites", 0), get("engine.trie_candidates", 0)),
            "ratio"),
        "rewrite.nf_cache.hit_ratio": metric(ratio(
            get("engine.nf_cache_hits", 0),
            get("engine.nf_cache_hits", 0)
            + get("engine.nf_cache_misses", 0)), "ratio"),
        "saturate.enodes": metric(get("saturate.enodes", 0), "count"),
        "saturate.rewrites_applied": metric(
            get("saturate.rewrites_applied", 0), "count"),
        "saturate.match_truncations": metric(
            get("saturate.match_truncations", 0), "count"),
        "saturate.budget_hit_share": metric(ratio(
            get("saturate.budget_hits", 0), get("saturate.runs", 0)),
            "ratio"),
        "optimizer.plan_cache.hit_ratio": metric(ratio(
            get("plan.hits", 0), get("plan.hits", 0) + get("plan.misses", 0)),
            "ratio"),
        "optimizer.param_cache.hit_ratio": metric(ratio(
            get("param.hits", 0),
            get("param.hits", 0) + get("param.misses", 0)), "ratio"),
        "optimizer.param_cache.blocked": metric(get("param.blocked", 0),
                                                "count"),
        "optimizer.kernel_cache.hit_ratio": metric(ratio(
            get("kernel.hits", 0),
            get("kernel.hits", 0) + get("kernel.misses", 0)), "ratio"),
        "exec.compile.per_request": metric(
            calls.get("exec.compile", 0) / requests, "ratio"),
        "trace.uncovered_share": metric(1.0 - covered / wall, "ratio"),
        "trace.overhead_share": metric(overhead, "ratio"),
    })
    return out


SERVE_LAYER_METRICS = ("serve.transport_ms.p50", "serve.daemon_ms.p50",
                       "serve.daemon_ms.tail", "serve.worker_ms.p50",
                       "serve.worker_ms.tail", "serve.queue_ms.p50",
                       "serve.queue_ms.tail", "serve.generator_late_ms.tail")


def no_serve_layer() -> dict:
    """The serve.* metrics of a workload that never reaches the daemon."""
    out = {name: metric(0.0, "ms") for name in SERVE_LAYER_METRICS}
    out["serve.shed"] = metric(0, "count")
    out["serve.errors"] = metric(0, "count")
    return out


# -- checks --------------------------------------------------------------------


def compare_runs(first: dict, second: dict, what: str) -> list[str]:
    """Problems if two runs of the same requests did different work."""
    problems = []
    if first["fingerprints"] != second["fingerprints"]:
        problems.append(f"{what}: outputs differ")
    shared = sorted(set(first["counts"]) & set(second["counts"]))
    for key in shared:
        if first["counts"][key] != second["counts"][key]:
            problems.append(f"{what}: work count {key} differs "
                            f"({first['counts'][key]} vs "
                            f"{second['counts'][key]})")
    return problems


def check_spans(workload: str, traced: dict) -> list[str]:
    calls = traced["trace"]["calls"]
    return [f"traced run: span {span} never fired"
            for span in EXPECTED_SPANS[workload] if not calls.get(span)]


# -- in-process workloads -------------------------------------------------------


def calibrated(runs: list[dict]) -> list[float]:
    """Per-request median over rounds of the same stream, in ms at the
    reference host speed."""
    return per_request_median([calibrate(one["latencies_s"],
                                         one["probe_marks"])
                               for one in runs])


def raw_median(runs: list[dict]) -> float:
    """Median over requests of the per-request median as timed, in ms
    (printed beside the calibrated figures)."""
    return 1000 * statistics.median(per_request_median(
        [one["latencies_s"] for one in runs]))


def probes(runs: list[dict]) -> list[float]:
    return [value for one in runs for _, value in one["probe_marks"]]


def setup_at_reference(setup: dict, key: str = "setup_s") -> float:
    """A set-up time of an in-process round at the reference host
    speed, from the probes just before its launch and after set-up."""
    return at_reference_speed(setup[key], (setup["launch_probe_ms"],
                                           setup["probe_ms"]))


def run_inprocess(spec: dict, expected: list, work: Path,
                  trace: bool) -> dict:
    untraced, traced = [], []
    for index in range(ROUNDS[spec["workload"]]):
        untraced.append(inproc(work, f"round{index}"))
        if trace and index < TRACED_ROUNDS:
            traced.append(inproc(work, f"traced{index}", "--trace"))
    first = untraced[0]
    n = len(first["latencies_s"])
    mismatches = sum(1 for got, want in zip(first["fingerprints"], expected)
                     if got != want)
    problems = [f"{mismatches} result(s) differ from the reference "
                f"evaluator"] if mismatches else []
    problems += first["errors"][:5]
    for index, other in enumerate(untraced[1:] + traced, 1):
        problems += compare_runs(first, other, f"round {index} vs round 0")
    # Compiles are counted by the tracer, so only traced rounds have
    # them to compare.
    for index, other in enumerate(traced[1:], 1):
        problems += compare_runs(traced[0], other,
                                 f"traced round {index} vs traced round 0")
    result = {"attempted": n, "failed": len(first["errors"]) + mismatches,
              "problems": problems, "counts": first["counts"],
              "digest": combine(first["fingerprints"]),
              "probes_ms": probes(untraced + traced)}
    if trace:
        for one in traced:
            result["problems"] += check_spans(spec["workload"], one)
        result["metrics"] = {
            **layer_metrics(untraced, traced,
                            sum(calibrated(traced))
                            / sum(calibrated(untraced[:len(traced)])) - 1.0),
            **no_serve_layer()}
        result["details"] = {}
    else:
        latencies = calibrated(untraced)
        metrics, details = end_to_end(
            [setup_at_reference(one["setup"]) for one in untraced],
            latencies, 1000 * n / sum(latencies),
            statistics.median(one["peak_rss_kb"] for one in untraced)
            / 1024)
        rounds = f"median of {len(untraced)} rounds per request"
        details["latency_ms.p50"] += (f", {rounds}; as timed "
                                      f"{raw_median(untraced):.4g} ms")
        details["throughput_qps"] = f"closed loop, one client, {rounds}"
        result["metrics"], result["details"] = metrics, details
    return result


# -- serve-zipf ----------------------------------------------------------------


def descendants(pid: int) -> list[int]:
    """Child processes of ``pid`` (from procfs)."""
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found += [int(one) for one in task.read_text().split()]
        except OSError:
            continue
    return found


def is_worker(pid: int) -> bool:
    try:
        return b"spawn_main" in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (zombies have)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    state = next((line.split()[1] for line in status.splitlines()
                  if line.startswith("State:")), "X")
    return state not in ("Z", "X")


def peak_rss_kb(pid: int) -> int:
    status = Path(f"/proc/{pid}/status").read_text()
    line = next(line for line in status.splitlines()
                if line.startswith("VmHWM:"))
    return int(line.split()[1])


class Daemon:
    """``python -m repro.cli serve`` with one process worker on a
    per-run unix socket (a path relative to the checkout root)."""

    def __init__(self, work: Path, tag: str, db: dict) -> None:
        self.socket = str((work / f"{tag}.sock").relative_to(ROOT))
        self.log = work / f"{tag}.log"
        self.db = db
        self.process: subprocess.Popen | None = None
        self.children: list[int] = []

    def start(self) -> float:
        """Boot, wait for the first answered ping; returns set-up time
        at the reference host speed, from host-speed probes timed just
        before the launch and just after the ping."""
        from loadgen import Connection
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--unix-socket", self.socket, "--workers", "1",
                   "--backend", "process", "--search", "greedy",
                   "--persons", str(self.db["n_persons"]),
                   "--vehicles", str(self.db["n_vehicles"]),
                   "--seed", str(self.db["seed"])]
        probe = speed_probe()
        launched = time.monotonic()
        with open(self.log, "ab") as sink:
            self.process = subprocess.Popen(command, stdout=sink,
                                            stderr=sink, cwd=ROOT,
                                            env=child_env())
        try:
            while True:
                if self.process.poll() is not None:
                    raise RunFailed(f"daemon exited during boot:\n"
                                    f"{self.log.read_text()[-3000:]}")
                if time.monotonic() - launched > CHILD_TIMEOUT_S:
                    raise RunFailed("daemon did not start listening")
                try:
                    conn = Connection(self.socket)
                except OSError:
                    time.sleep(0.002)
                    continue
                try:
                    reply = conn.call({"id": 0, "op": "ping"})
                finally:
                    conn.close()
                if not reply.get("pong"):
                    raise RunFailed(f"bad ping reply {reply}")
                ready = time.monotonic()
                self.children = descendants(self.process.pid)
                return at_reference_speed(ready - launched,
                                          (probe, speed_probe()))
        except BaseException:
            self.children = descendants(self.process.pid)
            self.stop()
            raise

    def workers(self) -> list[int]:
        return [pid for pid in self.children if is_worker(pid)]

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the daemon plus its worker."""
        return sum(peak_rss_kb(pid)
                   for pid in [self.process.pid, *self.workers()])

    def stop(self) -> list[str]:
        """SIGINT (the shutdown ``cmd_serve`` handles), then make sure
        nothing the daemon started is still running."""
        problems = []
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            problems.append("daemon ignored SIGINT for 30 s")
            self.process.kill()
            self.process.wait()
        for pid in self.workers():
            if running(pid):
                problems.append(f"worker {pid} outlived the daemon")
        deadline = time.monotonic() + 10
        for pid in self.children:
            while running(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if running(pid):
                problems.append(f"daemon child {pid} still running")
                os.kill(pid, signal.SIGKILL)
        return problems


def serve_layer(phase: dict, worker_ms: list[float]) -> dict:
    """serve.* metrics of the open-loop phase: where a request's time
    goes between the client, the daemon and its worker."""
    records = phase["records"]
    served = [(rec, worker) for rec, worker in zip(records, worker_ms)
              if rec["status"] == "ok"]
    daemon = [rec["elapsed_ms"] for rec, _ in served]
    transport = [1000 * (rec["received"] - rec["sent"]) - rec["elapsed_ms"]
                 for rec, _ in served]
    queue = [rec["elapsed_ms"] - worker for rec, worker in served]
    late = [1000 * (rec["sent"] - rec["due"]) for rec in records]
    worker = [value for _, value in served]
    return {
        "serve.transport_ms.p50": metric(median_or_zero(transport), "ms"),
        "serve.daemon_ms.p50": metric(median_or_zero(daemon), "ms"),
        "serve.daemon_ms.tail": metric(tail_or_zero(daemon), "ms"),
        "serve.worker_ms.p50": metric(median_or_zero(worker), "ms"),
        "serve.worker_ms.tail": metric(tail_or_zero(worker), "ms"),
        "serve.queue_ms.p50": metric(median_or_zero(queue), "ms"),
        "serve.queue_ms.tail": metric(tail_or_zero(queue), "ms"),
        "serve.generator_late_ms.tail": metric(tail_or_zero(late), "ms"),
    }


def serve_round(spec: dict, work: Path, index: int,
                phases: int) -> tuple[float, dict, int, list[str]]:
    """Boot a daemon, drive the first ``phases`` phases, stop it."""
    daemon = Daemon(work, f"daemon{index}", spec["db"])
    setup = daemon.start()
    out = work / f"load{index}.json"
    try:
        run_child("loadgen.py", [work / "spec.json", out, daemon.socket,
                                 phases], work / "load.log")
        rss_kb = daemon.peak_rss_kb()
    finally:
        problems = daemon.stop()
    return setup, json.loads(out.read_text()), rss_kb, problems


def run_serve(spec: dict, work: Path, trace: bool) -> dict:
    # A traced run needs one daemon round, with the open-loop phase the
    # serve.* split comes from, and the replays.
    rounds = 1 if trace else ROUNDS["serve-zipf"]
    phases = len(spec["phases"]) if trace else 1
    setups, loads, rss, problems = [], [], [], []
    for index in range(rounds):
        setup, load, rss_kb, stopped = serve_round(spec, work, index, phases)
        setups.append(setup)
        loads.append(load)
        rss.append(rss_kb)
        problems += stopped
    replayed = inproc(work, "replay", "--replay")

    status = {"error": 0, "shed": 0}
    mismatches = 0
    for load in loads:
        records = [rec for phase in load["phases"]
                   for rec in phase["records"]]
        for rec in records:
            if rec["status"] != "ok":
                status[rec["status"]] += 1
        mismatches += sum(1 for rec, want
                          in zip(records, replayed["fingerprints"])
                          if rec["status"] == "ok" and rec["plan"] != want)
        problems += [f"warm-up: {error}"
                     for error in load["warmup_errors"][:5]]
        problems += [f"request {rec['error']}" for rec in records
                     if rec["status"] == "error"][:5]
    if mismatches:
        problems.append(f"{mismatches} served plan(s) differ from the "
                        f"in-process replay")
    closed = [{"latencies_s": [rec["received"] - rec["sent"]
                               for rec in load["phases"][0]["records"]],
               "probe_marks": load["phases"][0]["probe_marks"]}
              for load in loads]
    result = {"attempted": sum(len(phase["records"]) for load in loads
                               for phase in load["phases"]),
              "failed": status["error"] + status["shed"] + mismatches,
              "problems": problems,
              "counts": replayed["counts"],
              "digest": combine(replayed["fingerprints"]),
              "probes_ms": probes(closed + [replayed]),
              "extra": [f"failed requests: {status['error']} errors, "
                        f"{status['shed']} shed by the daemon's default "
                        f"admission bounds, {mismatches} plan mismatches"]}

    if trace:
        traced = inproc(work, "replay-traced", "--replay", "--trace")
        result["problems"] += compare_runs(replayed, traced,
                                           "traced vs untraced replay")
        result["problems"] += check_spans(spec["workload"], traced)
        load = loads[0]
        open_loop = load["phases"][1]
        start = len(closed[0]["latencies_s"])
        worker_ms = [1000 * value for value in replayed["latencies_s"]
                     [start:start + len(open_loop["records"])]]
        metrics = layer_metrics(
            [replayed], [traced],
            sum(calibrated([traced])) / sum(calibrated([replayed])) - 1.0)
        metrics.update(serve_layer(open_loop, worker_ms))
        metrics["serve.shed"] = metric(load["server"].get("shed", 0),
                                       "count")
        metrics["serve.errors"] = metric(load["server"].get("errors", 0),
                                         "count")
        result["metrics"], result["details"] = metrics, {}
    else:
        trips = calibrated(closed)
        metrics, details = end_to_end(
            setups, trips, 1000 * len(trips) / sum(trips),
            statistics.median(rss) / 1024)
        per = (f"closed loop, one client, round trip, median of {rounds} "
               f"daemon rounds per request")
        details["latency_ms.p50"] += (f", {per}; as timed "
                                      f"{raw_median(closed):.4g} ms")
        details["latency_ms.tail"] += f", {per}"
        details["throughput_qps"] = per
        details["setup_s"] += " (boot to first answered ping)"
        details["peak_rss_mb"] = "daemon + worker"
        result["metrics"], result["details"] = metrics, details
    return result


# -- main ----------------------------------------------------------------------


def report(workload: str, result: dict, correct: bool) -> None:
    print(f"perfbench {workload}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {correct}")
    for name, value in result["metrics"].items():
        detail = result["details"].get(name, "")
        print(f"  {name:36s} {value['value']:>14.6g} {value['unit']:6s} "
              f"{detail}")
    for line in result.get("extra", []):
        print(f"  {line}")
    print("  work counts (equal in every round and replay): " + ", ".join(
        f"{key}={value}" for key, value in sorted(result["counts"].items())))
    print(f"  output digest: {result['digest']}")
    values = sorted(result["probes_ms"])
    print(f"  host-speed probe: {len(values)} timings, min "
          f"{values[0]:.3f}, median {statistics.median(values):.3f}, max "
          f"{values[-1]:.3f} ms; times above are scaled to "
          f"{REFERENCE_PROBE_MS} ms")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell starts background jobs with SIGINT ignored, and an ignored
    # signal stays ignored across exec.  The daemon is stopped with
    # SIGINT, so every process this run starts must see it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the program source (src/repro) is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    # One CPU for this run and every process it starts (they inherit
    # the affinity): the host's vCPUs change speed independently of
    # each other, and a host-speed probe only describes the CPU it ran
    # on.  Every workload is one request at a time, so no parallelism
    # is lost.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Socket paths are relative to the checkout root: an absolute path
    # in a deep checkout could pass the 107-byte unix socket limit.
    os.chdir(ROOT)
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec = inputs.build(args.workload, args.seed, args.seconds)
        expected, problems = inputs.reference(spec)
        (work / "spec.json").write_text(json.dumps(spec))
        if args.workload == "serve-zipf":
            result = run_serve(spec, work, bool(args.trace))
        else:
            result = run_inprocess(spec, expected, work, bool(args.trace))
        result["problems"] = problems + result["problems"]
    except (RunFailed, subprocess.TimeoutExpired) as error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not result["problems"]
    report(args.workload, result, correct)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
