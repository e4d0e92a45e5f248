"""End-to-end benchmark of the SPACX reproduction, with a traced breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository (the program is imported from
``src/``).  Workloads: ``paper_zoo``, ``zoo_warm_disk``,
``dse_granularity`` and ``service_mixed`` (see ``workloads.py``).

``--trace 0`` sets up (timed, and repeated in fresh processes so
``setup_s`` is a median), then runs units in a closed loop for
``--seconds`` and prints every end-to-end metric.  ``--trace 1`` runs
units with and without the span wrappers of ``spans.py`` (alternating
unit by unit in-process; the service runs plain, traced, traced and
plain quarters of the window, each on a fresh server), prints every
per-layer metric, including the measured tracing overhead, and writes
the spans under ``.perfbench_spans/<workload>/``.

Every unit's outputs are checked against pinned digests or an
in-process reference; any mismatch fails the unit, and the command then
exits 1.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

import speed
from metrics import END_TO_END, PER_LAYER, TAIL_BEYOND, tail
from spans import Tracer, install
from workloads import WORKLOADS, Unit

#: The repository checkout this file lives in.
ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per ``--trace 0`` run (this process plus fresh children);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Seconds of host-speed samples right before and after each set-up.
SETUP_CALIBRATION_S = 0.03

#: Share of the measured time spent sampling the host speed.
CALIBRATION_SHARE = 0.02

#: Seconds between host-speed samples when several clients run units
#: concurrently (a single client samples after every unit).
CALIBRATION_PERIOD_S = 1.0

#: Alternating plain and traced segments of a traced service run
#: (ABBA, so a linear drift of the host cancels).
SERVICE_SEGMENTS = (False, True, True, False)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print {\"setup_s\": ...} and exit",
    )
    return parser.parse_args(argv)


class Calibrator:
    """Samples the host speed only in quiet gaps, while no unit is in
    flight.

    A sample taken while another client's unit runs would time the
    calibration work against the program's own CPU use, so the factor
    would fall as the program works harder and partly cancel a change
    in its speed.  Clients call :meth:`enter` before each unit and
    :meth:`leave` after it.  Once a sample is due (after every unit
    with one client, every :data:`CALIBRATION_PERIOD_S` with more), no
    client starts a unit until the units in flight have ended and the
    last one to leave has sampled, for :data:`CALIBRATION_SHARE` of the
    time since the previous sample.
    """

    def __init__(self, clients: int):
        self.period_s = CALIBRATION_PERIOD_S if clients > 1 else 0.0
        self._cond = threading.Condition()
        self._in_flight = 0
        self._due = False
        self.speeds = [speed.median_sample(0.0)]
        #: Seconds spent sampling (nothing else runs meanwhile).
        self.quiet_s = 0.0
        self._last = time.perf_counter()

    def enter(self) -> int:
        """Wait out a due sample; the index of the sample before the
        unit (the one after it is the next)."""
        with self._cond:
            while self._due:
                self._cond.wait()
            self._in_flight += 1
            return len(self.speeds) - 1

    def leave(self) -> None:
        with self._cond:
            self._in_flight -= 1
            if time.perf_counter() - self._last >= self.period_s:
                self._due = True
            if self._due and self._in_flight == 0:
                self._sample()

    def finish(self) -> None:
        """The last sample, once every client has stopped."""
        with self._cond:
            self._sample()

    def _sample(self) -> None:
        began = time.perf_counter()
        budget = CALIBRATION_SHARE * (began - self._last)
        self.speeds.append(speed.median_sample(budget))
        self._last = time.perf_counter()
        self.quiet_s += self._last - began
        self._due = False
        self._cond.notify_all()

    def scale(self, index: int) -> float:
        """Host time -> time at the reference speed, for a unit between
        samples ``index`` and ``index + 1``."""
        pair = self.speeds[index] + self.speeds[index + 1]
        return 2 * speed.REFERENCE_S / pair


def measure(workload, seconds: float, tracer: Tracer | None = None):
    """Closed loop: each client starts its next unit when the last one
    completes, until ``seconds`` have passed.  Returns the units and the
    window from the first start to the last completion, less the time
    spent sampling the host speed (see :class:`Calibrator`).

    With a ``tracer`` and an interleaving workload, even units run with
    the wrappers installed and odd ones without.
    """
    units: list[Unit] = []
    ids = itertools.count(1)
    stop = threading.Event()
    calibrator = Calibrator(workload.clients)
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        mine: list[tuple[Unit, int]] = []
        while not stop.is_set():
            sample = calibrator.enter()
            try:
                if time.perf_counter() >= deadline:
                    break
                uid = next(ids)
                if tracer is not None and workload.interleave:
                    if uid % 2:
                        workload.trace_off()
                    else:
                        workload.trace_on(tracer)
                if workload.traced:
                    tracer.set_unit(uid)
                began = time.perf_counter()
                try:
                    unit = workload.unit(uid)
                except Exception as exc:  # a failed unit is counted
                    unit = Unit(time.perf_counter() - began, 0, False,
                                f"{type(exc).__name__}: {exc}")
                unit.traced = workload.traced
                unit.began = began
                mine.append((unit, sample))
            finally:
                calibrator.leave()
        results.append(mine)

    results: list[list] = []
    threads = [
        threading.Thread(target=client, name=f"client-{i}", daemon=True)
        for i in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:  # interrupted: let the clients wind down with the set-up
        stop.set()
    window_s = time.perf_counter() - start - calibrator.quiet_s
    calibrator.finish()
    for mine in results:
        for unit, sample in mine:
            unit.scale = calibrator.scale(sample)
            units.append(unit)
    units.sort(key=lambda unit: unit.began)
    return units, window_s


def setup_samples(args) -> list[float]:
    """``setup_s`` of fresh processes set up the same way as this one."""
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0",
                "--setup-only",
            ],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr[-2000:]}")
        samples.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(units, window_s, setups, rss_mb) -> dict:
    """The end-to-end metrics.  Host times are at the reference speed
    (each unit's time times its ``scale``); rates are divided by the
    mean scale, weighted by unit time."""
    raw = [unit.latency_s for unit in units]
    latencies = [unit.latency_s * unit.scale for unit in units]
    scale = sum(latencies) / sum(raw)
    value, q, beyond = tail(latencies)
    print(
        f"latency_s.tail is p{q:g}: {beyond} of {len(latencies)} "
        "samples lie beyond it"
        + ("" if beyond >= TAIL_BEYOND else " (too few for a tail)")
    )
    print(
        f"host speed scale {scale:.4f}; unscaled: latency_s.p50 = "
        f"{median(raw):.6g}, throughput_per_s = {len(units) / window_s:.6g}"
    )
    return {
        "setup_s": median(setups),
        "latency_s.p50": median(latencies),
        "latency_s.tail": value,
        "throughput_per_s": len(units) / window_s / scale,
        "lanes_per_s": sum(unit.lanes for unit in units) / window_s / scale,
        "rss_peak_mb": rss_mb,
    }


def _sum_self_times(tracers) -> dict:
    total: dict[str, list] = {}
    for tracer in tracers:
        for name, (seconds, calls) in tracer.self_times().items():
            entry = total.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
    return total


def overhead(plain: list[Unit], traced: list[Unit]) -> float:
    """Traced over untraced median latency, minus one; prints whether
    it stands out from the untraced units' own spread (their first
    half in time against their second half)."""
    if not plain or not traced:
        return 0.0
    value = (
        median([u.latency_s * u.scale for u in traced])
        / median([u.latency_s * u.scale for u in plain]) - 1.0
    )
    half = len(plain) // 2
    noise = (
        abs(median([u.latency_s * u.scale for u in plain[:half]])
            / median([u.latency_s * u.scale for u in plain[half:]]) - 1.0)
        if half else float("inf")
    )
    print(
        f"trace.overhead_frac {value:+.4f} from {len(traced)} traced and "
        f"{len(plain)} plain units; untraced half-vs-half spread "
        f"{noise:.4f}: "
        + ("resolved" if abs(value) > noise else "unresolved (within spread)")
    )
    return value


def per_layer(workload, tracer, since, units) -> dict:
    """Per-unit self times and counts of the traced units."""
    plain = [unit for unit in units if not unit.traced]
    traced = [unit for unit in units if unit.traced]
    if workload.server_tracers:  # servers traced only in their window
        setup, window = {}, _sum_self_times(workload.server_tracers)
    else:
        setup = tracer.self_times(until=since)
        window = tracer.self_times(since=since)
    counts: dict[str, float] = dict(tracer.counts)
    for server in workload.server_tracers:
        for name, value in server.counts.items():
            counts[name] = counts.get(name, 0) + value
    n = max(1, len(traced))
    # Times at the reference speed, like the end-to-end metrics.
    scale = (
        sum(u.latency_s * u.scale for u in traced)
        / sum(u.latency_s for u in traced)
        if traced else 1.0
    )

    def ms(name):
        return window.get(name, (0.0, 0))[0] * 1e3 * scale / n

    def calls(name):
        return window.get(name, (0.0, 0))[1] / n

    def per_unit(name):
        return counts.get(name, 0) / n

    def detail_mean(key):
        values = [u.detail[key] for u in traced if key in u.detail]
        return sum(values) / len(values) if values else 0.0

    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    candidates = counts.get("dse.candidates", 0)
    return {
        "models.build_ms": setup.get("models.build", (0.0,))[0] * 1e3 * scale,
        "models.build_unit_ms": ms("models.build"),
        "simulator.build_ms": (
            setup.get("simulator.build", (0.0,))[0] * 1e3 * scale
        ),
        "simulator.build_unit_ms": ms("simulator.build"),
        "batch.run_ms": ms("batch.run"),
        "batch.runs": calls("batch.run"),
        "plan.grid": per_unit("plan.grid"),
        "plan.serial": per_unit("plan.serial"),
        "plan.pool": per_unit("plan.pool"),
        "grid.evaluate_ms": ms("grid.evaluate"),
        "grid.lanes": per_unit("grid.lanes"),
        "vectorized.simulate_ms": ms("vectorized.simulate"),
        "invariants.audit_ms": ms("invariants.audit"),
        "invariants.audits": calls("invariants.audit"),
        "cache.get_ms": ms("cache.get"),
        "cache.put_ms": ms("cache.put"),
        "cache.hits": per_unit("cache.hits"),
        "cache.misses": per_unit("cache.misses"),
        "cache.disk_hits": per_unit("cache.disk_hits"),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "store.read_ms": ms("store.read"),
        "serialization.to_dict_ms": ms("serialization.to_dict"),
        "serialization.bytes": per_unit("serialization.bytes"),
        "digest.ms": ms("digest"),
        "validate.simulator_ms": ms("validate.simulator"),
        "validate.calls": calls("validate.simulator"),
        "dse.bounds_ms": ms("dse.bounds"),
        "dse.evaluated": per_unit("dse.evaluated"),
        "dse.pruned": per_unit("dse.pruned"),
        "dse.prune_ratio": (
            counts.get("dse.evaluated", 0) / candidates if candidates else 0.0
        ),
        "http.submit_ms": detail_mean("submit_ms") * scale,
        "http.to_terminal_ms": detail_mean("to_terminal_ms") * scale,
        "http.results_ms": detail_mean("results_ms") * scale,
        "http.results_bytes": detail_mean("results_bytes"),
        "http.errors": float(sum(u.detail.get("errors", 0) for u in units)),
        "queue.wait_ms": detail_mean("queue_wait_ms") * scale,
        "scheduler.exec_ms": detail_mean("exec_ms") * scale,
        "service.dedupe_frac": detail_mean("deduplicated"),
        "failed_frac": sum(not u.ok for u in units) / max(1, len(units)),
        "trace.overhead_frac": overhead(plain, traced),
    }


def save_spans(workload, tracer: Tracer) -> Path:
    """Write this run's spans (the benchmark process's and every traced
    server's) under ``.perfbench_spans/<workload>/``, replacing the
    previous run's."""
    out = ROOT / ".perfbench_spans" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer.dump(out / "client.jsonl.gz")
    for path in workload.span_files:
        shutil.copy(path, out / path.name)
    return out.relative_to(ROOT)


def run(args, work: Path) -> int:
    setups = [] if args.trace or args.setup_only else setup_samples(args)
    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    tracer = None
    try:
        before = speed.median_sample(SETUP_CALIBRATION_S)
        started = time.perf_counter()
        if args.trace:
            tracer = install(Tracer())
        workload.setup()
        setup_s = time.perf_counter() - started
        after = speed.median_sample(SETUP_CALIBRATION_S)
        setups.append(setup_s * 2 * speed.REFERENCE_S / (before + after))
        if tracer is not None:
            tracer.uninstall()
        if args.setup_only:
            print(json.dumps({"setup_s": setups[-1]}))
            return 0
        if not args.trace:
            units, window_s = measure(workload, args.seconds)
        else:
            tracer.counts.clear()
            since = time.perf_counter()
            if workload.interleave:
                units = measure(workload, args.seconds, tracer)[0]
                workload.trace_off()
            else:  # plain and traced segments, each on a fresh server
                units = []
                for traced in SERVICE_SEGMENTS:
                    workload.restart(tracer if traced else None)
                    units += measure(
                        workload, args.seconds / len(SERVICE_SEGMENTS), tracer
                    )[0]
        workload.close()  # a server's log and peak RSS are final now
        rss_mb = workload.rss_peak_mb()
        errors = workload.check(units)
        for line in workload.describe():
            print(line)
    finally:
        workload.close()
    if args.trace:
        metrics = per_layer(workload, tracer, since, units)
        table = PER_LAYER
        print(f"spans written to {save_spans(workload, tracer)}")
    else:
        metrics = end_to_end(units, window_s, setups, rss_mb)
        table = END_TO_END
    failed = sum(not unit.ok for unit in units)
    for message in sorted({unit.error for unit in units if unit.error}):
        print(f"FAILED unit: {message}")
    for message in errors:
        print(f"FAILED check: {message}")
    for name, unit, *moves in table:
        note = f"  -> {moves[0]}" if moves else ""
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}{note}")
    units_of = {name: unit for name, unit, *_ in table}
    correct = failed == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": len(units),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def main() -> int:
    args = parse_args()
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Program defaults only: no inherited engine settings.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
