"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` (the
timed set-up), then runs one *unit* per :meth:`unit` call: a campaign,
a search, or a service round trip.  A unit returns its host latency,
the (machine, layer) results it delivered and whether every output
matched its reference.  The program is imported lazily, inside
:meth:`setup`, so the import is part of the set-up time.

Why these four: ``paper_zoo`` is compute + serialization with no disk,
validation or HTTP; ``zoo_warm_disk`` replaces compute by the disk
tier; ``dse_granularity`` is dominated by physics validation and
pruning, with negligible serialization; ``service_mixed`` is the only
one with HTTP, the fair queue, manifests and results persistence.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from specs import PAPER_SUITE, ServiceMix, zoo_order
from spans import Tracer, install

HERE = Path(__file__).resolve().parent

#: Pinned digests this benchmark checks every output against.
EXPECTED = json.loads((HERE / "expected.json").read_text())


@dataclass
class Unit:
    latency_s: float
    lanes: int
    ok: bool
    error: str = ""
    detail: dict = field(default_factory=dict)
    traced: bool = False
    #: ``time.perf_counter()`` at the unit's start.
    began: float = 0.0
    #: Host time at this unit -> host time at the reference speed.
    scale: float = 1.0


def canonical_digest(tree: dict, tracer: Tracer | None = None) -> str:
    """sha256 of the canonical JSON of a ``{model: {machine: dict}}``
    tree -- the golden suite's sweep digest."""
    canonical = json.dumps(tree, sort_keys=True).encode()
    if tracer is not None:
        tracer.count("serialization.bytes", len(canonical))
    return hashlib.sha256(canonical).hexdigest()


class Workload:
    """One workload: set-up, one unit at a time, checks, tear-down."""

    name = ""
    #: Closed-loop client connections driving units concurrently.
    clients = 1
    #: Whether a traced run may toggle the wrappers unit by unit, so
    #: traced and untraced units alternate under the same conditions.
    interleave = True

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.tracer: Tracer | None = None
        #: Whether the wrappers are installed right now.
        self.traced = False
        #: Spans recorded in other processes (traced servers), if any.
        self.server_tracers: list[Tracer] = []
        #: The files those spans were read from.
        self.span_files: list[Path] = []

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, uid: int) -> Unit:
        raise NotImplementedError

    def trace_on(self, tracer: Tracer) -> None:
        """Install the span wrappers."""
        self.tracer = tracer
        self.traced = True
        install(tracer)

    def trace_off(self) -> None:
        if self.traced:
            self.traced = False
            self.tracer.uninstall()

    def check(self, units: list[Unit]) -> list[str]:
        """Checks that need the whole run; errors as strings."""
        return []

    def describe(self) -> list[str]:
        """Lines recording the generated inputs."""
        return []

    def close(self) -> None:
        pass

    def rss_peak_mb(self) -> float:
        """Peak resident set size of the process the layers ran in, once
        :meth:`close` has run."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# paper_zoo / zoo_warm_disk
# ----------------------------------------------------------------------
class PaperZoo(Workload):
    """Extended zoo x Simba/POPSTAR/SPACX, fresh in-memory cache, no
    manifest, then full serialization and the canonical digest."""

    name = "paper_zoo"

    def setup(self) -> None:
        from repro.core import batch
        from repro.experiments import harness
        from repro.models import zoo

        self.batch = batch
        self.order = zoo_order(self.seed)
        self.models = [zoo.get_model(name) for name in self.order]
        self.trio = list(harness.default_trio())
        golden = json.loads(
            (self.root / "tests/golden/full_sweep_digest.json").read_text()
        )["sha256"]
        # The first campaign fills the kernels' first-call memos; its
        # paper-suite subtree must equal the repository's golden digest.
        unit = self.unit(0, subtree_golden=golden)
        if not unit.ok:
            raise RuntimeError(f"{self.name} set-up campaign: {unit.error}")

    def make_cache(self):
        return self.batch.ResultCache()

    def unit(self, uid: int, subtree_golden: str | None = None) -> Unit:
        from repro import serialization

        start = time.perf_counter()
        runner = self.batch.SweepRunner(
            max_workers=1, cache=self.make_cache(), manifest=False
        )
        results = runner.run_models(self.trio, self.models)
        tree = {
            model: {
                machine: serialization.model_result_to_dict(result)
                for machine, result in per_machine.items()
            }
            for model, per_machine in results.items()
        }
        digest = self._digest(tree)
        latency = time.perf_counter() - start
        lanes = sum(
            len(result.layers)
            for per_machine in results.values()
            for result in per_machine.values()
        )
        errors = []
        if digest != EXPECTED["zoo_full_sha256"]:
            errors.append(f"zoo digest {digest[:12]} != pinned")
        if subtree_golden is not None:
            subtree = canonical_digest({m: tree[m] for m in PAPER_SUITE})
            if subtree != subtree_golden:
                errors.append(f"paper-suite digest {subtree[:12]} != golden")
        return Unit(latency, lanes, not errors, "; ".join(errors))

    def _digest(self, tree: dict) -> str:
        if not self.traced:
            return canonical_digest(tree)
        return self.tracer.wrap("digest", canonical_digest)(tree, self.tracer)

    def describe(self) -> list[str]:
        return [f"{self.name} seed={self.seed} model order: {self.order}"]


class ZooWarmDisk(PaperZoo):
    """The same campaign, replayed from a disk cache set-up filled;
    every campaign starts with an empty memory tier."""

    name = "zoo_warm_disk"

    def setup(self) -> None:
        self.cache_dir = self.work / "zoo_cache"
        super().setup()  # the first campaign fills the disk tier

    def make_cache(self):
        return self.batch.ResultCache(cache_dir=self.cache_dir)


# ----------------------------------------------------------------------
# dse_granularity
# ----------------------------------------------------------------------
#: SPACX chiplets x PEs x K x EF granularity: 36 configs (the dense
#: DSE sweep), evaluated on the paper suite.
DSE_SPACE = {
    "machine": ["spacx"],
    "chiplets": [16, 36, 64],
    "pes_per_chiplet": [16, 32, 64],
    "k_granularity": [1, 2],
    "ef_granularity": [1, 2],
}


class DseGranularity(Workload):
    """``repro search`` over :data:`DSE_SPACE`: EDP objective, pruned
    strategy, physics validation, a fresh runner and cache per search."""

    name = "dse_granularity"

    def setup(self) -> None:
        import random

        from repro.core import batch
        from repro.dse import search, space

        self.batch = batch
        self.search = search
        rng = random.Random(self.seed)
        dims = {}
        for key, values in DSE_SPACE.items():
            values = list(values)
            rng.shuffle(values)
            dims[key] = values
        self.dims = dims
        self.space = space.SearchSpace.from_dict(dims)
        self.n_layers = len(space.paper_suite().all_layers)
        reference = self._search("exhaustive")
        best = reference.best
        if best is None or reference.failures:
            raise RuntimeError("exhaustive reference search failed")
        self.reference = (best.objective("edp"), best.index)

    def _search(self, strategy: str):
        with self.batch.SweepRunner(
            max_workers=1, cache=self.batch.ResultCache(), manifest=False
        ) as runner:
            engine = self.search.SearchEngine(
                self.space, objective="edp", validation="physics",
                runner=runner,
            )
            return engine.search(strategy=strategy)

    def unit(self, uid: int) -> Unit:
        start = time.perf_counter()
        result = self._search("pruned")
        latency = time.perf_counter() - start
        best = result.best
        got = (best.objective("edp"), best.index) if best else None
        errors = []
        if got != self.reference:
            errors.append(f"pruned best {got} != exhaustive {self.reference}")
        if result.failures or result.outcome.stop_reason:
            errors.append("search had failures or stopped early")
        if self.traced:
            self.tracer.count("dse.evaluated", result.n_evaluated)
            self.tracer.count("dse.pruned", result.n_pruned)
            self.tracer.count("dse.candidates", result.n_candidates)
        return Unit(
            latency, result.n_evaluated * self.n_layers, not errors,
            "; ".join(errors),
        )

    def describe(self) -> list[str]:
        return [f"{self.name} seed={self.seed} space: {json.dumps(self.dims)}"]


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
class _Refused(Exception):
    """The service answered with an unexpected status (429, 5xx, ...)."""


class _UnixConnection(http.client.HTTPConnection):
    """HTTP over the server's abstract Unix socket."""

    def __init__(self, name: str, timeout: float):
        super().__init__("localhost", timeout=timeout)
        self.name = name

    def connect(self) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(self.timeout)
        self.sock.connect("\0" + self.name)


class ServiceMixed(Workload):
    """``repro serve`` in its own process (2 runner slots, fresh data
    dir), driven by closed-loop client connections over a seeded mix
    of sweeps with ~20% cross-tenant repeats.  The server listens on an
    abstract Unix socket (see ``serve.py``), so the workload needs no
    network interface, not even loopback."""

    name = "service_mixed"
    interleave = False

    def __init__(self, root: Path, work: Path, seed: int):
        super().__init__(root, work, seed)
        self.clients = min(2, os.cpu_count() or 1)
        self.mix = ServiceMix(seed)
        self._next = 0
        self._lock = threading.Lock()
        self.server = None
        self._servers = 0
        self.server_errors: list[str] = []
        self.peak_mb = 0.0

    # -- server lifecycle -----------------------------------------------
    def _start_server(self) -> None:
        self._servers += 1
        data_dir = self.work / f"service{self._servers}"
        self.trace_path = self.work / f"server{self._servers}.jsonl.gz"
        self.rss_path = self.work / f"server{self._servers}.rss"
        # Unique among concurrent runs, also across pid namespaces.
        self.address = f"perfbench-{os.urandom(8).hex()}"
        command = [
            sys.executable, str(HERE / "serve.py"),
            "--unix", self.address, "--rss-out", str(self.rss_path),
            "--trace-out", str(self.trace_path) if self.traced else "",
            "--", "serve", "--data-dir", str(data_dir), "--runners", "2",
        ]
        self.log = open(self.work / f"serve{self._servers}.log", "wb")
        self.server = subprocess.Popen(
            command, stdout=self.log, stderr=subprocess.STDOUT,
            cwd=self.root,
        )
        deadline = time.monotonic() + 60
        while True:
            try:
                status, _ = self._request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not answer /healthz")
            time.sleep(0.02)

    def _stop_server(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        self.log.close()
        if self.rss_path.exists():  # written as the server exited
            self.peak_mb = max(
                self.peak_mb, float(self.rss_path.read_text())
            )
        if self.traced:  # the server wrote its spans as it exited
            self.server_tracers.append(Tracer.load(self.trace_path))
            self.span_files.append(self.trace_path)
        # A client that abandons a stream makes the server log a
        # ConnectionResetError traceback; any traceback is a failure.
        log = Path(self.log.name).read_bytes()
        if b"Traceback" in log:
            self.server_errors.append(
                f"server log {Path(self.log.name).name} has a traceback: "
                + log[log.index(b"Traceback"):][:300].decode(errors="replace")
            )

    def setup(self) -> None:
        # The in-process reference runs need the program; importing it
        # belongs to set-up like every other workload's import.
        from repro.core import batch
        from repro.service import protocol

        self.batch = batch
        self.protocol = protocol
        self._start_server()

    def restart(self, tracer: Tracer | None) -> None:
        """Replace the server by a fresh one (new data dir, the
        submission sequence from its start); with ``tracer``, the new
        server runs with the span wrappers installed.  The layers run
        in the server process, so this is how the service is traced."""
        self._stop_server()
        with self._lock:
            self._next = 0
        self.tracer = tracer
        self.traced = tracer is not None
        self._start_server()

    def close(self) -> None:
        self._stop_server()

    def rss_peak_mb(self) -> float:
        """Peak resident set size of the servers, once stopped."""
        return self.peak_mb

    # -- one round trip -------------------------------------------------
    def _request(self, method, path, body=None, tenant="probe"):
        connection = _UnixConnection(self.address, timeout=120)
        try:
            headers = {"X-Repro-Tenant": tenant}
            payload = None
            if body is not None:
                payload = json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _stream_to_end(self, sid: str, tenant: str):
        """Read the NDJSON stream to its end; return the time and the
        body of its ``terminal`` event."""
        connection = _UnixConnection(self.address, timeout=120)
        terminal_at, terminal = None, None
        try:
            connection.request(
                "GET", f"/v1/campaigns/{sid}/stream?from=0",
                headers={"X-Repro-Tenant": tenant},
            )
            response = connection.getresponse()
            if response.status != 200:
                response.read()
                return response.status, None, None
            while True:
                line = response.readline()
                if not line:
                    break
                event = json.loads(line)
                if event.get("event") == "terminal" and terminal is None:
                    terminal_at = time.perf_counter()
                    terminal = event
            return 200, terminal_at, terminal
        finally:
            connection.close()

    def unit(self, uid: int) -> Unit:
        with self._lock:
            index = self._next
            self._next += 1
        entry = self.mix.entry(index)
        detail = {"index": index, "errors": 0}
        start = time.perf_counter()
        try:
            lanes, state = self._round_trip(entry, start, detail)
        except (OSError, http.client.HTTPException, _Refused) as exc:
            detail["errors"] = 1
            return Unit(time.perf_counter() - start, 0, False,
                        f"{type(exc).__name__}: {exc}", detail)
        ok = state == "done"
        return Unit(detail.pop("latency_s"), lanes, ok,
                    "" if ok else f"campaign {state}", detail)

    def _round_trip(self, entry: dict, start: float, detail: dict):
        """Submit, stream to the ``terminal`` event, fetch the results;
        timings and digests land in ``detail``."""
        tenant = entry["tenant"]
        ticket = json.loads(self._expect(
            202, "POST", "/v1/campaigns", entry["spec"], tenant
        ))
        submitted = time.perf_counter()
        sid = ticket["submission"]
        status, terminal_at, terminal = self._stream_to_end(sid, tenant)
        if status != 200 or terminal is None:
            raise _Refused(f"stream HTTP {status}, no terminal event")
        body = self._expect(
            200, "GET", f"/v1/campaigns/{sid}/results", tenant=tenant
        )
        done = time.perf_counter()
        payload = json.loads(body)
        detail.update(
            latency_s=done - start,
            submit_ms=(submitted - start) * 1e3,
            to_terminal_ms=(terminal_at - submitted) * 1e3,
            results_ms=(done - terminal_at) * 1e3,
            results_bytes=len(body),
            deduplicated=bool(ticket["deduplicated"]),
            digest=payload["digest"],
            terminal_digest=terminal.get("digest"),
        )
        if not ticket["deduplicated"]:
            # Queue and execution times of the execution this
            # submission created (a repeat attaches to another's).
            record = json.loads(self._expect(
                200, "GET", f"/v1/campaigns/{sid}", tenant=tenant
            ))
            detail["queue_wait_ms"] = (
                record["started_s"] - record["created_s"]
            ) * 1e3
            detail["exec_ms"] = (
                record["finished_s"] - record["started_s"]
            ) * 1e3
        lanes = sum(
            len(result["layer_sequence"])
            for per_machine in payload["results"].values()
            for result in per_machine.values()
        )
        return lanes, terminal.get("state")

    def _expect(self, want: int, method, path, body=None, tenant="probe"):
        status, raw = self._request(method, path, body, tenant)
        if status != want:
            raise _Refused(f"{method} {path} answered HTTP {status}")
        return raw

    # -- checks ---------------------------------------------------------
    def check(self, units: list[Unit]) -> list[str]:
        """Every fetched digest equals ``protocol.results_digest`` of a
        direct in-process run of the same jobs."""
        cache = self.batch.ResultCache()
        expected: dict[str, str] = {}
        errors = list(self.server_errors)
        for unit in units:
            if "digest" not in unit.detail:
                continue
            spec = self.mix.entry(unit.detail["index"])["spec"]
            key = json.dumps(spec, sort_keys=True)
            if key not in expected:
                expected[key] = self._direct_digest(spec, cache)
            want = expected[key]
            got = (unit.detail["digest"], unit.detail["terminal_digest"])
            if got != (want, want):
                unit.ok = False
                unit.error = f"digest {got[0][:12]} != direct {want[:12]}"
                errors.append(f"entry {unit.detail['index']}: {unit.error}")
        return errors

    def _direct_digest(self, spec: dict, cache) -> str:
        campaign = self.protocol.CampaignSpec.from_dict(spec)
        jobs, labels = campaign.build_sweep_jobs()
        with self.batch.SweepRunner(
            max_workers=1, cache=cache, manifest=False
        ) as runner:
            results = runner.run(jobs)
        tree: dict[str, dict] = {}
        for (model, machine), result in zip(labels, results):
            tree.setdefault(model, {})[machine] = result
        return self.protocol.results_digest(tree)

    def describe(self) -> list[str]:
        sequence = [
            {
                "index": e["index"],
                "tenant": e["tenant"],
                "repeat_of": e["repeat_of"],
                **{k: e["spec"][k] for k in ("machines", "models", "batch")},
            }
            for e in self.mix.entries
        ]
        return [
            f"{self.name} seed={self.seed} submissions "
            f"({len(sequence)}): {json.dumps(sequence)}"
        ]


WORKLOADS = {
    cls.name: cls
    for cls in (PaperZoo, ZooWarmDisk, DseGranularity, ServiceMixed)
}
