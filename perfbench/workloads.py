"""The three benchmark workloads, driven through the library's public API.

Each workload has the same life cycle, run by ``worker.py``:

* ``prepare()`` builds the inputs from the seed (untimed, excluded from
  set-up time);
* ``setup()`` builds the fixtures and, on the closed loops, runs one
  untimed warm-up adaptation point (it pays the cold first interpolator
  call);
* ``measure(seconds, tracer)`` runs the timed part and returns a
  :class:`Measurement`.

Every adaptation point's ``StepResult`` is captured by a thin wrapper on
``ProcessorReallocator.step`` (see :class:`StepCapture`) and checked after
the timed region: ``check_all`` on the allocation and plan, and a per-step
decision hash compared against ``digests.json`` and against every earlier
replay of the same input within the run.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable
from typing import Any

from repro.analysis import pda
from repro.core.diffusion import DiffusionStrategy
from repro.core.invariants import InvariantViolation, check_all
from repro.core.reallocator import ProcessorReallocator
from repro.experiments.runner import ExperimentContext, WorkloadStepper
from repro.experiments.workloads import Workload, mumbai_trace_workload
from repro.grid.rect import Rect
from repro.obs import get_recorder
from repro.obs.timeline import ADAPTATION_SPAN
from repro.serve.scheduler import SchedulerConfig, SessionScheduler
from repro.serve.session import ScenarioSpec, SessionState, flight_signature
from repro.serve.store import SessionStore, StoreFull
from repro.topology import MACHINES
from repro.wrf.model import WrfLikeModel
from repro.wrf.nests import NestTracker
from repro.wrf.scenario import mumbai_2005_scenario

from tracing import Tracer

DIGEST_FILE = Path(__file__).with_name("digests.json")

#: the flagship trace: the Mumbai-2005 scenario, as ``mumbai_trace_workload``
#: detects it by default
FLAGSHIP_SCENARIO_SEED = 2005


# -- output checks ------------------------------------------------------------


class StepCapture:
    """Keeps every ``ProcessorReallocator.step`` outcome for later checks.

    The wrapper costs one extra call and a list append per adaptation
    point; it is installed in traced and untraced runs alike.  Entries
    are ``(ambient recorder, nests, StepResult)`` — the serve workload
    groups them by recorder, which is each session's own.
    """

    def __init__(self) -> None:
        self.results: list[tuple[Any, dict[int, tuple[int, int]], Any]] = []
        original = ProcessorReallocator.step
        capture = self

        def step(realloc: ProcessorReallocator, nests: dict[int, tuple[int, int]]) -> Any:
            result = original(realloc, nests)
            capture.results.append((get_recorder(), dict(nests), result))
            return result

        ProcessorReallocator.step = step  # type: ignore[method-assign]

    def take(self) -> list[tuple[Any, dict[int, tuple[int, int]], Any]]:
        out, self.results = self.results, []
        return out


def step_hash(nests: dict[int, tuple[int, int]], result: Any) -> str:
    """Hash of one decision: nests, chosen rectangles, measured time, hop-bytes."""
    plan = result.plan
    payload = [
        sorted(nests.items()),
        [(nid, r.x0, r.y0, r.w, r.h) for nid, r in sorted(result.allocation.rects.items())],
        repr(plan.measured_time if plan else 0.0),
        repr(plan.hop_bytes_total if plan else 0.0),
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def check_step(nests: dict[int, tuple[int, int]], result: Any) -> str:
    """``""`` when ``check_all`` passes, else the violation."""
    try:
        check_all(result.allocation, result.plan, nests)
    except InvariantViolation as exc:
        return str(exc)
    return ""


class DigestBook:
    """Per-input decision hashes: stored ones, and the run's own replays."""

    def __init__(self, workload: str) -> None:
        stored = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}
        self.stored: dict[str, list[str]] = stored.get(workload, {})
        self.seen: dict[str, list[str]] = {}

    def mismatches(self, key: str, hashes: list[str]) -> int:
        """Steps whose hash differs from the stored or an earlier replay's."""
        bad = 0
        for ref in (self.stored.get(key), self.seen.get(key)):
            if ref is not None:
                diff = sum(a != b for a, b in zip(hashes, ref)) + abs(len(ref) - len(hashes))
                bad = max(bad, diff)
        self.seen.setdefault(key, hashes)
        return bad


@dataclass
class Measurement:
    """What one timed phase produced (latencies in seconds)."""

    adapt: list[float] = field(default_factory=list)
    first: list[float] = field(default_factory=list)
    wall: float = 0.0  # timed wall seconds behind ``adapt_per_s``
    points: int = 0  # adaptation points completed in ``wall``
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    digests: dict[str, list[str]] = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_invariants(self, key: str, steps: list[tuple[Any, Any, Any]]) -> None:
        for _rec, nests, result in steps:
            problem = check_step(nests, result)
            if problem:
                self.fail(1, f"{key}: {problem}")

    def check(self, book: DigestBook, key: str, steps: list[tuple[Any, Any, Any]]) -> None:
        """Invariant- and digest-check one replay of input ``key``."""
        self.check_invariants(key, steps)
        hashes = [step_hash(nests, result) for _rec, nests, result in steps]
        bad = book.mismatches(key, hashes)
        if bad:
            self.fail(bad, f"{key}: {bad} decision(s) differ from the stored digest")
        self.digests.setdefault(key, hashes)


def _timed(tracer: Tracer | None, fn: Any) -> float:
    """Seconds ``fn()`` took, inside an adaptation-point root span if tracing."""
    if tracer is None:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    with tracer.span("adapt"):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start


def closed_loop(
    m: Measurement, seconds: float, n_first: int,
    first_sample: Callable[[int], float], run_pass: Callable[[int], None],
) -> None:
    """Run passes for ``seconds``, with ``n_first`` first-decision samples
    spread evenly between them (machine speed drifts over seconds, so
    samples taken back to back would all see the same drift)."""
    began = time.perf_counter()
    last_pass = 0.0
    passes = 0
    while True:
        projected = time.perf_counter() - began + last_pass
        finishing = passes > 0 and projected > seconds
        due = n_first if finishing else min(n_first, round(n_first * projected / seconds))
        while len(m.first) < due:
            m.first.append(first_sample(len(m.first)))
        if finishing:
            return
        start = time.perf_counter()
        run_pass(passes)
        last_pass = time.perf_counter() - start
        passes += 1


# -- trace-4k -----------------------------------------------------------------


class TraceReplay:
    """The flagship Mumbai-2005 nest trace replayed on bgl-4096 (diffusion).

    A closed loop: each ``WorkloadStepper.advance`` is one adaptation
    point.  A pass replays the trace prefix on a fresh stepper; step 0
    (the initial allocation) runs untimed, steps 1.. are timed.  The seed
    drives only the oracle's execution-noise stream: the nest trace is
    the fixed flagship, so every pass and every seed makes the same
    decisions.
    """

    name = "trace-4k"
    machine = "bgl-4096"
    prefix = 30
    first_repeats = 30

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.steps: list[dict[int, tuple[int, int]]] = []

    def prepare(self, warmup_only: bool = False) -> None:
        n_steps = 1 if warmup_only else self.prefix
        self.steps = mumbai_trace_workload(
            seed=FLAGSHIP_SCENARIO_SEED, n_steps=n_steps
        ).steps

    def _stepper(self, steps: list[dict[int, tuple[int, int]]]) -> WorkloadStepper:
        return WorkloadStepper(
            Workload(name="mumbai-2005", steps=steps),
            DiffusionStrategy(),
            self.context,
            exec_noise_seed=self.seed,
        )

    def setup(self) -> None:
        self.context = ExperimentContext(MACHINES[self.machine])
        self._stepper(self.steps[:1]).advance()

    def measure(self, seconds: float, tracer: Tracer | None, capture: StepCapture) -> Measurement:
        m = Measurement()
        book = DigestBook(self.name)

        def first_sample(_k: int) -> float:
            start = time.perf_counter()
            stepper = self._stepper(self.steps)
            stepper.advance()
            stepper.advance()
            took = time.perf_counter() - start
            m.attempted += 2
            m.check_invariants("first", capture.take())
            return took

        def run_pass(_k: int) -> None:
            stepper = self._stepper(self.steps)
            try:
                stepper.advance()
                for _ in range(len(self.steps) - 1):
                    took = _timed(tracer, stepper.advance)
                    m.adapt.append(took)
                    m.wall += took
                    m.points += 1
            except Exception as exc:  # noqa: BLE001 - a failed point is counted, not fatal
                m.fail(len(self.steps) - stepper.next_step, f"step {stepper.next_step}: {exc!r}")
            m.attempted += len(self.steps)
            m.check(book, str(FLAGSHIP_SCENARIO_SEED), capture.take())

        closed_loop(m, seconds, self.first_repeats, first_sample, run_pass)
        return m


# -- detect-256 ---------------------------------------------------------------


def clamp_roi(roi: Rect, min_side: int, max_side: int, nx: int, ny: int) -> Rect:
    """Clamp a detected region to WRF-practical nest extents.

    The same rule ``mumbai_trace_workload`` applies between detection and
    tracking: undersized regions grow around their centre, oversized ones
    are cropped around it, and the result stays inside the parent domain.
    """

    def axis(c0: int, length: int, lo: int, hi: int, domain: int) -> tuple[int, int]:
        new_len = max(lo, min(length, hi))
        start = c0 + (length - new_len) // 2
        return max(0, min(start, domain - new_len)), new_len

    x0, w = axis(roi.x0, roi.w, min(min_side, nx), max_side, nx)
    y0, h = axis(roi.y0, roi.h, min(min_side, ny), max_side, ny)
    return Rect(x0, y0, w, h)


class DetectLoop:
    """The paper's whole adaptation loop on bgl-256 with the dynamic strategy.

    Per point: the WRF-like model steps and writes split files (input,
    untimed); then ``parallel_data_analysis`` → ROI clamp →
    ``NestTracker.update`` → ``ProcessorReallocator.step`` is timed.  A
    pass runs ``points`` points of one Mumbai-like scenario on fresh
    fixtures; passes cycle through ``scenarios`` scenario seeds derived
    from the benchmark seed.  Point 0 of a pass (the first allocation)
    runs untimed.
    """

    name = "detect-256"
    machine = "bgl-256"
    points = 30
    scenarios = 12
    first_repeats = 36
    n_analysis = 64
    max_nests = 7
    roi_sides = (58, 120)

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.scenario_seeds = [seed * 1000 + k for k in range(self.scenarios)]

    def prepare(self, warmup_only: bool = False) -> None:
        self.warm_files = next(self._model(self.scenario_seeds[0]))

    def _model(self, scenario_seed: int) -> Any:
        """Yields ``(config, split files)`` one adaptation point at a time."""
        scenario = mumbai_2005_scenario(seed=scenario_seed, n_steps=self.points)
        model = WrfLikeModel(scenario.config, scenario.birth_fn, scenario.initial_systems)
        while True:
            model.step()
            yield scenario.config, model.write_split_files()

    def _fixtures(self) -> tuple[NestTracker, ProcessorReallocator]:
        context = self.context
        tracker = NestTracker(refinement=self.config.nest_refinement)
        realloc = ProcessorReallocator(
            context.machine,
            context.make_dynamic_strategy(),
            context.predictor,
            context.cost,
            kernels=context.kernels,
        )
        return tracker, realloc

    def _point(self, files: list[Any], tracker: NestTracker, realloc: ProcessorReallocator) -> None:
        config = self.config
        result = pda.parallel_data_analysis(files, config.sim_grid, self.n_analysis)
        rois = sorted(result.rectangles, key=lambda r: -r.area)[: self.max_nests]
        rois = [clamp_roi(r, *self.roi_sides, config.nx, config.ny) for r in rois]
        tracker.update(rois)
        nests = {n.nest_id: (n.nx, n.ny) for n in tracker.live.values()}
        if nests:  # no strategy allocates an empty nest set
            realloc.step(nests)

    def setup(self) -> None:
        self.context = ExperimentContext(MACHINES[self.machine])
        self.config, files = self.warm_files
        self._point(files, *self._fixtures())

    def measure(self, seconds: float, tracer: Tracer | None, capture: StepCapture) -> Measurement:
        m = Measurement()
        book = DigestBook(self.name)

        def first_sample(k: int) -> float:
            inputs = self._model(self.scenario_seeds[k % self.scenarios])
            first, second = next(inputs)[1], next(inputs)[1]
            start = time.perf_counter()
            tracker, realloc = self._fixtures()
            self._point(first, tracker, realloc)
            self._point(second, tracker, realloc)
            took = time.perf_counter() - start
            m.attempted += 2
            m.check_invariants("first", capture.take())
            return took

        def run_pass(k: int) -> None:
            scenario_seed = self.scenario_seeds[k % self.scenarios]
            inputs = self._model(scenario_seed)
            tracker, realloc = self._fixtures()
            done = 0
            try:
                self._point(next(inputs)[1], tracker, realloc)
                done = 1
                for _ in range(self.points - 1):
                    files = next(inputs)[1]
                    took = _timed(tracer, lambda: self._point(files, tracker, realloc))
                    m.adapt.append(took)
                    m.wall += took
                    m.points += 1
                    done += 1
            except Exception as exc:  # noqa: BLE001 - a failed point is counted, not fatal
                m.fail(self.points - done, f"scenario {scenario_seed} point {done}: {exc!r}")
            m.attempted += self.points
            m.check(book, str(scenario_seed), capture.take())

        closed_loop(m, seconds, self.first_repeats, first_sample, run_pass)
        return m


# -- serve-1k -----------------------------------------------------------------


class ServeFleet:
    """An open-loop arrival schedule of Mumbai sessions on bgl-1024.

    ``rate × seconds`` sessions arrive at jittered-periodic times drawn
    from the seed (session ``k`` of the shuffled order is due at
    ``(k + U(0.1, 0.9)) / rate``) into an
    in-process ``SessionStore`` + ``SessionScheduler`` with ``workers``
    workers.  The fleet itself is fixed — session ``i`` tracks the
    Mumbai-like scenario ``2005 + i`` — so the seed moves only *when*
    sessions arrive, and the decisions (and their digest) are the same
    on every seed.
    """

    name = "serve-1k"
    machine = "bgl-1024"
    rate = 1.5  # sessions per second offered
    workers = 1
    steps = 8

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.fixtures: tuple[SessionStore, SessionScheduler] | None = None

    def prepare(self, warmup_only: bool = False) -> None:
        self.arrivals = self.schedule()

    def setup(self) -> None:
        store = SessionStore(capacity=len(self.arrivals))
        self.fixtures = store, SessionScheduler(store, SchedulerConfig(workers=self.workers))

    def schedule(self) -> list[tuple[float, ScenarioSpec]]:
        """``(due offset seconds, spec)`` per arrival, in arrival order."""
        n = max(12, round(self.rate * self.seconds))
        rng = random.Random(self.seed)
        order = list(range(n))
        rng.shuffle(order)
        out = []
        for slot, i in enumerate(order):
            due = (slot + rng.uniform(0.1, 0.9)) / self.rate
            spec = ScenarioSpec(
                workload="mumbai", seed=FLAGSHIP_SCENARIO_SEED + i, steps=self.steps,
                machine=self.machine, strategy="diffusion",
            )
            out.append((due, spec))
        return out

    async def _drive(
        self, arrivals: list[tuple[float, ScenarioSpec]], store: SessionStore,
        scheduler: SessionScheduler, origin: float, lags: list[float],
        sessions: dict[str, tuple[float, ScenarioSpec]], refused: list[ScenarioSpec],
    ) -> None:
        await scheduler.start()
        try:
            for due, spec in arrivals:
                wait = origin + due - time.perf_counter()
                if wait > 0:
                    await asyncio.sleep(wait)
                lags.append(time.perf_counter() - (origin + due))
                try:
                    session = store.create(spec)
                except StoreFull:
                    refused.append(spec)
                    continue
                sessions[session.session_id] = (origin + due, spec)
                scheduler.submit(session)
            await scheduler.drain()
        finally:
            await scheduler.stop()

    def measure(self, seconds: float, tracer: Tracer | None, capture: StepCapture) -> Measurement:
        m = Measurement()
        book = DigestBook(self.name)
        arrivals = self.arrivals
        if self.fixtures is None:  # a second phase of a traced run
            self.setup()
        assert self.fixtures is not None
        (store, scheduler), self.fixtures = self.fixtures, None
        lags: list[float] = []
        sessions: dict[str, tuple[float, ScenarioSpec]] = {}
        refused: list[ScenarioSpec] = []
        origin = time.perf_counter()
        asyncio.run(self._drive(arrivals, store, scheduler, origin, lags, sessions, refused))
        m.wall = time.perf_counter() - origin
        m.attempted = len(arrivals) * self.steps
        if refused:
            m.fail(len(refused) * self.steps, f"{len(refused)} session(s) refused")
        by_recorder: dict[int, list[tuple[Any, Any, Any]]] = {}
        for entry in capture.take():
            by_recorder.setdefault(id(entry[0]), []).append(entry)
        for sid, (due_abs, spec) in sorted(sessions.items(), key=lambda kv: kv[1][1].seed):
            session = store.get(sid)
            key = str(spec.seed)
            if session.state is not SessionState.DONE:
                m.fail(self.steps, f"{key}: session ended {session.state.value} {session.error}")
                continue
            lat = session.decision_latencies
            m.adapt.extend(lat)
            m.points += len(lat)
            first_end = next(
                s.end for s in session.recorder.spans if s.name == ADAPTATION_SPAN
            )
            m.first.append(session.recorder.origin + first_end - due_abs)
            steps = by_recorder.get(id(session.recorder), [])
            m.check(book, key, steps)
            signature = json.dumps(flight_signature(session.events()), default=repr)
            sig_hash = hashlib.sha256(signature.encode()).hexdigest()[:16]
            if book.mismatches(key + "/flight", [sig_hash]):
                m.fail(self.steps, f"{key}: flight signature differs from the stored digest")
            m.digests[key + "/flight"] = [sig_hash]
        m.extra["gen_lag_ms"] = 1000.0 * statistics.median(lags)
        m.extra["gen_lag_max_ms"] = 1000.0 * max(lags)
        m.extra["offered_rate"] = self.rate
        m.extra["sessions"] = float(len(arrivals))
        if tracer is not None:
            m.layers.update(self._serve_layers(tracer, sessions, lags, m.wall))
        return m

    def _serve_layers(
        self, tracer: Tracer, sessions: dict[str, tuple[float, ScenarioSpec]],
        lags: list[float], wall: float,
    ) -> dict[str, float]:
        starts = [s for s in tracer.spans if s[2] == "serve.start"]
        advances = [s for s in tracer.spans if s[2] == "serve.advance"]
        first_advance: dict[str, float] = {}
        for s in advances:
            first_advance[s[6]] = min(first_advance.get(s[6], s[3]), s[3])
        waits = [first_advance[sid] - due for sid, (due, _spec) in sessions.items()
                 if sid in first_advance]
        busy = sum(s[4] - s[3] for s in advances)
        return {
            "serve.queue_wait_ms": 1000.0 * statistics.median(waits),
            "serve.start_ms": 1000.0 * statistics.median(s[4] - s[3] for s in starts),
            "serve.advance_ms": 1000.0 * statistics.median(s[4] - s[3] for s in advances),
            "serve.worker_busy_frac": busy / (self.workers * wall),
            "serve.gen_lag_ms": 1000.0 * statistics.median(lags),
        }


WORKLOADS = {w.name: w for w in (TraceReplay, DetectLoop, ServeFleet)}
