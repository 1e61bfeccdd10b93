"""The benchmark's workloads: inputs, rounds and output checks.

Every workload runs *rounds*: one round performs the same list of
operations, in the same order, on the same inputs.  A run repeats whole
rounds until its time is up, so each operation is timed several times
and the benchmark keeps, per operation, its median normalised time (see
:func:`normalised` and the README).  The first round's outputs are
checked in full; every later round must reproduce them exactly,
operation by operation.

``--seed`` draws a consistent renaming of every application's actors,
channels and name.  The make-up of the inputs is fixed (the generator
seeds below), so runs with different seeds do the same work: the
steadiness test compares runs across seeds, and the work of one
generator draw varies by a factor of 2.5 between generator seeds.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import OPERATION, Recorder

#: generator seed and length of the batch-flow sequence (mixed set)
FLOW_SET_SEED = 3
FLOW_APPLICATIONS = 12
#: exact-search instances, by generator seed, of the two profiles
EXACT_SMALL_SEEDS = tuple(range(0, 30))
EXACT_TIGHT_SEEDS = tuple(range(100, 106))
#: service-cold requests: small instances, compute far below child
#: start-up; few per round, so that a run holds many rounds
COLD_SEEDS = (0, 1)
#: service-hit originals: the first applications of the batch-flow sequence
HIT_ORIGINALS = 4
#: isomorphic renamings of each original submitted per round
HIT_VARIANTS = 3
#: worker threads of the service workloads (``serve``'s default)
SERVICE_WORKERS = 2
#: :func:`calibrate`'s time at the reference speed (see the README);
#: operation times are rescaled to that speed
REFERENCE_CALIBRATION_S = 0.003
#: :func:`spawn_calibrate`'s time at the reference speed
REFERENCE_SPAWN_S = 0.075
#: operations on each side whose calibrations normalise an operation
CALIBRATION_WINDOW = 2


@dataclass
class RoundResult:
    """What one round measured and produced (checked afterwards)."""

    #: wall seconds per operation, in operation order
    op_times: List[float]
    #: per operation, the workload's calibration time right before and
    #: right after it
    calibrations: List[Tuple[float, float]]
    #: the calibration time that normalised times are scaled to
    reference: float
    #: program output per operation
    outputs: List[Any]
    #: per-operation output signature; later rounds must repeat round 0's
    signatures: List[Any]
    #: work counters reported by the program's results
    counters: Dict[str, int] = field(default_factory=dict)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop (tuples, hashing) takes now."""
    started = perf_counter()
    seen = {}
    state = (1, 2, 3, 4, 5, 6, 7, 8)
    for i in range(1500):
        state = tuple((x * 31 + i) % 1009 for x in state)
        seen[state] = i
    return perf_counter() - started


def spawn_calibrate() -> float:
    """Seconds starting an interpreter that imports ``json`` takes now."""
    started = perf_counter()
    subprocess.run([sys.executable, "-c", "import json"], check=True)
    return perf_counter() - started


def normalised(result: RoundResult) -> List[float]:
    """The round's operation times at the reference machine speed.

    Each operation's wall time is scaled by the round's reference
    calibration time over the median calibration time of the operations
    within :data:`CALIBRATION_WINDOW` of it: the machine's speed phases
    last seconds, longer than that window, while one calibration sample
    alone jitters by a third.
    """
    count = len(result.op_times)
    scaled = []
    for position, seconds in enumerate(result.op_times):
        window = [
            sample
            for neighbour in range(
                max(0, position - CALIBRATION_WINDOW),
                min(count, position + CALIBRATION_WINDOW + 1),
            )
            for sample in result.calibrations[neighbour]
        ]
        scaled.append(seconds * result.reference / statistics.median(window))
    return scaled


def rename_application(
    data: Dict[str, Any], rng: Random, prefix: str
) -> Dict[str, Any]:
    """A consistently renamed copy of an application dict."""
    actors = [actor["name"] for actor in data["graph"]["actors"]]
    channels = [channel["name"] for channel in data["graph"]["channels"]]
    rng.shuffle(actors)
    rng.shuffle(channels)
    actor_map = {name: f"{prefix}a{i}" for i, name in enumerate(actors)}
    channel_map = {name: f"{prefix}c{i}" for i, name in enumerate(channels)}
    renamed = copy.deepcopy(data)
    renamed["name"] = f"{prefix}{data['name']}"
    renamed["graph"]["actors"] = [
        {**actor, "name": actor_map[actor["name"]]}
        for actor in data["graph"]["actors"]
    ]
    renamed["graph"]["channels"] = [
        {
            **channel,
            "name": channel_map[channel["name"]],
            "src": actor_map[channel["src"]],
            "dst": actor_map[channel["dst"]],
        }
        for channel in data["graph"]["channels"]
    ]
    renamed["actors"] = {
        actor_map[name]: value for name, value in data["actors"].items()
    }
    renamed["channels"] = {
        channel_map[name]: value
        for name, value in data.get("channels", {}).items()
    }
    renamed["output_actor"] = actor_map[data["output_actor"]]
    return renamed


def _allocation_signature(allocation: Dict[str, Any]) -> Tuple:
    """Binding, slices and throughput of an allocation dict."""
    return (
        tuple(sorted(allocation["binding"].items())),
        tuple(sorted(allocation["slices"].items())),
        str(Fraction(allocation["achieved_throughput"])),
    )


def _certified_each(bundle: Dict[str, Any]) -> List[str]:
    """Per allocation of a bundle: '' when it replays ``certified``.

    The replay is :func:`repro.verify.certify_allocation`, looked up on
    its module so that a traced run records it as the verify layer.
    """
    from repro.verify import allocation as verify

    report = verify.certify_allocation(bundle)
    problems = [
        ""
        if v.verdict == verify.VERDICT_CERTIFIED
        else f"{v.application}: {v.verdict} {v.reasons}"
        for v in report.verdicts
    ]
    missing = len(bundle["allocations"]) - len(problems)
    return problems + ["verifier skipped the allocation"] * missing


def _certified(bundle: Dict[str, Any]) -> List[str]:
    """Every problem found replaying a bundle."""
    return [problem for problem in _certified_each(bundle) if problem]


class Workload:
    """One workload: its inputs, its operations and their checks."""

    name = ""
    #: a traced round also traces its full check; off where operations
    #: replay certificates themselves, so the verify layer stays theirs
    trace_checks = True
    #: the calibration timed around each operation, and its reference time
    calibrate = staticmethod(calibrate)
    reference_calibration = REFERENCE_CALIBRATION_S

    def prepare(self, seed: int, workdir: str) -> Dict[str, str]:
        """Untimed work before set-up, done once per run.

        Returns the directories it made, by keyword argument of
        :meth:`setup`; they are removed when the run ends.
        """
        return {}

    def setup(self, seed: int, workdir: str, **prepared: str) -> None:
        """Generate the inputs: everything before the first operation."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def begin_round(self, index: int) -> None:
        """Untimed preparation of round ``index``."""

    def settle(self) -> None:
        """Wait, untimed, for work an operation left running behind it."""

    def operations(self) -> List[Tuple[str, Callable[[], Any]]]:
        """The round's operations: (name, call) in order."""
        raise NotImplementedError

    def signature(self, output: Any) -> Any:
        """What a later round must reproduce of an operation's output."""
        raise NotImplementedError

    def counters(self, outputs: List[Any]) -> Dict[str, int]:
        """Work counters the program reports in a round's outputs."""
        return {}

    def placed(self, outputs: List[Any]) -> int:
        """Applications that received an allocation in the round."""
        raise NotImplementedError

    def check(self, outputs: List[Any]) -> List[Tuple[Optional[int], str]]:
        """Full check of a round's outputs.

        Returns the problems found, each with the index of the operation
        that failed, or None for a fault of the round as a whole.
        """
        raise NotImplementedError

    def run_round(self, index: int, recorder: Optional[Recorder]) -> RoundResult:
        """Run every operation once, timing each between calibrations."""
        self.begin_round(index)
        times, outputs, calibrations = [], [], []
        for name, call in self.operations():
            before = self.calibrate()
            if recorder is None:
                started = perf_counter()
                output = call()
                seconds = perf_counter() - started
            else:
                recorder.set_op(f"r{index}/{name}")
                span = recorder.open(OPERATION)
                try:
                    output = call()
                finally:
                    recorder.close(span)
                    recorder.set_op(None)
                seconds = span.end - span.start
            self.settle()
            calibrations.append((before, self.calibrate()))
            times.append(seconds)
            outputs.append(output)
        return RoundResult(
            op_times=times,
            calibrations=calibrations,
            reference=self.reference_calibration,
            outputs=outputs,
            signatures=[self.signature(output) for output in outputs],
            counters=self.counters(outputs),
        )


class BatchFlow(Workload):
    """The paper's §10.1 flow over a mixed-set sequence on mesh3x3-v1.

    Each operation is one application attempt of the flow, made with
    ``allocate_until_failure(..., continue_after_failure=True)`` on the
    shared, progressively occupied platform.
    """

    name = "batch-flow"

    def setup(self, seed: int, workdir: str, **prepared: str) -> None:
        from repro.appmodel.serialization import (
            application_from_dict,
            application_to_dict,
        )
        from repro.arch.presets import benchmark_architectures
        from repro.core.flow import allocate_until_failure
        from repro.core.strategy import ResourceAllocator
        from repro.core.tile_cost import CostWeights
        from repro.generate.benchmark import generate_benchmark_set

        self._flow = allocate_until_failure
        self.architecture = benchmark_architectures()[0]
        rng = Random(seed)
        self.applications = [
            application_from_dict(
                rename_application(application_to_dict(app), rng, f"s{i}")
            )
            for i, app in enumerate(
                generate_benchmark_set(
                    "mixed",
                    FLOW_APPLICATIONS,
                    self.architecture.processor_types(),
                    seed=FLOW_SET_SEED,
                )
            )
        ]
        self.allocator = ResourceAllocator(weights=CostWeights.default())

    def begin_round(self, index: int) -> None:
        self._platform = copy.deepcopy(self.architecture)

    def operations(self):
        return [
            (
                application.name,
                lambda application=application: self._flow(
                    self._platform,
                    [application],
                    allocator=self.allocator,
                    continue_after_failure=True,
                ),
            )
            for application in self.applications
        ]

    def signature(self, flow: Any) -> Any:
        outcome = flow.application_stats[0]["outcome"]
        if not flow.allocations:
            return (outcome,)
        allocation = flow.allocations[0]
        return (
            outcome,
            tuple(sorted(allocation.binding.assignment.items())),
            tuple(sorted(allocation.scheduling.slices.items())),
            str(allocation.achieved_throughput),
        )

    def counters(self, outputs):
        return {
            "throughput_checks": sum(
                flow.total_throughput_checks for flow in outputs
            )
        }

    def placed(self, outputs) -> int:
        return sum(1 for flow in outputs if flow.allocations)

    def check(self, outputs):
        from repro.appmodel.serialization import bundle_to_dict

        problems = []
        allocations, owners = [], []
        for position, flow in enumerate(outputs):
            outcome = flow.application_stats[0]["outcome"]
            if outcome not in ("allocated", "failed", "rejected"):
                # a refusal is a correct answer; anything else is not
                problems.append((position, f"outcome {outcome}"))
                continue
            for allocation in flow.allocations:
                if allocation.achieved_throughput < (
                    allocation.application.throughput_constraint
                ):
                    problems.append(
                        (
                            position,
                            f"throughput {allocation.achieved_throughput} "
                            "below the constraint",
                        )
                    )
                allocations.append(allocation)
                owners.append(position)
        # replay, in commit order, against the platform before the flow
        bundle = bundle_to_dict(self.architecture, allocations)
        for position, problem in zip(owners, _certified_each(bundle)):
            if problem:
                problems.append((position, problem))
        problems.extend(
            (None, problem) for problem in self._capacity_problems(allocations)
        )
        return problems

    def _capacity_problems(self, allocations) -> List[str]:
        """Re-sum every tile's claims; each must fit the tile."""
        kinds = (
            ("time_slice", "wheel"),
            ("memory", "memory"),
            ("connections", "max_connections"),
            ("bandwidth_in", "bandwidth_in"),
            ("bandwidth_out", "bandwidth_out"),
        )
        usage: Dict[Tuple[str, str], int] = {}
        for allocation in allocations:
            for tile, claim in allocation.reservation.tiles.items():
                for claim_key, _ in kinds:
                    usage[(tile, claim_key)] = usage.get(
                        (tile, claim_key), 0
                    ) + getattr(claim, claim_key)
        problems = []
        for tile in self.architecture.tiles:
            for claim_key, capacity_key in kinds:
                used = usage.get((tile.name, claim_key), 0)
                if used > getattr(tile, capacity_key):
                    problems.append(
                        f"tile {tile.name}: {claim_key} {used} over "
                        f"capacity {getattr(tile, capacity_key)}"
                    )
        return problems


def _exact_profiles():
    """The optimality-gap harness's small and tight generator profiles."""
    from repro.generate.benchmark import BenchmarkSetProfile
    from repro.generate.random_sdf import RandomSDFParameters

    common = dict(
        structure=RandomSDFParameters(
            actors_min=2,
            actors_max=5,
            repetition_max=2,
            extra_channel_fraction=0.3,
        ),
        execution_time=(1, 3),
        actor_memory=(5, 20),
        token_size=(1, 3),
        buffer_tokens=(1, 2),
        bandwidth=(8, 40),
    )
    small = BenchmarkSetProfile(
        name="alloc-diff", constraint_percent=(5, 25), **common
    )
    tight = BenchmarkSetProfile(
        name="alloc-diff-tight", constraint_percent=(60, 95), **common
    )
    return small, tight


def _small_instance(profile, generator_seed: int):
    """One generated application (as a dict) and its 1x2 or 1x3 mesh."""
    from repro.appmodel.serialization import application_to_dict
    from repro.arch.presets import mesh_architecture
    from repro.arch.tile import ProcessorType
    from repro.generate.benchmark import generate_application

    types = [ProcessorType("p1"), ProcessorType("p2")]
    application = generate_application(
        profile,
        types,
        Random(generator_seed),
        name=f"{profile.name}-{generator_seed}",
    )
    architecture = mesh_architecture(
        1,
        2 + generator_seed % 2,
        types,
        wheel=8,
        memory=4_000,
        max_connections=16,
        bandwidth_in=2_000,
        bandwidth_out=2_000,
    )
    return application_to_dict(application), architecture


class ExactSearch(Workload):
    """``exact_search`` over seeded small instances, one per operation."""

    name = "exact-search"

    def setup(self, seed: int, workdir: str, **prepared: str) -> None:
        from repro.appmodel.serialization import application_from_dict
        from repro.core.tile_cost import CostWeights
        from repro.exact import search

        self._search = search.exact_search
        self.weights = CostWeights.default()
        small, tight = _exact_profiles()
        rng = Random(seed)
        self.instances = []
        for profile, seeds in (
            (small, EXACT_SMALL_SEEDS),
            (tight, EXACT_TIGHT_SEEDS),
        ):
            for generator_seed in seeds:
                data, architecture = _small_instance(profile, generator_seed)
                renamed = rename_application(
                    data, rng, f"s{len(self.instances)}"
                )
                self.instances.append(
                    (application_from_dict(renamed), architecture)
                )
        self._greedy_costs: Optional[List[Optional[Fraction]]] = None

    def operations(self):
        return [
            (
                application.name,
                lambda application=application, architecture=architecture: (
                    self._search(
                        application, architecture, weights=self.weights
                    )
                ),
            )
            for application, architecture in self.instances
        ]

    def signature(self, result: Any) -> Any:
        return (
            str(result.cost),
            result.nodes_explored,
            result.nodes_pruned,
            result.leaves_evaluated,
            result.throughput_checks,
            tuple(sorted(result.allocation.binding.assignment.items()))
            if result.feasible
            else None,
        )

    def counters(self, outputs):
        return {
            "throughput_checks": sum(r.throughput_checks for r in outputs),
            "exact_nodes": sum(r.nodes_explored for r in outputs),
            "exact_pruned": sum(r.nodes_pruned for r in outputs),
            "exact_leaves": sum(r.leaves_evaluated for r in outputs),
        }

    def placed(self, outputs) -> int:
        return sum(1 for result in outputs if result.feasible)

    def _greedy(self) -> List[Optional[Fraction]]:
        """The greedy strategy's cost per instance (None: it refuses)."""
        from repro.core.strategy import AllocationError, ResourceAllocator
        from repro.exact import allocation_cost

        if self._greedy_costs is None:
            allocator = ResourceAllocator(weights=self.weights)
            self._greedy_costs = []
            for application, architecture in self.instances:
                try:
                    greedy = allocator.allocate(application, architecture)
                except AllocationError:
                    self._greedy_costs.append(None)
                    continue
                self._greedy_costs.append(
                    allocation_cost(
                        application,
                        architecture,
                        greedy.binding,
                        greedy.scheduling.slices,
                        self.weights,
                    )
                )
        return self._greedy_costs

    def check(self, outputs):
        from repro.appmodel.serialization import bundle_to_dict
        from repro.exact import allocation_cost

        problems = []
        for position, ((application, architecture), exact, greedy) in enumerate(
            zip(self.instances, outputs, self._greedy())
        ):
            fault = None
            if not exact.feasible:
                if greedy is not None:
                    fault = "greedy allocates but exact claims infeasibility"
            else:
                bundle = json.loads(
                    json.dumps(bundle_to_dict(architecture, [exact.allocation]))
                )
                replay = _certified(bundle)
                if replay:
                    fault = "; ".join(replay)
                elif exact.cost != allocation_cost(
                    application,
                    architecture,
                    exact.allocation.binding,
                    exact.allocation.scheduling.slices,
                    self.weights,
                ):
                    fault = f"reported cost {exact.cost} is not its allocation's"
                elif greedy is not None and exact.cost > greedy:
                    fault = f"exact cost {exact.cost} > greedy cost {greedy}"
            if fault:
                problems.append((position, fault))
        return problems


class _Service(Workload):
    """Shared machinery of the two service workloads.

    An in-process :class:`AllocationService` with process isolation and
    two workers, as ``serve`` starts it by default, fed by one client
    in a closed loop: the client submits its next request only after
    the previous one reached a terminal state.  One client keeps the
    calibration loop, run by the client between jobs, free of the
    interpreter lock contention a second client's job would add.
    Every round runs on a fresh spool and service, so job records never
    pile up.
    """

    expected_source = ""
    trace_checks = False
    _service = None

    def setup(self, seed: int, workdir: str, **prepared: str) -> None:
        self.workdir = workdir
        self.requests = self._make_requests(seed)
        self._start()

    def _start(self) -> None:
        from repro.service.service import AllocationService

        self._spool = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)
        self._seed_spool(self._spool)
        self._service = AllocationService(
            self._spool, workers=SERVICE_WORKERS, isolation="process"
        ).start()

    def _seed_spool(self, spool: str) -> None:
        """Fill a fresh spool before its service starts."""

    def teardown(self) -> None:
        if self._service is not None:
            self._service.drain()
            shutil.rmtree(self._spool, ignore_errors=True)
            self._service = None

    def begin_round(self, index: int) -> None:
        if index > 0:
            self.teardown()
            # the last round's job records are garbage now; collecting
            # them here keeps the peak resident set from depending on
            # when the collector happens to run
            gc.collect()
            self._start()

    def settle(self) -> None:
        # the worker finishes its bookkeeping after the job turned
        # terminal; calibrating before then would time that too
        self._service.wait_idle(timeout=60)

    def _make_requests(self, seed: int) -> List[Tuple[Dict, Dict, int]]:
        """(application, architecture, original index) per job."""
        raise NotImplementedError

    def operations(self):
        service = self._service

        def job(application, architecture):
            return service.wait(
                service.submit(application, architecture), timeout=120
            )

        return [
            (
                str(position),
                lambda application=application, architecture=architecture: (
                    job(application, architecture)
                ),
            )
            for position, (application, architecture, _) in enumerate(
                self.requests
            )
        ]

    def signature(self, record: Dict[str, Any]) -> Any:
        if record["state"] != "certified":
            return ("state", record["state"])
        return (
            record["source"],
            _allocation_signature(record["result"]["allocations"][0]),
        )

    def placed(self, outputs) -> int:
        return sum(1 for record in outputs if record["state"] == "certified")

    def check(self, outputs):
        problems = []
        for position, record in enumerate(outputs):
            fault = self._check_job(position, record)
            if fault:
                problems.append((position, fault))
        return problems

    def _check_job(self, position: int, record: Dict[str, Any]) -> str:
        if record["state"] != "certified":
            return f"ended {record['state']} ({record.get('reason')})"
        if record.get("source") != self.expected_source:
            return f"source {record.get('source')}, not {self.expected_source}"
        application, architecture, _ = self.requests[position]
        bundle = record["result"]
        replay = _certified(bundle)
        if replay:
            return "; ".join(replay)
        allocation = bundle["allocations"][0]
        actors = {actor["name"] for actor in application["graph"]["actors"]}
        tiles = {tile["name"] for tile in architecture["tiles"]}
        if set(allocation["binding"]) != actors:
            return "binding is not in the requester's actor names"
        if not set(allocation["binding"].values()) <= tiles:
            return "binding names tiles outside the request"
        return self._compare(position, allocation)

    def _compare(self, position: int, allocation: Dict[str, Any]) -> str:
        """Compare an answer with its reference; '' when they agree."""
        raise NotImplementedError


def _in_process_allocation(application: Dict, architecture: Dict) -> Dict:
    """What ``ResourceAllocator`` computes in-process for a request."""
    from repro.appmodel.serialization import (
        allocation_to_dict,
        application_from_dict,
    )
    from repro.arch.serialization import architecture_from_dict
    from repro.core.strategy import ResourceAllocator

    return allocation_to_dict(
        ResourceAllocator().allocate(
            application_from_dict(application),
            architecture_from_dict(architecture),
        )
    )


class ServiceCold(_Service):
    """First-seen requests: the cache misses and a sandbox child computes."""

    name = "service-cold"
    expected_source = "computed"
    # a cold job's time is a child interpreter's start-up, whose speed
    # the in-process loop does not track; a bare child start does
    calibrate = staticmethod(spawn_calibrate)
    reference_calibration = REFERENCE_SPAWN_S

    def _make_requests(self, seed: int):
        from repro.arch.serialization import architecture_to_dict

        small, _ = _exact_profiles()
        rng = Random(seed)
        requests = []
        for position, generator_seed in enumerate(COLD_SEEDS):
            data, architecture = _small_instance(small, generator_seed)
            requests.append(
                (
                    rename_application(data, rng, f"s{position}"),
                    architecture_to_dict(architecture),
                    position,
                )
            )
        return requests

    def _compare(self, position: int, allocation: Dict[str, Any]) -> str:
        application, architecture, _ = self.requests[position]
        expected = _in_process_allocation(application, architecture)
        if _allocation_signature(allocation) != _allocation_signature(expected):
            return "differs from the in-process ResourceAllocator answer"
        return ""


def _hit_originals() -> List[Tuple[Dict, Dict]]:
    """The service-hit originals: batch-flow's first applications."""
    from repro.appmodel.serialization import application_to_dict
    from repro.arch.presets import benchmark_architectures
    from repro.arch.serialization import architecture_to_dict
    from repro.generate.benchmark import generate_benchmark_set

    architecture = benchmark_architectures()[0]
    applications = generate_benchmark_set(
        "mixed",
        HIT_ORIGINALS,
        architecture.processor_types(),
        seed=FLOW_SET_SEED,
    )
    return [
        (application_to_dict(app), architecture_to_dict(architecture))
        for app in applications
    ]


class ServiceHit(_Service):
    """Isomorphic duplicates of earlier requests, served from the cache.

    Preparation (untimed) computes the originals once through a
    process-isolated service and keeps that spool; every round starts
    a service on a copy of it, so set-up includes journal recovery and
    every request finds its verified cache entry.
    """

    name = "service-hit"
    expected_source = "cache"

    def prepare(self, seed: int, workdir: str) -> Dict[str, str]:
        from repro.service.service import AllocationService

        originals = _hit_originals()
        spool = os.path.join(workdir, f"{self.name}-warm")
        shutil.rmtree(spool, ignore_errors=True)
        service = AllocationService(
            spool, workers=SERVICE_WORKERS, isolation="process"
        ).start()
        try:
            jobs = [service.submit(app, arch) for app, arch in originals]
            records = [service.wait(job, timeout=300) for job in jobs]
        finally:
            service.drain()
        for (application, architecture), record in zip(originals, records):
            if record["state"] != "certified" or record["source"] != "computed":
                raise RuntimeError(
                    f"warm-up job for {application['name']} ended "
                    f"{record['state']} ({record.get('reason')})"
                )
            allocation = record["result"]["allocations"][0]
            problems = _certified(record["result"])
            expected = _in_process_allocation(application, architecture)
            if problems or _allocation_signature(
                allocation
            ) != _allocation_signature(expected):
                raise RuntimeError(
                    f"warm-up answer for {application['name']} is wrong: "
                    f"{problems or 'differs from ResourceAllocator'}"
                )
        shutil.rmtree(os.path.join(spool, "sandbox"), ignore_errors=True)
        self._originals = [
            record["result"]["allocations"][0] for record in records
        ]
        return {"warm_spool": spool}

    def setup(self, seed: int, workdir: str, **prepared: str) -> None:
        self.warm_spool = prepared["warm_spool"]
        super().setup(seed, workdir)

    def _seed_spool(self, spool: str) -> None:
        for part in ("jobs", "cache"):
            shutil.copytree(
                os.path.join(self.warm_spool, part), os.path.join(spool, part)
            )

    def _make_requests(self, seed: int):
        originals = _hit_originals()
        rng = Random(seed)
        requests = []
        for variant in range(HIT_VARIANTS):
            for index, (application, architecture) in enumerate(originals):
                requests.append(
                    (
                        rename_application(
                            application, rng, f"v{variant}o{index}"
                        ),
                        architecture,
                        index,
                    )
                )
        return requests

    def _compare(self, position: int, allocation: Dict[str, Any]) -> str:
        original = self._originals[self.requests[position][2]]
        if Fraction(allocation["achieved_throughput"]) != Fraction(
            original["achieved_throughput"]
        ):
            return "throughput differs from the first-seen original's"
        if len(set(allocation["binding"].values())) != len(
            set(original["binding"].values())
        ):
            return "tile count differs from the first-seen original's"
        return ""


WORKLOADS = {
    workload.name: workload
    for workload in (BatchFlow, ServiceCold, ServiceHit, ExactSearch)
}
