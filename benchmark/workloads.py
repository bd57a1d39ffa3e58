"""The benchmark's workloads: set-up, one operation, and its output checks.

Each workload drives dsnlift only through public names, looked up as
module attributes at call time so that the tracer's wrappers see them.
An operation runs in three steps: ``prepare`` makes its inputs from the
workload seed and the op index (untimed), ``run`` is the timed call into
the program, and ``check`` verifies its outputs (untimed).  Op 0 always
runs the fixed reference inputs and is compared with ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import dsnlift
from dsnlift import cli, codes, gaussian, lifting, network, pipeline, typicality

PIPELINE_ARTIFACTS = {
    "base_code.json", "bound_report.json", "config.json", "lifted_code.json",
    "product_code.json", "pruned_sets.json", "rate_report.json",
    "simulation.csv", "simulation.json", "typical_sets.json",
}


def derived_seeds(seed: int, index: int, count: int) -> list[int]:
    """Program seeds for op ``index`` of a run with workload seed ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(count)
    return [int(s) for s in state]


def load_experiment(config_name: str):
    """Config, network and purified base code of a shipped pipeline config."""
    cfg = pipeline.load_config(pipeline.read_input_text(config_name))
    net = network.load_network(pipeline.read_input_text(cfg.network))
    spec = cfg.base_code
    if "file" in spec:
        base = codes.deserialize_code(json.loads(pipeline.read_input_text(spec["file"])))
    else:
        s = spec["search"]
        extra = {"families": tuple(s["families"])} if "families" in s else {}
        base = codes.search_base_code(
            net, block_length=s["block_length"], rate=s["rate"],
            attempts=s["attempts"], seed=s["seed"], **extra,
        )
        if base is None:
            raise RuntimeError(f"base-code search failed for {config_name}")
    if cfg.purify:
        base = codes.purify_zero_error(net, base)
    return cfg, net, base


def typical_sets(net, product, epsilon: float) -> tuple[dict, int]:
    """Typical sets per decision slot, and the symbols each slot covers."""
    if network.layer_decomposition(net) is not None:
        sets = {
            j: typicality.enumerate_typical_receptions(net, product, j, epsilon)
            for j in range(1, net.node_count)
        }
        return sets, product.base.block_length
    sets = {
        (j, t): typicality.enumerate_typical_symbol_vectors(net, product, j, t, epsilon)
        for j in range(1, net.node_count)
        for t in range(1, product.base.block_length + 1)
    }
    return sets, 1


def _slot_value(trace, slot):
    if isinstance(slot, int):
        return trace.received[slot]
    node, t = slot
    return trace.received[node][t - 1]


def provenance_problems(traces, product, survivors, provenance, pruned_sets) -> list[str]:
    """Claim 3's round trip: replay each survivor, find it at its pruned index."""
    problems = []
    for ci in survivors:
        members = provenance.get(ci, {})
        if set(members) != set(pruned_sets):
            problems.append(f"codeword {ci}: provenance covers {len(members)} of {len(pruned_sets)} slots")
            continue
        digits = product.message_tuple(ci)
        for slot, member in members.items():
            replayed = tuple(_slot_value(traces[d], slot) for d in digits)
            vectors = pruned_sets[slot]
            if not (0 <= member < len(vectors)) or vectors[member] != replayed:
                problems.append(f"codeword {ci}: replay misses slot {slot} member {member}")
    return problems


def bound_problems(entries: list[dict], kappa_reference: float) -> list[str]:
    """Claims 1 and 2 on a bound report's entries."""
    problems = []
    for e in entries:
        where = f"node {e['node']}" + ("" if e["antenna"] is None else f" antenna {e['antenna']}")
        if e["bound_estimate"] - e["ci_halfwidth"] > kappa_reference:
            problems.append(f"claim 2: {where} estimate {e['bound_estimate']:.3f} exceeds kappa")
        if e["h_c"] > 2.0:
            problems.append(f"claim 1: {where} H[C] = {e['h_c']:.4f} > 2 bits")
    return problems


def _tuples(x: Any) -> Any:
    return tuple(_tuples(v) for v in x) if isinstance(x, list) else x


def directory_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


@dataclass
class Outcome:
    """What check() makes of one op: problems found and numbers to report."""

    problems: list[str]
    info: dict[str, float]


class DiamondPipeline:
    """One ``dsnlift pipeline`` run of a shipped config per op."""

    name = "diamond-pipeline"

    def __init__(self, seed: int, reference: dict | None, scratch: Path,
                 config: str = "diamond_pipeline"):
        self.seed, self.reference, self.scratch, self.config = seed, reference, scratch, config

    def setup(self) -> None:
        self.cfg, self.net, self.base = load_experiment(self.config)
        self.product = codes.ProductCode(self.base, self.cfg.n_rep)
        self.traces = codes.trace_all(self.net, self.base)
        self.doc = json.loads(pipeline.read_input_text(self.config))

    def prepare(self, index: int) -> Path:
        doc = json.loads(json.dumps(self.doc))
        if index > 0:
            doc["prune_seed"], doc["simulate"]["noise_seed"], doc["bounds"]["seed"] = (
                derived_seeds(self.seed, index, 3)
            )
        work = Path(tempfile.mkdtemp(dir=self.scratch))
        (work / "config.json").write_text(json.dumps(doc))
        return work

    def run(self, work: Path) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["pipeline", "--config", str(work / "config.json"),
                           "--out", str(work / "out")])
        return rc, buf.getvalue()

    def check(self, index: int, work: Path, output: tuple[int, str]) -> Outcome:
        try:
            return self._check(index, work / "out", *output)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _check(self, index: int, out: Path, rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome([f"dsnlift pipeline exited with {rc}"], {})
        names = {p.name for p in out.iterdir()}
        if names != PIPELINE_ARTIFACTS:
            return Outcome([f"artifact set differs: {sorted(names ^ PIPELINE_ARTIFACTS)}"], {})
        problems = []
        lifted = json.loads((out / "lifted_code.json").read_text())
        pruned = json.loads((out / "pruned_sets.json").read_text())
        sets = {_tuples(s["slot"]): _tuples(s["vectors"]) for s in pruned["slots"]}
        provenance = {
            c["index"]: {_tuples(s["slot"]): s["member"] for s in c["slots"]}
            for c in lifted["codewords"]
        }
        problems += provenance_problems(self.traces, self.product, list(provenance), provenance, sets)
        count = lifted["codeword_count"]
        rate = json.loads((out / "rate_report.json").read_text())
        if not (count == len(provenance) == rate["codeword_count"] > 0):
            problems.append(f"lifted count {count} disagrees with its codewords or rate report")
        if f"lifted codewords: {count}\n" not in stdout:
            problems.append("printed lifted count differs from lifted_code.json")
        bounds = json.loads((out / "bound_report.json").read_text())
        problems += bound_problems(bounds["entries"], bounds["kappa_reference"])
        if not bounds["all_within_kappa"]:
            problems.append("claim 2: bound report says not all within kappa")
        sim = json.loads((out / "simulation.json").read_text())
        if sim["trials"] != self.cfg.simulate.trials or not 0 <= sim["message_errors"] <= sim["trials"]:
            problems.append(f"simulation counts out of range: {sim['message_errors']}/{sim['trials']}")
        if index == 0:
            digest = directory_digest(out)
            want = (self.reference or {}).get("artifact_sha256")
            if digest != want:
                problems.append(f"reference: artifact digest {digest} != recorded {want}")
        size = sum(p.stat().st_size for p in out.iterdir())
        return Outcome(problems, {"artifact_bytes": size, "survivors": count})

    def finish(self, infos: list[dict]) -> list[str]:
        return []

    def record_reference(self, work: Path, output) -> dict:
        return {"artifact_sha256": directory_digest(work / "out")}

    def report(self, seconds: list[float], infos: list[dict]) -> list[tuple[str, float, str]]:
        return [
            ("pipeline_s", statistics.median(seconds), "s"),
            ("artifact_mb", statistics.mean(i["artifact_bytes"] for i in infos) / 1e6, "MB"),
        ]


class DiamondLiftSweep:
    """prune_sets + build_lifted_code + rate_report for one prune seed per op."""

    name = "diamond-lift-sweep"
    reference_prune_seed = 77

    def __init__(self, seed: int, reference: dict | None, scratch: Path,
                 config: str = "diamond_pipeline"):
        self.seed, self.reference, self.config = seed, reference, config

    def setup(self) -> None:
        self.cfg, self.net, self.base = load_experiment(self.config)
        self.product = codes.ProductCode(self.base, self.cfg.n_rep)
        self.sets, self.symbols = typical_sets(self.net, self.product, self.cfg.epsilon)
        self.kappa = lifting.KappaParams.for_network(self.net, override=self.cfg.kappa_override)
        self.traces = codes.trace_all(self.net, self.base)

    def prepare(self, index: int) -> int:
        return self.reference_prune_seed if index == 0 else derived_seeds(self.seed, index, 1)[0]

    def run(self, prune_seed: int):
        pruned = dsnlift.prune_sets(self.sets, self.kappa, self.cfg.eta, prune_seed, self.symbols)
        lifted = dsnlift.build_lifted_code(self.net, self.product, pruned, self.cfg.epsilon)
        report = dsnlift.rate_report(lifted, self.product, self.sets)
        return lifted, report

    def check(self, index: int, prune_seed: int, output) -> Outcome:
        lifted, report = output
        problems = provenance_problems(
            self.traces, self.product, lifted.codeword_indices, lifted.provenance, lifted.pruned.sets
        )
        if report.codeword_count != lifted.count:
            problems.append("rate report count differs from the lifted code")
        if index == 0:
            want = (self.reference or {}).get("codeword_indices")
            if list(lifted.codeword_indices) != want:
                problems.append(f"reference: lifted indices differ for prune seed {prune_seed}")
        log2 = math.log2(lifted.count) if lifted.count else 0.0
        return Outcome(problems, {"log2_count": log2, "survivors": lifted.count})

    def finish(self, infos: list[dict]) -> list[str]:
        logs = [i["log2_count"] for i in infos]
        if not logs:
            return []
        m = self.net.node_count - 1
        target = (math.log2(self.product.codeword_count)
                  - m * self.cfg.n_rep * self.symbols * self.kappa.effective)
        mean = statistics.mean(logs)
        if abs(mean - target) > 1.0:
            return [f"claim 3: mean log2|C| {mean:.3f} over {len(logs)} seeds is not within 1 bit of {target:.3f}"]
        return []

    def record_reference(self, prune_seed: int, output) -> dict:
        return {"prune_seed": self.reference_prune_seed,
                "codeword_indices": list(output[0].codeword_indices)}

    def report(self, seconds: list[float], infos: list[dict]) -> list[tuple[str, float, str]]:
        return [("lifts_per_s", len(seconds) / sum(seconds), "1/s")]


class NonlayeredMonteCarlo:
    """One simulate_lifted batch and one verify_genie_bounds call per op."""

    name = "nonlayered-montecarlo"
    reference_seeds = (9, 17)

    def __init__(self, seed: int, reference: dict | None, scratch: Path,
                 config: str = "nonlayered_pipeline", trials: int = 16384,
                 bound_samples: int = 1_000_000):
        self.seed, self.reference, self.config = seed, reference, config
        self.trials, self.bound_samples = trials, bound_samples

    def setup(self) -> None:
        self.cfg, self.net, self.base = load_experiment(self.config)
        self.product = codes.ProductCode(self.base, self.cfg.n_rep)
        sets, symbols = typical_sets(self.net, self.product, self.cfg.epsilon)
        kappa = lifting.KappaParams.for_network(self.net, override=self.cfg.kappa_override)
        pruned = dsnlift.prune_sets(sets, kappa, self.cfg.eta, self.cfg.prune_seed, symbols)
        self.lifted = dsnlift.build_lifted_code(self.net, self.product, pruned, self.cfg.epsilon)
        self.traces = codes.trace_all(self.net, self.base)

    def prepare(self, index: int) -> tuple[int, int]:
        return self.reference_seeds if index == 0 else tuple(derived_seeds(self.seed, index, 2))

    def run(self, seeds: tuple[int, int]):
        t0 = time.perf_counter()
        sim = dsnlift.simulate_lifted(self.net, self.product, self.lifted, trials=self.trials,
                                      noise=gaussian.NoiseSpec(seed=seeds[0]))
        t1 = time.perf_counter()
        rep = dsnlift.verify_genie_bounds(self.net, samples=self.bound_samples, seed=seeds[1])
        return sim, rep, t1 - t0, time.perf_counter() - t1

    def check(self, index: int, seeds, output) -> Outcome:
        sim, rep, sim_s, bound_s = output
        problems = []
        if sim.trials != self.trials or not 0 <= sim.message_errors <= sim.trials:
            problems.append(f"simulation counts out of range: {sim.message_errors}/{sim.trials}")
        if set(sim.block_errors) != set(self.lifted.pruned.sets):
            problems.append("block errors do not cover every decision slot")
        entries = [{"node": e.node, "antenna": e.antenna, "bound_estimate": e.bound_estimate,
                    "ci_halfwidth": e.ci_halfwidth, "h_c": e.h_c} for e in rep.entries]
        problems += bound_problems(entries, rep.kappa_reference)
        if not rep.all_within_kappa():
            problems.append("claim 2: all_within_kappa() is false")
        if index == 0 and self._counts(sim) != (self.reference or {}).get("error_counts"):
            problems.append(f"reference: error counts differ for noise seed {seeds[0]}")
        return Outcome(problems, {
            "trials": sim.trials, "sim_s": sim_s,
            "bound_samples": rep.samples * len(rep.entries), "bound_s": bound_s,
        })

    @staticmethod
    def _counts(sim) -> dict:
        key = lambda s: str(s) if isinstance(s, int) else f"{s[0]},{s[1]}"  # noqa: E731
        return {
            "trials": sim.trials,
            "message_errors": sim.message_errors,
            "block_errors": {key(s): v for s, v in sorted(sim.block_errors.items())},
            "decode_failures": {key(s): v for s, v in sorted(sim.decode_failures.items())},
        }

    def finish(self, infos: list[dict]) -> list[str]:
        lifted = self.lifted
        return provenance_problems(
            self.traces, self.product, lifted.codeword_indices, lifted.provenance, lifted.pruned.sets
        )

    def record_reference(self, seeds, output) -> dict:
        return {"noise_seed": self.reference_seeds[0], "error_counts": self._counts(output[0])}

    def report(self, seconds: list[float], infos: list[dict]) -> list[tuple[str, float, str]]:
        return [
            ("trials_per_s", sum(i["trials"] for i in infos) / sum(i["sim_s"] for i in infos), "1/s"),
            ("bound_samples_per_s",
             sum(i["bound_samples"] for i in infos) / sum(i["bound_s"] for i in infos), "1/s"),
        ]


WORKLOADS = {w.name: w for w in (DiamondPipeline, DiamondLiftSweep, NonlayeredMonteCarlo)}
