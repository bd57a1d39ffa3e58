"""From a config file to a directory of reproducible experiment artifacts.

The pipeline chains the library end to end: load and validate the
network, obtain a zero-error base code (search or a shipped file),
build the repeated product code, enumerate typical reception sets,
prune them, intersect to the lifted codebook, then optionally simulate
the noisy network and estimate the per-node noise-gap entropies.

Every random choice is driven by a seed named in the config, so a rerun
with the same config writes byte-identical artifacts.  Every JSON
artifact embeds the config hash for provenance, added as it is written.

Artifacts are written by canonical_json: json.dumps(doc, sort_keys=True,
indent=2) plus a newline.  json.dumps lays out every document; each
pruned set's reception vectors are spliced in straight from their digit
rows, which spares the pure-Python encoder the bulk of pruned_sets.json.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from . import __version__
from .channel import ConfigError
from .codes import (
    ProductCode,
    RelayCode,
    deserialize_code,
    message_bits,
    purify_zero_error,
    search_base_code,
    serialize_code,
)
from .gaussian import (
    BoundReport,
    NoiseSpec,
    SimulationResult,
    simulate_lifted,
    verify_genie_bounds,
)
from .lifting import (
    EmptyResult,
    KappaParams,
    _formula_kappa_advice,
    build_lifted_code,
    prune_sets,
    rate_report,
)
from .network import RelayNetwork, _int, _parse_json, _require_keys, load_network
from .typicality import (
    ReceptionVectors,
    _check_budget,
    _decision_slots,
    enumerate_typical_receptions,
    enumerate_typical_symbol_vectors,
)

__all__ = [
    "ExperimentConfig",
    "SimSettings",
    "BoundSettings",
    "PipelineResult",
    "SearchFailed",
    "load_config",
    "config_hash",
    "read_input_text",
    "shipped_data_names",
    "run_pipeline",
    "canonical_json",
]

CONFIG_FORMAT = 1


class SearchFailed(RuntimeError):
    """Base-code search exhausted its attempt budget."""


@dataclass(frozen=True)
class SimSettings:
    trials: int
    noise_seed: int
    method: str = "ml"
    threshold: float | None = None
    use_offsets: bool = True
    noise_scale: float = 1.0


@dataclass(frozen=True)
class BoundSettings:
    samples: int
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a pipeline run depends on, seeds included.

    base_code is either {"search": {block_length, rate, attempts, seed}}
    or {"file": <shipped name or path>}.  eta is a number
    or the string "epsilon2" (tie the pruning slack to each slot's
    epsilon_2).  kappa_override None means the node-count formula value,
    which starves every slot at enumerable sizes; the CLI reports that
    case with a dedicated exit code.
    """

    network: str
    base_code: dict
    n_rep: int
    epsilon: float
    prune_seed: int
    purify: bool = True
    eta: float | str = 0.0
    kappa_override: float | None = None
    simulate: SimSettings | None = None
    bounds: BoundSettings | None = None


def _as_number(v: Any, what: str, minimum: float | None = None) -> float:
    # The comparison is False for NaN; JSON text may hold NaN and Infinity.
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{what} must be a finite number")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{what} must be >= {minimum}")
    return float(v)


def load_config(text: str) -> ExperimentConfig:
    """Parse and validate an experiment config document."""
    doc = _parse_json(text, "config")
    required = {"format", "network", "base_code", "n_rep", "epsilon", "prune_seed"}
    optional = {"purify", "eta", "kappa_override", "simulate", "bounds"}
    _require_keys(doc, required, optional, "config")
    if _int(doc["format"], "config: format") != CONFIG_FORMAT:
        raise ConfigError(f"config format {doc['format']!r} not supported (expected {CONFIG_FORMAT})")
    if not isinstance(doc["network"], str):
        raise ConfigError("config: network must be a string")

    bc = doc["base_code"]
    if not isinstance(bc, dict) or len(bc) != 1 or next(iter(bc)) not in ("search", "file"):
        raise ConfigError('config: base_code must be {"search": {...}} or {"file": ...}')
    if "search" in bc:
        s = bc["search"]
        _require_keys(s, {"block_length", "rate", "attempts", "seed"}, set(), "base_code.search")
        block_length = _int(s["block_length"], "base_code.search: block_length", 1)
        try:
            message_bits(block_length, _as_number(s["rate"], "base_code.search: rate"))
        except ValueError as exc:
            raise ConfigError(f"base_code.search: {exc}") from None
        _int(s["attempts"], "base_code.search: attempts", 1)
        _int(s["seed"], "base_code.search: seed", 0)
    else:
        if not isinstance(bc["file"], str):
            raise ConfigError("config: base_code.file must be a string")

    n_rep = _int(doc["n_rep"], "config: n_rep", 1)
    epsilon = _as_number(doc["epsilon"], "config: epsilon", 0.0)
    prune_seed = _int(doc["prune_seed"], "config: prune_seed", 0)
    purify = doc.get("purify", True)
    if not isinstance(purify, bool):
        raise ConfigError("config: purify must be a boolean")
    eta = doc.get("eta", 0.0)
    if isinstance(eta, str):
        if eta != "epsilon2":
            raise ConfigError('config: eta must be a number or "epsilon2"')
    else:
        eta = _as_number(eta, "config: eta", 0.0)
    kov = doc.get("kappa_override")
    if kov is not None:
        kov = _as_number(kov, "config: kappa_override", 0.0)

    sim = None
    if doc.get("simulate") is not None:
        s = doc["simulate"]
        _require_keys(
            s,
            {"trials", "noise_seed"},
            {"method", "threshold", "use_offsets", "noise_scale"},
            "simulate",
        )
        method = s.get("method", "ml")
        if method not in ("ml", "threshold"):
            raise ConfigError('simulate: method must be "ml" or "threshold"')
        thr = s.get("threshold")
        if thr is not None:
            thr = _as_number(thr, "simulate: threshold")
        use_off = s.get("use_offsets", True)
        if not isinstance(use_off, bool):
            raise ConfigError("simulate: use_offsets must be a boolean")
        # Scale 0 is the noiseless debug setting; a negative one is a typo.
        scale = _as_number(s.get("noise_scale", 1.0), "simulate: noise_scale", 0.0)
        sim = SimSettings(
            trials=_int(s["trials"], "simulate: trials", 1),
            noise_seed=_int(s["noise_seed"], "simulate: noise_seed", 0),
            method=method,
            threshold=thr,
            use_offsets=use_off,
            noise_scale=scale,
        )

    bounds = None
    if doc.get("bounds") is not None:
        b = doc["bounds"]
        _require_keys(b, {"samples", "seed"}, set(), "bounds")
        bounds = BoundSettings(
            samples=_int(b["samples"], "bounds: samples", 1),
            seed=_int(b["seed"], "bounds: seed", 0),
        )

    return ExperimentConfig(
        network=doc["network"],
        base_code=bc,
        n_rep=n_rep,
        epsilon=epsilon,
        prune_seed=prune_seed,
        purify=purify,
        eta=eta,
        kappa_override=kov,
        simulate=sim,
        bounds=bounds,
    )


def _config_doc(cfg: ExperimentConfig) -> dict:
    return {"format": CONFIG_FORMAT, **asdict(cfg)}


# The placeholders a ReceptionVectors stands in for while json.dumps lays
# out a document, tried in turn: attempt 0, 1, ...
_VECTORS_MARK = "@dsnlift-vectors-{}@"


def _append_vectors(vectors: ReceptionVectors, depth: int, chunks: list[str]) -> None:
    # Append list(vectors) as laid out at depth: an array of rows at
    # depth + 1, each an array of alphabet values at depth + 2.
    digits = vectors.digits
    if not len(digits):
        chunks.append("[]")
        return
    outer_sep, row_sep, value_sep = ("\n" + "  " * d for d in (depth, depth + 1, depth + 2))
    # json.dumps puts no raw newline inside a string, so each line break
    # of a value laid out at depth 0 takes the value's own indent.
    texts = [json.dumps(value, indent=2).replace("\n", value_sep) for value in vectors.alphabet]
    close = row_sep + "]" if digits.shape[1] else "[]"
    # Piece table: the first value of a row opens it, every later value
    # follows a comma, and the last piece closes the row and starts the next.
    pieces = (
        ["[" + value_sep + t for t in texts]
        + ["," + value_sep + t for t in texts]
        + [close + "," + row_sep]
    )
    size = len(texts)
    # Row i reads pieces[index[i]]: its first digit, its later digits
    # shifted by size, then the closing piece.
    index = np.full((len(digits), digits.shape[1] + 1), 2 * size, dtype=np.int64)
    index[:, :-1] = digits
    index[:, 1:-1] += size
    chunks.append("[" + row_sep)
    chunks.extend(map(pieces.__getitem__, index.ravel().tolist()))
    chunks[-1] = close
    chunks.append(outer_sep + "]")


def canonical_json(doc: Any) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, byte for byte.

    json.dumps lays out the document, with each ReceptionVectors swapped
    for a placeholder string.  Each placeholder is then replaced by the
    text ``list(vectors)`` would have there, written straight from the
    digit rows: each alphabet value is laid out once, and each row is its
    digits' value texts between fixed separators, so the list of tuples is
    never built and the pure-Python encoder never walks the rows.  When the
    document's own strings hold a placeholder, the next one in the sequence
    is tried.  Other unsupported values raise TypeError as in json.dumps.
    """
    attempt = 0
    while True:
        held: list[ReceptionVectors] = []
        mark = _VECTORS_MARK.format(attempt)

        def hold(obj: Any) -> str:
            if not isinstance(obj, ReceptionVectors):
                raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
            held.append(obj)
            return mark

        parts = json.dumps(doc, sort_keys=True, indent=2, default=hold).split(f'"{mark}"')
        # Every quoted mark ends a distinct string; one per held set means
        # no string of the document's own ends with the mark.
        if len(parts) == len(held) + 1:
            break
        attempt += 1
    chunks = [parts[0]]
    for vectors, after in zip(held, parts[1:]):
        line = chunks[-1][chunks[-1].rfind("\n") + 1 :]
        _append_vectors(vectors, (len(line) - len(line.lstrip(" "))) // 2, chunks)
        chunks.append(after)
    chunks.append("\n")
    return "".join(chunks)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the semantic config content; the output location is not part of it."""
    payload = json.dumps(_config_doc(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def shipped_data_names() -> list[str]:
    """Names of data files shipped with the package (without .json)."""
    out = []
    for entry in resources.files("dsnlift.data").iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[: -len(".json")])
    return sorted(out)


def read_input_text(name: str) -> str:
    """Contents of a filesystem path, or of a shipped data name like "diamond"."""
    p = Path(name)
    if p.suffix == ".json" or "/" in name:
        if not p.exists():
            raise ConfigError(f"input file {name!r} does not exist")
        return p.read_text()
    shipped = resources.files("dsnlift.data") / f"{name}.json"
    if not shipped.is_file():
        raise ConfigError(
            f"{name!r} is neither a file nor a shipped data name "
            f"(shipped: {', '.join(shipped_data_names())})"
        )
    return shipped.read_text()


def _load_base_code(cfg: ExperimentConfig, net: RelayNetwork) -> tuple[RelayCode, dict]:
    if "file" in cfg.base_code:
        name = cfg.base_code["file"]
        text = read_input_text(name)
        try:
            code = deserialize_code(_parse_json(text, "base code"))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"base code file {name!r} is not a valid code: {exc}") from exc
        meta = {"source": "file", "file": name}
    else:
        s = cfg.base_code["search"]
        code = search_base_code(
            net,
            block_length=s["block_length"],
            rate=s["rate"],
            attempts=s["attempts"],
            seed=s["seed"],
        )
        if code is None:
            raise SearchFailed(
                f"no zero-error base code found in {s['attempts']} attempts "
                f"(block_length={s['block_length']}, rate={s['rate']}, seed={s['seed']})"
            )
        meta = {"source": "search", **{k: s[k] for k in ("block_length", "rate", "attempts", "seed")}}
    if cfg.purify:
        code = purify_zero_error(net, code)
    return code, meta


@dataclass
class PipelineResult:
    """Where everything was written, plus headline numbers."""

    out_dir: Path
    files: dict[str, Path]
    config_digest: str
    lifted_count: int
    achieved_rate: float
    message_error_rate: float | None
    scheduling: str


def _typical_sets(
    net: RelayNetwork, product: ProductCode, epsilon: float
) -> tuple[dict, int, str]:
    """Typical set per decision slot, the symbols a slot covers, and the scheduling."""
    N = product.base.block_length
    slots = sorted(_decision_slots(net, N))
    if isinstance(slots[0], int):
        sets = {j: enumerate_typical_receptions(net, product, j, epsilon) for j in slots}
        return sets, N, "layered"
    sets = {
        (j, t): enumerate_typical_symbol_vectors(net, product, j, t, epsilon) for j, t in slots
    }
    return sets, 1, "interleaved"


@contextmanager
def _staged(out_dir: Path) -> Iterator[Path]:
    """A new temporary sibling of out_dir to write into.  Its files move
    into out_dir, created if missing, when the block succeeds; the
    temporary directory is removed either way.  An out_dir that exists
    but is no directory is refused before the block runs."""
    if out_dir.exists() and not out_dir.is_dir():
        raise NotADirectoryError(f"output directory {str(out_dir)!r} exists and is not a directory")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
    try:
        yield work
        out_dir.mkdir(exist_ok=True)
        for path in work.iterdir():
            path.replace(out_dir / path.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_pipeline(cfg: ExperimentConfig, out_dir: Path) -> PipelineResult:
    """Execute the configured experiment and write artifacts into out_dir.

    Raises SearchFailed when no base code is found, EmptyResult when
    pruning starves a slot or the lifted code is empty, ConfigError for
    bad inputs (a product code beyond the enumeration budget included) and
    OSError for an unusable out_dir.  The artifacts reach out_dir
    only once every stage has succeeded, so a run that raises leaves
    out_dir as it was; an existing out_dir is written into.
    """
    digest = config_hash(cfg)
    net = load_network(read_input_text(cfg.network))
    files: dict[str, Path] = {}

    with _staged(out_dir) as work:

        def emit(name: str, doc: dict) -> None:
            (work / name).write_text(canonical_json({**doc, "config_hash": digest}))
            files[name] = out_dir / name

        emit("config.json", {"config": _config_doc(cfg), "version": __version__})

        base, base_meta = _load_base_code(cfg, net)
        emit("base_code.json", {"code": serialize_code(base), "meta": base_meta})

        product = ProductCode(base, cfg.n_rep)
        _check_budget(base.message_count, cfg.n_rep, "product codewords")
        emit(
            "product_code.json",
            {
                "n_rep": cfg.n_rep,
                "block_length": product.block_length,
                "codeword_count": product.codeword_count,
                "rate": product.rate,
            },
        )

        tsets, symbols_per_slot, scheduling = _typical_sets(net, product, cfg.epsilon)
        emit(
            "typical_sets.json",
            {
                "epsilon": cfg.epsilon,
                "n_rep": cfg.n_rep,
                "scheduling": scheduling,
                "slots": [
                    {
                        "slot": slot,
                        "count": len(ts.vectors),
                        "epsilon_2": ts.epsilon_2,
                        "envelope": ts.envelope,
                    }
                    for slot, ts in sorted(tsets.items())
                ],
            },
        )

        kp = KappaParams.for_network(net, override=cfg.kappa_override)
        pruned = prune_sets(tsets, kp, cfg.eta, cfg.prune_seed, symbols_per_slot)
        emit(
            "pruned_sets.json",
            {
                "master_seed": pruned.master_seed,
                "eta": pruned.eta,
                "n_rep": pruned.n_rep,
                "symbols_per_slot": pruned.symbols_per_slot,
                "kappa": {
                    "reference": kp.reference,
                    "effective": kp.effective,
                    "override": cfg.kappa_override,
                },
                "slots": [
                    {
                        "slot": slot,
                        "exponent": pruned.exponents[slot],
                        "count_bounds": pruned.bounds[slot],
                        "vectors": pruned.sets[slot],
                    }
                    for slot in sorted(pruned.sets)
                ],
            },
        )

        lifted = build_lifted_code(net, product, pruned, cfg.epsilon)
        emit(
            "lifted_code.json",
            {
                "epsilon": cfg.epsilon,
                "master_seed": pruned.master_seed,
                "kappa": {"reference": kp.reference, "effective": kp.effective},
                "codeword_count": lifted.count,
                "codewords": [
                    {
                        "index": ci,
                        "slots": [
                            {"slot": s, "member": m}
                            for s, m in sorted(lifted.provenance[ci].items())
                        ],
                    }
                    for ci in lifted.codeword_indices
                ],
            },
        )
        if lifted.count == 0:
            raise EmptyResult(
                (),
                "the lifted code is empty: no codeword's receptions land in every "
                "pruned set" + _formula_kappa_advice(kp),
            )

        report = rate_report(lifted, product, tsets)
        emit("rate_report.json", asdict(report))

        err_rate = None
        if cfg.simulate is not None:
            s = cfg.simulate
            sim = simulate_lifted(
                net,
                product,
                lifted,
                trials=s.trials,
                noise=NoiseSpec(seed=s.noise_seed, scale=s.noise_scale),
                method=s.method,
                threshold=s.threshold,
                use_offsets=s.use_offsets,
            )
            err_rate = sim.message_error_rate
            (work / "simulation.csv").write_text(_simulation_csv(sim))
            files["simulation.csv"] = out_dir / "simulation.csv"
            emit("simulation.json", _simulation_doc(sim))

        if cfg.bounds is not None:
            rep = verify_genie_bounds(net, cfg.bounds.samples, cfg.bounds.seed)
            emit("bound_report.json", _bound_doc(rep))

    return PipelineResult(
        out_dir=out_dir,
        files=files,
        config_digest=digest,
        lifted_count=lifted.count,
        achieved_rate=report.achieved_rate,
        message_error_rate=err_rate,
        scheduling=scheduling,
    )


def _simulation_csv(sim: SimulationResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "n_rep", "batch_start", "trials", "errors", "error_rate"])
    for start, count, errors in sim.batches:
        writer.writerow([sim.noise_seed, sim.n_rep, start, count, errors, repr(errors / count)])
    return buf.getvalue()


def _simulation_doc(sim: SimulationResult) -> dict:
    return {
        "trials": sim.trials,
        "message_errors": sim.message_errors,
        "message_error_rate": sim.message_error_rate,
        "block_errors": [
            {"slot": s, "errors": v} for s, v in sorted(sim.block_errors.items())
        ],
        "decode_failures": [
            {"slot": s, "failures": v} for s, v in sorted(sim.decode_failures.items())
        ],
        "avg_power": {str(k): v for k, v in sorted(sim.avg_power.items())},
        "noise_seed": sim.noise_seed,
        "noise_scale": sim.noise_scale,
        "method": sim.method,
        "n_rep": sim.n_rep,
        "scheduling": sim.scheduling,
    }


def _bound_doc(rep: BoundReport) -> dict:
    return {**asdict(rep), "all_within_kappa": rep.all_within_kappa()}
