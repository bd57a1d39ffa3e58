"""From a config file to a directory of reproducible experiment artifacts.

The pipeline chains the library end to end: load and validate the
network, obtain a zero-error base code (search or a shipped file),
build the repeated product code, enumerate typical reception sets,
prune them, intersect to the lifted codebook, then optionally simulate
the noisy network and estimate the per-node noise-gap entropies.

Every random choice is driven by a seed named in the config, so a rerun
with the same config writes byte-identical artifacts.  Each artifact
embeds the config hash for provenance.

Artifacts are written by canonical_json, which produces the bytes of
json.dumps(doc, sort_keys=True, indent=2) plus a newline without that
call's pure-Python encoder: it appends the indented layout to one flat
chunk list, encodes scalars and keys with json's C encoder, and renders
each shared tuple once per depth.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Any

from . import __version__
from .channel import compute_bit_depth
from .codes import (
    ProductCode,
    RelayCode,
    deserialize_code,
    purify_zero_error,
    search_base_code,
    serialize_code,
)
from .gaussian import (
    BoundReport,
    ConfigError,
    NoiseSpec,
    SimulationResult,
    simulate_lifted,
    verify_genie_bounds,
)
from .lifting import (
    EmptyResult,
    KappaParams,
    _slot_key,
    build_lifted_code,
    prune_sets,
    rate_report,
)
from .network import RelayNetwork, SchemaError, layer_decomposition, load_network, validate
from .typicality import (
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

    base_code is either {"search": {block_length, rate, attempts, seed
    [, families]}} or {"file": <shipped name or path>}.  eta is a number
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


def _require_keys(doc: dict, required: set[str], optional: set[str], where: str) -> None:
    extra = set(doc) - required - optional
    if extra:
        raise ConfigError(f"{where}: unknown fields {sorted(extra)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")


def _as_int(doc: dict, key: str, where: str, minimum: int | None = None) -> int:
    v = doc[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{where}: {key} must be an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}: {key} must be >= {minimum}")
    return v


def _as_number(doc: dict, key: str, where: str) -> float:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: {key} must be a number")
    return float(v)


def load_config(text: str) -> ExperimentConfig:
    """Parse and validate an experiment config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config top level must be an object")
    required = {"format", "network", "base_code", "n_rep", "epsilon", "prune_seed"}
    optional = {"purify", "eta", "kappa_override", "simulate", "bounds"}
    _require_keys(doc, required, optional, "config")
    if doc["format"] != CONFIG_FORMAT:
        raise ConfigError(f"config format {doc['format']!r} not supported (expected {CONFIG_FORMAT})")
    if not isinstance(doc["network"], str):
        raise ConfigError("config: network must be a string")

    bc = doc["base_code"]
    if not isinstance(bc, dict) or len(bc) != 1 or next(iter(bc)) not in ("search", "file"):
        raise ConfigError('config: base_code must be {"search": {...}} or {"file": ...}')
    if "search" in bc:
        s = bc["search"]
        if not isinstance(s, dict):
            raise ConfigError("config: base_code.search must be an object")
        _require_keys(
            s, {"block_length", "rate", "attempts", "seed"}, {"families"}, "base_code.search"
        )
        _as_int(s, "block_length", "base_code.search", 1)
        _as_number(s, "rate", "base_code.search")
        _as_int(s, "attempts", "base_code.search", 1)
        _as_int(s, "seed", "base_code.search")
        fams = s.get("families")
        if fams is not None and not (
            isinstance(fams, list) and all(isinstance(f, str) for f in fams)
        ):
            raise ConfigError("base_code.search: families must be a list of strings")
    else:
        if not isinstance(bc["file"], str):
            raise ConfigError("config: base_code.file must be a string")

    n_rep = _as_int(doc, "n_rep", "config", 1)
    epsilon = _as_number(doc, "epsilon", "config")
    prune_seed = _as_int(doc, "prune_seed", "config")
    purify = doc.get("purify", True)
    if not isinstance(purify, bool):
        raise ConfigError("config: purify must be a boolean")
    eta = doc.get("eta", 0.0)
    if isinstance(eta, str):
        if eta != "epsilon2":
            raise ConfigError('config: eta must be a number or "epsilon2"')
    elif isinstance(eta, bool) or not isinstance(eta, (int, float)):
        raise ConfigError('config: eta must be a number or "epsilon2"')
    else:
        eta = float(eta)
    kov = doc.get("kappa_override")
    if kov is not None:
        if isinstance(kov, bool) or not isinstance(kov, (int, float)):
            raise ConfigError("config: kappa_override must be a number or null")
        kov = float(kov)

    sim = None
    if doc.get("simulate") is not None:
        s = doc["simulate"]
        if not isinstance(s, dict):
            raise ConfigError("config: simulate must be an object")
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
            thr = _as_number({"threshold": thr}, "threshold", "simulate")
        use_off = s.get("use_offsets", True)
        if not isinstance(use_off, bool):
            raise ConfigError("simulate: use_offsets must be a boolean")
        scale = s.get("noise_scale", 1.0)
        if isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise ConfigError("simulate: noise_scale must be a number")
        sim = SimSettings(
            trials=_as_int(s, "trials", "simulate", 1),
            noise_seed=_as_int(s, "noise_seed", "simulate"),
            method=method,
            threshold=thr,
            use_offsets=use_off,
            noise_scale=float(scale),
        )

    bounds = None
    if doc.get("bounds") is not None:
        b = doc["bounds"]
        if not isinstance(b, dict):
            raise ConfigError("config: bounds must be an object")
        _require_keys(b, {"samples", "seed"}, set(), "bounds")
        bounds = BoundSettings(
            samples=_as_int(b, "samples", "bounds", 1),
            seed=_as_int(b, "seed", "bounds"),
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
    doc: dict[str, Any] = {
        "format": CONFIG_FORMAT,
        "network": cfg.network,
        "base_code": cfg.base_code,
        "n_rep": cfg.n_rep,
        "epsilon": cfg.epsilon,
        "prune_seed": cfg.prune_seed,
        "purify": cfg.purify,
        "eta": cfg.eta,
        "kappa_override": cfg.kappa_override,
        "simulate": None if cfg.simulate is None else asdict(cfg.simulate),
        "bounds": None if cfg.bounds is None else asdict(cfg.bounds),
    }
    return doc


# One-shot C encoder for a single scalar or an already-converted dict key.
_encode_scalar = json.JSONEncoder().encode


def _key_text(key: Any) -> str:
    # Dict keys become JSON strings the way json.dumps converts them.
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = _encode_scalar(key)
    return _encode_scalar(key) + ": "


def _append_json(
    obj: Any,
    depth: int,
    chunks: list[str],
    tuple_spans: dict[tuple[int, int], tuple[int, int]],
    breaks: list[str],
) -> None:
    # Append obj's indented text at depth to chunks.  breaks[d] is a
    # newline plus the indent of depth d.
    is_tuple = isinstance(obj, tuple)
    if not (is_tuple or isinstance(obj, (dict, list))):
        chunks.append(_encode_scalar(obj))
        return
    if not obj:
        chunks.append("{}" if isinstance(obj, dict) else "[]")
        return
    if is_tuple:
        span = tuple_spans.get((id(obj), depth))
        if span is not None:
            chunks.extend(chunks[span[0]:span[1]])
            return
        start = len(chunks)
    inner = depth + 1
    if inner == len(breaks):
        breaks.append(breaks[-1] + "  ")
    put = chunks.append
    sep = breaks[inner]
    comma = "," + sep
    if isinstance(obj, dict):
        put("{")
        for key, item in sorted(obj.items()):
            put(sep)
            put(_key_text(key))
            _append_json(item, inner, chunks, tuple_spans, breaks)
            sep = comma
        put(breaks[depth])
        put("}")
        return
    put("[")
    for item in obj:
        put(sep)
        _append_json(item, inner, chunks, tuple_spans, breaks)
        sep = comma
    put(breaks[depth])
    put("]")
    if is_tuple:
        tuple_spans[(id(obj), depth)] = (start, len(chunks))


def canonical_json(doc: Any) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, byte for byte.

    json.dumps drops to its pure-Python encoder whenever an indent is set.
    This writer lays out the same indented text itself: containers append
    their brackets and separators to one flat chunk list, joined once at
    the end, and every scalar and dict key goes through json's C encoder.
    A tuple's span of chunks is kept per (object identity, depth), so a
    tuple shared across the document (a reception alphabet value) is
    rendered once per depth and its chunks are copied after that.  The
    document keeps every tuple alive for the call, so no id is reused.
    No string is built per tuple, and the recursion is not a closure,
    whose reference cycle would keep the chunk list alive after the call:
    either raised the peak RSS of repeated diamond runs.  Unsupported
    values raise TypeError as in json.dumps.
    """
    chunks: list[str] = []
    _append_json(doc, 0, chunks, {}, ["\n"])
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
        doc = json.loads(read_input_text(cfg.base_code["file"]))
        code = deserialize_code(doc)
        meta = {"source": "file", "file": cfg.base_code["file"]}
    else:
        s = cfg.base_code["search"]
        families = tuple(s.get("families", ("quantize_forward", "modulo", "table")))
        code = search_base_code(
            net,
            block_length=s["block_length"],
            rate=s["rate"],
            attempts=s["attempts"],
            seed=s["seed"],
            families=families,
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
    layered = layer_decomposition(net)
    sets: dict = {}
    if layered is not None:
        for j in range(1, net.node_count):
            ts = enumerate_typical_receptions(net, product, j, epsilon)
            sets[ts.slot] = ts
        return sets, product.base.block_length, "layered"
    for j in range(1, net.node_count):
        for t in range(1, product.base.block_length + 1):
            ts = enumerate_typical_symbol_vectors(net, product, j, t, epsilon)
            sets[ts.slot] = ts
    return sets, 1, "interleaved"


def _slot_doc(slot) -> Any:
    return slot if isinstance(slot, int) else list(slot)


def _write(path: Path, text: str) -> None:
    path.write_text(text)


def run_pipeline(cfg: ExperimentConfig, out_dir: Path) -> PipelineResult:
    """Execute the configured experiment and write artifacts into out_dir.

    Raises SearchFailed when no base code is found, EmptyResult when
    pruning starves a slot or the lifted code is empty, ConfigError /
    SchemaError / ParseError for bad inputs.
    """
    digest = config_hash(cfg)
    net = load_network(read_input_text(cfg.network))
    problems = validate(net)
    if problems:
        raise SchemaError("; ".join(problems))

    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}

    def emit(name: str, doc: Any) -> None:
        path = out_dir / name
        _write(path, canonical_json(doc))
        files[name] = path

    emit("config.json", {"config": _config_doc(cfg), "config_hash": digest, "version": __version__})

    base, base_meta = _load_base_code(cfg, net)
    emit("base_code.json", {"code": serialize_code(base), "meta": base_meta, "config_hash": digest})

    product = ProductCode(base, cfg.n_rep)
    emit(
        "product_code.json",
        {
            "n_rep": cfg.n_rep,
            "block_length": product.block_length,
            "codeword_count": product.codeword_count,
            "rate": product.rate,
            "config_hash": digest,
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
                    "slot": _slot_doc(slot),
                    "count": len(ts.vectors),
                    "epsilon_2": ts.epsilon_2,
                    "envelope": list(ts.envelope),
                }
                for slot, ts in sorted(tsets.items(), key=lambda kv: _slot_key(kv[0]))
            ],
            "config_hash": digest,
        },
    )

    kp = KappaParams.for_network(net, override=cfg.kappa_override)
    try:
        pruned = prune_sets(tsets, kp, cfg.eta, cfg.prune_seed, symbols_per_slot)
    except EmptyResult as exc:
        if cfg.kappa_override is None:
            raise EmptyResult(
                exc.slots,
                "every pruned set rounds to zero at the formula kappa "
                f"({kp.reference:.3f} bits/use); enumerable codes cannot survive that "
                "fraction, so desk-scale runs need kappa_override",
            ) from None
        raise
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
                    "slot": _slot_doc(slot),
                    "exponent": pruned.exponents[slot],
                    "count_bounds": list(pruned.bounds[slot]),
                    # Alphabet values are tuples, which JSON writes as arrays.
                    "vectors": list(pruned.sets[slot]),
                }
                for slot in sorted(pruned.sets, key=_slot_key)
            ],
            "config_hash": digest,
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
                        {"slot": _slot_doc(s), "member": m}
                        for s, m in sorted(
                            lifted.provenance[ci].items(), key=lambda kv: _slot_key(kv[0])
                        )
                    ],
                }
                for ci in lifted.codeword_indices
            ],
            "config_hash": digest,
        },
    )
    if lifted.count == 0:
        raise EmptyResult(
            (),
            "the lifted code is empty: no codeword's receptions land in every "
            "pruned set"
            + (
                ""
                if cfg.kappa_override is not None
                else " (formula kappa leaves no room at enumerable sizes; set kappa_override)"
            ),
        )

    report = rate_report(lifted, product, tsets)
    emit(
        "rate_report.json",
        {**asdict(report), "config_hash": digest},
    )

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
        files["simulation.csv"] = out_dir / "simulation.csv"
        _write(files["simulation.csv"], _simulation_csv(sim))
        emit("simulation.json", _simulation_doc(sim, digest))

    if cfg.bounds is not None:
        rep = verify_genie_bounds(net, cfg.bounds.samples, cfg.bounds.seed)
        emit("bound_report.json", _bound_doc(rep, digest))

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


def _simulation_doc(sim: SimulationResult, digest: str) -> dict:
    return {
        "trials": sim.trials,
        "message_errors": sim.message_errors,
        "message_error_rate": sim.message_error_rate,
        "block_errors": [
            {"slot": _slot_doc(s), "errors": v} for s, v in sorted(
                sim.block_errors.items(), key=lambda kv: _slot_key(kv[0])
            )
        ],
        "decode_failures": [
            {"slot": _slot_doc(s), "failures": v} for s, v in sorted(
                sim.decode_failures.items(), key=lambda kv: _slot_key(kv[0])
            )
        ],
        "avg_power": {str(k): v for k, v in sorted(sim.avg_power.items())},
        "noise_seed": sim.noise_seed,
        "noise_scale": sim.noise_scale,
        "method": sim.method,
        "n_rep": sim.n_rep,
        "scheduling": sim.scheduling,
        "config_hash": digest,
    }


def _bound_doc(rep: BoundReport, digest: str) -> dict:
    return {
        "mode": rep.mode,
        "samples": rep.samples,
        "seed": rep.seed,
        "input_bit_depth": rep.input_bit_depth,
        "kappa_reference": rep.kappa_reference,
        "z_entropy_exact": rep.z_entropy_exact,
        "all_within_kappa": rep.all_within_kappa(),
        "entries": [
            {
                "node": e.node,
                "antenna": e.antenna,
                "links": e.links,
                "h_v": e.h_v,
                "h_z": e.h_z,
                "h_c": e.h_c,
                "ci_v": list(e.ci_v),
                "ci_z": list(e.ci_z),
                "ci_c": list(e.ci_c),
                "gap_sum": e.gap_sum,
                "bound_estimate": e.bound_estimate,
                "margin": e.margin,
                "ci_halfwidth": e.ci_halfwidth,
            }
            for e in rep.entries
        ],
        "config_hash": digest,
    }
