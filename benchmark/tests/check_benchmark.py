"""Toy-size checks of the benchmark itself, on the shipped ``line`` config.

Run explicitly: ``PYTHONPATH=src python3 -m pytest -q benchmark/tests/check_benchmark.py``.
The file is not named ``test_*`` so that a plain ``pytest`` run of the
repository does not collect it.  Collected first, it made the wall-time
gated acceptance test that runs next about 10% slower (3.7 s against 3.2 s
over three alternating runs each).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for p in (ROOT / "src", BENCH_DIR):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import dsnlift  # noqa: E402
import run as bench  # noqa: E402
from workloads import DiamondLiftSweep, DiamondPipeline, NonlayeredMonteCarlo  # noqa: E402

TOY = {
    "pipeline": lambda seed, ref, scratch: DiamondPipeline(seed, ref, scratch, config="line_pipeline"),
    "lift-sweep": lambda seed, ref, scratch: DiamondLiftSweep(seed, ref, scratch, config="line_pipeline"),
    "montecarlo": lambda seed, ref, scratch: NonlayeredMonteCarlo(
        seed, ref, scratch, config="line_pipeline", trials=64, bound_samples=2000),
}


def _reference(kind: str, tmp_path: Path) -> dict:
    wl = TOY[kind](0, None, tmp_path)
    wl.setup()
    params = wl.prepare(0)
    output = wl.run(params)
    ref = wl.record_reference(params, output)
    wl.check(0, params, output)
    return ref


def _run(kind: str, tmp_path: Path, reference: dict, trace: bool, seed: int = 3) -> dict:
    wl = TOY[kind](seed, reference, tmp_path)
    return bench.run_workload(wl, seconds=0, trace=trace, import_s=0.0, package=dsnlift)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", sorted(TOY))
def test_every_metric_is_printed_with_its_unit(kind, trace, tmp_path, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    summary = _run(kind, tmp_path, _reference(kind, tmp_path), trace)
    result = summary["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= bench.MIN_OPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    printed = capsys.readouterr().out
    for name, unit in wanted.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in printed.splitlines()), name


@pytest.mark.parametrize("kind", sorted(TOY))
def test_seeded_run_repeats_its_counts(kind, tmp_path):
    ref = _reference(kind, tmp_path)
    first, second = (_run(kind, tmp_path, ref, trace=True, seed=11) for _ in range(2))
    assert first["result"]["attempted"] == second["result"]["attempted"]
    exact = [k for k, unit in bench.PER_LAYER_UNITS.items() if unit in ("count", "bytes")
             or k.endswith(("kept_ratio", "pruned_ratio", "survivor_ratio", "error_ratio", "failure_ratio"))]
    for key in exact:
        assert first["result"]["metrics"][key] == second["result"]["metrics"][key], key
    strip = lambda ops: [{k: v for k, v in o["info"].items() if not k.endswith("_s")} for o in ops]  # noqa: E731
    assert strip(first["ops"]) == strip(second["ops"])


@pytest.mark.parametrize("kind", sorted(TOY))
def test_corrupted_reference_counts_as_a_failure(kind, tmp_path):
    ref = _reference(kind, tmp_path)
    corrupted = json.loads(json.dumps(ref))
    if "artifact_sha256" in corrupted:
        corrupted["artifact_sha256"] = "0" * 64
    elif "codeword_indices" in corrupted:
        corrupted["codeword_indices"][0] += 1
    else:
        corrupted["error_counts"]["message_errors"] += 1
    result = _run(kind, tmp_path, corrupted, trace=False)["result"]
    assert not result["correct"]
    assert result["failed"] == 1
    assert _run(kind, tmp_path, None, trace=False)["result"]["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "diamond-pipeline", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
