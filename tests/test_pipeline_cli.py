"""Experiment pipeline and command-line interface tests."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from conftest import network_document, small_networks
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnlift import channel, cli, codes, gaussian, network, pipeline, typicality
from dsnlift.gaussian import ConfigError
from dsnlift.lifting import EmptyResult
from dsnlift.pipeline import (
    SearchFailed,
    canonical_json,
    config_hash,
    load_config,
    read_input_text,
    run_pipeline,
    shipped_data_names,
)

MINI_CONFIG = {
    "format": 1,
    "network": "diamond",
    "base_code": {"file": "diamond_code"},
    "n_rep": 2,
    "epsilon": 3.0,
    "prune_seed": 77,
    "eta": 0,
    "kappa_override": 0.25,
    "simulate": {"trials": 400, "noise_seed": 3, "method": "ml"},
    "bounds": {"samples": 5000, "seed": 11},
}


def _mini_cfg(**overrides):
    doc = dict(MINI_CONFIG)
    doc.update(overrides)
    doc = {k: v for k, v in doc.items() if v is not None}
    return load_config(json.dumps(doc))


def test_shipped_data_names_cover_demos():
    names = set(shipped_data_names())
    assert {
        "line",
        "diamond",
        "nonlayered",
        "diamond_code",
        "line_pipeline",
        "diamond_pipeline",
        "nonlayered_pipeline",
    } <= names


def test_read_input_text_resolves_names_and_paths(tmp_path):
    assert json.loads(read_input_text("diamond"))["nodes"] == 4
    p = tmp_path / "net.json"
    p.write_text("{\"x\": 1}")
    assert read_input_text(str(p)) == "{\"x\": 1}"
    with pytest.raises(ConfigError):
        read_input_text("no_such_shipped_name")
    with pytest.raises(ConfigError):
        read_input_text(str(tmp_path / "missing.json"))


def test_load_config_shipped_diamond():
    cfg = load_config(read_input_text("diamond_pipeline"))
    assert cfg.network == "diamond"
    assert cfg.base_code == {"file": "diamond_code"}
    assert cfg.n_rep == 8
    assert cfg.epsilon == 3.0
    assert cfg.prune_seed == 77
    assert cfg.kappa_override == 0.25
    assert cfg.eta == 0.0
    assert cfg.purify is True
    assert cfg.simulate.trials == 10_000
    assert cfg.simulate.noise_seed == 3
    assert cfg.simulate.method == "ml"
    assert cfg.bounds.samples == 100_000
    assert cfg.bounds.seed == 11


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("network"),
        lambda d: d.update(format=2),
        lambda d: d.update(unknown=1),
        lambda d: d.update(base_code={}),
        lambda d: d.update(base_code={"file": "x", "search": {}}),
        lambda d: d.update(eta="bogus"),
        lambda d: d.update(n_rep=0),
        lambda d: d.update(simulate={"trials": 10}),
        lambda d: d.update(simulate={"trials": 10, "noise_seed": 1, "extra": 2}),
        lambda d: d.update(bounds={"samples": 10}),
        lambda d: d.update(purify="yes"),
        lambda d: d.update(kappa_override=-0.5),
        lambda d: d.update(eta=-2),
        lambda d: d.update(epsilon=-1),
        lambda d: d.update(epsilon=float("nan")),
        lambda d: d.update(kappa_override=float("inf")),
        lambda d: d.update(eta=float("-inf")),
        lambda d: d.update(epsilon=10**400),
        lambda d: d.update(simulate={**d["simulate"], "noise_scale": float("nan")}),
        lambda d: d.update(prune_seed=-1),
        lambda d: d.update(simulate={**d["simulate"], "noise_seed": -1}),
        lambda d: d.update(bounds={**d["bounds"], "seed": -1}),
        lambda d: d.update(
            base_code={"search": {"block_length": 1, "rate": 1.0, "attempts": 1, "seed": -1}}
        ),
        lambda d: d.update(base_code={"search": {**_search(1.0)["search"], "families": ["table"]}}),
    ],
)
def test_load_config_rejects_bad_documents(mutate):
    doc = dict(MINI_CONFIG)
    mutate(doc)
    with pytest.raises(ConfigError):
        load_config(json.dumps(doc))


def test_load_config_rejects_invalid_json():
    with pytest.raises(ConfigError):
        load_config("{nope")


def test_canonical_json_is_sorted_with_trailing_newline():
    text = canonical_json({"b": 1, "a": [2, 1]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_config_hash_tracks_content():
    a = _mini_cfg()
    b = _mini_cfg()
    c = _mini_cfg(kappa_override=0.5)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 64
    int(config_hash(a), 16)


EXPECTED_FULL_ARTIFACTS = {
    "config.json",
    "base_code.json",
    "product_code.json",
    "typical_sets.json",
    "pruned_sets.json",
    "lifted_code.json",
    "rate_report.json",
    "simulation.csv",
    "simulation.json",
    "bound_report.json",
}


def test_run_pipeline_emits_all_artifacts(tmp_path):
    cfg = _mini_cfg()
    result = run_pipeline(cfg, tmp_path / "out")
    assert set(result.files) == EXPECTED_FULL_ARTIFACTS
    assert result.lifted_count > 0
    assert result.scheduling == "layered"
    assert result.message_error_rate is not None

    config_doc = json.loads((tmp_path / "out" / "config.json").read_text())
    assert config_doc["config_hash"] == result.config_digest
    # The emitted config round-trips to the same experiment.
    assert load_config(canonical_json(config_doc["config"])) == cfg

    rate_doc = json.loads((tmp_path / "out" / "rate_report.json").read_text())
    assert rate_doc["codeword_count"] == result.lifted_count

    lifted_doc = json.loads((tmp_path / "out" / "lifted_code.json").read_text())
    assert len(lifted_doc["codewords"]) == result.lifted_count
    for entry in lifted_doc["codewords"]:
        assert set(entry) == {"index", "slots"}
        assert all(set(s) == {"slot", "member"} for s in entry["slots"])

    csv_lines = (tmp_path / "out" / "simulation.csv").read_text().splitlines()
    assert csv_lines[0] == "seed,n_rep,batch_start,trials,errors,error_rate"
    assert len(csv_lines) == 2  # 400 trials fit a single batch row


def test_run_pipeline_is_byte_reproducible(tmp_path):
    cfg = _mini_cfg()
    first = run_pipeline(cfg, tmp_path / "a")
    second = run_pipeline(cfg, tmp_path / "b")
    assert set(first.files) == set(second.files)
    for name in first.files:
        assert first.files[name].read_bytes() == second.files[name].read_bytes()


def test_run_pipeline_without_optional_stages(tmp_path):
    cfg = _mini_cfg(simulate=None, bounds=None)
    result = run_pipeline(cfg, tmp_path / "out")
    assert result.message_error_rate is None
    assert set(result.files) == EXPECTED_FULL_ARTIFACTS - {
        "simulation.csv",
        "simulation.json",
        "bound_report.json",
    }


def test_run_pipeline_formula_kappa_starves_toy_codes(tmp_path):
    cfg = _mini_cfg(kappa_override=None)
    with pytest.raises(EmptyResult) as exc:
        run_pipeline(cfg, tmp_path / "out")
    assert "kappa_override" in str(exc.value)


def test_run_pipeline_rejects_unknown_network(tmp_path):
    cfg = _mini_cfg(network="no_such_net")
    with pytest.raises(ConfigError):
        run_pipeline(cfg, tmp_path / "out")


# --- command line -------------------------------------------------------------


def test_cli_quantize_prints_gain_table(capsys):
    rc = cli.main(["quantize", "--network", "diamond"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bit depth n = 2" in out
    assert "0->1" in out and "2->3" in out


def test_cli_quantize_mimo_rows(tmp_path, capsys):
    g = lambda re, im: {"re": str(re), "im": str(im)}
    doc = {
        "nodes": 2,
        "antenna_mode": "mimo2x2",
        "edges": [{"from": 0, "to": 1, "gain": [[g(3.5, 0), g(1, 0)], [g(1, 0), g(4, 2)]]}],
    }
    p = tmp_path / "mimo.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["quantize", "--network", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0->1[00]" in out
    assert "3.5+0j" in out and "3+0j" in out


def test_cli_quantize_unknown_network_exits_2(capsys):
    rc = cli.main(["quantize", "--network", "nope"])
    assert rc == cli.EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_cli_quantize_rejects_invalid_network(tmp_path, capsys):
    doc = {
        "nodes": 3,
        "antenna_mode": "scalar",
        "edges": [{"from": 0, "to": 2, "gain": {"re": "2", "im": "0"}}],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["quantize", "--network", str(p)])
    assert rc == cli.EXIT_INPUT
    assert "node 1" in capsys.readouterr().err


def test_cli_pipeline_mini_run(tmp_path, capsys):
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_CONFIG))
    out_dir = tmp_path / "out"
    rc = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "config hash:" in out
    assert "lifted codewords:" in out
    assert (out_dir / "rate_report.json").exists()


def test_cli_pipeline_kappa_override_flag_can_starve(tmp_path, capsys):
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_CONFIG))
    rc = cli.main(
        ["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
         "--kappa-override", "99"]
    )
    assert rc == cli.EXIT_EMPTY
    assert "error:" in capsys.readouterr().err
    # Neither --out nor the temporary directory the stages wrote into is left.
    assert [p.name for p in tmp_path.iterdir()] == ["mini.json"]


def test_cli_pipeline_kappa_override_flag_rejects_bad_numbers(tmp_path, capsys):
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_CONFIG))
    for value in ("-0.5", "nan", "inf"):
        rc = cli.main(
            ["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
             "--kappa-override", value]
        )
        assert rc == cli.EXIT_INPUT
        assert "kappa_override" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_pipeline_method_override_needs_simulate_section(tmp_path, capsys):
    doc = {k: v for k, v in MINI_CONFIG.items() if k != "simulate"}
    cfg_path = tmp_path / "nosim.json"
    cfg_path.write_text(json.dumps(doc))
    rc = cli.main(
        ["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
         "--method", "threshold"]
    )
    assert rc == cli.EXIT_INPUT
    assert "simulate" in capsys.readouterr().err


def test_cli_pipeline_method_and_seed_overrides_reach_the_artifacts(tmp_path, capsys):
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_CONFIG))
    plain, changed = tmp_path / "plain", tmp_path / "changed"
    assert cli.main(["pipeline", "--config", str(cfg_path), "--out", str(plain)]) == 0
    argv = ["pipeline", "--config", str(cfg_path), "--out", str(changed),
            "--method", "threshold", "--seed", "5"]
    assert cli.main(argv) == 0
    config = json.loads((changed / "config.json").read_text())
    sim = json.loads((changed / "simulation.json").read_text())
    assert MINI_CONFIG["simulate"]["method"] == "ml" and MINI_CONFIG["simulate"]["noise_seed"] == 3
    assert config["config"]["simulate"]["method"] == "threshold"
    assert config["config"]["simulate"]["noise_seed"] == 5
    assert (sim["method"], sim["noise_seed"]) == ("threshold", 5)
    assert config["config_hash"] != json.loads((plain / "config.json").read_text())["config_hash"]


def test_cli_pipeline_search_exhaustion_exits_3(tmp_path, capsys):
    doc = dict(MINI_CONFIG)
    doc["network"] = "line"
    doc["base_code"] = {
        "search": {"block_length": 1, "rate": 3.0, "attempts": 2, "seed": 0}
    }
    cfg_path = tmp_path / "hard.json"
    cfg_path.write_text(json.dumps(doc))
    rc = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_SEARCH
    assert "no zero-error base code" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["hard.json"]


def test_cli_pipeline_invalid_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    rc = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_INPUT


def test_cli_bounds_reports_kappa_reference(tmp_path, capsys):
    report_path = tmp_path / "bounds.json"
    rc = cli.main(
        ["bounds", "--network", "line", "--samples", "3000", "--seed", "4",
         "--out", str(report_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "kappa reference (M=2): 15.459432" in out
    assert "all within kappa: yes" in out
    doc = json.loads(report_path.read_text())
    assert doc["kappa_reference"] == pytest.approx(15.459431618637297)
    assert len(doc["entries"]) == 2


def test_cli_negative_seed_and_zero_samples_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "mini.json"
    cfg_path.write_text(json.dumps(MINI_CONFIG))
    out = tmp_path / "out"
    for argv, flag in (
        (["pipeline", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"], "--seed"),
        (["bounds", "--network", "line", "--seed", "-1"], "--seed"),
        (["bounds", "--network", "line", "--samples", "0"], "--samples"),
    ):
        assert cli.main(argv) == cli.EXIT_INPUT
        assert flag in capsys.readouterr().err
    assert not out.exists()


def test_cli_bounds_int64_overflow_exits_2(tmp_path, capsys):
    # Bit depth 33 with a gain of 2**33: the batch decomposition's int64
    # products would wrap, so the command must refuse instead of reporting.
    doc = {
        "nodes": 2,
        "antenna_mode": "scalar",
        "edges": [{"from": 0, "to": 1, "gain": {"re": "8589934592.5", "im": "0"}}],
    }
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["bounds", "--network", str(p), "--samples", "100"])
    assert rc == cli.EXIT_INPUT
    assert "overflow int64" in capsys.readouterr().err


def _assert_input_error(capsys, argv):
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


def _run_doc(tmp_path, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    return ["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out")]


def test_cli_pipeline_beyond_enumeration_budget_exits_2(tmp_path, capsys):
    err = _assert_input_error(capsys, _run_doc(tmp_path, {**MINI_CONFIG, "n_rep": 12}))
    assert "budget" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_pipeline_n_rep_whose_codeword_count_has_thousands_of_digits_exits_2(tmp_path, capsys):
    # 4**8000 has 4,817 digits, more than json.dumps writes for an int; the
    # budget check comes before product_code.json is written.
    err = _assert_input_error(capsys, _run_doc(tmp_path, {**MINI_CONFIG, "n_rep": 8000}))
    assert "budget" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# 10**15 elements of int64 or float64 are 7.1 PiB, beyond any address
# space, so the allocator refuses them at once.
_BEYOND_MEMORY = 10**15


@pytest.mark.parametrize(
    "changes",
    [{"simulate": {**MINI_CONFIG["simulate"], "trials": _BEYOND_MEMORY}},
     {"bounds": {**MINI_CONFIG["bounds"], "samples": _BEYOND_MEMORY}}],
    ids=["simulate-trials", "bound-samples"],
)
def test_cli_pipeline_sample_beyond_memory_exits_2(tmp_path, capsys, changes):
    err = _assert_input_error(capsys, _run_doc(tmp_path, {**MINI_CONFIG, **changes}))
    assert "allocate" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_bounds_sample_beyond_memory_exits_2(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    argv = ["bounds", "--network", "line", "--samples", str(_BEYOND_MEMORY), "--out", str(out)]
    assert "allocate" in _assert_input_error(capsys, argv)
    assert not out.exists()


@pytest.mark.parametrize(
    "cls",
    [channel.ChannelError, network.ParseError, network.SchemaError, codes.BitDepthMismatch,
     codes.CausalityError, codes.TooManyErrors, typicality.TooLarge],
)
def test_every_input_refusal_is_a_config_error(cls):
    assert issubclass(cls, channel.ConfigError)


@pytest.mark.parametrize("cls", [EmptyResult, pipeline.SearchFailed])
def test_exit_3_and_4_errors_are_not_config_errors(cls):
    assert not issubclass(cls, channel.ConfigError)


def test_config_error_has_one_definition():
    assert gaussian.ConfigError is pipeline.ConfigError is ConfigError is channel.ConfigError


def _search(rate):
    return {"search": {"block_length": 1, "rate": rate, "attempts": 2, "seed": 3}}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"network": "line", "base_code": _search(-1.0)}, "rate must be >= 0"),
        ({"network": "line", "base_code": _search(0.5)}, "must be an integer"),
        ({"simulate": {**MINI_CONFIG["simulate"], "noise_scale": -1.0}}, "noise_scale"),
        # JSON true and 1.0 compare equal to 1 but are not the format number.
        ({"format": True}, "format must be an integer"),
        ({"format": 1.0}, "format must be an integer"),
    ],
    ids=["negative-rate", "fractional-message-bits", "negative-noise-scale",
         "format-true", "format-float"],
)
def test_cli_pipeline_out_of_range_config_numbers_exit_2(tmp_path, capsys, changes, message):
    assert message in _assert_input_error(capsys, _run_doc(tmp_path, {**MINI_CONFIG, **changes}))
    assert not (tmp_path / "out").exists()


# The refusal is the only report: no RuntimeWarning of the overflow comes first.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale, rc", [(1e308, cli.EXIT_INPUT), (1e200, cli.EXIT_INPUT), (1e150, 0)])
def test_cli_pipeline_noise_scale_past_float64_costs_exits_2(tmp_path, capsys, scale, rc):
    doc = {**MINI_CONFIG, "simulate": {**MINI_CONFIG["simulate"], "noise_scale": scale}}
    argv = _run_doc(tmp_path, doc)
    if rc:
        assert "overflow float64" in _assert_input_error(capsys, argv)
        assert not (tmp_path / "out").exists()
    else:
        assert cli.main(argv) == 0


def test_load_config_keeps_noise_scale_zero():
    cfg = _mini_cfg(simulate={**MINI_CONFIG["simulate"], "noise_scale": 0})
    assert cfg.simulate.noise_scale == 0.0


def _code_file(tmp_path, **changes):
    doc = {**json.loads(read_input_text("diamond_code")), **changes}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_pipeline_unsupported_code_format_exits_2(tmp_path, capsys):
    path = _code_file(tmp_path, format=2)
    err = _assert_input_error(capsys, _run_doc(tmp_path, {**MINI_CONFIG, "base_code": {"file": path}}))
    assert path in err and "format 2" in err


def test_cli_pipeline_code_of_another_bit_depth_exits_2(tmp_path, capsys):
    doc = {**MINI_CONFIG, "network": "line", "base_code": {"file": "diamond_code"}}
    assert "bit depth" in _assert_input_error(capsys, _run_doc(tmp_path, doc))


def test_cli_pipeline_code_whose_decoder_is_always_wrong_exits_2(tmp_path, capsys):
    decoder = json.loads(read_input_text("diamond_code"))["decoder"]
    path = _code_file(tmp_path, decoder=[[r, (m + 1) % len(decoder)] for r, m in decoder])
    err = _assert_input_error(capsys, _run_doc(tmp_path, {**MINI_CONFIG, "base_code": {"file": path}}))
    assert "cannot purify" in err


_MODULO = {"family": "modulo", "mult": 1, "causal": False}


def _relay_1_of_diamond_code(**changes):
    maps = json.loads(read_input_text("diamond_code"))["relay_maps"]
    return {**maps, "1": {**maps["1"], **changes}}


def _table_at_node_1(entries, default):
    table = {"family": "table", "entries": entries, "default": default, "causal": False}
    return {"1": table, "2": _MODULO}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"codebook": [[[0, 0], [0, 0]], [[2, 0], [4, 0]], [[0, 2], [0, 2]], [[2, 2], [2, 2]]]},
         "(4, 0) out of range for bit depth 2"),
        ({"relay_maps": _table_at_node_1([[1, [0, 0], [0, 4]]], [0, 0])},
         "(0, 4) out of range for bit depth 2"),
        ({"relay_maps": _table_at_node_1([[1, [0, 0], [1, 1]]], [-1, 0])},
         "(-1, 0) out of range for bit depth 2"),
        ({"bit_depth": 0}, "bit_depth must be >= 1"),
        # Fractional values are rejected, not truncated onto the grid.
        ({"codebook": [[[0, 0], [0, 0]], [[1.5, 0], [2, 0]], [[0, 2], [0, 2]], [[2, 2], [2, 2]]]},
         "must be an integer, got 1.5"),
        ({"relay_maps": _table_at_node_1([[1, [0, 0], [1.5, 1]]], [0, 0])},
         "must be an integer, got 1.5"),
        ({"relay_maps": _table_at_node_1([[1, [0, 0], [1, 1]]], [1.5, 0])},
         "must be an integer, got 1.5"),
        ({"format": True}, "must be an integer, got True"),
        # A non-empty string is truthy; it must not load as a causal map.
        ({"relay_maps": _relay_1_of_diamond_code(causal="false")},
         "causal must be a boolean, got 'false'"),
        # Unknown fields are refused, as in configs and network files.
        ({"note": "hand-edited"}, "unknown fields ['note']"),
        ({"relay_maps": _relay_1_of_diamond_code(shift=1)}, "unknown fields ['shift']"),
    ],
    ids=["codebook-symbol", "table-entry", "table-default", "bit-depth-0",
         "fractional-codebook-bit", "fractional-table-entry", "fractional-table-default",
         "format-true", "causal-string", "unknown-top-level-field", "modulo-map-shift"],
)
def test_cli_pipeline_code_off_the_symbol_grid_exits_2_at_load(tmp_path, capsys, changes, message):
    path = _code_file(tmp_path, **changes)
    err = _assert_input_error(capsys, _run_doc(tmp_path, {**MINI_CONFIG, "base_code": {"file": path}}))
    assert path in err and message in err
    assert not (tmp_path / "out").exists()


def test_cli_pipeline_code_without_a_map_for_a_relay_exits_2(tmp_path, capsys):
    path = _code_file(tmp_path, relay_maps={"1": _MODULO})
    err = _assert_input_error(capsys, _run_doc(tmp_path, {**MINI_CONFIG, "base_code": {"file": path}}))
    assert "no relay map for node 2" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override, rc, text",
    [(0, 0, "lifted codewords: 1"), (0.25, cli.EXIT_EMPTY, "pruned sets empty at slots [1, 2, 3]")],
    ids=["override-0", "override-0.25-starves"],
)
def test_cli_pipeline_one_codeword_code_at_n_rep_100(tmp_path, capsys, override, rc, text):
    # One codeword has one digit row of any length, also past the 64 axes
    # np.indices allows.  At override 0.25 each set's size is 2^-50.
    doc = json.loads(read_input_text("diamond_code"))
    path = _code_file(tmp_path, codebook=doc["codebook"][:1],
                      decoder=[entry for entry in doc["decoder"] if entry[1] == 0])
    run = {**MINI_CONFIG, "base_code": {"file": path}, "n_rep": 100, "kappa_override": override}
    assert cli.main(_run_doc(tmp_path, run)) == rc
    assert text in "".join(capsys.readouterr())


def test_cli_pipeline_writes_into_an_existing_out_dir(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    assert cli.main(_run_doc(tmp_path, MINI_CONFIG)) == 0
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "notes.txt" in files and "rate_report.json" in files
    # A failed run leaves the directory as it found it.
    assert cli.main(_run_doc(tmp_path, {**MINI_CONFIG, "n_rep": 12})) == cli.EXIT_INPUT
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--network", "line", "--samples", "100", "--out", "{tmp}/missing/bounds.json"],
        ["pipeline", "--config", "{tmp}/cfg.json", "--out", "{tmp}/file/out"],
        ["pipeline", "--config", "{tmp}/cfg.json", "--out", "{tmp}/file"],
        ["pipeline", "--config", "{tmp}", "--out", "{tmp}/out"],
    ],
    ids=["bounds-out-in-missing-dir", "out-under-a-file", "out-is-a-file", "config-is-a-dir"],
)
def test_cli_unusable_paths_exit_2(tmp_path, capsys, argv):
    (tmp_path / "cfg.json").write_text(json.dumps(MINI_CONFIG))
    (tmp_path / "file").write_text("kept")
    _assert_input_error(capsys, [arg.format(tmp=tmp_path) for arg in argv])
    # No output and no staging sibling (.out-*, .file-*) is left behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]
    assert (tmp_path / "file").read_text() == "kept"


def test_cli_pipeline_out_naming_a_file_exits_2_before_any_stage(tmp_path, capsys):
    # A search that cannot succeed would exit 3; the --out check comes first.
    doc = {**MINI_CONFIG, "base_code": {"search": {"block_length": 1, "rate": 4.0,
                                                   "attempts": 1, "seed": 3}}}
    argv = _run_doc(tmp_path, doc)
    Path(argv[-1]).write_text("kept")
    assert "not a directory" in _assert_input_error(capsys, argv)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]
    assert (tmp_path / "out").read_text() == "kept"


def _line_file(tmp_path, *gains):
    """A line network 0 -> 1 -> ... with one real decimal-string gain per edge."""
    edges = [{"from": i, "to": i + 1, "gain": {"re": g, "im": "0"}} for i, g in enumerate(gains)]
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"nodes": len(gains) + 1, "antenna_mode": "scalar", "edges": edges}))
    return str(path)


def test_cli_pipeline_search_beyond_int64_draws_exits_2(tmp_path, capsys):
    # Gain 2^32: bit depth 32, whose 4^32 symbols do not fit an int64 draw.
    doc = {**MINI_CONFIG, "network": _line_file(tmp_path, "4294967296", "4294967296"),
           "base_code": _search(1.0)}
    assert "int64" in _assert_input_error(capsys, _run_doc(tmp_path, doc))


@pytest.mark.parametrize(
    "gains",
    [("1e30",), ("2", "1099511627776")],
    ids=["bit-depth-99", "second-reception-at-bit-depth-40"],
)
def test_cli_bounds_checks_int64_range_before_drawing(tmp_path, capsys, gains):
    # 10^6 samples draw 8 MB per input or noise array of a reception; the
    # check must come first, also for a network whose first reception fits.
    argv = ["bounds", "--network", _line_file(tmp_path, *gains), "--samples", "1000000"]
    tracemalloc.start()
    try:
        err = _assert_input_error(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "overflow int64" in err
    assert peak < 1 << 22


@st.composite
def _cli_runs(draw):
    """A generated network's file text and a config that searches its base
    code: at most 5 nodes (3 on 2x2), n_rep <= 4, a kappa_override, at
    most 50 trials and 500 bound samples."""
    mimo = draw(st.booleans())
    net = draw(small_networks(max_nodes=3 if mimo else 5, mimo=mimo))
    block_length = draw(st.integers(1, 2))
    config = {
        "format": 1,
        "base_code": {"search": {
            "block_length": block_length,
            "rate": draw(st.integers(0, 3)) / block_length,
            "attempts": draw(st.integers(1, 20)),
            "seed": draw(st.integers(0, 1000)),
        }},
        "n_rep": draw(st.integers(1, 4)),
        "epsilon": draw(st.sampled_from([3.0, 0.5, 0.0])),
        "prune_seed": draw(st.integers(0, 1000)),
        "purify": draw(st.booleans()),
        "eta": draw(st.sampled_from([0, 0.125, "epsilon2"])),
        "kappa_override": draw(st.sampled_from([0.0, 0.125, 0.25])),
        "simulate": {"trials": draw(st.integers(1, 50)), "noise_seed": draw(st.integers(0, 1000)),
                     "method": draw(st.sampled_from(["ml", "threshold"]))},
        "bounds": {"samples": draw(st.integers(1, 500)), "seed": draw(st.integers(0, 1000))},
    }
    return network_document(net), config


@settings(max_examples=50, deadline=None, derandomize=True)
@given(run=_cli_runs())
def test_cli_on_generated_networks_exits_with_a_documented_code(run):
    # pipeline exits 0, 2, 3 or 4 and bounds 0 or 2: never 1, never an
    # escaped exception, and every artifact of a run that succeeds.
    net_text, config = run
    with tempfile.TemporaryDirectory() as tmp:
        net_path, cfg_path, out = Path(tmp, "net.json"), Path(tmp, "cfg.json"), Path(tmp, "out")
        net_path.write_text(net_text)
        cfg_path.write_text(json.dumps({**config, "network": str(net_path)}))
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        assert rc in (0, cli.EXIT_INPUT, cli.EXIT_SEARCH, cli.EXIT_EMPTY)
        if rc == 0:
            assert {p.name for p in out.iterdir()} == EXPECTED_FULL_ARTIFACTS
        samples, seed = config["bounds"]["samples"], config["bounds"]["seed"]
        rc = cli.main(["bounds", "--network", str(net_path), "--samples", str(samples), "--seed", str(seed)])
        assert rc in (0, cli.EXIT_INPUT)
