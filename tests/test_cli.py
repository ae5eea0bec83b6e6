"""Command-line interface."""

import json

import pytest

from repro.cli import main


def test_list_modules(capsys):
    assert main(["list-modules"]) == 0
    out = capsys.readouterr().out
    assert "ripple_adder" in out
    assert "csa_multiplier" in out
    assert "*" in out  # paper modules marked


def test_characterize_and_save(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code = main([
        "characterize", "--kind", "ripple_adder", "--width", "4",
        "--patterns", "600", "-o", str(model_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "characterized ripple_adder_4" in out
    data = json.loads(model_path.read_text())
    assert data["type"] == "hd"
    assert data["width"] == 8


def test_characterize_enhanced(tmp_path):
    model_path = tmp_path / "enh.json"
    assert main([
        "characterize", "--kind", "ripple_adder", "--width", "4",
        "--patterns", "600", "--enhanced", "-o", str(model_path),
    ]) == 0
    assert json.loads(model_path.read_text())["type"] == "enhanced"


def test_estimate_with_saved_model(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main([
        "characterize", "--kind", "ripple_adder", "--width", "4",
        "--patterns", "600", "-o", str(model_path),
    ])
    capsys.readouterr()
    code = main([
        "estimate", "--kind", "ripple_adder", "--width", "4",
        "--model", str(model_path), "--data-type", "I",
        "--patterns", "600", "--reference", "--vdd", "2.5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "estimated charge" in out
    assert "uW" in out
    assert "reference charge" in out


def test_estimate_width_mismatch(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main([
        "characterize", "--kind", "ripple_adder", "--width", "4",
        "--patterns", "600", "-o", str(model_path),
    ])
    code = main([
        "estimate", "--kind", "ripple_adder", "--width", "8",
        "--model", str(model_path), "--patterns", "600",
    ])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_estimate_on_the_fly_methods(capsys):
    for method in ("trace", "distribution", "avg-hd"):
        code = main([
            "estimate", "--kind", "absval", "--width", "4",
            "--data-type", "III", "--patterns", "600",
            "--method", method,
        ])
        assert code == 0
    out = capsys.readouterr().out
    assert "average_hd" in out or "estimated charge" in out


def test_figure3_command(capsys):
    assert main(["figure", "3", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "FA-equiv" in out


def test_figure9_command(capsys):
    assert main(["figure", "9", "--scale", "small"]) == 0
    assert "total variation" in capsys.readouterr().out


def test_table2_command_small(capsys):
    assert main(["table", "2", "--scale", "small"]) == 0
    assert "enhanced" in capsys.readouterr().out


def test_invalid_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_verilog_command(tmp_path, capsys):
    out_file = tmp_path / "adder.v"
    assert main([
        "verilog", "--kind", "ripple_adder", "--width", "4",
        "-o", str(out_file),
    ]) == 0
    text = out_file.read_text()
    assert text.startswith("module ripple_adder_4")
    # exported file parses back
    from repro.circuit.verilog import from_verilog

    from_verilog(text).validate()


def test_verilog_command_stdout(capsys):
    assert main(["verilog", "--kind", "parity", "--width", "4"]) == 0
    assert "endmodule" in capsys.readouterr().out


def test_hotspots_command(capsys):
    assert main([
        "hotspots", "--kind", "ripple_adder", "--width", "4",
        "--patterns", "300", "--top", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "top 5 nets" in out
    assert "%" in out


def test_budget_command(tmp_path, capsys):
    import json

    graph = {
        "inputs": {"x": {"mean": 0.0, "variance": 400.0, "rho": 0.8}},
        "nodes": [
            {"name": "x1", "op": "delay", "inputs": ["x"]},
            {"name": "y", "op": "add", "inputs": ["x", "x1"], "width": 9},
        ],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    assert main(["budget", str(path), "--patterns", "500"]) == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out and "ripple_adder" in out and "w=9" in out


def test_characterize_multi_job_parallel_with_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = [
        "characterize", "--kind", "ripple_adder", "--width", "3,4",
        "--patterns", "300", "--jobs", "2", "--cache-dir", str(cache_dir),
        "-o", str(tmp_path / "models"),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "characterized ripple_adder_3" in out
    assert "characterized ripple_adder_4" in out
    assert "cache hits: 0 | misses: 2" in out
    assert (tmp_path / "models" / "ripple_adder_3.json").exists()
    assert (tmp_path / "models" / "ripple_adder_4.json").exists()

    # Second invocation: served entirely from the persistent cache.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cache hits: 2 | misses: 0" in out


def test_characterize_bad_width(capsys):
    assert main([
        "characterize", "--kind", "ripple_adder", "--width", "four",
    ]) == 2
    assert "--width" in capsys.readouterr().err


def test_cache_subcommands(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    assert "entries     : 0" in capsys.readouterr().out
    assert main(["cache", "ls", "--cache-dir", str(cache_dir)]) == 0
    assert "empty" in capsys.readouterr().out

    main([
        "characterize", "--kind", "ripple_adder", "--width", "3",
        "--patterns", "200", "--cache-dir", str(cache_dir),
    ])
    capsys.readouterr()
    assert main(["cache", "ls", "--cache-dir", str(cache_dir)]) == 0
    assert "ripple_adder_3" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    assert "entries     : 1" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
    assert "removed 1" in capsys.readouterr().out


def test_verify_fuzz_command(tmp_path, capsys):
    assert main([
        "verify", "fuzz", "--budget", "200", "--seed", "0",
        "--artifacts", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "no cross-engine or oracle mismatches" in out
    assert "budget 200" in out


def test_verify_fuzz_kind_filter(tmp_path, capsys):
    assert main([
        "verify", "fuzz", "--budget", "100", "--seed", "3",
        "--kinds", "ripple_adder,cla_adder", "--max-width", "4",
        "--artifacts", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "ripple_adder" in out or "cla_adder" in out


def test_verify_fuzz_unknown_kind(capsys):
    assert main([
        "verify", "fuzz", "--budget", "50", "--kinds", "flux_capacitor",
    ]) == 2
    assert "unknown module kind" in capsys.readouterr().err


def test_verify_fuzz_reports_failure(tmp_path, capsys, monkeypatch):
    """With a corrupted packed kernel the CLI exits 1 and points at the
    generated repro artifact."""
    import numpy as np

    import repro.circuit.power as power_mod

    real = power_mod.packed_unit_delay_transition

    def corrupted(compiled, settled, new_inputs):
        final, accumulator = real(compiled, settled, new_inputs)
        if accumulator.planes:
            accumulator.planes[0][0, 0] ^= np.uint64(1)
        return final, accumulator

    monkeypatch.setattr(power_mod, "packed_unit_delay_transition", corrupted)
    assert main([
        "verify", "fuzz", "--budget", "2000", "--seed", "0",
        "--artifacts", str(tmp_path),
    ]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert "repro script" in out
    assert list(tmp_path.glob("repro_*.py"))


def test_list_modules_json(capsys):
    assert main(["list-modules", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    by_kind = {m["kind"]: m for m in listing["modules"]}
    adder = by_kind["ripple_adder"]
    assert adder["paper"] is True
    assert adder["min_width"] >= 1
    assert adder["gates_at_w8"] > 0
    assert adder["input_bits_at_w8"] == 16
    assert [op["name"] for op in adder["operands"]] == ["a", "b"]
    # Machine-readable output must cover the whole library.
    from repro.modules import MODULE_KINDS
    assert set(by_kind) == set(MODULE_KINDS)


def test_loadgen_against_server(tmp_path, capsys):
    """repro-power loadgen drives a live in-process server to completion."""
    from repro.eval import ExperimentConfig
    from repro.serve import EstimationServer, ModelRegistry, ServerThread

    registry = ModelRegistry(
        config=ExperimentConfig(n_characterization=300, seed=5), cache=None
    )
    server = EstimationServer(registry)
    report_path = tmp_path / "load.json"
    with ServerThread(server) as thread:
        code = main([
            "loadgen", "--port", str(thread.port), "-n", "24",
            "--concurrency", "4", "--kind", "ripple_adder", "--width", "4",
            "-o", str(report_path),
        ])
    assert code == 0
    out = capsys.readouterr().out
    assert "24 requests" in out
    report = json.loads(report_path.read_text())
    assert report["status_counts"] == {"200": 24}
    assert report["errors"] == 0


# ----------------------------------------------------------------------
# Machine-facing envelopes: --json and --profile (see docs/API.md)
# ----------------------------------------------------------------------
def test_characterize_json_envelope(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code = main([
        "characterize", "--kind", "ripple_adder", "--width", "3",
        "--patterns", "800", "-o", str(model_path), "--json",
    ])
    assert code == 0
    captured = capsys.readouterr()
    envelope = json.loads(captured.out)  # stdout is ONE parseable object
    assert envelope["status"] == "ok"
    assert envelope["command"] == "characterize"
    assert envelope["elapsed_seconds"] > 0
    assert envelope["failures"] == 0
    job = envelope["jobs"][0]
    assert job["label"] == "ripple_adder/3"
    assert job["status"] == "ok"
    assert job["converged"] is True
    assert len(job["coefficients"]) == 7
    assert envelope["artifacts"] == [str(model_path)]
    assert "characterized ripple_adder_3" in captured.err


def test_characterize_json_partial_failure_exits_1(capsys):
    code = main([
        "characterize", "--kind", "ripple_adder,absval", "--width", "3",
        "--patterns", "300", "--json",
    ])
    assert code == 0  # absval/3 is fine
    capsys.readouterr()
    code = main([
        "characterize", "--kind", "absval", "--width", "1,3",
        "--patterns", "300", "--json",
    ])
    assert code == 1
    captured = capsys.readouterr()
    envelope = json.loads(captured.out)
    assert envelope["status"] == "failed"
    assert envelope["failures"] == 1
    statuses = {j["label"]: j["status"] for j in envelope["jobs"]}
    assert statuses == {"absval/1": "failed", "absval/3": "ok"}
    failed = [j for j in envelope["jobs"] if j["status"] == "failed"][0]
    assert "width" in failed["error"]
    assert "failed" in captured.err


def test_characterize_partial_failure_without_json(capsys):
    """Human mode also survives a bad job and exits 1."""
    code = main([
        "characterize", "--kind", "absval", "--width", "1,3",
        "--patterns", "300",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "characterized absval_3" in captured.out
    assert "absval/1 failed" in captured.err


def test_estimate_json_envelope(capsys):
    code = main([
        "estimate", "--kind", "ripple_adder", "--width", "3",
        "--patterns", "300", "--json", "--vdd", "2.5",
    ])
    assert code == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["command"] == "estimate"
    assert envelope["status"] == "ok"
    assert envelope["method"] == "trace"
    assert envelope["average_charge"] > 0
    assert envelope["physical"]["power_watts"] > 0


def test_verify_fuzz_json_envelope(tmp_path, capsys):
    code = main([
        "verify", "fuzz", "--budget", "200", "--seed", "0",
        "--artifacts", str(tmp_path), "--json",
    ])
    assert code == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["command"] == "verify fuzz"
    assert envelope["status"] == "ok"
    assert envelope["n_cases"] >= 1
    assert envelope["mismatches"] == []


def test_profile_writes_loadable_chrome_trace(tmp_path, capsys):
    from repro.obs import validate_chrome

    trace_path = tmp_path / "trace.json"
    code = main([
        "characterize", "--kind", "ripple_adder", "--width", "3",
        "--patterns", "300", "--json", "--profile", str(trace_path),
    ])
    assert code == 0
    captured = capsys.readouterr()
    envelope = json.loads(captured.out)
    assert str(trace_path) in envelope["artifacts"]
    loaded = json.loads(trace_path.read_text())
    assert validate_chrome(loaded) == []
    names = {e["name"] for e in loaded["traceEvents"]}
    assert "cli.characterize" in names
    assert "characterize" in names
    assert "sim.stream" in names
    # The human span tree goes to stderr, keeping stdout machine-clean.
    assert "cli.characterize" in captured.err
    assert "profile written" in captured.err


def test_estimate_json_physical_block(capsys):
    """--node yields the complete physical block in the envelope."""
    code = main([
        "estimate", "--kind", "ripple_adder", "--width", "4",
        "--patterns", "400", "--node", "45nm", "--json",
    ])
    assert code == 0
    envelope = json.loads(capsys.readouterr().out)
    physical = envelope["physical"]
    assert {"charge_coulombs", "energy_joules", "power_watts",
            "node", "vdd", "f_clk", "table_version"} <= set(physical)
    assert physical["node"] == "45nm"
    assert physical["energy_joules"] > 0
    # Area/leakage come along because the module netlist is at hand.
    assert physical["area_m2"] > 0 and physical["leakage_watts"] > 0


def test_estimate_json_no_node_no_physical(capsys):
    code = main([
        "estimate", "--kind", "ripple_adder", "--width", "4",
        "--patterns", "400", "--json",
    ])
    assert code == 0
    envelope = json.loads(capsys.readouterr().out)
    assert "physical" not in envelope
    assert "power_watts" not in envelope  # the old lone key is gone


def test_estimate_json_vdd_only_legacy(capsys):
    code = main([
        "estimate", "--kind", "ripple_adder", "--width", "4",
        "--patterns", "400", "--vdd", "2.5", "--json",
    ])
    assert code == 0
    physical = json.loads(capsys.readouterr().out)["physical"]
    assert physical["node"] is None
    assert physical["vdd"] == 2.5 and physical["f_clk"] == 50e6


def test_estimate_unknown_node_exit_2(capsys):
    code = main([
        "estimate", "--kind", "ripple_adder", "--width", "4",
        "--patterns", "400", "--node", "3nm",
    ])
    assert code == 2
    assert "unknown technology node" in capsys.readouterr().err


def test_report_pae_json(tmp_path, capsys):
    from repro.tech import validate_pae

    out_path = tmp_path / "pae.json"
    code = main([
        "report", "pae", "--kinds", "ripple_adder", "--widths", "2,4",
        "--nodes", "90nm,45nm", "--patterns", "200",
        "-o", str(out_path), "--json",
    ])
    assert code == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["status"] == "ok" and envelope["report"] == "pae"
    assert len(envelope["cells"]) == 2 * 2
    validate_pae(json.loads(out_path.read_text()))


def test_report_pae_bad_inputs(capsys):
    assert main([
        "report", "pae", "--widths", "x",
    ]) == 2
    assert main([
        "report", "pae", "--nodes", "3nm", "--widths", "2",
        "--kinds", "ripple_adder", "--patterns", "100",
    ]) == 2
    err = capsys.readouterr().err
    assert "bad --widths" in err and "unknown technology node" in err
