"""CLI coverage: happy paths, JSON output, and the cache/batch surface.

Serialization-focused CLI tests predating this file live in
``test_mapping_io.py``; this suite owns the command-line surface itself.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.mappings.io import load_mapping
from repro.serve.schema import SCHEMA
from repro.service import ArtifactStore


def run_json(capsys, argv, command=None):
    """Run a CLI invocation and return the envelope's ``result`` payload."""
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == SCHEMA
    assert "command" in doc and "result" in doc
    if command is not None:
        assert doc["command"] == command
    return doc["result"]


class TestCompare:
    def test_happy_path(self, capsys):
        assert main(["compare", "hubbard:2x2", "--no-circuit"]) == 0
        out = capsys.readouterr().out
        assert "HATT" in out and "JW" in out and "76" in out

    def test_json_output(self, capsys):
        data = run_json(
            capsys, ["compare", "hubbard:2x2", "--no-circuit", "--json"]
        )
        assert data["n_modes"] == 8
        assert data["reports"]["HATT"]["pauli_weight"] == 76
        assert data["reports"]["JW"]["pauli_weight"] == 80
        assert data["reports"]["HATT"]["cx_count"] is None  # --no-circuit

    def test_json_includes_circuit_metrics(self, capsys):
        data = run_json(capsys, ["compare", "hubbard:1x2", "--json"])
        assert data["reports"]["HATT"]["cx_count"] > 0
        assert data["reports"]["HATT"]["depth"] > 0

    def test_cache_flags_warm_second_run(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["compare", "hubbard:2x2", "--no-circuit", "--json",
                "--cache-dir", cache]
        cold = run_json(capsys, argv)
        assert cold["cache"]["compiles"] == 4
        warm = run_json(capsys, argv)
        assert warm["cache"]["compiles"] == 0
        assert warm["cache"]["hits_disk"] == 4
        assert warm["reports"] == cold["reports"]

    def test_no_cache_overrides_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        data = run_json(capsys, ["compare", "hubbard:1x2", "--no-circuit",
                                 "--json", "--no-cache"])
        assert "cache" not in data
        assert not (tmp_path / "env").exists()

    def test_jobs_prewarms_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        data = run_json(capsys, ["compare", "hubbard:2x2", "--no-circuit",
                                 "--json", "--cache-dir", cache, "--jobs", "2"])
        # The pool compiled everything; the in-process service only read disk.
        assert data["cache"]["compiles"] == 0
        assert data["cache"]["hits_disk"] == 4


class TestMap:
    def test_happy_path(self, capsys):
        assert main(["map", "hubbard:1x2", "--mapping", "jw",
                     "--show-strings"]) == 0
        out = capsys.readouterr().out
        assert "M_0" in out and "vacuum preserved" in out

    def test_output_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "mapping.json"
        assert main(["map", "hubbard:2x2", "--mapping", "hatt",
                     "--output", str(out_file)]) == 0
        loaded = load_mapping(out_file)
        assert loaded.n_modes == 8
        assert loaded.tree is not None  # schema v2 embeds the HATT tree

    def test_cached_map_notes_source(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["map", "hubbard:2x2", "--cache-dir", cache]
        assert main(argv) == 0
        assert "[compiled" in capsys.readouterr().out
        assert main(argv) == 0
        assert "[disk" in capsys.readouterr().out

    def test_cached_output_carries_provenance(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        assert main(["map", "hubbard:1x2", "--cache-dir",
                     str(tmp_path / "cache"), "--output", str(out_file)]) == 0
        assert load_mapping(out_file).provenance["kind"] == "hatt"


    @pytest.mark.parametrize("argv", [
        ["map", "hubbard:1x2", "--jobs", "2"],
        ["cache", "stats", "--jobs", "2"],
    ])
    def test_jobs_flag_rejected(self, argv, capsys):
        # map compiles one task in-process and cache compiles nothing, so
        # neither takes --jobs.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestCases:
    def test_happy_path(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        assert "H2_sto3g" in out and "hubbard:" in out

    def test_json_output(self, capsys):
        data = run_json(capsys, ["cases", "--json"])
        assert "H2_sto3g" in data["electronic"]
        assert data["hubbard"]["pattern"] == "hubbard:<AxB>"
        assert "hatt" in data["mappings"]

    def test_table_lists_registered_sources(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        assert "registered Hamiltonian sources" in out
        for prefix in ("electronic", "fcidump", "npz", "random"):
            assert prefix in out

    def test_json_includes_source_catalog(self, capsys):
        data = run_json(capsys, ["cases", "--json"])
        prefixes = {s["prefix"] for s in data["sources"]}
        assert {"electronic", "fcidump", "hubbard", "npz", "random"} <= prefixes
        for entry in data["sources"]:
            assert {"grammar", "description", "file_backed"} <= set(entry)


class TestBatch:
    def test_batch_json_and_second_pass_hits(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["batch", "hubbard:1x2", "hubbard:2x2", "H2_sto3g",
                "--mappings", "hatt", "--cache-dir", cache, "--json"]
        first = run_json(capsys, argv)
        assert first["n_tasks"] == 3 and first["n_errors"] == 0
        assert first["n_cache_hits"] == 0
        assert first["timings"]["stages"]["tree_construction"]["count"] == 3
        second = run_json(capsys, argv)
        assert second["n_cache_hits"] == 3
        assert all(t["cache_hit"] for t in second["tasks"])
        assert [t["pauli_weight"] for t in second["tasks"]] == \
            [t["pauli_weight"] for t in first["tasks"]]

    def test_batch_table_output_and_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        assert main(["batch", "hubbard:1x2", "--cache-dir",
                     str(tmp_path / "cache"), "--output", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "batch suite" in out and "hubbard:1x2" in out
        assert "hubbard:1x2" in out_file.read_text()

    def test_batch_multiple_kinds_dedup(self, tmp_path, capsys):
        data = run_json(capsys, ["batch", "hubbard:1x2", "H2_sto3g",
                                 "--mappings", "hatt,jw", "--cache-dir",
                                 str(tmp_path / "cache"), "--json"])
        # Two 4-mode cases share one JW fingerprint.
        assert data["n_tasks"] == 4 and data["n_unique"] == 3

    def test_batch_parallel_jobs(self, tmp_path, capsys):
        data = run_json(capsys, ["batch", "hubbard:1x2", "hubbard:2x2",
                                 "--cache-dir", str(tmp_path / "cache"),
                                 "--jobs", "2", "--json"])
        assert data["n_errors"] == 0 and data["n_tasks"] == 2
        # Worker-side spans ship back into the suite's stage breakdown.
        assert data["timings"]["stages"]["tree_construction"]["count"] == 2

    def test_batch_error_exit_code(self, tmp_path, capsys):
        assert main(["batch", "no_such_case", "--cache-dir",
                     str(tmp_path / "cache"), "--json"]) == 1

    def test_batch_no_cache(self, capsys):
        data = run_json(capsys, ["batch", "hubbard:1x2", "--no-cache", "--json"])
        assert data["tasks"][0]["source"] == "compiled"

    def test_batch_invalid_mapping_kind_is_clean_error(self, capsys):
        assert main(["batch", "hubbard:1x2", "--mappings", "hat",
                     "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "invalid --mappings" in err and "Traceback" not in err


class TestCache:
    def test_stats_list_clear_cycle(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["map", "hubbard:2x2", "--cache-dir", cache]) == 0
        capsys.readouterr()

        stats = run_json(capsys, ["cache", "stats", "--cache-dir", cache, "--json"])
        assert stats["n_mappings"] == 1

        entries = run_json(capsys, ["cache", "list", "--cache-dir", cache, "--json"])
        assert len(entries) == 1 and entries[0]["kind"] == "hatt"

        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert ArtifactStore(cache).fingerprints() == []

    def test_human_readable_stats(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mappings:" in out and "circuits:" in out

    def _warm_both_namespaces(self, cache, capsys):
        assert main(["compile", "hubbard:1x2", "--arch", "montreal",
                     "--mappings", "jw", "--cache-dir", cache]) == 0
        capsys.readouterr()

    def test_namespace_scoped_stats_and_list(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        self._warm_both_namespaces(cache, capsys)
        stats = run_json(capsys, ["cache", "stats", "--cache-dir", cache,
                                  "--namespace", "circuits", "--json"],
                         command="cache.stats")
        assert set(stats["namespaces"]) == {"circuits"}
        assert stats["namespaces"]["circuits"]["entries"] == 1
        assert stats["namespaces"]["circuits"]["bytes"] > 0
        entries = run_json(capsys, ["cache", "list", "--cache-dir", cache,
                                    "--namespace", "circuits", "--json"],
                           command="cache.list")
        assert len(entries) == 1
        assert entries[0]["namespace"] == "circuits"
        assert entries[0]["architecture"] == "montreal"

    def test_namespace_scoped_clear_leaves_other_namespace(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        self._warm_both_namespaces(cache, capsys)
        cleared = run_json(capsys, ["cache", "clear", "--cache-dir", cache,
                                    "--namespace", "circuits", "--json"],
                           command="cache.clear")
        assert cleared["removed"] == {"circuits": 1}
        store = ArtifactStore(cache)
        assert store.circuit_fingerprints() == []
        assert len(store.fingerprints()) == 1


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0])))
        assert {"compare", "map", "compile", "batch", "serve", "cache",
                "cases"} <= set(sub.choices)

    @pytest.mark.parametrize("argv", [
        ["compare", "hubbard:1x2", "--hatt-backend", "bogus"],
        ["map", "hubbard:1x2", "--mapping", "bogus"],
        ["cache", "bogus"],
        ["cache", "stats", "--namespace", "bogus"],
        # Engine flags were removed in 1.1.
        ["map", "hubbard:1x2", "--backend", "scalar"],
        ["map", "hubbard:1x2", "--hatt-backend", "scalar"],
        ["compile", "H2_sto3g", "--router-backend", "scalar"],
    ])
    def test_invalid_choices_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    @pytest.mark.parametrize("command,argv", [
        ("compare", ["compare", "hubbard:1x2", "--no-circuit", "--json"]),
        ("map", ["map", "hubbard:1x2", "--json"]),
        ("cases", ["cases", "--json"]),
        ("batch", ["batch", "hubbard:1x2", "--no-cache", "--json"]),
    ])
    def test_every_json_path_emits_the_envelope(self, command, argv, capsys):
        run_json(capsys, argv, command=command)


class TestCompile:
    def test_table_output(self, capsys):
        assert main(["compile", "H2_sto3g", "--arch", "montreal"]) == 0
        out = capsys.readouterr().out
        assert "routed single Trotter step" in out
        for kind in ("JW", "BK", "BTT", "HATT"):
            assert kind in out

    def test_json_emits_routed_metrics_per_kind(self, capsys):
        data = run_json(capsys, ["compile", "H2_sto3g", "--arch", "montreal",
                                 "--json"])
        assert data["case"] == "H2_sto3g" and data["n_modes"] == 4
        per_kind = data["metrics"]["montreal"]
        assert set(per_kind) == {"jw", "bk", "btt", "hatt"}
        for kind, m in per_kind.items():
            assert m["routed_cx"] > 0
            assert m["routed_swaps"] >= 0
            assert m["routed_depth"] > 0

    def test_all_architectures(self, capsys):
        data = run_json(capsys, ["compile", "H2_sto3g", "--json",
                                 "--mappings", "jw"])
        assert set(data["metrics"]) == {"manhattan", "montreal", "sycamore",
                                        "ionq_forte"}
        assert data["metrics"]["ionq_forte"]["jw"]["routed_swaps"] == 0

    def test_cache_warm_second_run(self, tmp_path, capsys):
        argv = ["compile", "H2_sto3g", "--arch", "sycamore", "--json",
                "--mappings", "jw,hatt", "--cache-dir", str(tmp_path / "c")]
        cold = run_json(capsys, argv)
        assert cold["pipeline"] == {"circuit_hits": 0, "routed": 2}
        warm = run_json(capsys, argv)
        assert warm["pipeline"] == {"circuit_hits": 2, "routed": 0}
        assert warm["cache"]["store"]["n_circuits"] == 2
        def strip(d):
            return {a: {k: {x: v for x, v in m.items() if x != "source"}
                        for k, m in per.items()} for a, per in d.items()}

        assert strip(warm["metrics"]) == strip(cold["metrics"])

    def test_json_timings_add_up(self, capsys):
        data = run_json(capsys, ["compile", "hubbard:2x2", "--arch",
                                 "sycamore", "--json"])
        timings = data["timings"]
        assert timings["stage_total_seconds"] <= timings["wall_seconds"]
        stages = timings["stages"]
        for stage in ("construction", "mapping_apply", "ordering", "routing"):
            assert stages[stage]["count"] == 4, stage
        for slot in stages.values():
            assert slot["self_seconds"] <= slot["seconds"]
        assert timings["stage_total_seconds"] == pytest.approx(
            sum(slot["self_seconds"] for slot in stages.values()), abs=1e-5)
        assert len(data["trace"]["spans"]) == sum(
            slot["count"] for slot in stages.values())

    def test_bad_arch_rejected(self, capsys):
        assert main(["compile", "H2_sto3g", "--arch", "osprey"]) == 2

    def test_bad_mappings_rejected(self, capsys):
        assert main(["compile", "H2_sto3g", "--mappings", "qiskit"]) == 2

    def test_negative_lookahead_rejected_before_build(self, capsys, monkeypatch):
        """Regression: ``--lookahead -1`` used to build, map and synthesize
        before the router raised; it is a usage error caught up front."""
        import repro.cli

        def no_build(case):
            raise AssertionError(f"built {case} for an invalid --lookahead")

        monkeypatch.setattr(repro.cli, "build_case", no_build)
        argv = ["compile", "hubbard:2x2", "--arch", "montreal", "--lookahead", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro compile: error: lookahead")
        assert "Traceback" not in err

    def test_lexicographic_order_flag(self, capsys):
        mut = run_json(capsys, ["compile", "LiH_sto3g_frz", "--arch",
                                "ionq_forte", "--json", "--mappings", "jw"])
        lex = run_json(capsys, ["compile", "LiH_sto3g_frz", "--arch",
                                "ionq_forte", "--json", "--mappings", "jw",
                                "--order", "lexicographic"])
        assert mut["metrics"]["ionq_forte"]["jw"]["routed_cx"] < \
            lex["metrics"]["ionq_forte"]["jw"]["routed_cx"]
