"""Fast smoke tests for the ``repro.bench`` wall-clock harness.

These run the harness at toy sizes, checking plumbing (config validation, JSON
report shape, CLI entry point) without asserting speedups — tiny operands are
timer-noise dominated.  The speedup acceptance check lives in
``benchmarks/test_bench_compact_engine.py`` (slow tier).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro.bench
from repro.bench import BenchmarkConfig, run_benchmark, write_report
from repro.bench.__main__ import main as bench_main, parse_args


def tiny_config(**overrides) -> BenchmarkConfig:
    defaults = dict(widths=(48,), rates=(0.5,), batch=8, steps=2, repeats=1,
                    warmup=0, max_period=4, families=("row", "tile"),
                    serve_requests=40, serve_concurrency=2, head_vocab=())
    defaults.update(overrides)
    return BenchmarkConfig(**defaults)


def serve_entry(family="serve_mlp", width=2048, *, cpu_gated=False,
                p99_pooled=25.0, rps_pooled=700.0, **overrides):
    """A gate-passing serve report entry (pooled dominates the baseline)."""
    record = {"family": family, "width": width, "rate": 0.7,
              "speedup_pooled": 2.5,
              "cpu_count": 1 if cpu_gated else 8, "cpu_gated": cpu_gated,
              "serving": {"masked": {"p99_ms": 80.0, "throughput_rps": 250.0},
                          "pooled": {"p99_ms": p99_pooled,
                                     "throughput_rps": rps_pooled}}}
    record.update(overrides)
    return record


class TestBenchmarkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(batch=0)
        with pytest.raises(ValueError):
            BenchmarkConfig(warmup=-1)
        with pytest.raises(ValueError):
            BenchmarkConfig(families=("bogus",))

    def test_defaults_cover_acceptance_case(self):
        config = BenchmarkConfig()
        assert 2048 in config.widths
        assert 0.7 in config.rates


class TestRunBenchmark:
    def test_row_and_tile_cases_produced(self):
        results = run_benchmark(tiny_config())
        assert [r.family for r in results] == ["row", "tile"]
        for result in results:
            assert set(result.mode_ms) == {"masked", "compact", "pooled"}
            assert all(ms > 0 for ms in result.mode_ms.values())
            assert result.speedup_pooled > 0
            assert result.speedup_compact > 0

    def test_single_family_selection(self):
        results = run_benchmark(tiny_config(families=("row",)))
        assert [r.family for r in results] == ["row"]

    def test_rectangular_layer(self):
        results = run_benchmark(tiny_config(in_features=24, families=("row",)))
        (result,) = results
        assert result.in_features == 24
        assert result.width == 48


class TestLstmRecFamily:
    """The recurrent-projection (gate-aligned DropConnect) benchmark family."""

    def test_lstm_rec_case_produced(self):
        results = run_benchmark(tiny_config(families=("lstm_rec",)))
        (result,) = results
        assert result.family == "lstm_rec"
        assert result.recurrent == "tiled"
        assert set(result.mode_ms) == {"masked", "compact", "pooled"}
        assert all(ms > 0 for ms in result.mode_ms.values())
        assert 0.0 < result.keep_fraction <= 1.0
        assert result.to_dict()["recurrent"] == "tiled"

    def test_lstm_rec_in_family_registry_and_cli(self):
        assert "lstm_rec" in BenchmarkConfig.FAMILIES
        args = parse_args(["--families", "lstm_rec"])
        assert args.families == ["lstm_rec"]

    def test_recurrent_toggle_validation(self):
        with pytest.raises(ValueError, match="recurrent"):
            BenchmarkConfig(recurrent="sparse")
        assert BenchmarkConfig().recurrent == "tiled"

    def test_e2e_config_records_recurrent(self, tmp_path):
        config = tiny_config(widths=(32,), batch=8, families=("e2e",),
                             recurrent="tiled",
                             output=str(tmp_path / "bench.json"))
        results = run_benchmark(config)
        path = write_report(results, config)
        with open(path) as handle:
            report = json.load(handle)
        assert report["config"]["recurrent"] == "tiled"
        lstm_entry = next(e for e in report["results"]
                          if e["family"] == "e2e_lstm")
        assert lstm_entry["recurrent"] == "tiled"


class TestHeadFamily:
    """The loss-head (sampled softmax) benchmark family and CLI plumbing."""

    def test_head_case_produced(self):
        results = run_benchmark(tiny_config(families=("head",)))
        (result,) = results
        assert result.family == "head"
        assert result.loss_head == "sampled"
        assert set(result.mode_ms) == {"masked", "compact", "pooled"}
        assert all(ms > 0 for ms in result.mode_ms.values())
        assert 0.0 < result.keep_fraction <= 1.0
        assert result.to_dict()["loss_head"] == "sampled"

    def test_head_in_family_registry_defaults_and_cli(self):
        assert "head" in BenchmarkConfig.FAMILIES
        assert "head" in BenchmarkConfig().families  # default sweep
        args = parse_args([])
        assert "head" in args.families  # --quick inherits the default list
        args = parse_args(["--families", "head"])
        assert args.families == ["head"]

    def test_loss_head_toggle_validation(self):
        with pytest.raises(ValueError, match="loss head"):
            BenchmarkConfig(loss_head="hierarchical")
        assert BenchmarkConfig().loss_head == "sampled"

    def test_cli_unknown_family_fails_fast_with_names(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_main(["--families", "row", "bogus"])
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
        err = capsys.readouterr().err
        assert "unknown benchmark families: bogus" in err
        for family in BenchmarkConfig.FAMILIES:
            assert family in err

    def test_config_unknown_family_error_names_valid_families(self):
        with pytest.raises(ValueError, match="valid families"):
            BenchmarkConfig(families=("bogus",))

    def test_e2e_config_records_loss_head(self, tmp_path):
        config = tiny_config(widths=(32,), batch=8, families=("e2e",),
                             loss_head="sampled",
                             output=str(tmp_path / "bench.json"))
        results = run_benchmark(config)
        path = write_report(results, config)
        with open(path) as handle:
            report = json.load(handle)
        assert report["config"]["loss_head"] == "sampled"
        lstm_entry = next(e for e in report["results"]
                          if e["family"] == "e2e_lstm")
        assert lstm_entry["loss_head"] == "sampled"

    def test_cli_loss_head_flag(self, tmp_path):
        output = str(tmp_path / "bench.json")
        assert bench_main(["--quick", "--families", "head",
                           "--loss-head", "dense", "--output", output]) == 0
        with open(output) as handle:
            report = json.load(handle)
        assert report["config"]["loss_head"] == "dense"


class TestHeadVocabFamily:
    """The large-vocabulary adaptive-head benchmark family (ISSUE 10)."""

    def test_case_produced_with_vocab_and_loss_head(self):
        config = tiny_config(families=("head_vocab",), head_vocab=(64,),
                             in_features=12)
        (result,) = run_benchmark(config)
        assert result.family == "head_vocab"
        assert result.width == 64
        assert result.vocab == 64
        assert result.loss_head == "adaptive"
        assert set(result.mode_ms) == {"masked", "compact", "pooled"}
        assert all(ms > 0 for ms in result.mode_ms.values())
        assert 0.0 < result.keep_fraction <= 1.5  # pilots can double-count
        data = result.to_dict()
        assert data["vocab"] == 64
        assert data["loss_head"] == "adaptive"

    def test_head_family_sprouts_the_vocab_axis(self):
        from repro.bench.harness import case_descriptors

        config = tiny_config(families=("head",), head_vocab=(64, 128),
                             rates=(0.5, 0.7))
        cases = case_descriptors(config)
        assert ("head_vocab", 64, 0.7) in cases
        assert ("head_vocab", 128, 0.7) in cases
        # Sprouted at the top rate only — one case per vocabulary.
        assert sum(kind == "head_vocab" for kind, _, _ in cases) == 2

    def test_direct_family_selection_does_not_double_add(self):
        from repro.bench.harness import case_descriptors

        config = tiny_config(families=("head", "head_vocab"), head_vocab=(64,))
        cases = case_descriptors(config)
        assert sum(kind == "head_vocab" for kind, _, _ in cases) == 1

    def test_empty_head_vocab_disables_the_axis(self):
        from repro.bench.harness import case_descriptors

        config = tiny_config(families=("head",), head_vocab=())
        assert all(kind != "head_vocab"
                   for kind, _, _ in case_descriptors(config))

    def test_vocab_validation(self):
        with pytest.raises(ValueError, match="head_vocab"):
            BenchmarkConfig(head_vocab=(1,))

    def test_in_family_registry_and_cli(self):
        assert "head_vocab" in BenchmarkConfig.FAMILIES
        args = parse_args([])
        assert args.head_vocab == [8192, 50000]
        args = parse_args(["--head-vocab", "4096"])
        assert args.head_vocab == [4096]

    def test_report_round_trips_vocab_and_config(self, tmp_path):
        config = tiny_config(families=("head_vocab",), head_vocab=(64,),
                             in_features=12,
                             output=str(tmp_path / "bench.json"))
        results = run_benchmark(config)
        path = write_report(results, config)
        with open(path) as handle:
            report = json.load(handle)
        assert report["config"]["head_vocab"] == [64]
        (entry,) = report["results"]
        assert entry["vocab"] == 64

    def test_gate_covers_the_adaptive_case(self):
        from repro.bench.delta import (ACCEPTANCE_CASES, ADAPTIVE_CASES,
                                       quick_acceptance_config)
        from repro.bench.harness import case_descriptors

        assert ("head_vocab", 50000, 0.7) in ADAPTIVE_CASES
        assert ("head_vocab", 50000, 0.7) in ACCEPTANCE_CASES
        config = quick_acceptance_config()
        # The quick gate sweep must actually produce that case (sprouted by
        # the head family at the top rate).
        assert ("head_vocab", 50000, 0.7) in case_descriptors(config)


class TestAdaptiveGate:
    """The absolute large-vocab adaptive-head bar of the delta gate."""

    @staticmethod
    def entry(speedup=1.7, **overrides):
        record = {"family": "head_vocab", "width": 50000, "rate": 0.7,
                  "speedup_pooled": speedup}
        record.update(overrides)
        return record

    def test_passes_when_bar_met(self):
        from repro.bench.delta import adaptive_failures

        assert adaptive_failures([self.entry(speedup=1.7)]) == []

    def test_fails_below_bar(self):
        from repro.bench.delta import adaptive_failures

        failures = adaptive_failures([self.entry(speedup=1.1)])
        assert len(failures) == 1
        assert "1.3x bar" in failures[0]
        assert "vocab=50000" in failures[0]

    def test_missing_case_fails(self):
        from repro.bench.delta import adaptive_failures

        failures = adaptive_failures([])
        assert len(failures) == 1
        assert "missing from the fresh run" in failures[0]

    def test_min_speedup_validation(self):
        from repro.bench.delta import adaptive_failures

        with pytest.raises(ValueError, match="min_speedup"):
            adaptive_failures([self.entry()], min_speedup=0.0)

    def test_cli_flag_raises_the_bar(self, tmp_path, capsys):
        from repro.bench.delta import main as delta_main

        def base(family, width=2048):
            return {"family": family, "width": width, "rate": 0.7,
                    "speedup_pooled": 4.0}

        results = [base("row"), base("tile"), base("head"),
                   self.entry(speedup=1.7), base("e2e_lstm", width=256)]
        baseline_path = tmp_path / "baseline.json"
        fresh_path = tmp_path / "fresh.json"
        baseline_path.write_text(json.dumps({"results": results}))
        fresh_path.write_text(json.dumps({"results": results}))
        common = ["--baseline", str(baseline_path), "--fresh", str(fresh_path)]
        # 1.7x meets the default 1.3x bar but not a 2.0x one.  (The missing
        # dist/elastic/serve cases fail either way, so compare the output.)
        delta_main(common)
        default_out = capsys.readouterr().out
        assert "adaptive loss head beats the dense head" not in default_out
        delta_main(common + ["--min-adaptive-speedup", "2.0"])
        raised_out = capsys.readouterr().out
        assert "only 1.70x" in raised_out and "2.0x bar" in raised_out


class TestOptimizerToggle:
    """The sparse-optimizer toggle of the e2e families and its CLI plumbing."""

    def test_optimizer_validation_and_default(self):
        with pytest.raises(ValueError, match="optimizer"):
            BenchmarkConfig(optimizer="adam")
        assert BenchmarkConfig().optimizer == "sparse"

    def test_e2e_config_records_optimizer(self, tmp_path):
        config = tiny_config(widths=(32,), batch=8, families=("e2e",),
                             optimizer="sparse",
                             output=str(tmp_path / "bench.json"))
        results = run_benchmark(config)
        path = write_report(results, config)
        with open(path) as handle:
            report = json.load(handle)
        assert report["config"]["optimizer"] == "sparse"
        for family in ("e2e_mlp", "e2e_lstm"):
            entry = next(e for e in report["results"] if e["family"] == family)
            assert entry["optimizer"] == "sparse"

    def test_cli_optimizer_flag(self, tmp_path):
        output = str(tmp_path / "bench.json")
        assert bench_main(["--quick", "--families", "e2e",
                           "--optimizer", "dense", "--output", output]) == 0
        with open(output) as handle:
            report = json.load(handle)
        assert report["config"]["optimizer"] == "dense"

    def test_gate_covers_the_e2e_lstm_case(self):
        from repro.bench.delta import ACCEPTANCE_CASES, quick_acceptance_config

        assert ("e2e_lstm", 256, 0.7) in ACCEPTANCE_CASES
        config = quick_acceptance_config()
        # The quick gate sweep must actually produce that case: the e2e LSTM
        # hidden size derives as min(max(widths) // 2, 256).
        assert "e2e" in config.families
        assert min(max(config.widths) // 2, 256) == 256
        assert 0.7 in config.rates
        assert config.optimizer == "sparse"


class TestSharding:
    def test_shards_validation(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(shards=0)

    def test_case_descriptors_cover_grid_and_e2e(self):
        from repro.bench.harness import case_descriptors

        config = tiny_config(widths=(32, 48), rates=(0.5,),
                             families=("row", "tile", "e2e"))
        cases = case_descriptors(config)
        assert ("row", 32, 0.5) in cases and ("tile", 48, 0.5) in cases
        assert ("e2e_mlp", None, None) in cases
        assert ("e2e_lstm", None, None) in cases
        assert len(cases) == 6

    def test_sharded_run_matches_case_order(self):
        # Two worker processes (one BLAS domain each); results must come
        # back in descriptor order regardless of completion order.
        config = tiny_config(shards=2)
        results = run_benchmark(config)
        assert [r.family for r in results] == ["row", "tile"]
        for result in results:
            assert set(result.mode_ms) == {"masked", "compact", "pooled"}
            assert all(ms > 0 for ms in result.mode_ms.values())


class TestReport:
    def test_report_written_and_parseable(self, tmp_path):
        config = tiny_config(output=str(tmp_path / "BENCH_compact_engine.json"))
        results = run_benchmark(config)
        path = write_report(results, config)
        with open(path) as handle:
            report = json.load(handle)
        assert report["benchmark"] == "compact_engine"
        assert report["config"]["widths"] == [48]
        assert len(report["results"]) == len(results)
        for entry in report["results"]:
            assert {"family", "width", "rate", "mode_ms",
                    "speedup_pooled", "speedup_compact"} <= set(entry)
            assert set(entry["mode_ms"]) == {"masked", "compact", "pooled"}


class TestCLI:
    def test_parse_args_defaults(self):
        args = parse_args([])
        assert args.widths == [512, 1024, 2048]
        assert args.rates == [0.5, 0.7]
        assert args.output == "BENCH_compact_engine.json"

    def test_quick_end_to_end(self, tmp_path, capsys):
        output = str(tmp_path / "bench.json")
        exit_code = bench_main(["--quick", "--output", output,
                                "--families", "row"])
        assert exit_code == 0
        with open(output) as handle:
            report = json.load(handle)
        assert report["results"]
        printed = capsys.readouterr().out
        assert "speedup" in printed

    def test_delta_module_runs_without_runpy_warning(self):
        # Importing the package must not import the gate module: runpy
        # warns when ``python -m repro.bench.delta`` finds it already loaded.
        src = pathlib.Path(repro.bench.__file__).resolve().parents[2]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.bench.delta",
             "--help"], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


class TestE2EFamily:
    """Whole-trainer-step benchmark cases built through ExecutionConfig."""

    def test_e2e_family_produces_mlp_and_lstm_cases(self):
        config = tiny_config(widths=(32,), batch=8, families=("e2e",))
        results = run_benchmark(config)
        assert [r.family for r in results] == ["e2e_mlp", "e2e_lstm"]
        for result in results:
            assert set(result.mode_ms) == {"masked", "compact", "pooled"}
            assert all(ms > 0 for ms in result.mode_ms.values())
            assert result.speedup_pooled > 0

    def test_e2e_float32_dtype(self):
        config = tiny_config(widths=(32,), batch=8, families=("e2e",),
                             e2e_dtype="float32")
        results = run_benchmark(config)
        assert len(results) == 2

    def test_e2e_in_default_families_and_cli(self):
        assert "e2e" in BenchmarkConfig().families
        args = parse_args([])
        assert "e2e" in args.families


class TestDeltaCheck:
    """The CI regression gate comparing fresh vs committed speedups."""

    @staticmethod
    def entry(family="row", width=2048, rate=0.7, speedup=4.0):
        return {"family": family, "width": width, "rate": rate,
                "speedup_pooled": speedup}

    def test_no_regression_passes(self):
        from repro.bench import compare_reports

        fresh = [self.entry(speedup=3.9), self.entry("tile", speedup=3.5),
                 self.entry("head", speedup=1.9),
                 self.entry("head_vocab", width=50000, speedup=1.6),
                 self.entry("e2e_lstm", width=256, speedup=2.2)]
        baseline = [self.entry(speedup=4.0), self.entry("tile", speedup=3.6),
                    self.entry("head", speedup=2.0),
                    self.entry("head_vocab", width=50000, speedup=1.7),
                    self.entry("e2e_lstm", width=256, speedup=2.3)]
        assert compare_reports(fresh, baseline) == []

    def test_large_regression_fails(self):
        from repro.bench import compare_reports

        fresh = [self.entry(speedup=2.0), self.entry("tile", speedup=3.6),
                 self.entry("head", speedup=2.0),
                 self.entry("head_vocab", width=50000, speedup=1.7),
                 self.entry("e2e_lstm", width=256, speedup=2.3)]
        baseline = [self.entry(speedup=4.0), self.entry("tile", speedup=3.6),
                    self.entry("head", speedup=2.0),
                    self.entry("head_vocab", width=50000, speedup=1.7),
                    self.entry("e2e_lstm", width=256, speedup=2.3)]
        failures = compare_reports(fresh, baseline)
        assert len(failures) == 1
        assert "row" in failures[0] and "regressed" in failures[0]

    def test_small_regression_within_threshold_passes(self):
        from repro.bench import compare_reports

        fresh = [self.entry(speedup=3.0), self.entry("tile", speedup=3.0),
                 self.entry("head", speedup=3.0),
                 self.entry("head_vocab", width=50000, speedup=3.0),
                 self.entry("e2e_lstm", width=256, speedup=3.0)]
        baseline = [self.entry(speedup=4.0), self.entry("tile", speedup=4.0),
                    self.entry("head", speedup=4.0),
                    self.entry("head_vocab", width=50000, speedup=4.0),
                    self.entry("e2e_lstm", width=256, speedup=4.0)]
        assert compare_reports(fresh, baseline) == []  # 25% < 30%
        assert compare_reports(fresh, baseline, threshold=0.2)

    def test_missing_cases_fail(self):
        from repro.bench import compare_reports

        baseline = [self.entry(speedup=4.0), self.entry("tile", speedup=3.6),
                    self.entry("head", speedup=2.0)]
        failures = compare_reports([self.entry(speedup=4.0)], baseline)
        assert any("missing from the fresh run" in f for f in failures)
        failures = compare_reports(baseline, [self.entry(speedup=4.0)])
        assert any("missing from the committed baseline" in f for f in failures)

    def test_threshold_validation(self):
        from repro.bench import compare_reports

        with pytest.raises(ValueError):
            compare_reports([], [], threshold=1.5)

    def test_cli_compare_two_reports(self, tmp_path, capsys):
        from repro.bench.delta import main as delta_main

        baseline = {"results": [self.entry(speedup=4.0),
                                self.entry("tile", speedup=3.6),
                                self.entry("head", speedup=2.0),
                                self.entry("head_vocab", width=50000,
                                           speedup=1.7),
                                self.entry("e2e_lstm", width=256, speedup=2.3)]}
        # The fresh run also carries the e2e_dist scaling case and the
        # e2e_elastic recovery case: the CLI gate additionally enforces the
        # absolute scaling bar and the recovery budget on fresh entries.
        fresh = {"results": [self.entry(speedup=3.8),
                             self.entry("tile", speedup=3.5),
                             self.entry("head", speedup=1.9),
                             self.entry("head_vocab", width=50000,
                                        speedup=1.6),
                             self.entry("e2e_lstm", width=256, speedup=2.2),
                             dict(self.entry("e2e_dist", width=512,
                                             speedup=1.8),
                                  shards=2, cpu_count=4),
                             dict(self.entry("e2e_elastic", width=512,
                                             speedup=40.0),
                                  shards=2, cpu_count=4,
                                  mode_ms={"step": 50.0, "recover": 2000.0}),
                             serve_entry("serve_mlp", 2048),
                             serve_entry("serve_lstm", 256)]}
        baseline_path = tmp_path / "baseline.json"
        fresh_path = tmp_path / "fresh.json"
        baseline_path.write_text(json.dumps(baseline))
        fresh_path.write_text(json.dumps(fresh))
        assert delta_main(["--baseline", str(baseline_path),
                           "--fresh", str(fresh_path)]) == 0
        fresh["results"][0]["speedup_pooled"] = 1.0
        fresh_path.write_text(json.dumps(fresh))
        assert delta_main(["--baseline", str(baseline_path),
                           "--fresh", str(fresh_path)]) == 1
        assert "BENCHMARK REGRESSION" in capsys.readouterr().out


class TestDeltaReportMismatches:
    """Satellite: clear, tested errors when the fresh and committed reports
    disagree on the case set (instead of a raw KeyError)."""

    entry = staticmethod(TestDeltaCheck.entry)

    def test_malformed_entry_raises_clear_error(self):
        from repro.bench import compare_reports

        good = [self.entry(), self.entry("tile")]
        bad = [{"family": "row", "width": 2048}]  # no rate / speedup_pooled
        with pytest.raises(ValueError, match="missing required fields"):
            compare_reports(bad, good)
        with pytest.raises(ValueError, match="baseline report entry"):
            compare_reports(good, bad)

    def test_case_set_disagreement_lists_every_missing_case(self):
        from repro.bench import compare_reports

        failures = compare_reports([], [self.entry(), self.entry("tile"),
                                        self.entry("head"),
                                        self.entry("head_vocab", width=50000),
                                        self.entry("e2e_lstm", width=256)])
        assert len(failures) == 5
        assert all("missing from the fresh run" in f for f in failures)

    def test_load_report_rejects_non_report_json(self, tmp_path):
        from repro.bench import load_report

        path = tmp_path / "not_a_report.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="not a benchmark report"):
            load_report(str(path))

    def test_cli_write_fresh_incompatible_with_fresh(self, tmp_path, capsys):
        from repro.bench.delta import main as delta_main

        fresh_path = tmp_path / "fresh.json"
        fresh_path.write_text(json.dumps({"results": []}))
        with pytest.raises(SystemExit) as excinfo:
            delta_main(["--fresh", str(fresh_path),
                        "--write-fresh", str(tmp_path / "out.json")])
        assert excinfo.value.code == 2
        assert "--write-fresh" in capsys.readouterr().err


class TestDistFamily:
    """The e2e_dist data-parallel scaling case and its report fields."""

    def test_in_family_registry_defaults_and_cli(self):
        assert "e2e_dist" in BenchmarkConfig.FAMILIES
        assert "e2e_dist" in BenchmarkConfig().families
        args = parse_args([])
        assert "e2e_dist" in args.families
        assert args.dist_shards == 2

    def test_dist_shards_validation(self):
        with pytest.raises(ValueError, match="dist_shards"):
            BenchmarkConfig(dist_shards=1)

    def test_case_descriptor(self):
        from repro.bench.harness import case_descriptors

        cases = case_descriptors(tiny_config(families=("e2e_dist",)))
        assert cases == [("e2e_dist", None, None)]

    def test_speedup_pooled_falls_back_to_scaling_ratio(self):
        from repro.bench.harness import BenchmarkResult

        result = BenchmarkResult(family="e2e_dist", width=512, in_features=784,
                                 batch=16, rate=0.7, steps=2, repeats=1,
                                 shards=2, cpu_count=4,
                                 mode_ms={"single": 4.0, "sharded": 2.0})
        assert result.speedup_pooled == 2.0
        assert result.speedup_compact is None
        entry = result.to_dict()
        assert entry["speedup_compact"] is None
        assert entry["speedup_pooled"] == 2.0
        assert entry["shards"] == 2 and entry["cpu_count"] == 4

    def test_case_runs_and_records_environment(self):
        # Spawns a real two-worker cluster (a couple of seconds).
        import os

        config = tiny_config(widths=(32,), batch=8, families=("e2e_dist",))
        (result,) = run_benchmark(config)
        assert set(result.mode_ms) == {"single", "sharded"}
        assert all(ms > 0 for ms in result.mode_ms.values())
        assert result.shards == 2
        assert result.cpu_count == os.cpu_count()
        assert result.speedup_pooled > 0

    def test_gate_covers_the_scaling_case(self):
        from repro.bench.delta import SCALING_CASES, quick_acceptance_config

        assert ("e2e_dist", 512, 0.7) in SCALING_CASES
        config = quick_acceptance_config()
        # The quick gate sweep must produce that exact case: the e2e_dist
        # hidden size derives as min(max(widths), 512).
        assert "e2e_dist" in config.families
        assert min(max(config.widths), 512) == 512
        assert 0.7 in config.rates


class TestScalingGate:
    """The absolute data-parallel scaling bar of the delta gate."""

    @staticmethod
    def entry(speedup=1.8, shards=2, cpu_count=4, **overrides):
        record = {"family": "e2e_dist", "width": 512, "rate": 0.7,
                  "speedup_pooled": speedup, "shards": shards,
                  "cpu_count": cpu_count}
        record.update(overrides)
        return record

    def test_passes_when_bar_met(self):
        from repro.bench.delta import scaling_failures

        failures, skips = scaling_failures([self.entry(speedup=1.8)])
        assert failures == [] and skips == []

    def test_fails_below_bar_with_enough_cores(self):
        from repro.bench.delta import scaling_failures

        failures, skips = scaling_failures([self.entry(speedup=1.1)])
        assert skips == []
        assert len(failures) == 1
        assert "below the 1.5x bar" in failures[0]

    def test_skips_when_machine_cannot_scale(self):
        from repro.bench.delta import scaling_failures

        # 2 workers + 1 coordinator on 1 core: sub-1x is physics, not a bug.
        failures, skips = scaling_failures([self.entry(speedup=0.4,
                                                       cpu_count=1)])
        assert failures == []
        assert len(skips) == 1
        assert "not enforced" in skips[0] and "1 CPU core" in skips[0]

    def test_missing_case_fails(self):
        from repro.bench.delta import scaling_failures

        failures, _ = scaling_failures([])
        assert len(failures) == 1
        assert "missing from the fresh run" in failures[0]

    def test_entry_without_environment_fields_fails(self):
        from repro.bench.delta import scaling_failures

        entry = {"family": "e2e_dist", "width": 512, "rate": 0.7,
                 "speedup_pooled": 2.0}
        failures, _ = scaling_failures([entry])
        assert len(failures) == 1
        assert "shards/cpu_count" in failures[0]

    def test_min_scaling_validation(self):
        from repro.bench.delta import scaling_failures

        with pytest.raises(ValueError, match="min_scaling"):
            scaling_failures([self.entry()], min_scaling=0.0)

    def test_cli_skip_path_on_small_machine(self, tmp_path, capsys):
        from repro.bench.delta import main as delta_main

        def base(family, width=2048):
            return {"family": family, "width": width, "rate": 0.7,
                    "speedup_pooled": 4.0}

        baseline = {"results": [base("row"), base("tile"), base("head"),
                                base("head_vocab", width=50000),
                                base("e2e_lstm", width=256)]}
        fresh = {"results": [base("row"), base("tile"), base("head"),
                             base("head_vocab", width=50000),
                             base("e2e_lstm", width=256),
                             self.entry(speedup=0.4, cpu_count=1),
                             dict(base("e2e_elastic", width=512),
                                  shards=2, cpu_count=1,
                                  mode_ms={"step": 50.0,
                                           "recover": 90000.0}),
                             # pooled loses both serving metrics, but on a
                             # 1-core box that is the machine, not the engine.
                             serve_entry("serve_mlp", 2048, cpu_gated=True,
                                         p99_pooled=99.0, rps_pooled=100.0),
                             serve_entry("serve_lstm", 256, cpu_gated=True,
                                         p99_pooled=99.0, rps_pooled=100.0)]}
        baseline_path = tmp_path / "baseline.json"
        fresh_path = tmp_path / "fresh.json"
        baseline_path.write_text(json.dumps(baseline))
        fresh_path.write_text(json.dumps(fresh))
        assert delta_main(["--baseline", str(baseline_path),
                           "--fresh", str(fresh_path)]) == 0
        out = capsys.readouterr().out
        assert "scaling gate skipped" in out
        # The over-budget recovery cycle is also excused on the 1-core box.
        assert "elastic gate skipped" in out
        assert "serving gate skipped" in out


class TestElasticFamily:
    """The e2e_elastic distributed step + worker-recovery benchmark case."""

    def test_in_family_registry_defaults_and_cli(self):
        assert "e2e_elastic" in BenchmarkConfig.FAMILIES
        assert "e2e_elastic" in BenchmarkConfig().families
        args = parse_args([])
        assert "e2e_elastic" in args.families

    def test_case_descriptor(self):
        from repro.bench.harness import case_descriptors

        cases = case_descriptors(tiny_config(families=("e2e_elastic",)))
        assert cases == [("e2e_elastic", None, None)]

    def test_speedup_pooled_is_recovery_cost_in_steps(self):
        from repro.bench.harness import BenchmarkResult

        result = BenchmarkResult(family="e2e_elastic", width=512,
                                 in_features=784, batch=16, rate=0.7, steps=2,
                                 repeats=1, shards=2, cpu_count=4,
                                 mode_ms={"step": 50.0, "recover": 2000.0})
        assert result.speedup_pooled == 40.0
        assert result.speedup_compact is None
        entry = result.to_dict()
        assert entry["mode_ms"] == {"step": 50.0, "recover": 2000.0}
        assert entry["speedup_pooled"] == 40.0

    def test_case_runs_and_records_environment(self):
        # Spawns a real two-worker cluster and runs two full recovery
        # cycles (respawn included), so this takes tens of seconds.
        import os

        config = tiny_config(widths=(32,), batch=8,
                             families=("e2e_elastic",))
        (result,) = run_benchmark(config)
        assert set(result.mode_ms) == {"step", "recover"}
        assert all(ms > 0 for ms in result.mode_ms.values())
        assert result.shards == 2
        assert result.cpu_count == os.cpu_count()

    def test_gate_covers_the_elastic_case(self):
        from repro.bench.delta import ELASTIC_CASES, quick_acceptance_config

        assert ("e2e_elastic", 512, 0.7) in ELASTIC_CASES
        config = quick_acceptance_config()
        # The quick gate sweep must produce that exact case: the e2e_elastic
        # hidden size derives as min(max(widths), 512).
        assert "e2e_elastic" in config.families
        assert min(max(config.widths), 512) == 512
        assert 0.7 in config.rates


class TestElasticGate:
    """The absolute recovery-time budget of the delta gate."""

    @staticmethod
    def entry(recover_ms=2000.0, shards=2, cpu_count=4, **overrides):
        record = {"family": "e2e_elastic", "width": 512, "rate": 0.7,
                  "speedup_pooled": recover_ms / 50.0, "shards": shards,
                  "cpu_count": cpu_count,
                  "mode_ms": {"step": 50.0, "recover": recover_ms}}
        record.update(overrides)
        return record

    def test_passes_within_budget(self):
        from repro.bench.delta import elastic_failures

        failures, skips = elastic_failures([self.entry()])
        assert failures == [] and skips == []

    def test_fails_over_budget_with_enough_cores(self):
        from repro.bench.delta import elastic_failures

        failures, skips = elastic_failures([self.entry(recover_ms=45000.0)])
        assert skips == []
        assert len(failures) == 1
        assert "over the 30s budget" in failures[0]

    def test_skips_on_cpu_starved_machine(self):
        from repro.bench.delta import elastic_failures

        # 2 respawning workers + coordinator on 1 core: slow is physics.
        failures, skips = elastic_failures([self.entry(recover_ms=45000.0,
                                                       cpu_count=1)])
        assert failures == []
        assert len(skips) == 1
        assert "not enforced" in skips[0] and "1 CPU core" in skips[0]

    def test_missing_case_fails(self):
        from repro.bench.delta import elastic_failures

        failures, _ = elastic_failures([])
        assert len(failures) == 1
        assert "missing from the fresh run" in failures[0]

    def test_entry_without_timings_fails(self):
        from repro.bench.delta import elastic_failures

        entry = {"family": "e2e_elastic", "width": 512, "rate": 0.7,
                 "speedup_pooled": 40.0, "shards": 2, "cpu_count": 4}
        failures, _ = elastic_failures([entry])
        assert len(failures) == 1
        assert "recover/step timings" in failures[0]

    def test_entry_without_environment_fields_fails(self):
        from repro.bench.delta import elastic_failures

        entry = self.entry()
        del entry["shards"], entry["cpu_count"]
        failures, _ = elastic_failures([entry])
        assert len(failures) == 1
        assert "shards/cpu_count" in failures[0]

    def test_budget_validation(self):
        from repro.bench.delta import elastic_failures

        with pytest.raises(ValueError, match="max_recovery_s"):
            elastic_failures([self.entry()], max_recovery_s=0.0)

class TestServeFamily:
    """The serve inference case: per-request baseline vs micro-batched engine."""

    def test_in_family_registry_defaults_and_cli(self):
        assert "serve" in BenchmarkConfig.FAMILIES
        assert "serve" in BenchmarkConfig().families
        args = parse_args([])
        assert "serve" in args.families
        assert args.serve_requests == 10000
        assert args.serve_concurrency == 8

    def test_serve_knob_validation(self):
        with pytest.raises(ValueError, match="serve_requests"):
            BenchmarkConfig(serve_requests=0)
        with pytest.raises(ValueError, match="serve_concurrency"):
            BenchmarkConfig(serve_concurrency=0)

    def test_case_descriptors(self):
        from repro.bench.harness import case_descriptors

        cases = case_descriptors(tiny_config(families=("serve",)))
        assert cases == [("serve_mlp", None, None), ("serve_lstm", None, None)]

    def test_cases_run_and_record_load_reports(self):
        import os

        config = tiny_config(families=("serve",), serve_requests=30,
                             serve_concurrency=2)
        mlp, lstm = run_benchmark(config)
        assert mlp.family == "serve_mlp" and lstm.family == "serve_lstm"
        for result in (mlp, lstm):
            assert set(result.mode_ms) == {"masked", "pooled"}
            assert all(ms > 0 for ms in result.mode_ms.values())
            assert result.cpu_count == os.cpu_count()
            assert isinstance(result.cpu_gated, bool)
            serving = result.serving
            assert serving["concurrency"] == 2
            assert serving["max_batch"] == 2
            for mode in ("masked", "pooled"):
                report = serving[mode]
                assert report["p99_ms"] >= report["p50_ms"] >= 0
                assert report["throughput_rps"] > 0
            # Every request went through the batcher exactly once.
            assert serving["mean_occupancy"] > 0
        assert mlp.serving["masked"]["requests"] == 30
        assert lstm.serving["masked"]["requests"] == 200  # floor of the tenth

    def test_report_round_trips_serving_fields(self, tmp_path):
        config = tiny_config(families=("serve",), serve_requests=20,
                             serve_concurrency=2,
                             output=str(tmp_path / "serve.json"))
        results = run_benchmark(config)
        path = write_report(results, config)
        report = json.loads(open(path).read())
        assert report["config"]["serve_requests"] == 20
        assert report["config"]["serve_concurrency"] == 2
        for entry in report["results"]:
            assert "cpu_gated" in entry
            assert set(entry["serving"]) >= {"masked", "pooled",
                                             "concurrency", "max_batch"}

    def test_gate_covers_the_serve_cases(self):
        from repro.bench.delta import SERVE_CASES, quick_acceptance_config

        assert ("serve_mlp", 2048, 0.7) in SERVE_CASES
        assert ("serve_lstm", 256, 0.7) in SERVE_CASES
        config = quick_acceptance_config()
        assert "serve" in config.families
        # The quick gate sweep must produce those exact cases: the serve
        # hidden sizes derive as min(max(widths), 2048) and
        # min(max(widths) // 2, 256).
        assert min(max(config.widths), 2048) == 2048
        assert min(max(config.widths) // 2, 256) == 256


class TestServingGate:
    """The absolute serving dominance bar of the delta gate."""

    def test_passes_when_pooled_dominates(self):
        from repro.bench.delta import serving_failures

        failures, skips = serving_failures(
            [serve_entry("serve_mlp", 2048), serve_entry("serve_lstm", 256)])
        assert failures == [] and skips == []

    def test_fails_when_pooled_loses_p99(self):
        from repro.bench.delta import serving_failures

        failures, skips = serving_failures(
            [serve_entry("serve_mlp", 2048, p99_pooled=99.0),
             serve_entry("serve_lstm", 256)])
        assert skips == []
        assert len(failures) == 1
        assert "p99 latency" in failures[0]
        assert "serve_mlp" in failures[0]

    def test_fails_when_pooled_loses_throughput(self):
        from repro.bench.delta import serving_failures

        failures, _ = serving_failures(
            [serve_entry("serve_mlp", 2048, rps_pooled=100.0),
             serve_entry("serve_lstm", 256)])
        assert len(failures) == 1
        assert "throughput" in failures[0]

    def test_skips_on_cpu_gated_entry(self):
        from repro.bench.delta import serving_failures

        # Losing both metrics on a 1-core box is the machine, not the engine.
        failures, skips = serving_failures(
            [serve_entry("serve_mlp", 2048, cpu_gated=True, p99_pooled=99.0,
                         rps_pooled=100.0),
             serve_entry("serve_lstm", 256)])
        assert failures == []
        assert len(skips) == 1
        assert "not enforced" in skips[0]

    def test_missing_case_fails(self):
        from repro.bench.delta import serving_failures

        failures, _ = serving_failures([serve_entry("serve_mlp", 2048)])
        assert len(failures) == 1
        assert "serve_lstm" in failures[0]
        assert "missing from the fresh run" in failures[0]

    def test_entry_without_load_reports_fails(self):
        from repro.bench.delta import serving_failures

        entry = serve_entry("serve_mlp", 2048)
        entry["serving"] = None
        failures, _ = serving_failures(
            [entry, serve_entry("serve_lstm", 256)])
        assert len(failures) == 1
        assert "load" in failures[0]


class TestCpuGatedStamp:
    """The cpu_gated stamp written by the harness and read by the gates."""

    def test_dist_entry_stamped_by_core_count(self):
        from repro.bench.harness import BenchmarkResult

        result = BenchmarkResult(family="e2e_dist", width=512, in_features=784,
                                 batch=16, rate=0.7, steps=2, repeats=1,
                                 shards=2, cpu_count=1, cpu_gated=True,
                                 mode_ms={"single": 4.0, "sharded": 8.0})
        assert result.to_dict()["cpu_gated"] is True

    def test_gates_prefer_the_stamp_over_recomputation(self):
        from repro.bench.delta import _entry_cpu_gated

        # Stamp wins in both directions...
        assert _entry_cpu_gated({"cpu_gated": True, "shards": 2,
                                 "cpu_count": 16}) is True
        assert _entry_cpu_gated({"cpu_gated": False, "shards": 2,
                                 "cpu_count": 1}) is False
        # ...and pre-stamp reports fall back to cpu_count < shards + 1.
        assert _entry_cpu_gated({"shards": 2, "cpu_count": 1}) is True
        assert _entry_cpu_gated({"shards": 2, "cpu_count": 4}) is False
        assert _entry_cpu_gated({}) is False

    def test_committed_report_stamps_the_starved_dist_entry(self):
        import pathlib

        report = json.loads(
            pathlib.Path("BENCH_compact_engine.json").read_text())
        by_family = {}
        for entry in report["results"]:
            by_family.setdefault(entry["family"], entry)
        dist = by_family["e2e_dist"]
        # The committed 0.498x was measured on a 1-core box: the stamp keeps
        # the scaling gate (and readers) from reading it as a regression.
        if int(dist["cpu_count"]) < int(dist["shards"]) + 1:
            assert dist.get("cpu_gated") is True
        assert "serve_mlp" in by_family and "serve_lstm" in by_family
