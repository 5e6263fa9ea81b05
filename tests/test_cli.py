"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_args(self):
        args = build_parser().parse_args(["profile", "gpt2", "--scheme",
                                          "sibia", "--no-dbs"])
        assert args.model == "gpt2"
        assert args.scheme == "sibia"
        assert args.no_dbs and not args.no_zpm

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_serve_batching_knobs(self):
        args = build_parser().parse_args(
            ["serve", "bert_base", "--max-batch", "8",
             "--max-delay-ms", "5"])
        assert args.max_batch == 8
        assert args.max_delay_ms == 5.0

    def test_serve_concurrency_knobs(self):
        args = build_parser().parse_args(
            ["serve", "bert_base", "--workers", "4", "--cache-kib", "256",
             "--repeats", "2"])
        assert args.workers == 4
        assert args.cache_kib == 256
        assert args.repeats == 2

    def test_serve_concurrency_defaults_off(self):
        args = build_parser().parse_args(["serve", "bert_base"])
        assert args.workers == 0
        assert args.cache_kib == 0
        assert args.repeats == 1

    def test_plan_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])

    def test_plan_export_args(self):
        args = build_parser().parse_args(
            ["plan", "export", "gpt2", "--out", "x.npz", "--scheme",
             "sibia"])
        assert args.plan_command == "export"
        assert args.model == "gpt2" and args.out == "x.npz"
        assert args.scheme == "sibia"

    def test_plan_load_args(self):
        args = build_parser().parse_args(
            ["plan", "load", "x.npz", "--requests", "3"])
        assert args.plan_command == "load"
        assert args.path == "x.npz" and args.requests == 3
        assert args.mmap is False
        assert build_parser().parse_args(
            ["plan", "load", "x.npz", "--mmap"]).mmap is True

    def test_profile_measure_flag(self):
        args = build_parser().parse_args(
            ["profile", "bert_base", "--measure", "--repeats", "2"])
        assert args.measure and args.repeats == 2

    def test_all_figures_mapped(self):
        assert {"table1", "fig13", "fig16", "fig19"} <= set(EXPERIMENTS)


class TestCommands:
    def test_engines(self):
        out = io.StringIO()
        assert main(["engines"], out=out) == 0
        text = out.getvalue()
        for name in ("fp32", "int8_dense", "sibia", "aqs"):
            assert name in text

    def test_list_models(self):
        out = io.StringIO()
        assert main(["list-models"], out=out) == 0
        text = out.getvalue()
        assert "opt_2p7b" in text and "resnet18" in text

    def test_profile_runs(self):
        out = io.StringIO()
        assert main(["profile", "bert_base", "--stride", "12"], out=out) == 0
        assert "mean rho_x" in out.getvalue()

    def test_profile_dense_scheme(self):
        out = io.StringIO()
        assert main(["profile", "resnet18", "--scheme", "dense"],
                    out=out) == 0

    def test_simulate_runs(self):
        out = io.StringIO()
        assert main(["simulate", "bert_base", "--stride", "12"], out=out) == 0
        text = out.getvalue()
        assert "panacea" in text and "TOPS/W" in text

    def test_experiment_table1(self):
        out = io.StringIO()
        assert main(["experiment", "table1"], out=out) == 0
        assert "Table I" in out.getvalue()

    def test_experiment_fig08(self):
        out = io.StringIO()
        assert main(["experiment", "fig08"], out=out) == 0
        assert "ZPM" in out.getvalue()

    def test_serve_runs_through_server(self):
        out = io.StringIO()
        assert main(["serve", "bert_base", "--requests", "4", "--batch",
                     "1", "--max-batch", "2"], out=out) == 0
        text = out.getvalue()
        assert "engine batches" in text and "mean coalesce 2.0" in text

    def test_serve_unknown_model(self):
        out = io.StringIO()
        assert main(["serve", "not_a_model"], out=out) == 2

    def test_serve_negative_knobs_exit_cleanly(self):
        out = io.StringIO()
        assert main(["serve", "bert_base", "--workers", "-1"], out=out) == 2
        assert "--workers must be >= 0" in out.getvalue()
        out = io.StringIO()
        assert main(["serve", "bert_base", "--cache-kib", "-5"],
                    out=out) == 2
        assert "--cache-kib must be >= 0" in out.getvalue()

    def test_serve_with_workers_and_cache(self):
        out = io.StringIO()
        assert main(["serve", "bert_base", "--requests", "3", "--batch",
                     "1", "--max-batch", "2", "--workers", "2",
                     "--cache-kib", "256", "--repeats", "2"], out=out) == 0
        text = out.getvalue()
        assert "served 6 requests" in text
        assert "worker pool: 2 workers" in text
        assert "hit rate 50%" in text

    def test_plan_export_then_load(self, tmp_path):
        path = str(tmp_path / "bert.plans.npz")
        out = io.StringIO()
        assert main(["plan", "export", "bert_base", "--out", path],
                    out=out) == 0
        assert "exported bert_base/aqs" in out.getvalue()
        out = io.StringIO()
        assert main(["plan", "load", path, "--requests", "2", "--batch",
                     "1"], out=out) == 0
        text = out.getvalue()
        assert "no calibration, no engine prepare" in text
        assert "served 2 requests" in text

    def test_serve_process_backend(self):
        out = io.StringIO()
        assert main(["serve", "bert_base", "--requests", "3", "--batch",
                     "1", "--max-batch", "3", "--backend", "process",
                     "--workers", "2", "--blas-threads", "1"], out=out) == 0
        assert "process pool: 2 workers" in out.getvalue()

    def test_plan_load_mmap(self, tmp_path):
        path = str(tmp_path / "bert.plans.npz")
        out = io.StringIO()
        assert main(["plan", "export", "bert_base", "--out", path],
                    out=out) == 0
        out = io.StringIO()
        assert main(["plan", "load", path, "--mmap", "--requests", "2",
                     "--batch", "1"], out=out) == 0
        text = out.getvalue()
        assert "mmap'd from the blob sidecar" in text
        assert "served 2 requests" in text

    def test_profile_measure_prints_latency_and_bounds(self):
        out = io.StringIO()
        assert main(["profile", "bert_base", "--stride", "12", "--measure",
                     "--repeats", "1"], out=out) == 0
        text = out.getvalue()
        assert "measured per-layer latency" in text
        assert "bound classification" in text
        assert "machine balance" in text

    def test_profile_measure_rejects_dense_scheme(self):
        out = io.StringIO()
        assert main(["profile", "resnet18", "--scheme", "dense",
                     "--measure"], out=out) == 2
        assert "aqs or sibia" in out.getvalue()
