import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sepnet import cli, config, models, report
from sepnet.data import DataSpec
from sepnet.errors import ConfigError, SepnetError
from sepnet.perf import ClusterSpec
from sepnet.search import SearchConfig

TINY_CFG = """
# tiny desk model
model.stages = 2
model.blocks_per_stage = 2
model.cardinality = 8
model.bottleneck_width = 4
model.partitions = 4
model.num_classes = 6
model.alpha = 2
model.in_h = 16
model.in_w = 16
data.num_classes = 6
data.train_pool = 200
data.test_n = 32
search.meta_iterations = 1
search.shared_steps = 3
search.controller_steps = 3
search.candidates = 2
search.batch_size = 8
search.reward_batch = 16
search.controller_hidden = 8
search.finetune_epochs = 1
seed = 1
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


# the file format: every key with its type and default, which configuration
# files and resolved_config.txt depend on
FILE_FORMAT = {
    "model.stages": (int, 3), "model.blocks_per_stage": (int, 6),
    "model.cardinality": (int, 8), "model.bottleneck_width": (int, 16),
    "model.filter_size": (int, 3), "model.partitions": (int, 1),
    "model.num_classes": (int, 100), "model.alpha": (int, 2), "model.in_channels": (int, 3),
    "model.in_h": (int, 32), "model.in_w": (int, 32),
    "data.num_classes": (int, 8), "data.channels": (int, 3), "data.h": (int, 16),
    "data.w": (int, 16), "data.train_pool": (int, 2000), "data.test_n": (int, 512),
    "data.val_fraction": (float, 0.1), "data.noise": (float, 0.8),
    "search.meta_iterations": (int, 10), "search.shared_steps": (int, 50),
    "search.controller_steps": (int, 50), "search.candidates": (int, 20),
    "search.monte_carlo_m": (int, 1), "search.shared_lr": (float, 0.05),
    "search.controller_lr": (float, 0.3), "search.controller_hidden": (int, 100),
    "search.baseline_decay": (float, 0.95), "search.entropy_coef": (float, 0.0),
    "search.finetune_lr": (float, 1e-4), "search.finetune_epochs": (int, 5),
    "search.batch_size": (int, 32), "search.reward_batch": (int, 64),
    "search.levels": (int, 9), "search.p_min": (int, 50),
    "cluster.nodes": (int, 4), "cluster.flops": (float, 1.7e8),
    "cluster.bandwidth_bps": (float, 300e6), "cluster.overhead_s": (float, 0.0),
    "seed": (int, 0), "out_dir": (str, "runs/out"),
}

_KEYS = st.sampled_from(sorted(FILE_FORMAT)) | st.text(max_size=12)
_VALUES = st.sampled_from(["1", "-3", "0.5", "1e-4", "nan", "x", "", " 7 "]) | st.text(max_size=12)


def _assert_known_typed(cfg: dict) -> None:
    for key, value in cfg.items():
        assert type(value) is FILE_FORMAT[key][0]


class TestConfig:
    def test_schema_matches_file_format(self):
        assert len(config.SCHEMA) == 41
        assert config.SCHEMA == FILE_FORMAT
        for key, (want, default) in config.SCHEMA.items():
            assert type(default) is want, key

    def test_defaults_build_dataclass_defaults(self, monkeypatch):
        monkeypatch.delenv("SEPNET_OUT_DIR", raising=False)
        cfg = config.resolve(None, [])
        assert config.model_spec(cfg) == models.ModelSpec()
        assert config.data_spec(cfg) == DataSpec()
        assert config.search_config(cfg) == SearchConfig()
        assert config.cluster_spec(cfg) == ClusterSpec()

    @settings(deadline=None, database=None)
    @given(st.lists(st.tuples(_KEYS, _VALUES), max_size=6) | st.text(max_size=6), st.text())
    def test_parse_config_text_total(self, lines, noise):
        text = lines if isinstance(lines, str) else "\n".join(f"{k} = {v}" for k, v in lines)
        for candidate in (text, text + "\n" + noise):
            try:
                cfg = config.parse_config_text(candidate)
            except ConfigError:
                continue
            _assert_known_typed(cfg)

    @settings(deadline=None, database=None)
    @given(st.builds(lambda k, v: f"{k}={v}", _KEYS, _VALUES) | st.text())
    def test_resolve_override_total(self, override):
        try:
            cfg = config.resolve(None, [override])
        except ConfigError:
            return
        assert set(cfg) == set(FILE_FORMAT)
        _assert_known_typed(cfg)

    @pytest.mark.parametrize("key", sorted(k for k, (want, _) in FILE_FORMAT.items() if want is float))
    def test_nan_float_rejected(self, key):
        build = {"data": config.data_spec, "search": config.search_config,
                 "cluster": config.cluster_spec}[key.split(".")[0]]
        cfg = config.resolve(None, [f"{key}=nan"])
        with pytest.raises(ConfigError):
            build(cfg)

    def test_parse_values_and_comments(self):
        cfg = config.parse_config_text("model.stages = 2  # comment\n\n# full line\nseed = 9\n")
        assert cfg == {"model.stages": 2, "seed": 9}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config.parse_config_text("model.bogus = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            config.parse_config_text("model.stages = banana\n")

    def test_overrides_and_env(self, tiny_cfg, monkeypatch):
        cfg = config.resolve(tiny_cfg, ["model.alpha=1"])
        assert cfg["model.alpha"] == 1
        monkeypatch.setenv("SEPNET_OUT_DIR", "/tmp/elsewhere")
        cfg = config.resolve(tiny_cfg, [])
        assert cfg["out_dir"] == "/tmp/elsewhere"

    def test_resolved_round_trips(self, tiny_cfg):
        cfg = config.resolve(tiny_cfg, [])
        text = config.format_resolved(cfg)
        again = config.parse_config_text(text)
        assert config.resolve(None, [f"{k}={v}" for k, v in again.items()]) == cfg

    def test_builders(self, tiny_cfg):
        cfg = config.resolve(tiny_cfg, [])
        assert config.model_spec(cfg).partitions == 4
        assert config.search_config(cfg).meta_iterations == 1
        assert config.cluster_spec(cfg).num_nodes == 4
        assert config.data_spec(cfg).num_classes == 6


class TestCommands:
    def test_build_reports_formula_match(self, tiny_cfg, capsys):
        assert cli.main(["build", "--config", tiny_cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["formula_matches"] is True
        assert doc["params_total"] > 0

    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["build", "--bogus"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 1

    @pytest.mark.parametrize("peers", ["0=localhost", "x=127.0.0.1:1"])
    def test_malformed_peer_table_is_usage_error(self, peers, capsys):
        assert cli.main(["worker", "--node-id", "0", "--num-nodes", "2", "--peers", peers,
                         "--checkpoint", "m.snnc", "--policy", "p.policy"]) == 1
        assert "node=host:port" in capsys.readouterr().err

    @settings(deadline=None, database=None)
    @given(st.text(max_size=30) | st.lists(
        st.tuples(st.integers(-2, 9) | st.text(max_size=3), st.text(max_size=6),
                  st.integers(-1, 70000) | st.text(max_size=3)),
        max_size=4).map(lambda items: ",".join(f"{n}={h}:{p}" for n, h, p in items)))
    def test_parse_peers_total(self, text):
        try:
            peers = cli._parse_peers(text)
        except cli.UsageError:
            return
        assert all(type(n) is int and type(port) is int for n, (_, port) in peers.items())

    def test_missing_config_is_runtime_error(self):
        assert cli.main(["build", "--config", "/nonexistent/x.cfg"]) == 2

    def test_commcost_table(self, tiny_cfg, capsys):
        assert cli.main(["commcost", "--config", tiny_cfg, "--table6"]) == 0
        out = capsys.readouterr().out
        assert "ring all-reduce" in out and "ratio" in out

    def test_feasibility_verdict(self, tiny_cfg, capsys):
        code = cli.main(["feasibility", "--config", tiny_cfg,
                         "--flops", "1.7e8", "--bandwidth", "300e6"])
        assert code == 0
        assert "verdict: feasible" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag", [("commcost", "--alpha"),
                                               ("feasibility", "--flops"),
                                               ("feasibility", "--bandwidth")])
    def test_zero_override_is_rejected(self, tiny_cfg, command, flag, capsys):
        assert cli.main([command, "--config", tiny_cfg, flag, "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--flops", "--bandwidth", "--overhead"])
    def test_nan_override_is_rejected(self, tiny_cfg, flag, capsys):
        assert cli.main(["feasibility", "--config", tiny_cfg, flag, "nan"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_simulate_reports_speedup(self, tiny_cfg, capsys, tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", tiny_cfg, "--flops", "1.7e8",
                         "--bandwidth", "300e6", "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True
        assert 1.0 < doc["speedup"] <= 4.0 + 1e-9
        assert (out / "timeline.csv").exists()

    def test_verify_equivalence_passes(self, tiny_cfg, capsys):
        assert cli.main(["verify-equivalence", "--config", tiny_cfg, "--inputs", "3"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_verify_equivalence_detects_mismatch(self, tiny_cfg, monkeypatch, capsys):
        from sepnet import runtime

        real = runtime.run_hosted

        def corrupted(net, policy, x, dtype="f32", message_log=None):
            return real(net, policy, x, dtype) + 0.5

        monkeypatch.setattr(runtime, "run_hosted", corrupted)
        assert cli.main(["verify-equivalence", "--config", tiny_cfg, "--inputs", "1"]) == 3

    def test_search_and_report_end_to_end(self, tiny_cfg, tmp_path, capsys):
        out_c = tmp_path / "c"
        assert cli.main(["search", "--config", tiny_cfg, "--out", str(out_c)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 <= doc["best_val_accuracy"] <= 1.0
        assert (out_c / "best.policy").exists()
        assert (out_c / "resolved_config.txt").exists()
        out_r = tmp_path / "r"
        assert cli.main(["random-search", "--config", tiny_cfg, "--out", str(out_r)]) == 0
        capsys.readouterr()
        rep = tmp_path / "rep"
        assert cli.main(["report", "--logs", str(out_c / "run_log.jsonl"),
                         str(out_r / "run_log.jsonl"), "--out", str(rep)]) == 0
        assert (rep / "report.json").exists()

    def test_finetune_command(self, tiny_cfg, tmp_path, capsys):
        out_c = tmp_path / "c"
        cli.main(["search", "--config", tiny_cfg, "--out", str(out_c)])
        capsys.readouterr()
        code = cli.main(["finetune", "--config", tiny_cfg,
                         "--checkpoint", str(out_c / "best.snnc"),
                         "--policy", str(out_c / "best.policy"), "--epochs", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert os.path.exists(doc["checkpoint"])


class TestReportTool:
    def test_empty_log_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            report.emit_report([], str(tmp_path))

    def test_single_log_single_series(self, tmp_path):
        log = tmp_path / "a.jsonl"
        log.write_text('{"iteration": 1, "stage": "select", "candidate_accuracy": 0.5, "best_accuracy": 0.5}\n')
        doc = report.emit_report([str(log)], str(tmp_path / "out"))
        assert len(doc["series"]) == 1
        assert doc["series"][0]["best_accuracy"] == [0.5]

    def test_incompatible_schema_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"loss": 1.0}\n')
        with pytest.raises(ConfigError, match="missing"):
            report.emit_report([str(bad)], str(tmp_path / "out"))

    @pytest.mark.parametrize("line", ['5', '"iteration stage"', '{"iteration": [1], "stage": "x"}'])
    def test_entry_not_an_object_with_int_iteration_rejected(self, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"iteration": 1, "stage": "select"}\n' + line + "\n")
        with pytest.raises(ConfigError, match=f"{bad}:2"):
            report.emit_report([str(bad)], str(tmp_path / "out"))

    @settings(deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary(max_size=60) | st.lists(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
            st.sampled_from(["iteration", "stage", "loss", "best_accuracy"]) | st.text(max_size=4),
            inner, max_size=4),
        max_leaves=8), max_size=4).map(lambda entries: "\n".join(json.dumps(e) for e in entries).encode()))
    def test_load_log_total(self, tmp_path, data):
        log = tmp_path / "log.jsonl"
        log.write_bytes(data)
        try:
            report.series_from_log(str(log))
        except SepnetError:
            pass

    def test_two_logs_aligned_by_iteration(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text('{"iteration": 1, "stage": "select", "best_accuracy": 0.4}\n'
                     '{"iteration": 2, "stage": "select", "best_accuracy": 0.6}\n')
        b.write_text('{"iteration": 2, "stage": "select", "best_accuracy": 0.3}\n')
        doc = report.emit_report([str(a), str(b)], str(tmp_path / "out"), ["x", "y"])
        csv = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert csv[0].startswith("iteration,x:loss")
        assert len(csv) == 3
