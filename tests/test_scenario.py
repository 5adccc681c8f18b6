import dataclasses
import json
import re

import pytest

from wrtr import scenario
from wrtr.driver import WrtrConfig
from wrtr.rtr import TrustRegionConfig
from wrtr.scenario import ScenarioError, load_scenario, parse_scenario


def base_config(**overrides):
    cfg = {
        "n": 16,
        "clutter_blocks": [
            {"range_bins": {"start": 3, "stop": 6}, "doppler_bins": [7], "power_db": 10.0}
        ],
        "doppler_interval": [-0.05, 0.05],
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


class TestBlockExpansion:
    def test_scenario1_style_block(self):
        cfg = parse_scenario(
            base_config(
                n=64,
                clutter_blocks=[
                    {"range_bins": {"start": 11, "stop": 30},
                     "doppler_bins": [25, 26], "power_db": 10.0}
                ],
            )
        )
        assert len(cfg.scatterers) == 40
        assert {sc.range_shift for sc in cfg.scatterers} == set(range(11, 31))
        assert {round(sc.doppler * 64) for sc in cfg.scatterers} == {25, 26}
        for sc in cfg.scatterers:
            assert sc.power == pytest.approx(10.0)

    def test_explicit_scatterers_and_blocks_combine(self):
        cfg = parse_scenario(
            base_config(scatterers=[{"range_shift": 1, "doppler": 0.3, "power": 2.5}])
        )
        assert len(cfg.scatterers) == 5
        assert cfg.scatterers[0].power == pytest.approx(2.5)

    def test_block_bins_validated(self):
        with pytest.raises(ScenarioError):
            parse_scenario(
                base_config(
                    clutter_blocks=[{"range_bins": [16], "doppler_bins": [1], "power_db": 0.0}]
                )
            )


class TestValidation:
    def test_missing_n(self):
        cfg = base_config()
        del cfg["n"]
        with pytest.raises(ScenarioError, match="'n'"):
            parse_scenario(cfg)

    def test_unknown_key(self):
        for key, value in (("bogus", 1), ("power_db_scale", "power")):
            with pytest.raises(ScenarioError, match="unknown config keys"):
                parse_scenario(base_config(**{key: value}))

    def test_needs_interval_or_epsilon(self):
        cfg = base_config()
        del cfg["doppler_interval"]
        with pytest.raises(ScenarioError):
            parse_scenario(cfg)

    def test_epsilon_bounds(self):
        with pytest.raises(ScenarioError):
            parse_scenario(base_config(epsilon=65.0))

    def test_solver_overrides(self):
        cfg = parse_scenario(base_config(seq_solver={"max_iters": 7, "grad_tol": 1e-6}))
        assert cfg.wrtr.seq_solver.max_iters == 7
        assert cfg.wrtr.seq_solver.grad_tol == 1e-6

    def test_absent_keys_keep_the_wrtr_defaults(self):
        assert parse_scenario(base_config()).wrtr == WrtrConfig(doppler_interval=(-0.05, 0.05))

    def test_bad_solver_key(self):
        with pytest.raises(ScenarioError, match="unknown solver keys"):
            parse_scenario(base_config(seq_solver={"iters": 7}))

    def test_bad_solver_value(self):
        with pytest.raises(ScenarioError):
            parse_scenario(base_config(seq_solver={"grad_tol": -1.0}))

    def test_needs_some_clutter(self):
        cfg = base_config()
        cfg["clutter_blocks"] = []
        with pytest.raises(ScenarioError, match="no clutter"):
            parse_scenario(cfg)

    def test_cut_bins_validated(self):
        with pytest.raises(ScenarioError):
            parse_scenario(base_config(doppler_cut_range_bins=[16]))

    def test_interval_ordering(self):
        with pytest.raises(ScenarioError):
            parse_scenario(base_config(doppler_interval=[0.1, -0.1]))


class TestLoadScenario:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        cfg = load_scenario(path)
        assert cfg.n == 16
        assert cfg.seed == 3
        scene = cfg.to_scene()
        assert scene.n == 16
        assert cfg.wrtr.doppler_interval == (-0.05, 0.05)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)

    def test_bundled_configs_parse(self):
        from pathlib import Path

        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
        assert len(paths) >= 4
        for path in paths:
            assert load_scenario(path).n >= 1


class TestDocstring:
    def test_key_table_names_exactly_the_accepted_keys(self):
        doc = scenario.__doc__
        table = doc.split("any other key is an error:")[1].split("A solver block takes")[0]
        rows = [line.strip() for line in table.splitlines() if re.match(r"    \S", line)]
        documented = {key for row in rows for key in re.split(r"\s{2,}", row)[0].split(", ")}
        assert documented == scenario._KNOWN_KEYS

    def test_solver_block_sentence_names_exactly_the_config_fields(self):
        sentence = " ".join(scenario.__doc__.split("A solver block takes")[1].split(";")[0].split())
        documented = set(re.findall(r"(\w+) \(", sentence))
        assert documented == {f.name for f in dataclasses.fields(TrustRegionConfig)}
