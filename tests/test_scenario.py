import dataclasses
import json
import re
from pathlib import Path

import pytest

from wrtr import scenario
from wrtr.driver import WrtrConfig
from wrtr.rtr import TrustRegionConfig
from wrtr.scenario import ScenarioError, load_scenario, parse_scenario

from conftest import scenario1_scene, scenario2_scene

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the scene each paper config builds; small.json has none to compare with
SHIPPED_SCENES = {
    "scenario1.json": scenario1_scene,
    "scenario1_subbin.json": scenario1_scene,
    "scenario2.json": scenario2_scene,
}


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


    # n = 16: Doppler bins h and h + 16 are one Doppler
    @pytest.mark.parametrize(
        "block, message",
        [
            ({"range_bins": [4, 4], "doppler_bins": [7]}, "clutter_blocks[0].range_bins: bin 4 repeats bin 4"),
            ({"range_bins": [4, 5, 4], "doppler_bins": [7]}, "clutter_blocks[0].range_bins: bin 4 repeats bin 4"),
            ({"range_bins": [4], "doppler_bins": [7, 7]}, "clutter_blocks[0].doppler_bins: bin 7 repeats bin 7"),
            ({"range_bins": [4], "doppler_bins": [7, 23]}, "clutter_blocks[0].doppler_bins: bin 23 repeats bin 7"),
            ({"range_bins": [4], "doppler_bins": [-9, 7]}, "clutter_blocks[0].doppler_bins: bin 7 repeats bin -9"),
        ],
        ids=["range", "range-later", "doppler", "doppler-plus_n", "doppler-minus_n"],
    )
    def test_repeated_block_bin_rejected(self, block, message):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(base_config(clutter_blocks=[{**block, "power_db": 10.0}]))
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("bins, repeat", [([4, 4], 4), ([3, 4, 3], 3)], ids=["adjacent", "later"])
    def test_repeated_cut_bin_rejected(self, bins, repeat):
        # each cut is written to doppler_cut_r<bin>.csv, so a repeat would write one file twice
        with pytest.raises(ScenarioError) as info:
            parse_scenario(base_config(doppler_cut_range_bins=bins))
        assert str(info.value).startswith(f"doppler_cut_range_bins: bin {repeat} repeats bin {repeat}")

    def test_bins_repeated_across_blocks_or_scatterers_are_kept(self):
        # only bins within one block are one cell listed twice; a second
        # block or an explicit scatterer in the same cell adds its power
        block = {"range_bins": [4], "doppler_bins": [7], "power_db": 10.0}
        scatterer = {"range_shift": 4, "doppler": 7 / 16, "power": 10.0}
        cfg = parse_scenario(base_config(clutter_blocks=[block, block], scatterers=[scatterer, scatterer]))
        assert len(cfg.scatterers) == 4


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

    def test_needs_doppler_interval(self):
        cfg = base_config()
        del cfg["doppler_interval"]
        with pytest.raises(ScenarioError, match="missing required key 'doppler_interval'"):
            parse_scenario(cfg)

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

    @pytest.mark.parametrize("interval", [[0.1, 0.2], [-0.2, -0.1], [1e-300, 0.05]])
    def test_interval_must_contain_the_target_doppler(self, interval):
        # eps and the nominal SCRs are taken at v = 0
        with pytest.raises(ScenarioError, match="must contain the target's Doppler 0"):
            parse_scenario(base_config(doppler_interval=interval))

    @pytest.mark.parametrize("interval", [[0.0, 0.0], [0.0, 0.1], [-0.1, 0.0], [-0.0, 0.0]])
    def test_interval_may_end_at_the_target_doppler(self, interval):
        assert parse_scenario(base_config(doppler_interval=interval)).wrtr.doppler_interval == tuple(interval)


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

    @pytest.mark.parametrize(
        "body",
        [
            b"\xff{}",
            b"[" * 100_000 + b"]" * 100_000,
            # past CPython's 4,300-digit limit on int parsing
            b'{"n": 16, "seed": ' + b"7" * 5000 + b"}",
        ],
        ids=["not_utf8", "nested_100000_deep", "int_5000_digits"],
    )
    def test_undecodable_file(self, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_bytes(body)
        with pytest.raises(ScenarioError, match="cannot read config"):
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


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_loads(path):
    cfg = load_scenario(path)
    if path.name in SHIPPED_SCENES:
        assert cfg.to_scene() == SHIPPED_SCENES[path.name]()
