import hashlib
import json

import pytest

from cable_order.cli import main, parse_grid
from cable_order.derivations import script_file_json_dict, cable_t_power_script
from cable_order.presentations import cable_presentation


class TestPresent:
    def test_cable_document(self, capsys):
        assert main(["present", "--x", "2", "--y", "3", "--p", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["named"]["mu"]["expansion"] == "b^-1 a"
        assert doc["params"]["q"] == 11

    def test_document_bytes_are_stable(self, tmp_path):
        out = tmp_path / "pres.json"
        assert main(["present", "--x", "2", "--y", "3", "--p", "2", "--json", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "d500a8e0b08722c900131421f4f7bb3923e9ff04b70dff57389fd3a39520c306"

    def test_torus_document(self, capsys):
        assert main(["present", "--x", "2", "--y", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "torus"

    def test_noncoprime_rejected(self, capsys):
        assert main(["present", "--x", "2", "--y", "4"]) == 1

    def test_wrong_q_rejected(self, capsys):
        assert main(["present", "--x", "2", "--y", "3", "--p", "2", "--q", "10"]) == 1


class TestCertify:
    def test_beta_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(
            ["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--json", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["slope"] == "21/1"
        assert (tmp_path / "cert.json.log").exists()

    def test_slope_exit_zero(self, capsys):
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--slope", "43/2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cramer"] == {
            "d0": 1,
            "d1": 1,
            "d": 1,
            "slopes": {"s0": "21/1", "s1": "22/1", "s": "43/2"},
        }

    def test_outside_window_is_error(self, capsys):
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--slope", "1/1"]) == 1

    def test_experimental_band_is_inconclusive(self, capsys):
        code = main(
            ["certify", "--x", "2", "--y", "3", "--p", "2", "--slope", "19/1", "--experimental"]
        )
        assert code == 2
        assert "surviving" in capsys.readouterr().err

    def test_table_output(self, capsys):
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--table"]) == 0
        out = capsys.readouterr().out
        assert sum("nontriviality" in line or "vs" in line for line in out.splitlines()) == 27

    def test_byte_stable_output(self, tmp_path):
        paths = [tmp_path / "c1.json", tmp_path / "c2.json"]
        for path in paths:
            main(["certify", "--x", "3", "--y", "4", "--p", "2", "--beta", "3", "--json", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestReplayCommand:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "2", "--json", str(out)]) == 0
        assert main(["replay", str(out)]) == 0

    def test_bit_flip_detected(self, tmp_path):
        out = tmp_path / "cert.json"
        main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--json", str(out)])
        doc = json.loads(out.read_text())
        doc["equations"][0]["rhs"] = "b^4"
        out.write_text(json.dumps(doc))
        assert main(["replay", str(out)]) == 2

    def test_malformed_json_is_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["replay", str(bad)]) == 1

    def test_missing_file_is_error(self, tmp_path):
        assert main(["replay", str(tmp_path / "absent.json")]) == 1


class TestSweep:
    def test_small_grid(self, tmp_path, capsys):
        out = tmp_path / "certs"
        code = main(
            ["sweep", "--grid", "x=2..3;y=3..5;p=2;beta=1..2", "--out", str(out)]
        )
        assert code == 0
        files = sorted(f.name for f in out.glob("cert_*.json"))
        assert "cert_x2_y3_p2_beta1.json" in files
        assert len(files) == 8  # (2,3),(2,5),(3,4),(3,5) x beta 1..2
        summary = json.loads((out / "summary.json").read_text())
        assert all(r["status"] == "certified" for r in summary["results"])
        for f in out.glob("cert_*.json"):
            assert main(["replay", str(f)]) == 0

    def test_slope_grid(self, tmp_path):
        out = tmp_path / "certs"
        code = main(["sweep", "--grid", "x=2;y=3;p=2;slope=21/1|43/2", "--out", str(out)])
        assert code == 0
        assert (out / "cert_x2_y3_p2_slope43_2.json").exists()

    def test_unsupported_point_fails_sweep_but_keeps_results(self, tmp_path, capsys):
        out = tmp_path / "certs"
        code = main(["sweep", "--grid", "x=2;y=3;p=1..2;beta=1", "--out", str(out)])
        assert code == 1
        assert (out / "cert_x2_y3_p2_beta1.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        statuses = {r["p"]: r["status"] for r in summary["results"]}
        assert statuses == {1: "unsupported", 2: "certified"}

    def test_empty_grid_is_error(self, tmp_path, capsys):
        assert main(["sweep", "--grid", "x=2;y=4;p=2;beta=1", "--out", str(tmp_path)]) == 1

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        grid = "x=2;y=3;p=2..3;beta=1..2"
        assert main(["sweep", "--grid", grid, "--out", str(serial)]) == 0
        assert main(["sweep", "--grid", grid, "--out", str(parallel), "--jobs", "2"]) == 0
        for f in serial.glob("cert_*.json"):
            assert f.read_bytes() == (parallel / f.name).read_bytes()

    def test_grid_parsing(self):
        dims = parse_grid("x=2..3;y=3;p=2;beta=1..2")
        assert dims["x"] == [2, 3] and dims["beta"] == [1, 2]
        with pytest.raises(ValueError):
            parse_grid("x=2;y=3;p=2")
        with pytest.raises(ValueError):
            parse_grid("x=2;y=3;p=2;beta=1;slope=21/1")
        with pytest.raises(ValueError):
            parse_grid("x=2;y=3;p=2;beta=1;zap=3")


class TestVerifyIdentities:
    def test_all_pass(self, capsys):
        assert main(["verify-identities", "--x", "2", "--y", "3", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out
        assert "2g-1 = 13" in out

    def test_larger_parameters(self, capsys):
        assert main(["verify-identities", "--x", "3", "--y", "5", "--p", "2"]) == 0
        assert "2g-1 = 43" in capsys.readouterr().out

    def test_corrupted_script_fixture_fails_with_step_index(
        self, tmp_path, monkeypatch, capsys
    ):
        pres = cable_presentation(2, 3, 2)
        doc = script_file_json_dict(cable_t_power_script(pres), pres)
        doc["script"]["steps"][3]["position"] += 1
        (tmp_path / "cable_t_power.json").write_text(json.dumps(doc))
        monkeypatch.setenv("CABLE_ORDER_SCRIPT_DIR", str(tmp_path))
        assert main(["verify-identities", "--x", "2", "--y", "3", "--p", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "step 3" in out
