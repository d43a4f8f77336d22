import copy
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from math import gcd
from pathlib import Path

import pytest

from cable_order import cli
from cable_order.cli import main, parse_grid
from cable_order.derivations import (
    CertEntry,
    cable_t_power_script,
    check_script,
    script_from_json_dict,
    script_to_json_dict,
)
from cable_order.obstruction import certificate_from_json_dict, certify_beta, certify_slope, replay
from cable_order.presentations import cable_presentation
from cable_order.slopes import Slope

SRC = Path(__file__).resolve().parent.parent / "src"
V1_FIXTURES = sorted((Path(__file__).resolve().parent / "data" / "v1").glob("*.json"))
V2_FIXTURES = sorted((Path(__file__).resolve().parent / "data" / "v2").glob("*.json"))
HUGE = "z" * 1_000_000


def corrupted_t_power_doc(pres) -> dict:
    """The cable_t_power script as JSON, with step 3 (the commute of lam^p) moved off its syllable."""
    doc = script_to_json_dict(cable_t_power_script(pres).script)
    doc["steps"][3]["position"] += 1
    return doc


def type_swap(doc: dict, probe: str) -> None:
    """Give one field of a beta certificate document the wrong JSON type."""

    def first_swap(entry_id):
        entry = next(e for e in doc["equations"] if e["id"] == entry_id)
        return next(s for s in entry["script"]["steps"] if s["kind"] == "swap")

    if probe == "string_position":
        first_swap("cable_t_power")["position"] = "0"
    elif probe == "string_swap_exponent":
        first_swap("surgery_interior_combination")["left"] = ["t", "-2"]
    elif probe == "string_params_x":
        doc["params"]["x"] = "2"
    elif probe == "bool_params_beta":
        doc["params"]["beta"] = True
    elif probe == "number_word":
        doc["equations"][0]["lhs"] = 5
    elif probe == "number_slope":
        doc["params"]["slope"] = 65
    elif probe == "number_step":
        doc["equations"][1]["script"]["steps"][3] = 5
    elif probe == "bool_cramer_d0":
        doc["cramer"]["d0"] = True
    elif probe == "float_cramer_d":
        doc["cramer"]["d"] = float(doc["cramer"]["d"])
    else:
        raise ValueError(probe)


def huge_value(doc: dict, probe: str) -> None:
    """Set one field of a beta certificate document to a 1,000,000-character string."""
    clash = next(r for r in doc["refutations"] if r["reason"]["kind"] == "clash")
    if probe == "refutation_equation":
        clash["reason"]["equation"] = HUGE
    elif probe == "params_mode":
        doc["params"]["mode"] = HUGE
    elif probe == "entry_id":
        doc["equations"][1]["id"] = HUGE
    elif probe == "reason_kind":
        clash["reason"]["kind"] = HUGE
    elif probe == "recorded_sign":
        clash["reason"]["lhs_sign"] = HUGE
    elif probe == "version":
        doc["version"] = HUGE
    elif probe == "assignment_sign":
        clash["assignment"]["a"] = HUGE
    elif probe == "assignment_key":
        clash["assignment"][HUGE] = "pos"
    elif probe == "context":
        doc["equations"][1]["context"] = HUGE
    elif probe == "slope":
        doc["params"]["slope"] = "1/2/" + HUGE
    elif probe == "unreduced_slope":
        doc["params"]["slope"] = "2" + "0" * 4000 + "/2"
    elif probe == "word":
        doc["equations"][1]["lhs"] = "!" + HUGE
    elif probe == "entry_rhs":  # a well-formed word, repeated differently
        doc["equations"][1]["rhs"] = "a " * 500_000
    elif probe == "entry_slope":
        doc["equations"][1]["slope"] = HUGE
    elif probe == "cramer_slope":
        doc["cramer"]["slopes"]["s"] = HUGE
    else:
        raise ValueError(probe)


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
        assert digest == "d047a680094f097a01d1992cbe679a89df5004a1d5f2064d084bbdf438e536a3"

    @pytest.mark.parametrize(
        "xyp, digest",
        [
            ((11, 13, 9), "2e33d51744450e3fc3bbe7a45c13588523cafe6bb29b9b5653c451f666d1b5a4"),
            ((2, 3, 50), "46b2f9ebdd57d136b9ce0a343c49381ae1ab7eef877fcfc984ca6b7e58974cb8"),
        ],
        ids=["x11_y13_p9", "x2_y3_p50"],
    )
    def test_large_document_bytes_are_stable(self, tmp_path, xyp, digest):
        # lamC expands to 23,149 syllables at (11, 13, 9) and 29,901 at (2, 3, 50),
        # the cable relator to 4,575 and 1,175
        out = tmp_path / "pres.json"
        x, y, p = (str(v) for v in xyp)
        assert main(["present", "--x", x, "--y", y, "--p", p, "--json", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_torus_document(self, capsys):
        assert main(["present", "--x", "2", "--y", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "torus"

    def test_noncoprime_rejected(self, capsys):
        assert main(["present", "--x", "2", "--y", "4"]) == 1

    def test_unwritable_path_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "absent" / "pres.json"
        assert main(["present", "--x", "2", "--y", "3", "--json", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}: ")
        assert str(out) in captured.err and "Traceback" not in captured.err


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

    def test_no_log_beside_a_fifo(self, tmp_path, capsys):
        # the timing goes to stderr, as without --json, and no file appears
        fifo = tmp_path / "cert.json"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--json", str(fifo)]) == 0
        reader.join(timeout=10)
        assert json.loads(got[0]) == certify_beta(2, 3, 2, 1).to_json_dict()
        assert [f.name for f in tmp_path.iterdir()] == ["cert.json"]
        assert capsys.readouterr().err.startswith("certified in ")

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
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--slope", "19/1"]) == 1
        assert "outside the certified window [21, 22]" in capsys.readouterr().err

    def test_table_output(self, capsys):
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--table"]) == 0
        out = capsys.readouterr().out
        assert sum("nontriviality" in line or "vs" in line for line in out.splitlines()) == 27

    def test_byte_stable_output(self, tmp_path):
        paths = [tmp_path / "c1.json", tmp_path / "c2.json"]
        for path in paths:
            main(["certify", "--x", "3", "--y", "4", "--p", "2", "--beta", "3", "--json", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unwritable_path_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "absent" / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--json", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}: ")
        assert str(out) in captured.err and not (tmp_path / "absent").exists()

    def test_no_script_directory_variable_is_read(self, tmp_path, monkeypatch):
        # a file that once replaced the built cable_t_power proof must change nothing
        pres = cable_presentation(2, 3, 2)
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        doc = {"version": "v1", "params": {"x": 2, "y": 3, "p": 2, "q": 11},
               "script": corrupted_t_power_doc(pres)}
        (scripts / "cable_t_power.json").write_text(json.dumps(doc))
        argv = ["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "3", "--json"]
        monkeypatch.delenv("CABLE_ORDER_SCRIPT_DIR", raising=False)
        assert main(argv + [str(tmp_path / "unset.json")]) == 0
        monkeypatch.setenv("CABLE_ORDER_SCRIPT_DIR", str(scripts))
        assert main(argv + [str(tmp_path / "set.json")]) == 0
        assert (tmp_path / "set.json").read_bytes() == (tmp_path / "unset.json").read_bytes()


class TestWrite:
    """Output files are rewritten in place and cut only when they were longer."""

    def test_shorter_rewrite_matches_a_fresh_write(self, tmp_path, capsys):
        out, fresh = tmp_path / "cert.json", tmp_path / "fresh.json"
        argv = ["certify", "--x", "2", "--y", "3", "--p", "2"]
        assert main(argv + ["--slope", "21001/1000", "--json", str(out)]) == 0
        long_size = out.stat().st_size
        assert main(argv + ["--beta", "1", "--json", str(out)]) == 0
        assert main(argv + ["--beta", "1", "--json", str(fresh)]) == 0
        assert out.stat().st_size < long_size
        assert out.read_bytes() == fresh.read_bytes()
        assert Path(f"{out}.log").read_text().count("\n") == 1
        assert main(["replay", str(out)]) == 0

    def test_dev_null_is_written(self):
        assert cli._write(os.devnull, "{}\n") == cli.CERTIFIED

    def test_fifo_is_written(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert cli._write(fifo, "x" * 100_000 + "\n") == cli.CERTIFIED
        reader.join(timeout=10)
        assert got == [b"x" * 100_000 + b"\n"]

    def test_rewrite_never_truncates_on_open(self, tmp_path, monkeypatch, capsys):
        flags = []
        real = os.open
        monkeypatch.setattr(cli.os, "open", lambda path, f, *a: flags.append(f) or real(path, f, *a))
        out = tmp_path / "cert.json"
        for beta in ("7", "1", "1"):
            assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", beta, "--json", str(out)]) == 0
        assert len(flags) == 6 and not any(f & os.O_TRUNC for f in flags)
        assert out.read_bytes() == (json.dumps(certify_beta(2, 3, 2, 1).to_json_dict(),
                                               separators=(",", ":")) + "\n").encode()


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
        assert main(["replay", str(out)]) == 1  # the entry's copy differs from its script's
        doc["equations"][0]["script"]["claimed"]["rhs"] = "b^4"
        out.write_text(json.dumps(doc))
        assert main(["replay", str(out)]) == 2  # both copies agree; the checker rejects them

    def test_malformed_json_is_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["replay", str(bad)]) == 1

    def test_missing_file_is_error(self, tmp_path):
        assert main(["replay", str(tmp_path / "absent.json")]) == 1

    @pytest.mark.parametrize("opener", ["[", '{"a":'])
    def test_deeply_nested_json_is_error(self, tmp_path, capsys, opener):
        bad = tmp_path / "nested.json"
        bad.write_text(opener * 100_000)
        capsys.readouterr()
        assert main(["replay", str(bad)]) == 1  # raises nothing
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load certificate: ") and len(err.encode()) < 1024

    @pytest.mark.parametrize("value", ["x", 5, True, None, [], {}], ids=repr)
    @pytest.mark.parametrize(
        "site",
        ["step_kind", "step_side", "step_direction", "step_anchor", "step_on",
         "axiom_kind", "params_mode", "lhs_sign", "rhs_sign"],
    )
    def test_enum_fields_are_load_errors(self, tmp_path, capsys, site, value):
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "3", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        steps = [s for e in doc["equations"] for s in e["script"]["steps"]]
        clash = next(r for r in doc["refutations"] if r["reason"]["kind"] == "clash")
        field = site.split("_", 1)[1]
        if site.startswith("step_"):
            next(s for s in steps if field in s)[field] = value
        elif site == "axiom_kind":
            doc["equations"][1]["script"]["axiom"]["kind"] = value
        elif site == "params_mode":
            doc["params"]["mode"] = value
        else:
            clash["reason"][site] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["replay", str(out)])  # raises nothing
        err = capsys.readouterr().err
        if value is None and site in ("step_side", "step_direction", "step_anchor", "step_on"):
            assert code == 2 and "replay problem" in err  # the field may be absent; the checker rejects it
        else:
            assert code == 1 and "error: cannot load certificate: unknown " in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize(
        "probe",
        [
            "string_position",
            "string_swap_exponent",
            "string_params_x",
            "bool_params_beta",
            "number_word",
            "number_slope",
            "number_step",
            "bool_cramer_d0",
            "float_cramer_d",
        ],
    )
    def test_type_swapped_field_is_a_load_error(self, tmp_path, capsys, probe):
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "3", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        type_swap(doc, probe)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(out)]) == 1  # raises nothing
        assert "error: cannot load certificate" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["any text", None, 5, True, [], {}], ids=repr)
    def test_step_why_is_an_optional_string(self, tmp_path, capsys, value):
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "3", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["equations"][1]["script"]["steps"][0]["why"] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["replay", str(out)])  # raises nothing
        err = capsys.readouterr().err
        if value is None or type(value) is str:
            assert code == 0  # `why` is commentary: the checker never reads it
        else:
            assert code == 1 and err.startswith("error: cannot load certificate: ")
            assert len(err.encode()) < 1024

    @pytest.mark.parametrize("value", ["x", 5, True, None, [], {}], ids=repr)
    @pytest.mark.parametrize(
        "site", ["refutation_equation", "step_name", "entry_id", "script", "axiom_name", "version"]
    )
    def test_string_and_object_fields_are_typed(self, tmp_path, capsys, site, value):
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "3", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        entry = doc["equations"][1]  # cable_t_power, from the cable relator
        if site == "refutation_equation":
            next(r for r in doc["refutations"] if r["reason"]["kind"] == "clash")["reason"]["equation"] = value
        elif site == "step_name":
            next(s for s in entry["script"]["steps"] if "name" in s)["name"] = value
        elif site == "entry_id":
            entry["id"] = value
        elif site == "script":
            entry["script"] = value
        elif site == "version":
            doc["version"] = value
        else:
            entry["script"]["axiom"]["name"] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["replay", str(out)])  # raises nothing
        err = capsys.readouterr().err
        optional = site in ("step_name", "axiom_name") and value is None
        # an entry id is a copy of its script's, so any other value is a load error
        if site not in ("script", "entry_id") and (value == "x" or optional):
            assert code == 2 and "replay problem" in err  # well typed; the checker rejects it
        else:
            assert code == 1 and "error: cannot load certificate" in err

    @pytest.mark.parametrize("value", [0, "", False, [], {}], ids=repr)
    def test_a_knot_group_script_slope_other_than_null_is_a_load_error(self, tmp_path, capsys, value):
        # only null or absent means no slope; anything else is parsed, and fails
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "3", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        entry = doc["equations"][0]  # central_relation, in the knot group
        entry["slope"] = entry["script"]["slope"] = value  # both copies, so they agree
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load certificate: ") and len(err.encode()) < 1024

    @pytest.mark.parametrize(
        "site, value",
        [
            ("entry_id", "central_relation"),
            ("entry_context", "H"),
            ("entry_slope", "153/7"),
            ("entry_lhs", "a b"),
            ("entry_rhs", "t^2"),
            ("params_q", 12),
            ("params_mode", "slope"),
            ("params_beta", 8),
            ("params_beta", 0),
            ("params_beta", None),
            ("cramer_d0", 2),
            ("cramer_d1", 7),
            ("cramer_d", 2),
            ("cramer_s0", "20/1"),
            ("cramer_s1", "23/1"),
            ("cramer_s", "155/7"),
            ("cramer", None),
        ],
        ids=repr,
    )
    def test_a_copy_that_disagrees_is_a_load_error(self, tmp_path, capsys, site, value):
        # each repeated copy alone, well typed, in the beta 7 certificate (slope 153/7)
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "7", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        part, _, field = site.partition("_")
        if part == "entry":
            doc["equations"][1][field] = value  # cable_t_power, in the knot group
        elif part == "params":
            doc["params"][field] = value
        elif field in ("d0", "d1", "d"):
            doc["cramer"][field] = value
        elif field:
            doc["cramer"]["slopes"][field] = value
        else:
            doc["cramer"] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load certificate: ") and len(err.encode()) < 1024

    def test_power_step_probe_is_rejected_fast(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "3", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["equations"][2]["script"]["steps"].append({"kind": "power", "n": 10_000_000})
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        started = time.perf_counter()
        assert main(["replay", str(out)]) == 1  # an unknown step kind is a load error
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert "error: cannot load certificate: unknown step kind 'power'" in err
        assert len(err.encode()) < 1024
        assert elapsed < 0.1

    @pytest.mark.parametrize("beta", [7, 10**6, 10**9])
    @pytest.mark.parametrize(
        "probe, problem",
        [
            # a power of lamC spelled out: 2,000,001 syllables
            ([{"kind": "multiply", "on": "left", "word": "lamC^1000000"},
              {"kind": "definition", "name": "lamC", "side": "lhs", "position": 0, "direction": "expand"}],
             "step 9: the step would make a side of 2000004 syllables; the cap is 84"),
            # ten million copies of the endpoint product and its inverse
            ([{"kind": "relation", "ref": {"type": "equation", "name": "cable_endpoint_product"},
               "side": "lhs", "position": 0, "direction": "forward", "anchor": "before", "n": 10**7}],
             "step 8: the step would make a side of 50000004 syllables; the cap is 76"),
        ],
        ids=["expand", "relation"],
    )
    def test_cap_probe_is_rejected_fast_and_small(self, tmp_path, capsys, probe, problem, beta):
        # the cap follows the script's size, not the slope the certificate names
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", str(beta), "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["equations"][-1]["script"]["steps"].extend(probe)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        tracemalloc.start()
        started = time.perf_counter()
        try:
            code = main(["replay", str(out)])
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and problem in capsys.readouterr().err
        assert elapsed < 0.1 and peak < 2**20, (elapsed, peak)

    @pytest.mark.parametrize(
        "probe, code",
        [
            ("refutation_equation", 2),
            ("params_mode", 1),
            ("entry_id", 1),
            ("reason_kind", 1),
            ("recorded_sign", 1),
            ("version", 2),
            ("assignment_sign", 1),
            ("assignment_key", 1),
            ("context", 1),
            ("slope", 1),
            ("unreduced_slope", 1),
            ("word", 1),
            ("entry_rhs", 1),
            ("entry_slope", 1),
            ("cramer_slope", 1),
        ],
    )
    def test_quoted_values_are_bounded(self, tmp_path, capsys, probe, code):
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "7", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        huge_value(doc, probe)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(out)]) == code
        assert len(capsys.readouterr().err.encode()) < 1024


class TestV1Certificates:
    # written by the release before format v2: beta certificates with the beta-only
    # proofs and no determinant data, and a slope certificate with the swap/expand chain
    def test_fixtures_are_present(self):
        assert [f.stem for f in V1_FIXTURES] == [
            "x2_y3_p2_beta1", "x2_y3_p2_beta30", "x2_y3_p2_beta7", "x2_y3_p2_slope43_2", "x3_y5_p3_beta12"
        ]

    @pytest.mark.parametrize("path", V1_FIXTURES, ids=lambda path: path.stem)
    def test_v1_certificate_replays(self, path, capsys):
        assert json.loads(path.read_text())["version"] == "v1"
        assert main(["replay", str(path)]) == 0
        assert capsys.readouterr().out == "replay ok\n"


    @pytest.mark.parametrize(
        "stem, cramer",
        [("x2_y3_p2_beta7", "derived"), ("x2_y3_p2_slope43_2", None)],
        ids=["beta_with_determinants", "slope_without_determinants"],
    )
    def test_determinant_data_is_the_one_v1_wrote(self, tmp_path, capsys, stem, cramer):
        # a v1 beta certificate carried none, and a v1 slope certificate carried them
        doc = json.loads(next(f for f in V1_FIXTURES if f.stem == stem).read_text())
        if cramer == "derived":
            cramer = certify_beta(2, 3, 2, 7).to_json_dict()["cramer"]
            assert cramer is not None
        doc["cramer"] = cramer
        out = tmp_path / "cert.json"
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot load certificate: the determinant data")


class TestV2Certificates:
    # written before cable_t_power collected lam^p: each carries the swap/expand
    # chain of 2p + 6 steps, at an interior slope, at pq and at pq - 1
    def test_fixtures_are_present(self):
        assert [f.stem for f in V2_FIXTURES] == [
            "x11_y13_p9_slope11573_1", "x2_y3_p2_beta7", "x2_y3_p50_slope14950_1"
        ]

    @pytest.mark.parametrize("path", V2_FIXTURES, ids=lambda path: path.stem)
    def test_v2_certificate_replays(self, path, capsys):
        doc = json.loads(path.read_text())
        assert doc["version"] == "v2"
        t_power = next(e for e in doc["equations"] if e["id"] == "cable_t_power")
        assert len(t_power["script"]["steps"]) == 2 * doc["params"]["p"] + 6
        assert main(["replay", str(path)]) == 0
        assert capsys.readouterr().out == "replay ok\n"


class TestStepWhyIsDiscarded:
    """A step's `why` never reaches the checker: removing it or setting it to null changes nothing."""

    FIXTURES = {f"{path.parent.name}_{path.stem}": path for path in V1_FIXTURES + V2_FIXTURES}

    @staticmethod
    def verdict(doc: dict, why: str) -> tuple[bool, list[str]]:
        doc = copy.deepcopy(doc)
        for entry in doc["equations"]:
            for step in entry["script"]["steps"]:
                if why == "removed":
                    step.pop("why", None)
                elif why == "null":
                    step["why"] = None
        report = replay(certificate_from_json_dict(doc))
        return bool(report), report.problems

    @pytest.mark.parametrize("case", [*FIXTURES, "tampered"])
    def test_same_verdict_and_problems(self, case):
        if case == "tampered":  # the v2 beta-7 fixture with its first swap's left exponent off by one
            doc = json.loads(self.FIXTURES["v2_x2_y3_p2_beta7"].read_text())
            swap = next(s for e in doc["equations"] for s in e["script"]["steps"] if s["kind"] == "swap")
            swap["left"][1] += 1
        else:
            doc = json.loads(self.FIXTURES[case].read_text())
        assert '"why"' in json.dumps(doc)
        written = self.verdict(doc, "as written")
        assert written[0] == (case != "tampered") and bool(written[1]) == (case == "tampered")
        assert self.verdict(doc, "removed") == written
        assert self.verdict(doc, "null") == written


class TestFormat:
    def test_grid_certificate_bytes_are_pinned(self, capsys):
        # the acceptance beta grid in x, y, p, beta order, then four window slopes
        # per triple, each written as the CLI writes it; any change to the bytes
        # of a certificate changes this digest
        triples = [
            (x, y, p) for x in range(2, 8) for y in range(x + 1, 8) if gcd(x, y) == 1 for p in range(2, 6)
        ]
        capsys.readouterr()
        for x, y, p in triples:
            for beta in range(1, 26):
                cli._dump(certify_beta(x, y, p, beta).to_json_dict(), None)
        for x, y, p in triples:
            pq = p * (p * x * y - 1)
            for slope in (Slope(pq - 1, 1), Slope(pq, 1), Slope(2 * pq - 1, 2), Slope(3 * pq - 2, 3)):
                cli._dump(certify_slope(x, y, p, slope).to_json_dict(), None)
        text = capsys.readouterr().out
        assert text.count("\n") == 1276
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "ab242a0c0679ab1ec367a1644fa9ae3ec293ac5e019f9fb8dbb7cc3d03d91184"

    def test_certificate_is_one_compact_line(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "7", "--json", str(out)]) == 0
        text = out.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == certify_beta(2, 3, 2, 7).to_json_dict()
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"

    def test_indented_certificate_replays(self, tmp_path):
        # indent=2 is the layout of earlier releases; readers take any layout
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--slope", "43/2", "--json", str(out)]) == 0
        out.write_text(json.dumps(json.loads(out.read_text()), indent=2) + "\n")
        assert main(["replay", str(out)]) == 0

    def test_sweep_summary_is_compact(self, tmp_path, capsys):
        out = tmp_path / "certs"
        assert main(["sweep", "--grid", "x=2;y=3;p=2;beta=1", "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()
        assert text.count("\n") == 1 and json.loads(text)["results"][0]["status"] == "certified"


class TestSharedParser:
    """One parser serves every main() call in a process; no call may leak into the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_table_does_not_stick(self, tmp_path, capsys):
        argv = ["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "2"]
        assert main(argv + ["--table"]) == 0
        assert "refuted by" in capsys.readouterr().out
        out = tmp_path / "cert.json"
        assert main(argv + ["--json", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["params"]["beta"] == 2

    def test_rejected_arguments_leave_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "2", "--slope", "43/2"])
        assert err.value.code == 1
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--slope", "43/2"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["mode"] == "slope"

    def test_replay_after_certify(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "4", "--json", str(out)]) == 0
        assert main(["replay", str(out)]) == 0
        assert capsys.readouterr().out == "replay ok\n"


class TestUsageErrors:
    """A usage error is invalid input and exits 1, as every other invalid input does; --help exits 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--x", "2"],
            ["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--zap"],
            ["replay"],
            ["sweep", "--grid", "x=2;y=3;p=2;beta=1", "--jobs", "x"],
            ["present", "--x", "2", "--y", "3", "--p", "2", "--q", "11"],
            ["certify", "--x", "2", "--y", "3", "--p", "2", "--q", "11", "--beta", "1"],
            ["verify-identities", "--x", "2", "--y", "3", "--p", "2", "--q", "11"],
            ["certify", "--x", "2", "--y", "3", "--p", "2", "--s", "43/2", "--js", "a.json"],
            ["present", "--x", "2", "--y", "3", "--js", "a.json"],
            ["sweep", "--grid", "x=2;y=3;p=2;beta=1", "--jobs", "0"],
            ["sweep", "--grid", "x=2;y=3;p=2;beta=1", "--jobs", "-3"],
        ],
        ids=["missing", "unknown", "no_path", "bad_type", "present_q", "certify_q", "verify_q",
             "certify_abbreviated", "present_abbreviated", "no_jobs", "negative_jobs"],
    )
    def test_usage_error_exits_one(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: cable-order")
        assert "error: " in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["certify", "--help"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 0
        assert "usage: cable-order" in capsys.readouterr().out


def test_import_loads_no_process_pool():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cable_order.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"


def test_the_package_import_leaves_the_cli_unloaded():
    # `python -m cable_order.cli` warns when the package import has already
    # loaded the module; the package reads `peripheral_invariance_check` lazily
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cable_order; "
        "print('cable_order.cli' in sys.modules, cable_order.peripheral_invariance_check.__module__)"
    )
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "False cable_order.cli\n"


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

    def test_out_on_a_file_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "certs"
        out.write_text("not a directory\n")
        assert main(["sweep", "--grid", "x=2;y=3;p=2;beta=1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}: ")
        assert out.read_text() == "not a directory\n"

    def test_unwritable_certificate_is_reported_per_point(self, tmp_path, capsys):
        out = tmp_path / "certs"
        (out / "cert_x2_y3_p2_beta1.json").mkdir(parents=True)
        assert main(["sweep", "--grid", "x=2;y=3;p=2;beta=1..2", "--out", str(out)]) == 1
        assert "error: cannot write " in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert [r["status"] for r in summary["results"]] == ["unwritable", "certified"]

    def test_empty_grid_is_error(self, tmp_path, capsys):
        assert main(["sweep", "--grid", "x=2;y=4;p=2;beta=1", "--out", str(tmp_path)]) == 1

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        grid = "x=2;y=3;p=2..3;beta=1..2"
        assert main(["sweep", "--grid", grid, "--out", str(serial)]) == 0
        assert main(["sweep", "--grid", grid, "--out", str(parallel), "--jobs", "2"]) == 0
        for f in serial.glob("cert_*.json"):
            assert f.read_bytes() == (parallel / f.name).read_bytes()

    def test_jobs_are_bounded_by_the_tasks(self, tmp_path, monkeypatch):
        # a pool forks all its workers up front; this one runs the map in process
        import concurrent.futures

        workers = []

        class InProcessPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        grid = "x=2;y=3;p=2;beta=1..2"
        assert main(["sweep", "--grid", grid, "--out", str(tmp_path), "--jobs", "1000000"]) == 0
        assert workers == [2]
        assert len(list(tmp_path.glob("cert_*.json"))) == 2

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

    def test_corrupted_script_fixture_fails_with_step_index(self, monkeypatch, capsys):
        pres = cable_presentation(2, 3, 2)
        corrupted = script_from_json_dict(corrupted_t_power_doc(pres))

        def checked_entry(pres):
            check_script(corrupted, pres, {})  # a script from outside the program is checked before use
            return CertEntry(corrupted)

        monkeypatch.setattr(cli, "cable_t_power_script", checked_entry)
        assert main(["verify-identities", "--x", "2", "--y", "3", "--p", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "step 3" in out
