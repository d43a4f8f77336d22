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

from cable_order import cli, proofs
from cable_order.cli import main, parse_grid
from cable_order.derivations import CertEntry, check_script, script_from_json_dict, script_to_json_dict
from cable_order.obstruction import Inconclusive, all_sign_assignments, certificate_from_json_dict, replay
from cable_order.presentations import cable_presentation
from cable_order.proofs import cable_t_power_script, certify_beta, certify_slope
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
    """Set one field of a beta certificate document to a 1,000,000-character string, or x or p to -10^1000."""
    clash = next(r for r in doc["refutations"] if r["reason"]["kind"] == "clash")
    if probe in ("params_x", "params_p"):  # with q, the slope and the mode made to agree, so it loads
        par = doc["params"]
        par[probe.removeprefix("params_")] = -(10**1000)
        par["q"] = par["p"] * par["x"] * par["y"] - 1
        par.update(beta=None, mode="slope", slope=f"{par['p'] * par['q']}/1")
        doc["cramer"] = None
    elif probe == "refutation_equation":
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

    def test_a_name_too_long_to_spell_is_a_clean_error(self, capsys):
        # lam = mu^-(xy) a^x spells mu out 3 * 10^1000 times
        assert main(["present", "--x", str(10**1000), "--y", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "too long to spell out" in captured.err and "Traceback" not in captured.err
        assert len(captured.err.encode()) < 1024

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--p", str(-(10**999)), "--beta", "1"],
            ["--p", "2", "--beta", str(-(10**999))],
            ["--p", "2", "--slope", str(10**999)],
        ],
        ids=["p", "beta", "slope"],
    )
    def test_quoted_arguments_are_bounded(self, capsys, argv):
        # as TestReplayCommand.test_quoted_values_are_bounded: a 1,000-digit argument is cut
        assert main(["certify", "--x", "2", "--y", "3"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.encode()) < 1024

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

    def test_an_inconclusive_result_exits_two_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        survivors = all_sign_assignments()[:2]
        monkeypatch.setattr(cli, "certify_beta", lambda x, y, p, beta: Inconclusive(survivors))
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "inconclusive: surviving sign assignments:\n  a=pos b=pos t=pos\n  a=pos b=pos t=neg\n"
        )
        assert not list(tmp_path.iterdir())


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

    def test_a_surgery_axiom_name_must_be_null(self, tmp_path, capsys):
        # the checker reads no name for a surgery axiom, so a name would be a second spelling
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "3", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        surgery = next(e["script"] for e in doc["equations"] if e["script"]["axiom"]["kind"] == "surgery")
        assert surgery["axiom"]["name"] is None
        surgery["axiom"]["name"] = "cable"
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(out)]) == 1
        assert capsys.readouterr().err == "error: cannot load certificate: a surgery axiom's name must be null\n"

    def test_a_step_n_of_null_is_a_load_error(self, tmp_path, capsys):
        # an absent n and n = null would otherwise be two spellings of one step
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "3", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        steps = [s for e in doc["equations"] for s in e["script"]["steps"] if "n" in s]
        assert steps and all(type(s["n"]) is int for s in steps)
        steps[0]["n"] = None
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot load certificate: a step position and n ")

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
            ("params_x", 2),
            ("params_p", 2),
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

    def test_a_cited_power_too_long_to_spell_is_a_replay_problem(self, tmp_path, capsys):
        # the script checks (one multiply step), but the rows cite a side that has a name
        out = tmp_path / "cert.json"
        assert main(["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        entry = doc["equations"][0]  # central_relation, cited by rows
        entry["script"]["steps"].append({"kind": "multiply", "on": "right", "word": "muC^" + str(10**30)})
        for sides in (entry, entry["script"]["claimed"]):
            sides["lhs"] += " muC^" + str(10**30)
            sides["rhs"] += " muC^" + str(10**30)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(out)]) == 2  # raises nothing
        err = capsys.readouterr().err
        assert "replay problem: equation 'central_relation' is not over a, b and t" in err
        assert "Traceback" not in err and len(err.encode()) < 1024


def _entry(doc: dict, entry_id: str) -> dict:
    return next(e for e in doc["equations"] if e["id"] == entry_id)


def _steps(doc: dict, entry_id: str) -> list:
    return _entry(doc, entry_id)["script"]["steps"]


def _set_both_copies(doc: dict, entry_id: str, key: str, value) -> None:
    entry = _entry(doc, entry_id)
    entry[key] = entry["script"][key] = value  # the entry's copy and its script's, so they agree


SURGERY = "surgery_interior_combination"  # at the slope 65/3 of beta 3, in H
CLASH_CENTRAL_POS_POS = {"kind": "clash", "equation": "central_relation", "lhs_sign": "pos", "rhs_sign": "pos"}

# one tamper each, of the (2, 3, 2) beta-3 certificate: the exit code and the
# load error, or the first replay problem, it must give
CORE_REJECTIONS = {
    # Context, at load
    "knot_group_script_with_a_slope": (
        lambda d: _set_both_copies(d, "central_relation", "slope", "65/3"), 1,
        "knot-group context carries no slope"),
    "surgery_script_with_a_null_slope": (
        lambda d: _set_both_copies(d, SURGERY, "slope", None), 1,
        "surgery context requires a slope"),
    "unknown_context": (
        lambda d: _set_both_copies(d, "central_relation", "context", "K"), 1,
        "unknown context 'K'"),
    # one text per value, at load: a word or slope must be written as it
    # prints, so two byte strings never replay as one proof
    "params_slope_with_an_underscore": (
        lambda d: d["params"].update(slope="6_5/3"), 1, "params.slope '6_5/3' is not written as '65/3'"),
    "params_slope_in_arabic_indic_digits": (
        lambda d: d["params"].update(slope="+\u0666\u0665/3"), 1,
        "params.slope '+\u0666\u0665/3' is not written as '65/3'"),
    "params_slope_padded": (
        lambda d: d["params"].update(slope=" 65/3 "), 1, "params.slope ' 65/3 ' is not written as '65/3'"),
    "script_slope_padded": (
        lambda d: _set_both_copies(d, SURGERY, "slope", "65/3 "), 1,
        "script slope '65/3 ' is not written as '65/3'"),
    "claimed_side_in_arabic_indic_digits": (  # the entry's copy and its script's, so they agree
        lambda d: [c.update(lhs="a^\u0662") for c in (_entry(d, "central_relation"),
                                                      _entry(d, "central_relation")["script"]["claimed"])], 1,
        "claimed lhs 'a^\u0662' is not written as 'a^2'"),
    "step_word_with_a_leading_zero": (
        lambda d: _steps(d, "central_relation")[0].update(word="b^03"), 1,
        "step word 'b^03' is not written as 'b^3'"),
    "step_word_unreduced": (
        lambda d: _steps(d, "central_relation")[0].update(word="b b^2"), 1,
        "step word 'b b^2' is not written as 'b^3'"),
    # a script's cites is a list: a string or an object would load as the
    # ids its characters or keys spell, and a script that uses none replays
    "cites_as_a_string": (
        lambda d: _entry(d, "central_relation")["script"].update(cites="xyz"), 1,
        "cites must be list, got str"),
    "cites_as_an_object": (
        lambda d: _entry(d, "central_relation")["script"].update(cites={"k": 1}), 1,
        "cites must be list, got dict"),
    # one spelling per key: null is the spelling of none, and each of these
    # keys must be present, so an absent one is not a second spelling of null
    "entry_without_a_slope": (
        lambda d: _entry(d, "central_relation").pop("slope"), 1, "'slope'"),
    "script_without_a_slope": (
        lambda d: _entry(d, "central_relation")["script"].pop("slope"), 1, "'slope'"),
    "axiom_without_a_name": (
        lambda d: _entry(d, SURGERY)["script"]["axiom"].pop("name"), 1, "'name'"),
    "script_without_cites": (
        lambda d: _entry(d, "central_relation")["script"].pop("cites"), 1, "'cites'"),
    "params_slope_unparsable": (
        lambda d: d["params"].update(slope="65|3"), 1, "bad slope '65|3': expected M or M/N with integers M and N"),
    "assignment_with_an_unknown_sign": (
        lambda d: d["refutations"][0]["assignment"].update(a="up"), 1, "bad sign 'up'"),
    # the checker
    "unknown_reference_type": (
        lambda d: _steps(d, SURGERY)[2]["ref"].update(type="lemma"), 2,
        f"script '{SURGERY}' fails: step 2: unknown reference kind 'lemma'"),
    "swap_on_both_sides": (
        lambda d: _steps(d, "cable_t_power")[6].update(side="both"), 2,
        "script 'cable_t_power' fails: step 6: bad side 'both'"),
    "commute_block_repeating_a_generator": (
        lambda d: _steps(d, "cable_t_power").__setitem__(
            6, {"kind": "commute", "side": "rhs", "position": 0, "word": "a^-1 b a^4", "n": 1}), 2,
        "script 'cable_t_power' fails: step 6: commuting factors must be on distinct generators"),
    "multiply_without_a_side": (
        lambda d: _steps(d, "central_relation")[0].pop("on"), 2,
        "script 'central_relation' fails: step 0: bad multiplication side None"),
    "multiply_by_an_unknown_generator": (
        lambda d: _steps(d, "central_relation")[0].update(word="b^3 z"), 2,
        "script 'central_relation' fails: step 0: unknown generators ['z'] in multiplier"),
    "step_without_a_position": (
        lambda d: _steps(d, "cable_t_power")[6].pop("position"), 2,
        "script 'cable_t_power' fails: step 6: step requires a position"),
    "swap_missing_an_operand": (
        lambda d: _steps(d, "cable_t_power")[6].pop("left"), 2,
        "script 'cable_t_power' fails: step 6: swap requires both operands"),
    "swap_with_exponent_zero": (
        lambda d: _steps(d, "cable_t_power")[6].update(left=["b", 0]), 2,
        "script 'cable_t_power' fails: step 6: swap operands must be distinct generators with nonzero exponents"),
    "unknown_defined_name": (
        lambda d: _steps(d, "cable_t_power")[5].update(name="nu"), 2,
        "script 'cable_t_power' fails: step 5: unknown defined element 'nu'"),
    "relation_direction_expand": (
        lambda d: _steps(d, "cable_endpoint_product")[5].update(direction="expand"), 2,
        "script 'cable_endpoint_product' fails: step 5: bad relation direction 'expand'"),
    "definition_axiom_naming_no_defined_element": (
        lambda d: _entry(d, "cable_endpoint_product")["script"]["axiom"].update(name="lamD"), 2,
        "script 'cable_endpoint_product' fails: no defined element 'lamD'"),
    "surgery_axiom_in_the_knot_group": (
        lambda d: _entry(d, "central_relation")["script"].update(axiom={"kind": "surgery", "name": None}), 2,
        "script 'central_relation' fails: the surgery relator is only an axiom in a surgery quotient"),
    "relation_citing_a_relator_for_an_equation": (
        lambda d: _steps(d, "cable_endpoint_product")[5].update(ref={"type": "relator", "name": "central"}), 2,
        "script 'cable_endpoint_product' fails: step 7: claimed result mismatch: "
        "derived muC^21 lamC = t a^-2 t^2 b^3 a^-2, claimed muC^21 lamC = t a b"),
    "claimed_side_that_the_steps_do_not_reach": (
        lambda d: [c.update(lhs="a^3") for c in (_entry(d, "central_relation"),
                                                 _entry(d, "central_relation")["script"]["claimed"])], 2,
        "script 'central_relation' fails: step 2: claimed result mismatch: derived a^2 = b^3, claimed a^3 = b^3"),
    # replay itself
    "duplicated_entry_id": (
        lambda d: d["equations"].insert(1, copy.deepcopy(d["equations"][0])), 2,
        "duplicate equation id 'central_relation'"),
    "surgery_script_at_another_slope": (
        lambda d: _set_both_copies(d, SURGERY, "slope", "43/2"), 2,
        f"equation '{SURGERY}' proven at a different slope"),
    "nontriviality_axiom_on_a_nonzero_assignment": (
        lambda d: d["refutations"][0].update(reason={"kind": "nontriviality_axiom"}), 2,
        "nontriviality axiom used on a nonzero assignment"),
    "all_zero_assignment_citing_an_equation": (
        lambda d: d["refutations"][-1].update(reason=CLASH_CENTRAL_POS_POS), 2,
        "the all-zero assignment must cite the nontriviality axiom"),
    "recorded_signs_that_do_not_clash": (
        lambda d: d["refutations"][0].update(reason=CLASH_CENTRAL_POS_POS), 2,
        "row for 'central_relation' is not a clash"),
    "duplicated_assignment": (
        lambda d: d["refutations"].append(copy.deepcopy(d["refutations"][0])), 2,
        "duplicate assignment {'a': 'pos', 'b': 'pos', 't': 'pos'}"),
}


@pytest.mark.parametrize("case", CORE_REJECTIONS)
def test_each_trusted_core_rejection_gives_its_message(tmp_path, capsys, case):
    tamper, code, message = CORE_REJECTIONS[case]
    doc = json.loads(cli.certificate_text(certify_beta(2, 3, 2, 3)))
    assert doc["params"]["slope"] == "65/3"
    assert doc["refutations"][0]["assignment"] == {"a": "pos", "b": "pos", "t": "pos"}
    tamper(doc)
    out = tmp_path / "cert.json"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(out)]) == code  # raises nothing
    err = capsys.readouterr().err
    if code == 1:
        assert err == f"error: cannot load certificate: {message}\n"
    else:
        assert err.splitlines()[0] == f"replay problem: {message}"


@pytest.mark.parametrize("key", ["cramer", "version"])
def test_a_certificate_without_its_cramer_or_version_does_not_load(tmp_path, capsys, key):
    # one spelling per key: at beta 1 the determinant data is null, so an
    # absent cramer would read as null, and an absent version as ""
    doc = json.loads(cli.certificate_text(certify_beta(2, 3, 2, 1)))
    assert doc["cramer"] is None and doc["version"] == "v2"
    del doc[key]
    out = tmp_path / "cert.json"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot load certificate: '{key}'\n"


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


COMMANDS = ("present", "certify", "sweep", "verify-identities", "replay")


class TestDispatch:
    """main parses a command's arguments with its subparser alone, as the top-level parser would."""

    ARGVS = [
        [], ["nope"], ["-h"], ["--help"], ["--x", "2"], ["-h", "replay"],
        *([command, "--help"] for command in COMMANDS),
        *([command] for command in COMMANDS),
        *([command, "--beta", "x"] for command in COMMANDS),
        ["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "x"],
        ["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "9" * 5000],
        ["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--slope", "43/2"],
        ["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--zap", "-q"],
        ["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--bet", "2"],
        ["certify", "--x", "2", "--y", "3", "--p", "2", "--beta", "1", "--table", "--json", "a.json"],
        ["present", "--x", "2", "--y", "3"],
        ["present", "--x", "2", "--y", "3", "--p", "2", "--json", "--"],
        ["sweep", "--grid", "x=2;y=3;p=2;beta=1", "--jobs", "0"],
        ["sweep", "--grid", "x=2;y=3;p=2;beta=1"],
        ["verify-identities", "--x", "2", "--y", "3", "--p", "2"],
        ["replay", "a.json"], ["replay", "a.json", "b.json"], ["replay", "--", "-a.json"], ["replay", "-a.json"],
        ["replay", "--help", "a.json"],
    ]

    @staticmethod
    def outcome(parse, argv, capsys):
        try:
            result, code = parse(argv), None
        except SystemExit as done:
            result, code = None, done.code
        captured = capsys.readouterr()
        return result, code, captured.out, captured.err

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_main_parses_as_the_top_level_parser(self, argv, capsys):
        commands = cli.build_parser().commands
        saved = {name: sp.get_default("fn") for name, sp in commands.items()}

        def namespace_of(args):
            return vars(args)  # main returns what the command would be given

        try:
            for sp in commands.values():
                sp.set_defaults(fn=namespace_of)
            direct = self.outcome(lambda a: vars(cli.build_parser().parse_args(a)), argv, capsys)
            dispatched = self.outcome(main, argv, capsys)
        finally:
            for name, sp in commands.items():
                sp.set_defaults(fn=saved[name])
        assert dispatched == direct
        if direct[0] is not None:
            assert direct[0]["command"] == argv[0]

    def test_main_reads_sys_argv_by_default(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["cable-order", "replay", "a.json", "b.json"])
        with pytest.raises(SystemExit) as err:
            main()
        assert err.value.code == 1
        assert capsys.readouterr().err.endswith("cable-order: error: unrecognized arguments: b.json\n")


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


def test_import_loads_neither_typing_nor_fractions():
    # a presence check, not a timing: each module costs a few ms of every CLI start
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cable_order.cli; "
        "print(sorted(m for m in ('typing', 'fractions') if m in sys.modules)); "
        "from cable_order.normal_form import genus; print(genus(2, 3, 2, 11), 'fractions' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n7 False\n"


@pytest.mark.parametrize("argv", [
    ["certify", "--x", "2", "--y", "3", "--p", "2", "--slope", "21", "--table"],
    ["present", "--x", "2", "--y", "3", "--p", "2"],
    ["--help"],
    ["certify", "--help"],
], ids=["certify_table", "present", "help", "certify_help"])
def test_a_closed_stdout_exits_one_without_a_traceback(argv):
    # the read end is closed before the child starts, so every write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "cable_order.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr


def test_the_package_import_leaves_the_cli_unloaded():
    # `python -m cable_order.cli` warns when the package import has already loaded the module
    code = "import sys; sys.path.insert(0, sys.argv[1]); import cable_order; print('cable_order.cli' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "False\n"


def test_loading_and_replaying_a_fixture_loads_only_the_trusted_core():
    # the package root imports nothing, so replay through `obstruction` loads no generator
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from pathlib import Path; "
        "from cable_order.obstruction import certificate_from_json_dict, replay; "
        "print(bool(replay(certificate_from_json_dict(json.loads(Path(sys.argv[2]).read_text()))))); "
        "print(sorted(m for m in sys.modules if m.startswith('cable_order.')))"
    )
    fixture = V1_FIXTURES[0]
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(SRC), str(fixture)],
                          capture_output=True, text=True, check=True, timeout=60)
    core = ["derivations", "obstruction", "presentations", "slopes", "words"]
    assert done.stdout == f"True\n{['cable_order.' + m for m in core]}\n"


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

    def test_a_long_beta_is_written_under_a_hashed_name(self, tmp_path, capsys):
        # the plain stem would be 323 characters: more than a file name may hold
        beta = "9" * 300
        out = tmp_path / "certs"
        assert main(["sweep", "--grid", f"x=2;y=3;p=2;beta={beta}", "--out", str(out)]) == 0
        (record,) = json.loads((out / "summary.json").read_text())["results"]
        stem = f"cert_x2_y3_p2_beta{beta}"
        assert record["status"] == "certified"
        assert record["file"] == f"cert_{hashlib.sha256(stem.encode()).hexdigest()[:32]}.json"
        assert len(record["file"].encode()) <= 255
        assert main(["replay", str(out / record["file"])]) == 0

    def test_a_point_whose_written_bytes_do_not_replay_is_not_written(self, tmp_path, capsys, monkeypatch):
        # the writer is made to flip one recorded sign in its text: the in-memory
        # certificate is sound, so only a replay of the text catches it
        real = cli.certificate_text

        def flipped(cert):
            text = real(cert)
            assert '"lhs_sign":"neg"' in text
            return text.replace('"lhs_sign":"neg"', '"lhs_sign":"pos"', 1)

        monkeypatch.setattr(cli, "certificate_text", flipped)
        out = tmp_path / "certs"
        assert main(["sweep", "--grid", "x=2;y=3;p=2;beta=1", "--out", str(out)]) == 1
        (record,) = json.loads((out / "summary.json").read_text())["results"]
        assert record["status"] == "replay_failed" and "recorded signs pos/" in record["detail"]
        assert not list(out.glob("cert_*.json"))

    def test_an_inconclusive_point_is_recorded_and_not_written(self, tmp_path, capsys, monkeypatch):
        real = cli.certify_beta

        def inconclusive_at_beta_2(x, y, p, beta):
            return Inconclusive(all_sign_assignments()[:3]) if beta == 2 else real(x, y, p, beta)

        monkeypatch.setattr(cli, "certify_beta", inconclusive_at_beta_2)
        out = tmp_path / "certs"
        assert main(["sweep", "--grid", "x=2;y=3;p=2;beta=1..2", "--out", str(out)]) == 1
        assert "x=2 y=3 p=2 beta=2: inconclusive\n1/2 certified\n" in capsys.readouterr().out
        records = json.loads((out / "summary.json").read_text())["results"]
        assert records[1] == {"x": 2, "y": 3, "p": 2, "beta": "2", "status": "inconclusive", "survivors": 3}
        assert [f.name for f in out.glob("cert_*.json")] == ["cert_x2_y3_p2_beta1.json"]

    def test_a_point_whose_written_bytes_do_not_load_is_not_written(self, tmp_path, capsys, monkeypatch):
        # the writer is made to change the mode, which the loader checks against beta
        real = cli.certificate_text

        def relabelled(cert):
            text = real(cert)
            assert '"mode":"beta"' in text
            return text.replace('"mode":"beta"', '"mode":"slope"', 1)

        monkeypatch.setattr(cli, "certificate_text", relabelled)
        out = tmp_path / "certs"
        assert main(["sweep", "--grid", "x=2;y=3;p=2;beta=1", "--out", str(out)]) == 1
        (record,) = json.loads((out / "summary.json").read_text())["results"]
        assert record["status"] == "replay_failed"
        assert record["detail"] == (
            "the certificate text does not load: params.mode must be beta exactly when params.beta is set"
        )
        assert not list(out.glob("cert_*.json"))

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

    def test_a_repeated_dimension_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "certs"
        assert main(["sweep", "--grid", "x=2;y=3;p=2;beta=1;beta=2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: repeated grid dimension 'beta'\n"
        assert not out.exists()

    def test_a_slope_listed_twice_is_a_usage_error(self, tmp_path, capsys):
        # three spellings of 21/1 would make three records of one file
        out = tmp_path / "certs"
        assert main(["sweep", "--grid", "x=2;y=3;p=2;slope=21|21/1| 21", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: repeated grid slope '21/1'\n"
        assert not out.exists()
        assert parse_grid("x=2;y=3;p=2;slope=21| 43/2")["slope"] == ["21", "43/2"]

    def test_grid_parsing(self):
        dims = parse_grid("x=2..3;y=3;p=2;beta=1..2")
        assert dims["x"] == [2, 3] and dims["beta"] == [1, 2]
        with pytest.raises(ValueError):
            parse_grid("x=2;y=3;p=2")
        with pytest.raises(ValueError):
            parse_grid("x=2;y=3;p=2;beta=1;slope=21/1")
        with pytest.raises(ValueError):
            parse_grid("x=2;y=3;p=2;beta=1;zap=3")

    RANGE = ": expected N or A..B with integers N, A and B\n"
    SLOPE = ": expected M or M/N with integers M and N\n"
    CERTIFY = ["certify", "--x", "2", "--y", "3", "--p", "2", "--slope"]

    @pytest.mark.parametrize("argv,err", [
        (["sweep", "--grid", "x=2;y=3;p=2;beta=1|2"], "error: bad grid beta '1|2'" + RANGE),
        (["sweep", "--grid", "x=2..3..4;y=3;p=2;beta=1"], "error: bad grid x '2..3..4'" + RANGE),
        (["sweep", "--grid", "x=2;y=3;p= 2..q ;beta=1"], "error: bad grid p '2..q'" + RANGE),
        (["sweep", "--grid", "x=2;y=3;p=2;beta=" + "7" * 59 + "x"], "error: bad grid beta '" + "7" * 39 + RANGE),
        ([*CERTIFY, "abc"], "error: bad slope 'abc'" + SLOPE),
        ([*CERTIFY, "21/1/1"], "error: bad slope '21/1/1'" + SLOPE),
        ([*CERTIFY, "4" * 59 + "x"], "error: bad slope '" + "4" * 39 + SLOPE),
    ], ids=["beta-list", "x-two-ranges", "p-range-end", "beta-cut", "slope-word", "slope-three-parts", "slope-cut"])
    def test_a_malformed_number_names_its_dimension_or_slope_and_the_forms(self, argv, err, tmp_path, capsys):
        out = tmp_path / "certs"
        argv += ["--out", str(out)] if argv[0] == "sweep" else ["--json", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err
        assert not out.exists()

    LONG = "7" * 5000  # more digits than Python's default limit of 4,300 for integer text
    CERTIFY_23 = ["certify", "--x", "2", "--y", "3"]

    @pytest.mark.parametrize("argv,err", [
        (["certify", "--x", LONG, "--y", "3", "--p", "2", "--beta", "1"], "argument --x: {limit}, got '{cut}"),
        (["present", "--x", "2", "--y", LONG], "argument --y: {limit}, got '{cut}"),
        ([*CERTIFY_23, "--p", "-" + LONG, "--beta", "1"], "argument --p: {limit}, got '-" + "7" * 38),
        ([*CERTIFY_23, "--p", "2", "--beta", LONG], "argument --beta: {limit}, got '{cut}"),
        ([*CERTIFY_23, "--p", "2", "--beta", "7" * 59 + "x"], "argument --beta: must be an integer, got '{cut}"),
        ([*CERTIFY_23, "--p", "2", "--slope", LONG + "/2"], "error: bad slope '{cut}: {limit}"),
        ([*CERTIFY_23, "--p", "2", "--slope", "21/" + LONG], "error: bad slope '21/" + "7" * 36 + ": {limit}"),
        (["sweep", "--grid", f"x={LONG};y=3;p=2;beta=1"], "error: bad grid x '{cut}: {limit}"),
        (["sweep", "--grid", f"x=2;y=3;p=2;beta=1..{LONG}"], "error: bad grid beta '1.." + "7" * 36 + ": {limit}"),
    ], ids=["x", "y", "p", "beta", "beta-malformed", "slope-m", "slope-n", "grid-x", "grid-range-end"])
    def test_a_number_over_the_digit_limit_is_named_and_cut(self, argv, err, tmp_path, capsys):
        # argparse reports a bad --x, --y, --p or --beta as a usage error, and quotes at most 40 characters
        out = tmp_path / "certs"
        argv += ["--out", str(out)] if argv[0] == "sweep" else ["--json", str(out)]
        try:
            code = main(argv)
        except SystemExit as usage_error:
            code = usage_error.code
        assert code == 1
        captured = capsys.readouterr()
        limit = f"an integer longer than Python's {sys.get_int_max_str_digits():,}-digit limit"
        last = captured.err.splitlines()[-1]
        assert last.endswith(err.format(limit=limit, cut="7" * 39)), last
        assert captured.out == "" and len(captured.err) < 1024
        assert not out.exists()

    def test_a_bad_grid_dimension_is_cut(self, tmp_path, capsys):
        out = tmp_path / "certs"
        assert main(["sweep", "--grid", "k" * 300 + "=1;x=2;y=3;p=2;beta=1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: bad grid dimension '" + "k" * 39 + "\n"
        assert not out.exists()

    def test_a_malformed_grid_slope_stays_its_points_record(self, tmp_path, capsys):
        out = tmp_path / "certs"
        assert main(["sweep", "--grid", "x=2;y=3;p=2;slope=abc|21", "--out", str(out)]) == 1
        records = json.loads((out / "summary.json").read_text())["results"]
        assert [(r["slope"], r["status"]) for r in records] == [("abc", "unsupported"), ("21", "certified")]
        assert records[0]["detail"] == "bad slope 'abc'" + self.SLOPE.rstrip("\n")


class TestVerifyIdentities:
    def test_all_pass(self, capsys):
        assert main(["verify-identities", "--x", "2", "--y", "3", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out
        assert "2g-1 = 13" in out

    def test_larger_parameters(self, capsys):
        assert main(["verify-identities", "--x", "3", "--y", "5", "--p", "2"]) == 0
        assert "2g-1 = 43" in capsys.readouterr().out

    def test_a_word_too_long_to_spell_is_a_fail_line(self, capsys):
        # eliminating t^p spells mu out q = 6 * 10^32 + 5 times
        assert main(["verify-identities", "--x", str(10**32 + 1), "--y", "3", "--p", "2"]) == 1
        captured = capsys.readouterr()
        assert "FAIL t-power elimination matches the normal form: a power with" in captured.out
        assert "Traceback" not in captured.err and len(captured.err.encode()) < 1024

    def test_corrupted_script_fixture_fails_with_step_index(self, monkeypatch, capsys):
        pres = cable_presentation(2, 3, 2)
        corrupted = script_from_json_dict(corrupted_t_power_doc(pres))

        def checked_entry(pres):
            check_script(corrupted, pres, {})  # a script from outside the program is checked before use
            return CertEntry(corrupted)

        monkeypatch.setattr(proofs, "cable_t_power_script", checked_entry)
        assert main(["verify-identities", "--x", "2", "--y", "3", "--p", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "step 3" in out
