"""End-to-end tests of the command line: golden outputs, schema validation,
determinism, exit codes, config handling, and the picture renderers."""

import json
import xml.etree.ElementTree as ET
from importlib import resources

import jsonschema
import pytest

from acigb import cli as cli_module
from acigb.cli import main, parse_m, parse_mspec, verify_all, write_atomic
from acigb.paths import ReflectionLine, path_from_monomial, reflect
from acigb.sequences import MSpec

GOLDEN_GB_TEXT = """\
x1^2 + 2*x1*x2 + 2*x1*x3 + 2*x2*x3 + 2*x1*x4 + 2*x2*x4 + 2*x3*x4 + x4^2
x2^2
x3^2
x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + 2*x2*x3*x4 + 1/2*x1*x4^2 + x2*x4^2 + x3*x4^2
x4^3
x1*x2*x4^2
x1*x3*x4^2
x2*x3*x4^2
"""

GOLDEN_CRIT_TEXT = """\
pure powers: x2^2, x3^2, x4^3
crit 1: x1^2
crit 2: -
crit 3: x1*x2*x3
crit 4: x1*x2*x4^2, x1*x3*x4^2, x2*x3*x4^2
"""


def schema(name: str) -> dict:
    text = resources.files("acigb").joinpath(f"schemas/{name}.json").read_text()
    return json.loads(text)


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys, schema_name):
    code, out, err = invoke(argv + ["--format", "json"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, schema(schema_name))
    return payload


class TestParsing:
    def test_comma_list(self):
        assert parse_m("3,2,2,3") == (4, (3, 2, 2, 3))

    def test_eq_syntax(self):
        assert parse_m("eq:3:5") == (5, (3, 3, 3, 3, 3))

    def test_single_with_n(self):
        assert parse_m("2", n=4) == (4, (2, 2, 2, 2))

    def test_length_disagreement(self):
        with pytest.raises(ValueError, match="disagrees"):
            parse_m("3,2", n=5)
        with pytest.raises(ValueError, match="disagrees"):
            parse_m("eq:2:3", n=4)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_m("eq:3")
        with pytest.raises(ValueError):
            parse_m("3,x")

    def test_mspec_forms(self):
        assert parse_mspec("eq:3") == MSpec.constant(3)
        assert parse_mspec("4") == MSpec.constant(4)
        assert parse_mspec("3,2,2") == MSpec.finite((3, 2, 2))


class TestGoldenOutputs:
    def test_gb_text(self, capsys):
        code, out, _ = invoke(
            ["gb", "--n", "4", "--m", "3,2,2,3", "--k", "2", "--format", "text"],
            capsys,
        )
        assert code == 0
        assert out == GOLDEN_GB_TEXT

    def test_crit_text(self, capsys):
        code, out, _ = invoke(
            ["crit", "--m", "3,2,2,3", "--k", "2", "--format", "text"], capsys
        )
        assert code == 0
        assert out == GOLDEN_CRIT_TEXT

    def test_hilbert_text(self, capsys):
        code, out, _ = invoke(
            ["hilbert", "--m", "3,2,2,3", "--k", "2", "--format", "text"], capsys
        )
        assert code == 0
        assert out.splitlines()[:2] == [
            "hs_P: 1 4 8 10 8 4 1",
            "hs_quotient: 1 4 7 6",
        ]

    def test_motzkin_row(self, capsys):
        code, out, _ = invoke(["seq", "--family", "motzkin", "--max", "8"], capsys)
        assert code == 0
        assert out == "1 1 2 4 9 21 51 127 323\n"

    def test_m2_format_is_plain_infix(self, capsys):
        code, out, _ = invoke(
            ["gb", "--m", "3,2,2,3", "--k", "2", "--format", "m2"], capsys
        )
        assert code == 0
        assert out.startswith("{\n  x1^2 +")
        assert out.endswith("\n}\n")
        assert "1/2*x1*x4^2" in out

    def test_eq_syntax_end_to_end(self, capsys):
        a = invoke(["gb", "--m", "eq:2:3", "--k", "1"], capsys)
        b = invoke(["gb", "--m", "2,2,2", "--k", "1"], capsys)
        assert a == b


class TestJsonOutputs:
    def test_gb(self, capsys):
        payload = run_json(["gb", "--m", "3,2,2,3", "--k", "2"], capsys, "gb")
        assert len(payload["elements"]) == 8
        coeffs = [t["coeff"] for t in payload["elements"][3]["terms"]]
        assert "1/2" in coeffs

    def test_gb_polynomials_match_standalone_schema(self, capsys):
        payload = run_json(["gb", "--m", "2,2", "--k", "3"], capsys, "gb")
        for element in payload["elements"]:
            jsonschema.validate(element, schema("polynomial"))

    def test_gb_respects_ranking_and_order(self, capsys):
        payload = run_json(
            ["gb", "--m", "3,3,3", "--k", "1", "--ranking", "3,2,1",
             "--order", "grlex"],
            capsys,
            "gb",
        )
        assert payload["order"] == {"kind": "grlex", "ranking": [3, 2, 1]}

    def test_init(self, capsys):
        payload = run_json(["init", "--m", "3,2,2,3", "--k", "2"], capsys,
                           "initial_ideal")
        assert [2, 0, 0, 0] in payload["min_gens"]
        assert [3, 0, 0, 0] not in payload["min_gens"]

    def test_crit(self, capsys):
        payload = run_json(["crit", "--m", "3,2,2,3", "--k", "2"], capsys, "crit")
        assert payload["pure_powers"] == [[0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
        assert payload["crit"]["2"] == []
        assert payload["crit"]["3"] == [[1, 1, 1, 0]]

    def test_hilbert(self, capsys):
        payload = run_json(["hilbert", "--m", "3,2,2,3", "--k", "2"], capsys,
                           "hilbert")
        assert payload["hs_P"] == [1, 4, 8, 10, 8, 4, 1]
        assert payload["hs_quotient"] == [1, 4, 7, 6]
        assert payload["D"] == 6
        assert payload["delta"] == 3

    def test_seq_g(self, capsys):
        payload = run_json(
            ["seq", "--family", "g", "--m", "eq:3", "--k", "2", "--max", "8"],
            capsys,
            "seq",
        )
        assert payload["m"] == {"prefix": [], "tail": 3}
        assert payload["values"] == [
            [2, 1], [3, 1], [4, 2], [5, 4], [6, 9], [7, 21], [8, 51]
        ]

    def test_seq_triangle(self, capsys):
        payload = run_json(
            ["seq", "--family", "s-catalan", "--m", "3", "--max", "3"],
            capsys,
            "seq",
        )
        assert payload["s"] == 2
        assert payload["rows"][2] == [3, 6, 6, 3, 1]

    def test_seq_spin(self, capsys):
        payload = run_json(
            ["seq", "--family", "spin", "--m", "4", "--max", "4"], capsys, "seq"
        )
        assert payload["sigma"] == "3/2"
        assert payload["values"][4] == [4, 4]

    def test_wlp(self, capsys):
        payload = run_json(["wlp", "--n", "5", "--m", "2", "--p", "5"], capsys, "wlp")
        assert payload["has_wlp"] is True
        assert payload["route"] == "rank-oracle"
        assert len(payload["findings"]) == 3

    def test_wlp_mixed_counterexample(self, capsys):
        payload = run_json(
            ["wlp", "--m", "2,2,2,4,5", "--p", "3"], capsys, "wlp"
        )
        assert payload["has_wlp"] is True
        assert payload["explanation"] is not None
        ideal_finding = payload["findings"][-1]
        assert ideal_finding["route"] == "initial-ideal"
        assert [0, 0, 0, 3, 0] in ideal_finding["witness"][1]

    def test_rank(self, capsys):
        payload = run_json(
            ["rank", "--n", "5", "--m", "2", "--p", "2", "--d", "1"], capsys, "rank"
        )
        assert payload["rank"] == 4
        assert payload["expected"] == 5
        assert payload["maximal"] is False

    def test_verify_with_census(self, capsys):
        payload = run_json(
            ["verify", "--n-max", "3", "--m-max", "4", "--k-max", "2", "--census"],
            capsys,
            "verify",
        )
        assert payload["ok"] is True
        target = [
            row for row in payload["cases"]
            if row["n"] == 3 and row["m"] == [2, 3, 4] and row["k"] == 2
        ]
        assert target[0]["census"] == 5


class TestSeqCsv:
    def test_catalan(self, capsys):
        code, out, _ = invoke(
            ["seq", "--family", "catalan", "--max", "5", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "index,value"
        assert out.splitlines()[-1] == "5,42"

    def test_g_header_names_degree(self, capsys):
        code, out, _ = invoke(
            ["seq", "--family", "g", "--m", "eq:2", "--k", "1", "--max", "3",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "degree,count"

    def test_triangle_rows(self, capsys):
        code, out, _ = invoke(
            ["seq", "--family", "s-catalan", "--m", "2", "--max", "2",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "n,k,value"
        assert "2,0,2" in out.splitlines()


class TestDeterminism:
    def test_gb_json_bytes(self, capsys):
        a = invoke(["gb", "--m", "3,2,2,3", "--k", "2"], capsys)
        b = invoke(["gb", "--m", "3,2,2,3", "--k", "2"], capsys)
        assert a == b

    def test_verify_bytes_across_pool_sizes(self, capsys, monkeypatch):
        argv = ["verify", "--n-max", "2", "--m-max", "3", "--k-max", "2"]
        serial = invoke(argv, capsys)
        monkeypatch.setenv("ACI_GB_THREADS", "3")
        pooled = invoke(argv, capsys)
        assert serial == pooled


class TestOutputFile:
    def test_atomic_write_and_silence(self, tmp_path, capsys):
        target = tmp_path / "basis.json"
        code, out, _ = invoke(
            ["gb", "--m", "2,2", "--k", "1", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        jsonschema.validate(payload, schema("gb"))
        assert not list(tmp_path.glob(".acigb-*"))

    def test_write_atomic_replaces(self, tmp_path):
        target = tmp_path / "f.txt"
        target.write_text("old")
        write_atomic(str(target), "new")
        assert target.read_text() == "new"

    def test_unwritable_target_is_domain_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        code, _, err = invoke(
            ["gb", "--m", "2,2", "--k", "1", "--out", str(target)], capsys
        )
        assert code == 1
        assert err.startswith("error:")
        assert ".acigb-" not in err
        assert str(target) in err

    def test_directory_target_names_only_the_target(self, tmp_path, capsys):
        target = tmp_path / "outdir"
        target.mkdir()
        code, _, err = invoke(
            ["gb", "--m", "3,3", "--k", "1", "--out", str(target)], capsys
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert ".acigb-" not in err
        assert str(target) in err
        assert list(target.iterdir()) == []
        assert not list(tmp_path.glob(".acigb-*"))


class TestConfigFile:
    def test_fills_missing_options(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": "3,2,2,3", "k": 2, "format": "text"}))
        code, out, _ = invoke(["hilbert", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.startswith("hs_P: 1 4 8 10 8 4 1")

    def test_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": "3,2,2,3", "k": 2, "format": "text"}))
        code, out, _ = invoke(["hilbert", "--config", str(cfg), "--k", "1"], capsys)
        assert code == 0
        assert "hs_quotient: 1 3 4 2" in out

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        code, _, err = invoke(["hilbert", "--config", str(cfg)], capsys)
        assert code == 1
        assert "frobnicate" in err

    def test_non_object_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = invoke(["hilbert", "--config", str(cfg)], capsys)
        assert code == 1


class TestExitCodes:
    def test_domain_error(self, capsys):
        code, _, err = invoke(["gb", "--m", "1,2", "--k", "1"], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_missing_required(self, capsys):
        assert invoke(["gb", "--k", "2"], capsys)[0] == 1
        assert invoke(["seq", "--max", "5"], capsys)[0] == 1
        assert invoke(["rank", "--n", "2", "--m", "2", "--p", "3"], capsys)[0] == 1

    def test_bad_format(self, capsys):
        code, _, err = invoke(
            ["hilbert", "--m", "2,2", "--k", "1", "--format", "m2"], capsys
        )
        assert code == 1
        assert "m2" in err

    def test_verification_failure_exits_two(self, capsys, monkeypatch):
        def doomed(case):
            n, m, k, _ = case
            return {
                "n": n, "m": list(m), "k": k,
                "gb_grevlex": False, "gb_grlex": True, "hilbert": True,
                "ok": False,
            }

        monkeypatch.setattr(cli_module, "_verify_case", doomed)
        code, out, _ = invoke(
            ["verify", "--n-max", "1", "--m-max", "2", "--k-max", "1",
             "--format", "text"],
            capsys,
        )
        assert code == 2
        assert "FAIL" in out

    def test_route_conflict_exits_two(self, capsys, monkeypatch):
        from acigb import wlp as wlp_module
        from acigb.wlp import RouteFinding

        monkeypatch.setitem(
            wlp_module._RUNNERS,
            "initial-ideal",
            lambda n, m, p: RouteFinding("initial-ideal", True, None),
        )
        code, _, err = invoke(["wlp", "--n", "5", "--m", "2", "--p", "2"], capsys)
        assert code == 2
        assert err.startswith("verification failure:")

    def test_huge_prime_modulus(self, capsys):
        argv = ["rank", "--n", "3", "--m", "2", "--d", "1", "--format", "text"]
        code, out, _ = invoke(argv + ["--p", "1000000000000000003"], capsys)
        assert (code, out) == (0, "rank 3 expected 3: maximal\n")
        code, out, err = invoke(argv + ["--p", str(10**25 + 13)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_ranking_of_wrong_length(self, capsys):
        code, out, err = invoke(
            ["gb", "--m", "3,3", "--k", "1", "--ranking", "2,1,3"], capsys
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "ranking" in err

    def test_rank_refuses_power_below_one(self, capsys):
        for n in ("1", "2"):
            for e in ("-1", "0"):
                code, out, err = invoke(
                    ["rank", "--n", n, "--m", "3", "--p", "5", "--d", "1",
                     f"--e={e}"],
                    capsys,
                )
                assert (code, out) == (1, ""), (n, e)
                assert err.startswith("error:") and err.count("\n") == 1
                assert "power" in err and e in err

    def test_empty_grid_trivially_passes(self, capsys):
        code, out, _ = invoke(
            ["verify", "--n-max", "0", "--format", "text"], capsys
        )
        assert code == 0
        assert out == "passed 0 of 0\n"


class TestVerifyAll:
    def test_small_grid_report(self):
        report = verify_all((2, 2, 2))
        assert report["ok"] is True
        assert report["passed"] == len(report["cases"]) == 4
        assert all(row["gb_grlex"] for row in report["cases"])

    def test_thread_count_clamped_to_cores(self, monkeypatch):
        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 4)
        for raw, want in (("1000000", 4), ("3", 3), ("0", 1), ("-5", 1)):
            monkeypatch.setenv("ACI_GB_THREADS", raw)
            assert cli_module._thread_count() == want
        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: None)
        monkeypatch.setenv("ACI_GB_THREADS", "8")
        assert cli_module._thread_count() == 1

    def test_bad_thread_setting(self, monkeypatch):
        monkeypatch.setenv("ACI_GB_THREADS", "many")
        with pytest.raises(ValueError, match="ACI_GB_THREADS"):
            verify_all((1, 2, 1))


class TestRender:
    def test_ascii_contains_path_and_line(self, capsys):
        code, out, _ = invoke(
            ["render", "--m", "3,2,2,3", "--k", "2", "--s", "1,0,1,2"], capsys
        )
        assert code == 0
        assert "o" in out and "*" in out and "." in out
        assert out.splitlines()[-1].split() == ["0", "1", "2", "3", "4"]

    def test_svg_parses_with_integer_geometry(self, capsys):
        code, out, _ = invoke(
            ["render", "--m", "3,2,2,3", "--k", "2", "--s", "1,0,1,2",
             "--format", "svg"],
            capsys,
        )
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        # boundary line and the path itself
        assert len(polylines) == 2
        for el in polylines:
            for pair in el.attrib["points"].split():
                x, y = pair.split(",")
                int(x), int(y)

    def test_reflect_overlay(self, capsys):
        code, out, _ = invoke(
            ["render", "--m", "3,2,2,3", "--k", "2", "--s", "2,0,0,0",
             "--reflect", "--format", "svg"],
            capsys,
        )
        assert code == 0
        root = ET.fromstring(out)
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3

    def test_reflect_needs_contact(self, capsys):
        line = ReflectionLine.build(2, (2, 2), 1)
        assert reflect(path_from_monomial((0, 0)), line) is None
        code, _, err = invoke(
            ["render", "--m", "2,2", "--k", "1", "--s", "0,0", "--reflect"], capsys
        )
        assert code == 1
        assert "reflect" in err

    def test_rejects_exponent_at_bound(self, capsys):
        code, _, err = invoke(
            ["render", "--m", "2,2", "--k", "1", "--s", "2,0"], capsys
        )
        assert code == 1
        assert "m-free" in err
        # a negative exponent lies outside the bounds as well
        code, out, err = invoke(
            ["render", "--m", "3,3", "--k", "1", "--s=-1,0"], capsys
        )
        assert (code, out) == (1, "")
        assert "m-free" in err and err.count("\n") == 1
