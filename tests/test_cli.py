"""End-to-end tests of the command line: golden outputs, schema validation,
determinism, exit codes, config handling, and the picture renderers."""

import argparse
import contextlib
import errno
import hashlib
import inspect
import itertools
import json
import operator
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acigb import cli as cli_module
from acigb import closed_form
from acigb.closed_form import reduced_gb
from acigb.cli import (
    SEQ_FAMILIES,
    SUBCOMMANDS,
    main,
    parse_m,
    parse_mspec,
    verify_all,
    write_atomic,
)
from acigb.hilbert import socle_degrees
from acigb.initial_ideal import MonomialIdeal
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


def reached(*args, **kwargs):
    """Stands in for a computation that a refusal must come before."""
    raise ValueError("computation reached")


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


# SHA-256 of stdout for one small invocation per (subcommand, format) pair,
# plus the s-catalan triangle in text and csv, recorded before the command
# line was made table-driven
PINNED_DIGESTS = [
    (["gb", "--m", "3,2,4", "--k", "3", "--ranking", "3,1,2", "--order", "grlex", "--format", "json"],
     "2d896de1d2dd44cbbc351a4789142bf498c927f2cbf23ab78d7c3cbc6cf6043f"),
    (["gb", "--m", "3,2,4", "--k", "3", "--ranking", "3,1,2", "--order", "grlex", "--format", "text"],
     "51ef0b045989e7d3342a65e2f2958705093d1fc136c5d048be4fa89661d90c6d"),
    (["gb", "--m", "3,2,4", "--k", "3", "--ranking", "3,1,2", "--order", "grlex", "--format", "m2"],
     "205254cabd65536c7b39bc05aa21bb0086e30918c635471c78c07b8520294319"),
    (["init", "--m", "3,2,2,3", "--k", "2", "--format", "json"],
     "5ed71f600c6b4ef58535fa32775edc42cb989e80e3e7addbcc55885260ee7284"),
    (["init", "--m", "3,2,2,3", "--k", "2", "--format", "text"],
     "736554382f61a2841a27c8e6ad29c8d7409270a5dc56db877fbb6dbd65847994"),
    (["crit", "--m", "eq:3:4", "--k", "2", "--format", "json"],
     "642812ed5800a8e54b1748f621308e294bf813ed4bd2f93b356af750b6168189"),
    (["crit", "--m", "eq:3:4", "--k", "2", "--format", "text"],
     "1e384e56f2cf37fc4ed42e3b117820fc64d89f1f1b85774a4e2f9fa8e38724ab"),
    (["hilbert", "--m", "2,3,4", "--k", "3", "--format", "json"],
     "094c359188300964074335d6244a3f0126d3603e5af4e1cef98ea4b9759f0fbc"),
    (["hilbert", "--m", "2,3,4", "--k", "3", "--format", "text"],
     "66629afc3e6431ea5d26a044c5df6083534e28f7d2664090309bcd2c65025cbb"),
    (["seq", "--family", "g", "--m", "eq:3", "--k", "2", "--max", "8", "--format", "text"],
     "3b1a429c1f978372223ad3b94e1998d53358f807844eb8c0c8ad86f356d6563d"),
    (["seq", "--family", "g", "--m", "eq:3", "--k", "2", "--max", "8", "--format", "json"],
     "7f49016dbf2bd28421592cc55ac9df3fd4287bc749fe20e3d795a939c2735aee"),
    (["seq", "--family", "g", "--m", "eq:3", "--k", "2", "--max", "8", "--format", "csv"],
     "a1f71e9411fc174ab0b05bfdab1ceb06e8afbf300e000bae8a71cc53ef3b6c91"),
    (["seq", "--family", "s-catalan", "--m", "3", "--max", "3", "--format", "text"],
     "7009b06455417af96d390084eb0d5e092da046339df395291b0d7a6f6c373963"),
    (["seq", "--family", "s-catalan", "--m", "3", "--max", "3", "--format", "csv"],
     "7eb6a9c913dba80885e0efea58ad6dddce55daafc2b828dde07ec29ab1a47eca"),
    (["wlp", "--m", "2,2,2,4,5", "--p", "3", "--format", "json"],
     "3f28da0d6ba9a02bf5ec89ef806d21436ff480f30ef7a1df0e18276f8ee44814"),
    (["wlp", "--m", "2,2,2,4,5", "--p", "3", "--format", "text"],
     "c54764536d136a9e2ad20206484d696a4cc467ccc98db6de9f0ab479ce000c0d"),
    (["rank", "--n", "5", "--m", "2", "--p", "2", "--d", "1", "--format", "json"],
     "6917b6b132afb49ac93f14b47c9b0f1574f968d5a5dd69cf622ca5b310f266dd"),
    (["rank", "--n", "5", "--m", "2", "--p", "2", "--d", "1", "--format", "text"],
     "2d3fee6d03bbba3eacbf1fa2a72bc3e618c364e8bdd5454d1c94809b56afd241"),
    (["verify", "--n-max", "2", "--m-max", "3", "--k-max", "2", "--census", "--format", "text"],
     "b971c0239db0386dd69f8e2c894045dbbf5ee4c74fb536921fd60f72373b9d3b"),
    (["verify", "--n-max", "2", "--m-max", "3", "--k-max", "2", "--census", "--format", "json"],
     "9f0b1331e9be5b5231e89b94275c5b272b03068f6f03e4f2def2917b8811aae9"),
    (["render", "--m", "3,2,2,3", "--k", "2", "--s", "2,0,0,0", "--reflect", "--format", "ascii"],
     "e4ae814dc0424f8bf24380ecfa5c551614cd0b08ed281af735432827720c1d43"),
    (["render", "--m", "3,2,2,3", "--k", "2", "--s", "2,0,0,0", "--reflect", "--format", "svg"],
     "d815472efcb7d261f1d3859955a4bb3e2fb9bdad9d0bb214a64d24b9650e029c"),
    # large critical sets: 6,786 and 11,277 critical monomials
    (["crit", "--m", "eq:3:12", "--k", "3", "--format", "json"],
     "ce8e8ce6f7443dbbf74f10547720c3417cdfbc453a455bda9cb596a42253a8b3"),
    (["crit", "--m", "4,4,4,4,4,4,4,4,4,4", "--k", "14", "--format", "json"],
     "8c2d5a328234347be941b793f105371e10a9015cd2cc658aade250f5dcf3bc15"),
    # bases over several degrees, recorded before gb's writers shared one
    # monomial text per degree: six degrees through the relabeled frame,
    # then the golden case (394 elements) in text and m2
    (["gb", "--m", "3,2,4,3,2,3", "--k", "3", "--ranking", "4,1,6,2,5,3", "--order",
      "grlex", "--format", "text"],
     "7889f037a8872bc60404fd6a17c233b678d188c51937e7b2a5ec540375fec592"),
    (["gb", "--m", "3,2,4,3,2,3", "--k", "3", "--ranking", "4,1,6,2,5,3", "--order",
      "grlex", "--format", "m2"],
     "85747d8a397dab5529fdde2e38c487c15b8c5deb171b1bd76f069d47044ce48f"),
    (["gb", "--m", "3,2,4,3,2,3", "--k", "3", "--ranking", "4,1,6,2,5,3", "--order",
      "grlex", "--format", "json"],
     "34383a8f351197e036795fac192c4e5cc59adc26e5ebaf9081fa530d1a28eb19"),
    (["gb", "--m", "eq:3:9", "--k", "3", "--format", "text"],
     "78829802c958b4270b22091b33c32f88b0814e958a4dfd8cb9821bf5c9080991"),
    (["gb", "--m", "eq:3:9", "--k", "3", "--format", "m2"],
     "cac8d0e5c0811b9f7fd8b224e0991ba3d3e2ee84589b35d94090c6a49ea9e81d"),
]


@pytest.mark.parametrize("argv, digest", PINNED_DIGESTS)
def test_pinned_output_digest(argv, digest, capsys):
    code, out, err = invoke(argv, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pinned_digests_cover_every_format():
    pinned = {(argv[0], argv[-1]) for argv, _ in PINNED_DIGESTS}
    assert pinned == {
        (sub, fmt) for sub, spec in SUBCOMMANDS.items() for fmt in spec.formats
    }


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

    def test_hilbert_socle_matches_socle_degrees(self, capsys):
        # a dominant exponent takes the second branch of the socle formula
        for m, k in (((2, 6), 1), ((2, 2, 9), 2), ((3, 2, 2, 3), 2), ((4, 4, 4), 5)):
            argv = ["hilbert", "--m", ",".join(map(str, m)), "--k", str(k)]
            payload = run_json(argv, capsys, "hilbert")
            assert (payload["D"], payload["delta"]) == socle_degrees(m, k), (m, k)

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
        assert payload["explanation"].endswith("not necessary once the exponents are mixed")
        ideal_finding = payload["findings"][-1]
        assert ideal_finding["route"] == "initial-ideal"
        assert [0, 0, 0, 3, 0] in ideal_finding["witness"][1]

    def test_wlp_equal_exponents_below_five_keep_the_property(self, capsys):
        # below five variables equal exponents, too, can keep the property
        # while the modular initial ideal changes; the note must say so and
        # not call the exponents mixed
        for argv in (
            ["wlp", "--n", "3", "--m", "5,5,5", "--p", "2", "--routes", "rank,initideal"],
            ["wlp", "--n", "4", "--m", "4,4,4,4", "--p", "3", "--routes", "rank,initideal"],
        ):
            payload = run_json(argv, capsys, "wlp")
            assert payload["has_wlp"] is True, argv
            assert [f["holds"] for f in payload["findings"]] == [True, False], argv
            assert payload["explanation"] == (
                "the property holds even though the modular initial ideal differs "
                "from the rational one; equal initial ideals are sufficient but not "
                "necessary below five equal exponents"
            ), argv

    def test_wlp_initial_ideal_alone_names_the_regime(self, capsys):
        # equal exponents below five variables: a diverging initial ideal
        # refutes nothing there either, and the message must not call the
        # exponents mixed
        for argv in (
            ["wlp", "--n", "3", "--m", "2,2,2", "--p", "2", "--routes", "initideal"],
            ["wlp", "--m", "2,2,2,4,5", "--p", "3", "--routes", "initideal"],
        ):
            code, out, err = invoke(argv, capsys)
            assert (code, out) == (1, ""), argv
            assert err == (
                "error: initial ideals differ, but outside five or more equal "
                "exponents that refutes nothing; include the rank route to "
                "settle the property\n"
            )

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


# every JSON-format subcommand on small inputs: every seq family, a finite
# g prefix (a null tail), wlp findings with witnesses, a verify census and
# an empty verify grid
JSON_JOBS = [
    ["gb", "--m", "3,2,4", "--k", "3", "--ranking", "3,1,2", "--order", "grlex"],
    ["gb", "--m", "2", "--k", "1"],
    ["init", "--m", "3,2,2,3", "--k", "2"],
    ["crit", "--m", "3,2,2,3", "--k", "2"],
    ["hilbert", "--m", "2,3,4", "--k", "3"],
    ["seq", "--family", "g", "--m", "eq:3", "--k", "2", "--max", "8"],
    ["seq", "--family", "g", "--m", "2,3", "--k", "1", "--max", "2"],
    ["seq", "--family", "motzkin", "--max", "0"],
    ["seq", "--family", "riordan", "--max", "6"],
    ["seq", "--family", "catalan", "--max", "6"],
    ["seq", "--family", "s-catalan", "--m", "3", "--max", "3"],
    ["seq", "--family", "spin", "--m", "4", "--max", "4"],
    ["wlp", "--m", "2,2,2,4,5", "--p", "3"],
    ["wlp", "--n", "5", "--m", "2", "--p", "5"],
    ["rank", "--n", "5", "--m", "2", "--p", "2", "--d", "1"],
    ["verify", "--n-max", "2", "--m-max", "3", "--k-max", "2", "--census"],
    ["verify", "--n-max", "0"],
]

# str keys and strings with quotes, backslashes, control characters,
# non-ASCII letters, an astral character and a lone surrogate
JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                         "\xe9", "\u20ac", "\U0001f600", "\ud800"]),
        st.characters(),
    ),
    max_size=8,
)
# ints up to 4,001 digits, below the interpreter's 4,300-digit str limit
HUGE_INT = st.tuples(st.integers(1, 4000), st.sampled_from([1, -1])).map(
    lambda t: t[1] * (10 ** t[0] - 3)
)
JSON_LEAF = st.one_of(
    st.integers(), HUGE_INT, st.booleans(), st.none(), JSON_TEXT,
    st.lists(st.one_of(st.integers(), HUGE_INT), max_size=6),
)
JSON_TREE = st.recursive(
    JSON_LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=5),
    ),
    max_leaves=25,
)


class TestJsonWriter:
    """``cli._dumps``, the one JSON writer, against the stdlib's
    ``json.dumps(indent=2)``, the layout it must reproduce byte for byte."""

    @staticmethod
    def reference(payload) -> str:
        return json.dumps(payload, indent=2) + "\n"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(JSON_TREE)
    def test_random_trees(self, payload):
        assert cli_module._dumps(payload) == self.reference(payload)

    def test_every_json_subcommand_payload(self, capsys, monkeypatch, reference_tree):
        # gb streams _json_chunks, the others join it through _dumps: the
        # recorder sits on the chunk writer, which every subcommand calls
        seen = []
        writer = cli_module._json_chunks

        def recording(payload, **kwargs):
            seen.append(payload)
            return writer(payload, **kwargs)

        monkeypatch.setattr(cli_module, "_json_chunks", recording)
        for count, argv in enumerate(JSON_JOBS, start=1):
            code, out, err = invoke(argv + ["--format", "json"], capsys)
            assert (code, err) == (0, ""), argv
            assert len(seen) == count, argv
            if argv[0] != "gb":
                assert out == self.reference(seen[-1]), argv
                continue
            # gb's elements reach the writer as text from poly_to_json: the
            # whole output is checked against the stdlib's layout of its
            # parse, and the parsed elements against the dict-per-term
            # reference tree
            data = json.loads(out)
            assert out == self.reference(data), argv
            ns = cli_module.build_parser().parse_args(argv)
            cli_module._validate(ns, SUBCOMMANDS["gb"])
            basis = reduced_gb(ns.n, ns.m, ns.k, ranking=ns.ranking, kind=ns.order)
            assert data["elements"] == [
                reference_tree(g, basis.order) for g in basis.elements
            ], argv
        assert {argv[0] for argv in JSON_JOBS} == {
            sub for sub, spec in SUBCOMMANDS.items() if "json" in spec.formats
        }
        assert {argv[2] for argv in JSON_JOBS if argv[0] == "seq"} == set(
            SEQ_FAMILIES
        )

    @pytest.mark.parametrize("items", [[], [{"a": [1, "b"]}], [{}, [], 3]])
    def test_rendered_key_takes_item_texts(self, items):
        # the texts, at the item indent, may come from a generator
        texts = (json.dumps(item, indent=2).replace("\n", "\n    ") for item in items)
        payload = {"n": 1, "elements": texts, "rest": items}
        expected = self.reference({"n": 1, "elements": items, "rest": items})
        assert cli_module._dumps(payload, rendered="elements") == expected

    @pytest.mark.parametrize(
        "value",
        [1.5, Fraction(1, 2), {1, 2}, frozenset(), b"x", object()],
    )
    def test_other_types_refused(self, value):
        for payload in ({"v": value}, [value], {"a": [{"b": value}]}):
            with pytest.raises(TypeError, match=type(value).__name__):
                cli_module._dumps(payload)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
    def test_non_str_keys_refused(self, key):
        with pytest.raises(TypeError, match=type(key).__name__):
            cli_module._dumps({"a": {key: 0}})

    def test_int_and_str_subclasses_refused(self):
        class Count(int):
            pass

        class Name(str):
            pass

        for payload in ({"n": Count(3)}, [Name("x")], [1, Count(2)]):
            with pytest.raises(TypeError, match=r"Count|Name"):
                cli_module._dumps(payload)


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


class Sink:
    """A stdout that keeps the chunks written to it, or with ``keep=False``
    only their total length."""

    def __init__(self, keep=True, events=None):
        self.keep, self.size, self.chunks = keep, 0, []
        self.events = events

    def write(self, text):
        self.size += len(text)
        if self.keep:
            self.chunks.append(text)
        if self.events is not None:
            self.events.append("write")
        return len(text)

    def flush(self):
        pass


def run_into(sink, argv) -> int:
    with contextlib.redirect_stdout(sink):
        return main(argv)


def cli_process(argv, stdout):
    """``python -m acigb.cli argv`` with stdout on the given file or pipe."""
    src = Path(cli_module.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, "-m", "acigb.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


class TestStreaming:
    """gb writes each basis element as soon as it is built, to stdout or to
    the --out temp file, and refuses before it writes a byte."""

    GOLDEN = ["gb", "--m", "eq:3:9", "--k", "3", "--format", "json"]

    def test_golden_basis_peaks_below_a_third_of_its_output(self):
        # a whole-string writer peaks above the output's length (2.7 times
        # it before elements were streamed); a stream holds one element
        sink = Sink(keep=False)
        tracemalloc.start()
        try:
            code = run_into(sink, self.GOLDEN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.size > 6_000_000
        assert peak < sink.size / 3, (peak, sink.size)

    @pytest.mark.parametrize("fmt", ["json", "text", "m2"])
    def test_each_element_is_written_before_the_next_is_built(self, monkeypatch, fmt):
        events = []
        build = closed_form.build_gs_divisor_form

        def recording(*args):
            events.append("build")
            return build(*args)

        monkeypatch.setattr(closed_form, "build_gs_divisor_form", recording)
        sink = Sink(events=events)
        assert run_into(sink, ["gb", "--m", "3,2,2,3", "--k", "2", "--format", fmt]) == 0
        builds = [i for i, event in enumerate(events) if event == "build"]
        assert len(builds) == 5  # x1^2 and the critical monomials
        assert events.index("write") < builds[0]
        for before, after in zip(builds, builds[1:]):
            assert "write" in events[before:after], events
        # and the chunks make the bytes of the basis, the pinned layout
        monkeypatch.undo()
        whole = Sink()
        run_into(whole, ["gb", "--m", "3,2,2,3", "--k", "2", "--format", fmt])
        assert "".join(sink.chunks) == "".join(whole.chunks)

    @pytest.mark.parametrize("name, fmt", [("poly_to_json", "json"), ("poly_to_text", "text"),
                                           ("poly_to_text", "m2")])
    def test_monomial_texts_hold_one_degree(self, monkeypatch, capsys, name, fmt):
        # the writers share one texts dict per degree of the lead: it never
        # holds the monomials of two degrees, and each degree gets one
        write = getattr(cli_module, name)
        seen, dicts = [], []

        def spying(g, *args):
            text = write(g, *args)
            texts = args[-1]
            if not any(texts is d for d in dicts):
                dicts.append(texts)
            seen.append((sum(next(iter(g.terms))), {sum(m) for m in texts}))
            return text

        monkeypatch.setattr(cli_module, name, spying)
        argv = ["gb", "--m", "3,2,4,3,2,3", "--k", "3", "--ranking", "4,1,6,2,5,3",
                "--order", "grlex", "--format", fmt]
        code, _, err = invoke(argv, capsys)
        assert (code, err) == (0, "")
        basis = reduced_gb(6, (3, 2, 4, 3, 2, 3), 3, ranking=(4, 1, 6, 2, 5, 3), kind="grlex")
        assert len(seen) == len(basis.elements)
        assert all(held == {degree} for degree, held in seen), seen
        assert [degree for degree, _ in seen] == sorted(degree for degree, _ in seen)
        assert len(dicts) == len({degree for degree, _ in seen}) == 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["gb", "--m", "1,2", "--k", "1"],
            ["gb", "--m", "3,3", "--k", "0"],
            ["gb", "--m", "3,3"],
            ["gb", "--m", "3,3", "--k", "1", "--ranking", "2,1,3"],
            ["gb", "--m", "3,3", "--k", "1", "--ranking", "1,1"],
            ["gb", "--m", "3,3", "--k", "1", "--order", "lex"],
            ["gb", "--n", "3", "--m", "3,3", "--k", "1"],
            ["gb", "--m", "eq:3:100000000", "--k", "1"],
            ["gb", "--m", "eq:2:40", "--k", "1"],
            ["gb", "--m", "1000000000,3", "--k", "1"],
            ["gb", "--m", "eq:2:340", "--k", "339"],
        ],
    )
    def test_every_refusal_writes_nothing(self, tmp_path, capsys, argv):
        for fmt in ("json", "text", "m2"):
            sink = Sink()
            assert run_into(sink, argv + ["--format", fmt]) == 1
            assert sink.size == 0, (argv, fmt)
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            target = tmp_path / f"basis.{fmt}"
            assert run_into(sink, argv + ["--format", fmt, "--out", str(target)]) == 1
            assert sink.size == 0 and list(tmp_path.iterdir()) == [], (argv, fmt)
            assert capsys.readouterr().err == err
        assert run_into(sink, argv + ["--format", "csv"]) == 1
        assert sink.size == 0

    @pytest.mark.parametrize(
        "failure",
        [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
        ids=["disk-full", "interrupt"],
    )
    def test_failure_mid_stream_keeps_the_target(self, tmp_path, capsys, monkeypatch, failure):
        target = tmp_path / "basis.json"
        target.write_bytes(b"previous version\n")
        build = closed_form.build_gs_divisor_form
        temp_files = []

        def failing(*args):
            if len(temp_files) == 3:
                raise failure
            # the stream is inside write_atomic: its temp file exists
            temp_files.append(sorted(p.name for p in tmp_path.glob(".acigb-*")))
            return build(*args)

        monkeypatch.setattr(closed_form, "build_gs_divisor_form", failing)
        argv = ["gb", "--m", "eq:3:6", "--k", "3", "--out", str(target)]
        if isinstance(failure, OSError):
            code, out, err = invoke(argv, capsys)
            assert (code, out) == (1, "")
            assert err == f"error: [Errno 28] No space left on device: {str(target)!r}\n"
        else:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        assert len(temp_files) == 3 and all(len(names) == 1 for names in temp_files)
        assert target.read_bytes() == b"previous version\n"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_broken_pipe_mid_stream(self):
        # the reader stops after 100 bytes of 6.4 MB, as `| head -c 100` does
        proc = cli_process(self.GOLDEN, subprocess.PIPE)
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert head.startswith(b'{\n  "n": 9,\n  "m": [\n')
        # one line, and no "Exception ignored" from the flush at exit
        assert err == b"error: [Errno 32] Broken pipe\n"

    def test_broken_pipe_before_the_first_write(self):
        # a small basis goes out in one flush, into a pipe nobody reads
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = cli_process(["gb", "--m", "3,2,2,3", "--k", "2"], write_end)
        finally:
            os.close(write_end)
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert err == b"error: [Errno 32] Broken pipe\n"


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

    @pytest.mark.parametrize(
        "sub, data, key",
        [
            ("hilbert", {"m": "3,2,2,3", "k": 2.5}, "k"),
            ("hilbert", {"m": "3,2,2,3", "k": True}, "k"),
            ("hilbert", {"m": [3, 2], "k": 2}, "m"),
            ("hilbert", {"m": "3,2,2,3", "k": None}, "k"),
            ("verify", {"n-max": 1, "census": "no"}, "census"),
            ("render", {"m": "2,2", "k": 1, "s": "1,0", "reflect": "false"},
             "reflect"),
            ("render", {"m": "2,2", "k": 1, "s": "1,0", "reflect": 1}, "reflect"),
        ],
    )
    def test_value_of_the_wrong_kind(self, tmp_path, capsys, sub, data, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        code, out, err = invoke([sub, "--config", str(cfg)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(key) in err

    def test_values_of_every_kind(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"m": 2, "n": "2", "k": 1, "s": "1,0", "reflect": True, "format": "svg"}
        ))
        code, out, _ = invoke(["render", "--config", str(cfg)], capsys)
        assert code == 0
        polylines = [el for el in ET.fromstring(out).iter()
                     if el.tag.endswith("polyline")]
        assert len(polylines) == 3


def run_captured(argv, capsys):
    """Exit code, stdout and stderr of one ``main`` call; argparse's own exits
    (``--help``, a usage error) raise SystemExit, whose code counts here."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    """``main`` reuses one parser per process; no call may see another's."""

    GB = ["gb", "--m", "2,2,3", "--k", "2", "--format", "text"]

    def sequence(self, cfg):
        return [
            self.GB + ["--ranking", "3,2,1", "--order", "grlex"],
            self.GB,
            ["gb", "--config", str(cfg)],
            self.GB,
            ["gb", "--m", "2,2,3", "--frobnicate"],
            self.GB,
            ["--help"],
            ["gb", "--help"],
            ["hilbert", "--m", "1,2", "--k", "1"],
            self.GB,
        ]

    def test_reused_parser_matches_a_fresh_one(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"m": "2,2,3", "k": 2, "ranking": "2,3,1", "order": "grlex", "format": "m2"}
        ))
        shared = [run_captured(argv, capsys) for argv in self.sequence(cfg)]
        monkeypatch.setattr(cli_module, "build_parser", cli_module.build_parser.__wrapped__)
        fresh = [run_captured(argv, capsys) for argv in self.sequence(cfg)]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0, 0, 0, 1, 0]
        # the ranked, grlex and config runs differ from the plain one
        assert len({shared[i][1] for i in (0, 1, 2)}) == 3
        assert shared[1] == shared[3] == shared[5] == shared[9]
        assert "--frobnicate" in shared[4][2]
        assert shared[6][1].startswith("usage: acigb")
        assert shared[7][1].startswith("usage: acigb gb")

    def test_parser_is_built_once(self, capsys, monkeypatch):
        main(self.GB)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (self.GB, ["crit", "--m", "3,3", "--k", "2"], self.GB):
            assert main(argv) == 0
        assert built == []
        assert cli_module.build_parser() is cli_module.build_parser()
        # the counter sees a build: one parser and one per subcommand
        cli_module.build_parser.__wrapped__()
        assert len(built) == 1 + len(SUBCOMMANDS)

    def test_help_follows_the_terminal_width(self, capsys, monkeypatch):
        fresh = cli_module.build_parser.__wrapped__
        outputs = []
        for columns in ("40", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            shared = run_captured(["gb", "--help"], capsys)
            with monkeypatch.context() as patch:
                patch.setattr(cli_module, "build_parser", fresh)
                assert run_captured(["gb", "--help"], capsys) == shared
            outputs.append(shared[1])
        narrow, wide = outputs
        assert narrow != wide
        assert max(map(len, narrow.splitlines())) <= 40 < max(map(len, wide.splitlines()))


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

    def test_seq_refuses_negative_max(self, capsys):
        for family, extra in (
            ("g", ["--m", "eq:3", "--k", "2"]),
            ("motzkin", []),
            ("riordan", []),
            ("catalan", []),
            ("s-catalan", ["--m", "3"]),
            ("spin", ["--m", "3"]),
        ):
            code, out, err = invoke(
                ["seq", "--family", family, "--max=-1"] + extra, capsys
            )
            assert (code, out) == (1, ""), family
            assert err.startswith("error:") and err.count("\n") == 1
            assert "--max" in err

    # the first --max whose size estimate passes cli.SEQ_BUDGET
    FIRST_OVER_BUDGET = (
        ("catalan", [], 3589),
        ("motzkin", [], 4043),
        ("riordan", [], 4043),
        ("s-catalan", ["--m", "3"], 183),
        ("spin", ["--m", "3"], 231),
        ("g", ["--m", "eq:2", "--k", "1"], 171),
    )

    @pytest.mark.parametrize("family, extra, first_over", FIRST_OVER_BUDGET)
    def test_seq_refuses_just_above_budget(
        self, capsys, monkeypatch, family, extra, first_over
    ):
        def reached(*args):
            raise ValueError("computation reached")

        for name in ("classical_row", "gb_degree_sequence", "s_catalan_triangle",
                     "spin_catalan_degeneracies"):
            monkeypatch.setattr(cli_module, name, reached)
        argv = ["seq", "--family", family] + extra
        code, out, err = invoke(argv + ["--max", str(first_over)], capsys)
        assert (code, out) == (1, ""), family
        assert err.startswith("error:") and err.count("\n") == 1
        assert "budget" in err and err.endswith("lower --max\n"), err
        # one below passes the check and goes on to compute
        code, _, err = invoke(argv + ["--max", str(first_over - 1)], capsys)
        assert code == 1 and "computation reached" in err, family

    def test_seq_budget_names_the_exponent_flag(self, capsys):
        for family, extra, flag in (
            ("s-catalan", ["--m", "100000000", "--max", "1"], "--m"),
            ("spin", ["--m", "100000000", "--max", "0"], "--m"),
            ("g", ["--m", "eq:100000000", "--k", "1", "--max", "1"], "--m or --k"),
            ("g", ["--m", "eq:2", "--k", "3000", "--max", "3000"], "--m or --k"),
        ):
            code, out, err = invoke(["seq", "--family", family] + extra, capsys)
            assert (code, out) == (1, ""), family
            assert err.count("\n") == 1 and err.endswith(f"lower {flag}\n"), err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["hilbert", "--m", "1000000000", "--k", "1"], "--m"),
            (["hilbert", "--m", "eq:3:100000000", "--k", "1"], "--m"),
            (["hilbert", "--n", "100000000", "--m", "3", "--k", "1"], "--n"),
            (["gb", "--m", "eq:3:100000000", "--k", "1"], "--m"),
            # 2,423,307,047 critical monomials, counted before any is built
            (["gb", "--m", "eq:2:40", "--k", "1"], "--n or --m"),
            (["crit", "--m", "eq:2:40", "--k", "1"], "--n or --m"),
            (["init", "--n", "40", "--m", "2", "--k", "1"], "--n or --m"),
            # the count would build the series of the prefix 10^9
            (["crit", "--m", "1000000000,3", "--k", "1"], "--n or --m"),
            (["gb", "--m", "eq:2:3000", "--k", "2900"], "--n or --m"),
            # one critical monomial, x_1...x_339, whose head has 2^338 divisors
            (["gb", "--m", "eq:2:340", "--k", "339"], "--n, --m or --k"),
        ],
    )
    def test_huge_request_refused_up_front(self, capsys, argv, flag):
        start = time.perf_counter()
        code, out, err = invoke(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "budget" in err and err.endswith(f"lower {flag}\n"), err

    def test_critical_monomials_counted_against_the_budget(self, capsys, monkeypatch):
        # crit --m eq:3:12 --k 3, the largest catalogue job, has 6,786
        for name in ("critical_sets", "minimal_generators", "basis_elements"):
            monkeypatch.setattr(cli_module, name, reached)
        for sub in ("gb", "init", "crit"):
            argv = [sub, "--m", "eq:3:12", "--k", "3"]
            monkeypatch.setattr(cli_module, "CRITICAL_BUDGET", 6_785)
            code, out, err = invoke(argv, capsys)
            assert (code, out) == (1, ""), sub
            assert err == (
                f"error: {sub} request over the size budget of 6785 critical"
                " monomials; lower --n or --m\n"
            )
            monkeypatch.setattr(cli_module, "CRITICAL_BUDGET", 6_786)
            code, _, err = invoke(argv, capsys)
            assert code == 1 and "computation reached" in err, sub

    def test_last_exponent_is_not_multiplied_into_the_count(self, capsys):
        # the count builds the series of the proper prefixes only
        code, out, err = invoke(["gb", "--m", "1000000000", "--k", "1",
                                 "--format", "text"], capsys)
        assert (code, out, err) == (0, "x1\n", "")

    def test_head_divisors_counted_against_the_budget(self, capsys, monkeypatch):
        # the largest head of (3,)*12 with k = 3 has 3,072 divisors
        monkeypatch.setattr(cli_module, "basis_elements", reached)
        argv = ["gb", "--m", "eq:3:12", "--k", "3"]
        monkeypatch.setattr(cli_module, "DIVISOR_BUDGET", 3_071)
        code, out, err = invoke(argv, capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: gb request over the size budget of 3071 head divisors in one"
            " element; lower --n, --m or --k\n"
        )
        monkeypatch.setattr(cli_module, "DIVISOR_BUDGET", 3_072)
        code, _, err = invoke(argv, capsys)
        assert code == 1 and "computation reached" in err

    def test_head_divisors_skipped_within_the_budget(self, capsys, monkeypatch):
        # the heads lie in the frame of the ranking: m = (5, 2, 2) ranked
        # 2, 3, 1 reads (2, 2, 5) there, whose product but the last is 4
        monkeypatch.setattr(cli_module, "critical_sets", reached)
        monkeypatch.setattr(cli_module, "DIVISOR_BUDGET", 4)
        argv = ["gb", "--m", "5,2,2", "--k", "2", "--format", "text"]
        code, out, _ = invoke(argv + ["--ranking", "2,3,1"], capsys)
        assert code == 0 and out
        code, _, err = invoke(argv, capsys)
        assert code == 1 and "computation reached" in err

    def test_only_gb_walks_the_head_divisors(self, capsys):
        for sub in ("crit", "init"):
            start = time.perf_counter()
            argv = [sub, "--m", "eq:2:340", "--k", "339", "--format", "text"]
            code, out, err = invoke(argv, capsys)
            assert time.perf_counter() - start < 2.0, sub
            assert (code, err) == (0, "") and "x1*x2*x3" in out, sub

    # the first one-variable --m whose series digits pass cli.SEQ_BUDGET:
    # 571,429 coefficients of at most 7 digits each
    def test_hilbert_refuses_just_above_budget(self, capsys, monkeypatch):
        def reached(*args):
            raise ValueError("computation reached")

        monkeypatch.setattr(cli_module, "hs_complete_intersection", reached)
        code, out, err = invoke(["hilbert", "--m", "571429", "--k", "1"], capsys)
        assert (code, out) == (1, "")
        assert "budget" in err and err.endswith("lower --m\n"), err
        code, _, err = invoke(["hilbert", "--m", "571428", "--k", "1"], capsys)
        assert code == 1 and "computation reached" in err

    def test_verify_refuses_a_grid_over_budget(self, capsys, monkeypatch):
        # the grid is counted in closed form before its case list is built:
        # 9,9,9 holds about 1.4e9 cases.  Building the list is where a grid
        # that passes the check goes next.
        def reached(*args, **kwargs):
            raise ValueError("computation reached")

        monkeypatch.setattr(cli_module, "product", reached)
        budget = cli_module.VERIFY_BUDGET
        for n_max, m_max, k_max in (
            (9, 9, 9),
            (10**18, 10**18, 10**18),
            (1, budget + 2, 1),
            (budget + 1, 2, 1),
            (budget // 2, 2, 3),
        ):
            argv = ["verify", "--n-max", str(n_max), "--m-max", str(m_max),
                    "--k-max", str(k_max)]
            start = time.perf_counter()
            code, out, err = invoke(argv, capsys)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (1, ""), argv
            assert err.startswith("error:") and err.count("\n") == 1
            assert err.endswith("budget of 10000 cases; lower --n-max, --m-max or --k-max\n")
        # a grid of exactly the budget goes on to build its cases; the bound
        # on its largest case is raised out of the way, as it would refuse
        # these first
        monkeypatch.setattr(cli_module, "VERIFY_CASE_BUDGET", 2**budget)
        for n_max, m_max, k_max in ((budget, 2, 1), (1, budget + 1, 1), (budget // 2, 2, 2)):
            argv = ["verify", "--n-max", str(n_max), "--m-max", str(m_max),
                    "--k-max", str(k_max)]
            code, _, err = invoke(argv, capsys)
            assert code == 1 and "computation reached" in err, argv

    def test_verify_refuses_a_grid_whose_largest_case_is_over_budget(self, capsys, monkeypatch):
        # few cases, but (2,)*n costs about five times more per variable;
        # the refusal comes before the case list is built
        def reached(*args, **kwargs):
            raise ValueError("computation reached")

        monkeypatch.setattr(cli_module, "product", reached)
        for n_max, m_max in ((20, 2), (10_000, 2), (13, 2), (5, 6), (2, 65)):
            argv = ["verify", "--n-max", str(n_max), "--m-max", str(m_max), "--k-max", "1"]
            start = time.perf_counter()
            code, out, err = invoke(argv, capsys)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (1, ""), argv
            assert err.startswith("error:") and err.count("\n") == 1
            assert err.endswith(
                "budget of 4096 m-free monomials; lower --n-max or --m-max\n"
            )
        # a largest case of exactly the budget goes on to build its cases
        for n_max, m_max in ((12, 2), (6, 4), (4, 8), (2, 64)):
            argv = ["verify", "--n-max", str(n_max), "--m-max", str(m_max), "--k-max", "1"]
            code, _, err = invoke(argv, capsys)
            assert code == 1 and "computation reached" in err, argv

    def test_verify_refuses_a_census_over_budget(self, capsys, monkeypatch):
        # the census of a case builds n! bases, so 12,2,1 walks 4.8e8
        # rankings; the refusal comes before any case is checked
        def reached(*args, **kwargs):
            raise ValueError("computation reached")

        monkeypatch.setattr(cli_module, "_verify_case", reached)
        for grid in ((12, 2, 1), (4, 4, 10), (5, 3, 5), (8, 2, 1)):
            argv = ["verify", "--n-max", str(grid[0]), "--m-max", str(grid[1]),
                    "--k-max", str(grid[2]), "--census"]
            start = time.perf_counter()
            code, out, err = invoke(argv, capsys)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (1, ""), argv
            assert err.startswith("error:") and err.count("\n") == 1
            assert err.endswith(
                "budget of 20000 rankings; lower --n-max, --m-max or --k-max\n"
            )
        # the same grids without the census, and the default census grid,
        # the largest below the budget and those of the tests, are checked
        monkeypatch.setattr(cli_module, "_verify_case", lambda case: {"ok": True})
        monkeypatch.delenv("ACI_GB_THREADS", raising=False)  # a lambda does not pickle
        for grid, census in (((12, 2, 1), False), ((4, 4, 10), False), ((4, 4, 4), True),
                             ((4, 4, 9), True), ((2, 3, 2), True), ((3, 4, 2), True)):
            report = verify_all(grid, census=census)
            assert report["ok"] and report["passed"] == cli_module._grid_count(*grid)
        # the default census grid walks 8,508 rankings: a budget of exactly
        # that accepts it, one less refuses it
        monkeypatch.setattr(cli_module, "CENSUS_BUDGET", 8_508)
        assert verify_all((4, 4, 4), census=True)["ok"]
        monkeypatch.setattr(cli_module, "CENSUS_BUDGET", 8_507)
        with pytest.raises(ValueError, match="budget of 8507 rankings"):
            verify_all((4, 4, 4), census=True)

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--n", "40", "--m", "2", "--p", "5", "--d", "20"],
            ["wlp", "--n", "40", "--m", "2", "--p", "5"],
            ["rank", "--n", "3", "--m", "1000000", "--p", "5", "--d", "0", "--e", "100000"],
            ["wlp", "--m", "4097", "--p", "5"],
            ["rank", "--n", "13", "--m", "2", "--p", "5", "--d", "0"],
        ],
    )
    def test_rank_and_wlp_refuse_a_quotient_over_budget(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, ""), argv
        assert err == (
            f"error: {argv[0]} request over the size budget of 4096 m-free monomials; "
            "lower --n or --m\n"
        )

    def test_rank_and_wlp_accept_a_quotient_of_the_budget(self, capsys, monkeypatch):
        # 2^12 = 64^2 = 4096 m-free monomials go on to the computation
        def reached(*args, **kwargs):
            raise ValueError("computation reached")

        monkeypatch.setattr(cli_module, "hs_complete_intersection", reached)
        monkeypatch.setattr(cli_module, "wlp_decide", reached)
        for m in (["--n", "12", "--m", "2"], ["--m", "64,64"], ["--m", "4096"]):
            for argv in (["rank", *m, "--p", "5", "--d", "0"], ["wlp", *m, "--p", "5"]):
                code, _, err = invoke(argv, capsys)
                assert code == 1 and "computation reached" in err, argv

    def test_empty_grid_trivially_passes(self, capsys):
        code, out, _ = invoke(
            ["verify", "--n-max", "0", "--format", "text"], capsys
        )
        assert code == 0
        assert out == "passed 0 of 0\n"
        # an empty grid with a huge n-max walks none of its n
        for flags in (["--m-max", "1"], ["--k-max", "0"]):
            start = time.perf_counter()
            code, out, _ = invoke(
                ["verify", "--n-max", str(10**18), *flags, "--format", "text"], capsys
            )
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (0, "passed 0 of 0\n"), flags


class TestSizeBudget:
    """``cli._capped``, the one early-stopping count, and ``cli._refuse``,
    the one size refusal."""

    def test_capped_stops_on_endless_inputs(self):
        # 1 + 2 + ... + 14 = 105 is the first running sum past 100
        assert cli_module._capped(itertools.count(1), 100) == 105
        # 2^7 = 128 is the first running product past 100
        assert cli_module._capped(itertools.repeat(2), 100, operator.mul) == 128

    def test_capped_total_within_budget(self):
        assert cli_module._capped(range(5), 100) == 10
        assert cli_module._capped([2, 5, 10], 100, operator.mul) == 100

    def test_capped_of_nothing_is_zero(self):
        assert cli_module._capped([], 100) == 0
        assert cli_module._capped(iter(()), 100, operator.mul) == 0

    def test_refuse_only_over_the_budget(self):
        cli_module._refuse(5, 5, "x request", "--x")
        with pytest.raises(ValueError) as info:
            cli_module._refuse(6, 5, "x request", "--x or --y", " things")
        assert str(info.value) == (
            "x request over the size budget of 5 things; lower --x or --y"
        )

    def test_one_size_budget_message(self):
        # a new budget goes through _refuse, not a copy of its message
        text = "over the size budget of"
        assert inspect.getsource(cli_module).count(text) == 1
        assert text in inspect.getsource(cli_module._refuse)


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

    def test_oracle_ideal_that_differs_fails_hilbert(self, monkeypatch):
        # an oracle that answers for k + 1 brings a second, different ideal,
        # whose Hilbert function must be counted and found wrong
        def shifted(n, m, k, cfg):
            return reduced_gb(n, m, k + 1, kind=cfg.order.kind)

        monkeypatch.setattr(cli_module, "oracle_reduced_gb", shifted)
        row = cli_module._verify_case((2, (3, 3), 1, False))
        assert row == {
            "n": 2, "m": [3, 3], "k": 1,
            "gb_grevlex": False, "gb_grlex": False, "hilbert": False, "ok": False,
        }


    def test_hilbert_is_counted_past_the_series_end(self, monkeypatch):
        # (2, 2, 2) with k = 1 has the truncated series 1, 2; an initial
        # ideal (x1) agrees there but leaves x2*x3 standard in degree 2,
        # where the series has ended, and the count runs on until the
        # quotient vanishes
        real = cli_module.oracle_reduced_gb

        def too_small(n, m, k, cfg):
            basis = real(n, m, k, cfg)
            return SimpleNamespace(
                fingerprint=basis.fingerprint,
                initial_ideal=lambda: MonomialIdeal(3, ((1, 0, 0),)),
            )

        monkeypatch.setattr(cli_module, "oracle_reduced_gb", too_small)
        row = cli_module._verify_case((3, (2, 2, 2), 1, False))
        assert row["gb_grevlex"] and row["gb_grlex"] and not row["hilbert"]


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
