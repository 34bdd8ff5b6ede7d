"""Property test of the command line over random argument lists.

Every run, valid or not, must end in exit code 0, 1 or 2, or in argparse's
own usage error; a non-zero return leaves exactly one line on stderr and
never a traceback.  Values stay small so each run is cheap: at most three
variables, exponents up to 4, k up to 4, ``--max`` up to 12 and a verify
grid up to (2, 3, 2).  Each flag now and then gets a junk, negative or
composite value instead.  ``--out`` and ``--config`` are left out: they
touch the file system.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from acigb.cli import SEQ_FAMILIES, SUBCOMMANDS, main

JUNK = st.sampled_from(
    ["", "x", "-", ",", "1,,2", "eq:", "eq:3:", "eq:x:2", "3.5", "1e3"]
)
BAD_INT = st.one_of(st.integers(-3, 1).map(str), JUNK)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def int_list(lo, hi, max_size=3):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=max_size).map(
        lambda xs: ",".join(map(str, xs))
    )


M_VECTOR = st.one_of(
    int_list(2, 4),
    st.builds("eq:{}:{}".format, st.integers(2, 4), st.integers(1, 3)),
)
M_SPEC = st.one_of(int_list(2, 4), st.builds("eq:{}".format, st.integers(2, 4)))
BAD_M = st.one_of(
    int_list(-1, 4),
    st.builds("eq:{}:{}".format, st.integers(-1, 4), st.integers(-1, 3)),
    JUNK,
)
N = (ints(1, 3), BAD_INT)
K = (ints(1, 4), BAD_INT)
P = (
    st.sampled_from(["2", "3", "5", "7"]),
    st.one_of(st.sampled_from(["0", "1", "4", "6", "9", "-3"]), JUNK),
)
ROUTES = st.lists(
    st.sampled_from(["threshold", "rank", "rank-oracle", "initideal", "initial-ideal"]),
    min_size=1, max_size=3,
).map(",".join)

# a permutation of 1..r, whose length r may still differ from n
RANKING = st.integers(1, 3).flatmap(
    lambda r: st.permutations(range(1, r + 1))
).map(lambda xs: ",".join(map(str, xs)))

GOOD_ODDS = (True,) * 7 + (False,)

# subcommand -> (required flags, optional flags); each flag maps to a pair
# (good values, bad values), or to None for a store_true flag
SPECS = {
    "gb": ({"--m": (M_VECTOR, BAD_M), "--k": K},
           {"--n": N, "--ranking": (RANKING, int_list(-1, 4, 4)),
            "--order": (st.sampled_from(["grevlex", "grlex"]), st.just("lex"))}),
    "init": ({"--m": (M_VECTOR, BAD_M), "--k": K}, {"--n": N}),
    "crit": ({"--m": (M_VECTOR, BAD_M), "--k": K}, {"--n": N}),
    "hilbert": ({"--m": (M_VECTOR, BAD_M), "--k": K}, {"--n": N}),
    "seq": ({"--family": (st.sampled_from(SEQ_FAMILIES), JUNK),
             "--max": (ints(0, 12), BAD_INT)},
            {"--m": (M_SPEC, BAD_M), "--k": K}),
    "wlp": ({"--m": (M_VECTOR, BAD_M), "--p": P},
            {"--n": N, "--routes": (ROUTES, st.one_of(st.just("bogus"), JUNK))}),
    "rank": ({"--m": (M_VECTOR, BAD_M), "--p": P, "--d": (ints(0, 10), BAD_INT)},
             {"--n": N, "--e": (ints(1, 3), BAD_INT)}),
    "verify": ({"--n-max": (ints(0, 2), BAD_INT), "--m-max": (ints(2, 3), BAD_INT),
                "--k-max": (ints(0, 2), BAD_INT)},
               {"--census": None}),
    "render": ({"--m": (M_VECTOR, BAD_M), "--k": K,
                "--s": (int_list(0, 3), int_list(-2, 4))},
               {"--n": N, "--reflect": None}),
}


def test_specs_fuzz_every_flag_of_the_command_line():
    # the fuzz always passes the CLI's required flags and may pass more of
    # them, so that verify's grid stays small
    assert sorted(SPECS) == sorted(SUBCOMMANDS)
    for sub, (required, optional) in SPECS.items():
        spec = SUBCOMMANDS[sub]
        assert set(required) | set(optional) == set(spec.required + spec.optional), sub
        assert set(spec.required) <= set(required), sub


@st.composite
def argv_lists(draw):
    sub = draw(st.sampled_from(sorted(SPECS)))
    required, optional = SPECS[sub]
    optional = dict(optional, **{"--format": (
        st.sampled_from(SUBCOMMANDS[sub].formats),
        st.sampled_from(["xml", "m2", "csv", "svg"]),
    )})
    flags = sorted(required) + draw(
        st.lists(st.sampled_from(sorted(optional)), unique=True)
    )
    argv = [sub]
    for flag in flags:
        pair = required.get(flag, optional.get(flag))
        if pair is None:
            argv.append(flag)
            continue
        good, bad = pair
        # one value in eight is bad; the = form lets a leading '-' through
        value = draw(good if draw(st.sampled_from(GOOD_ODDS)) else bad)
        argv.append(f"{flag}={value}")
    return argv


@given(argv_lists())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_argument_list_ends_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse refuses the command line before any work starts
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    if code:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        assert out.getvalue() == "", argv
    else:
        assert err.getvalue() == "", argv
