"""A grammar-driven fuzz of the CLI's inline specs: ``--analytic``, ``--n``,
``--speed`` and ``--initial`` values drawn from the tokenizer's own family table
(``cli.SPECS``), mixed with edge numbers, wrong arities, unknown families and
keys, and repeated keys and envelope words, keep the CLI contract.

Each argv runs twice in process through ``cli.main``, each time in a fresh
temporary directory.  Values are passed as ``--flag=value``, so argparse never
misreads a negative number as a flag, and argparse's own errors (a usage block
on stderr) do not arise: every failure drawn here is locpv's own.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from locpv import errors
from locpv.cli import SPECS, main
from locpv.field import ENVELOPES

EDGES = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, 1e-320, 1e308, -1e308]
TOKENS = {"UsageError", "FileNotFound", "IOError"} | {
    name for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.LocpvError)
}

numbers = st.one_of(st.sampled_from(EDGES), st.sampled_from([0.5, 1.0, 2.0]),
                    st.floats(-3.0, 3.0), st.floats())


@st.composite
def specs(draw, option):
    """A ``family:tok,...`` spec of one option, often off its family's form."""
    families = SPECS[option]
    family = draw(st.sampled_from(sorted(families) + ["vortex"]))
    lo, hi, keys, envelope = families.get(family, (0, 1, (), True))
    # as many numbers as the family takes, or one short or one over
    count = st.one_of(st.integers(lo, hi), st.integers(max(lo - 1, 0), hi + 1))
    toks = [repr(draw(numbers)) for _ in range(draw(count))]
    # keys may repeat, and "bogus" is no family's key
    names = draw(st.lists(st.sampled_from(keys + keys + ("bogus",)), max_size=len(keys) + 1))
    toks += [f"{k}={draw(numbers)!r}" for k in names]
    if envelope or draw(st.integers(0, 4)) == 0:
        toks += draw(st.lists(st.sampled_from(sorted(ENVELOPES) + ["foo"]), max_size=2))
    return f"{family}:" + ",".join(draw(st.permutations(toks)))


def argvs(option):
    grid = "--grid=-5,0.5,20x0,0.25,20"
    if option == "--analytic":
        return st.builds(lambda spec, order: ["pv", f"--analytic={spec}", f"--order={order}",
                                              "--grid=-2,0.25,20x0,0.25,20"],
                         specs(option), st.integers(0, 2))
    if option == "--n":
        return specs(option).map(lambda spec: ["medium", f"--n={spec}", "--c=1", "--dx=2",
                                               "--xi=1"])
    moving = st.sampled_from(["right", "left", "standing"])
    if option == "--speed":  # a bare number is a constant speed
        return st.builds(lambda spec, m: ["simulate", grid, f"--speed={spec}", f"--moving={m}",
                                          "--initial=gauss:-2.5,0.7"],
                         st.one_of(specs(option), numbers.map(repr)), moving)
    return st.builds(lambda spec, m: ["simulate", grid, f"--initial={spec}", f"--moving={m}"],
                     specs(option), moving)


def run(argv):
    """Exit code, stderr, stdout, output bytes (None if not written) and the
    RuntimeWarnings of one in-process run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o.csv"
        err, std = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(std), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + [f"--out={out}"])
        data = out.read_bytes() if out.exists() else None
        err = err.getvalue().replace(str(out), "OUT")
    return code, err, std.getvalue(), data, [
        str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


def assert_contract(argv):
    code, err, std, data, warned = first = run(argv)
    assert code in (0, 1, 2, 3)
    assert warned == []
    if code == 0:
        assert err == "" and data is not None
    else:
        assert len(err.splitlines()) == 1
        token = re.fullmatch(r"error: (\w+)(: .*)?\n", err)
        assert token is not None and token.group(1) in TOKENS
    assert run(argv) == first


@pytest.mark.parametrize("option", sorted(SPECS))
@given(data=st.data())
def test_drawn_specs_keep_the_cli_contract(option, data):
    assert_contract(data.draw(argvs(option)))


# argvs that once broke the contract: a grid whose last node overflows to inf,
# a light speed whose audit grid (-c..c) overflows, an audit too large to hold,
# and grids whose 1e11 x nodes numpy refuses to allocate at once
_HUGE_GRID = "--grid=0,0.1,99999999999x0,0.1,99999999"


@pytest.mark.parametrize("argv", [
    ["pv", "--analytic=trans:gauss", "--grid=-1e308,1e308,3x0,0.1,5", "--order=0"],
    ["boost", "--audit=order0", "--resolution=3", "--c=1e308"],
    ["boost", "--audit=order0", "--resolution=100000000000"],
    ["pv", "--analytic=trans:gauss,a=1", "--order=0", _HUGE_GRID],
    ["wavelength", "--analytic=trans:gauss,a=1", _HUGE_GRID],
    ["simulate", _HUGE_GRID],
], ids=["grid-extent-overflows", "audit-grid-overflows", "audit-too-large",
        "pv-grid-too-large", "wavelength-grid-too-large", "simulate-grid-too-large"])
def test_pinned_argvs_keep_the_cli_contract(argv):
    assert_contract(argv)
    assert run(argv)[0] == 2
