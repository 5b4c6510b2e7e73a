import subprocess
import sys
from pathlib import Path

import pytest

from wpheights import FactorConfig, factor_config
from wpheights.cli import main
from wpheights.factorization import _effort

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# Every README command, in text and in --records form. New cases go at the
# end: pytest names each case by its index, so reordering renames tests.
GOLDEN_CASES = [
    (("wgcd", "-w", "3,2", "1440,700"), "wgcd_text.txt"),
    (("wgcd", "-w", "3,2", "--records", "1440,700"), "wgcd_records.txt"),
    (("height", "-w", "2,4", "15,175"), "height_text.txt"),
    (("height", "-w", "2,4", "--records", "15,175"), "height_records.txt"),
    (("count", "-w", "1,1", "-B", "2"), "count_text.txt"),
    (("count", "-w", "1,1", "-B", "2", "--records"), "count_records.txt"),
    (("enumerate", "-w", "2,3", "-B", "root(2,6)"), "enumerate_text.txt"),
    (("enumerate", "-w", "2,3", "-B", "root(2,6)", "--records"), "enumerate_records.txt"),
    (("awgcd", "-w", "6,8", "8000000000000,81920000000000000"), "awgcd_text.txt"),
    (("awgcd", "-w", "6,8", "--records", "8000000000000,81920000000000000"), "awgcd_records.txt"),
    (("normalize", "-w", "3,2", "1440,700"), "normalize_text.txt"),
    (("normalize", "-w", "3,2", "--records", "1440,700"), "normalize_records.txt"),
    (("canon", "-w", "2,3", "1/2,1/8"), "canon_text.txt"),
    (("canon", "-w", "2,3", "--records", "1/2,1/8"), "canon_records.txt"),
    (("equiv", "-w", "2,3", "1,1", "4,-8"), "equiv_text.txt"),
    (("equiv", "-w", "2,3", "--records", "1,1", "4,-8"), "equiv_records.txt"),
    (("size", "-w", "2,3,5", "7,0,0"), "size_text.txt"),
    (("size", "-w", "2,3,5", "--records", "7,0,0"), "size_records.txt"),
    (("logheight", "-w", "2,4", "15,175"), "logheight_text.txt"),
    (("logheight", "-w", "2,4", "--records", "15,175"), "logheight_records.txt"),
    (("phi", "-w", "2,4", "15,175"), "phi_text.txt"),
    (("phi", "-w", "2,4", "--records", "15,175"), "phi_records.txt"),
    (("preimage", "-w", "2,3", "1,2"), "preimage_text.txt"),
    (("preimage", "-w", "2,3", "--records", "1,2"), "preimage_records.txt"),
    (("wellform", "-w", "2,4,6,10"), "wellform_text.txt"),
    (("wellform", "-w", "2,4,6,10", "--records"), "wellform_records.txt"),
    (("kronecker", "-w", "1,2,3", "--", "1,-1,0"), "kronecker_text.txt"),
    (("kronecker", "-w", "1,2,3", "--records", "--", "1,-1,0"), "kronecker_records.txt"),
]

STARVED_ARGV = ("wgcd", "-w", "1,1", "10403,10403")

# Failures exit 1 with nothing on stdout and exactly this stderr.
ERROR_CASES = [
    (("wgcd", "-w", "3,2", "0,0"), "wgcd_all_zero.err"),
    (("wgcd", "-w", "3,2", "1440,700,9"), "wgcd_length.err"),
    (("wgcd", "-w", "3,2", "14x,700"), "wgcd_bad_coordinate.err"),
    (("wgcd", "-w", "3,x", "1440,700"), "wgcd_bad_weight.err"),
    (("count", "-w", "1,1", "-B", "-3"), "count_negative_bound.err"),
    (("normalize", "-w", "2,3", "1/2,1/8"), "normalize_not_integral.err"),
    # str.isdigit accepts the superscript, but int() does not parse it.
    (("wgcd", "-w", "²,1", "1,1"), "wgcd_superscript_weight.err"),
]


@pytest.mark.parametrize("argv, golden", GOLDEN_CASES)
def test_golden_outputs(capsys, argv, golden):
    status, out, err = run(capsys, *argv)
    assert status == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("wgcd", "-w", "3,2", "--seed", "1", "1440,700"), "wgcd_text.txt"),
        (("height", "-w", "2,4", "--seed", "7", "--records", "15,175"), "height_records.txt"),
    ],
)
def test_seed_alone_keeps_the_default_bound(capsys, argv, golden):
    status, out, err = run(capsys, *argv)
    assert status == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


def test_awgcd_and_rational_dispatch(capsys):
    status, out, _ = run(capsys, "awgcd", "-w", "6,8", "8000000000000,81920000000000000")
    assert status == 0 and out == "root(4000,2)\n"
    status, out, _ = run(capsys, "wgcd", "-w", "2,3", "4/7,8/5")
    assert status == 0 and out == "2\n"
    status, out, _ = run(capsys, "awgcd", "-w", "2,4", "9/2,81/5")
    assert status == 0 and out == "3\n"


def test_normalize_and_canon(capsys):
    status, out, _ = run(capsys, "normalize", "-w", "3,2", "1440,700")
    assert status == 0 and out == "[180:175]\n"
    status, out, _ = run(capsys, "canon", "-w", "2,3", "1/2,1/8")
    assert status == 0 and out == "[2:1]\n"


def test_equiv(capsys):
    status, out, _ = run(capsys, "equiv", "-w", "2,3", "1,1", "4,-8")
    assert status == 0 and out == "-2\n"
    status, out, _ = run(capsys, "equiv", "-w", "2,3", "--records", "1,1", "4,-8")
    assert out == "equivalent=true\nlambda=-2\n"
    status, out, _ = run(capsys, "equiv", "-w", "2,3", "1,1", "4,9")
    assert status == 0 and out == "not equivalent\n"


def test_size_phi_preimage(capsys):
    status, out, _ = run(capsys, "size", "-w", "2,3,5", "7,0,0")
    assert status == 0 and out == "root(7,2)\n"
    status, out, _ = run(capsys, "phi", "-w", "2,4", "15,175")
    assert status == 0 and out == "[81:49]\n"
    status, out, _ = run(capsys, "preimage", "-w", "2,3", "1,2")
    assert status == 0 and out == "[2:4]\n"
    status, out, _ = run(capsys, "preimage", "-w", "2,4", "2,1")
    assert status == 0 and out == "none\n"
    status, out, _ = run(capsys, "preimage", "-w", "2,4", "--records", "2,1")
    assert out == "found=false\n"


def test_logheight(capsys):
    status, out, _ = run(capsys, "logheight", "-w", "2,4", "15,175")
    assert status == 0 and out == "0.549306144334055\n"


def test_wellform(capsys):
    status, out, _ = run(capsys, "wellform", "-w", "2,4,6,10")
    assert status == 0
    assert out == "1,2,3,5\nstep: divide all weights by 2\n"
    status, out, _ = run(capsys, "wellform", "-w", "1,2,2", "--records")
    assert out == "weights=1,1,1\nstep d=2 pivot=0\n"


def test_kronecker(capsys):
    status, out, _ = run(capsys, "kronecker", "-w", "1,2,3", "--", "1,-1,0")
    assert status == 0 and out == "true (ratio condition: true)\n"
    status, out, _ = run(capsys, "kronecker", "-w", "2,4", "15,175")
    assert out == "false (ratio condition: false)\n"
    status, out, _ = run(capsys, "kronecker", "-w", "2,4", "--records", "15,175")
    assert out == "height_one=false\nratio_condition=false\n"


def test_error_categories(capsys):
    for argv, golden in ERROR_CASES:
        assert run(capsys, *argv) == (1, "", (GOLDEN / golden).read_text()), argv


def test_factoring_effort_error(capsys):
    # Starve every stage so the 101 * 103 cofactor survives; the CLI must
    # report it rather than guess.
    with factor_config(FactorConfig(trial_bound=10, rho_iterations=2, rho_attempts=0)):
        result = run(capsys, *STARVED_ARGV)
    assert result == (1, "", (GOLDEN / "wgcd_factoring.err").read_text())


def test_factor_bound_does_not_outlive_the_call(capsys):
    status, out, _ = run(capsys, "wgcd", "-w", "1,1", "--factor-bound", "2", "6,6")
    assert status == 0 and out == "6\n"
    assert _effort.get() == FactorConfig()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("bound", ["0", "1", "-5"])
def test_factor_bound_below_two_is_a_usage_error(bound):
    with pytest.raises(SystemExit) as excinfo:
        main(["wgcd", "-w", "3,2", "--factor-bound", bound, "1440,700"])
    assert excinfo.value.code == 2


@pytest.fixture
def digits_unlimited():
    """Lift this process's limit on int <-> str conversion for one test, if it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.0 to 3.10.6
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(before)


def _console_command(*argv: str) -> list[str]:
    """argv that runs the CLI as a program, through console_main, on this checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "from wpheights.cli import console_main; console_main()"
    )
    return [sys.executable, "-c", code, *argv]


def _console(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(_console_command(*argv), capture_output=True, text=True, timeout=60)


def test_console_prints_more_than_4300_digits(digits_unlimited):
    # phi raises the first coordinate to 20000 / 1 and the second to 20000 / 20000.
    result = _console("phi", "-w", "1,20000", "2,1")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"[{2**20000}:1]\n"
    assert len(result.stdout) == 6026


def test_console_reads_more_than_4300_digits(digits_unlimited):
    # Coprime coordinates under weights (1,1) are their own canonical representative.
    big = str(3**11000)
    result = _console("canon", "-w", "1,1", f"{big},1")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"[{big}:1]\n"


def test_console_exits_quietly_when_the_reader_stops_early():
    # As in `enumerate -w 1,1 -B 300 | head -n 1`: the listing (about 1.7 MB)
    # overflows the pipe buffer, so the CLI writes into a pipe closed under it.
    with subprocess.Popen(
        _console_command("enumerate", "-w", "1,1", "-B", "300"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as process:
        first = process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read()
        status = process.wait(timeout=60)
    assert (first, status, stderr) == ("[0:1] h=1\n", 0, "")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_main_leaves_the_digit_limit_alone(capsys):
    before = sys.get_int_max_str_digits()
    assert run(capsys, "phi", "-w", "1,1", "2,3")[0] == 0
    assert sys.get_int_max_str_digits() == before
