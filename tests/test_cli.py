"""Command-line surface: flags, exit codes, CSV emission."""

import subprocess
import sys

import numpy as np

from tjcm.cli import EXIT_OK, EXIT_REFUSED, EXIT_USAGE, EXIT_VERIFY_FAILED, main
from tjcm.scan import read_csv


def test_scan_writes_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main([
        "scan", "--alpha", "1.5", "--g", "0.5", "--l", "1", "--tmax", "3",
        "--steps", "16", "--channels", "inv1,ey2", "--out", str(out),
    ])
    assert code == EXIT_OK
    ts = read_csv(str(out))
    assert list(ts.channels) == ["inv1", "ey2"]
    assert ts.grid.size == 16
    assert ts.grid[-1] == 3.0


def test_scan_stdout_matches_file(tmp_path, capsys):
    args = ["scan", "--alpha", "1.0", "--tmax", "2", "--steps", "8",
            "--channels", "inv1,gamma1"]
    assert main(args) == EXIT_OK
    stdout = capsys.readouterr().out
    out = tmp_path / "s.csv"
    assert main(args + ["--out", str(out)]) == EXIT_OK
    assert stdout == out.read_text(encoding="utf-8")


def test_unknown_channel_is_usage_error(capsys):
    code = main(["scan", "--channels", "inv1,bogus", "--steps", "8", "--tmax", "1"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bogus" in err and "inv1" in err  # lists valid channels
    code = main(["scan", "--channels", "inv1,inv1", "--steps", "8", "--tmax", "1"])
    assert code == EXIT_USAGE
    assert "more than once: inv1" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(capsys):
    assert main(["scan", "--alpha", "-3", "--steps", "8", "--tmax", "1",
                 "--channels", "inv1"]) == EXIT_USAGE
    assert main(["scan", "--steps", "notanint"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


def test_scan_refuses_ill_conditioned_phases(capsys):
    args = ["scan", "--alpha", "5", "--g", "1", "--l", "8", "--steps", "50",
            "--channels", "inv1"]
    assert main(args) == EXIT_USAGE  # t_max 25: conditioning 1.3e-6
    assert "phase conditioning" in capsys.readouterr().err
    assert main(args + ["--tmax", "0.1"]) == EXIT_OK


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    for args in (["preset", "fig1", "--steps", "8"],
                 ["scan", "--steps", "8", "--tmax", "1", "--channels", "inv1"]):
        assert main(args + ["--out", str(missing)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("tjcm: error: cannot write") and str(missing) in err
        assert "Traceback" not in err


def test_scan_refuses_output_beyond_physical_memory(capsys):
    assert main(["scan", "--steps", str(10**12), "--channels", "inv1"]) == EXIT_REFUSED
    assert "physical memory" in capsys.readouterr().err


def test_preset_subcommand(tmp_path):
    out = tmp_path / "fig1.csv"
    code = main(["preset", "fig1", "--steps", "12", "--out", str(out)])
    assert code == EXIT_OK
    ts = read_csv(str(out))
    assert list(ts.channels) == ["inv1", "inv2", "ey1", "ey2", "fy2"]
    assert abs(ts.channels["inv1"][0] - 1.0) < 1e-9
    out3 = tmp_path / "fig3.csv"
    assert main(["preset", "fig3", "--steps", "6", "--tmax", "2",
                 "--out", str(out3)]) == EXIT_OK
    assert list(read_csv(str(out3)).channels) == ["gamma2_l1", "gamma2_l2"]


def test_closed_stdout_pipe_ends_quietly():
    """A reader that closes the pipe early (tjcm preset fig1 | head -1)
    stops the CSV with exit 1 and nothing on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-c", "from tjcm.cli import run; run()", "preset", "fig1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"T,")
    proc.stdout.close()  # the CSV is far larger than the pipe's buffer
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_USAGE
    assert err == b""


def test_preset_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["preset", "fig4", "--steps", "10", "--out", str(a)]) == EXIT_OK
    assert main(["preset", "fig4", "--steps", "10", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_pass_and_exit_codes(capsys):
    base = ["verify", "--alpha", "1.5", "--g", "0.5", "--l", "1",
            "--tmax", "4", "--steps", "40", "--samples", "10"]
    assert main(base) == EXIT_OK
    assert "PASS" in capsys.readouterr().out

    assert main(base + ["--inject-fault"]) == EXIT_VERIFY_FAILED
    assert "FAIL" in capsys.readouterr().out

    assert main(base + ["--max-dim", "8"]) == EXIT_REFUSED
    assert "refused" in capsys.readouterr().err

    assert main(["verify", "--samples", "3", "--steps", "40", "--tmax", "4",
                 "--alpha", "1.0"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "scan" in capsys.readouterr().out


def test_import_leaves_scipy_sparse_and_special_unloaded():
    """The oracle loads only for verify and needs no scipy module; scans
    start plain threads, so concurrent.futures (and its logging import)
    stays unloaded too."""
    code = (
        "import sys, tjcm; "
        "print(sorted(m for m in ('scipy.sparse', 'scipy.special', 'tjcm.oracle', "
        "'concurrent.futures') if m in sys.modules)); "
        "import tjcm.oracle; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["[]", "[]"]


NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
    del sys.modules[name]
try:
    import scipy.sparse
except ImportError:
    pass
else:
    sys.exit("scipy.sparse imported despite the block")
from tjcm.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_verify_runs_without_scipy():
    args = ["verify", "--alpha", "5", "--g", "0.5", "--l", "2", "--samples", "50",
            "--tmax", "3"]
    run = subprocess.run([sys.executable, "-c", NO_SCIPY, *args],
                         capture_output=True, text=True)
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout.startswith("verify PASS")
