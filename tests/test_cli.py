"""Command-line surface: flags, exit codes, CSV emission."""

import subprocess
import sys

import numpy as np
import pytest

import tjcm.cli
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


def test_frozen_atom_reads_inside_the_unit_ball(capsys):
    """At g 1e-300 atom 2 is frozen, and its inversion, a float64 dot,
    rounds past its trace, an fsum, by 2 eps: the scan prints 1, not
    1.0000000000000002."""
    args = ["scan", "--alpha", "5", "--g", "1e-300", "--steps", "3", "--channels", "inv2"]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["T,inv2", "0,1", "12.5,1", "25,1"]


def test_scan_refuses_ill_conditioned_phases(capsys):
    args = ["scan", "--alpha", "5", "--g", "1", "--l", "8", "--steps", "50",
            "--channels", "inv1"]
    assert main(args) == EXIT_USAGE  # t_max 25: conditioning 1.3e-6
    assert "phase conditioning" in capsys.readouterr().err
    assert main(args + ["--tmax", "0.1"]) == EXIT_OK


@pytest.mark.parametrize("channel", ["harmonic_sy", "jcm_sz"])
def test_reference_channels_refuse_ill_conditioned_phases(channel, capsys):
    """A scan of a reference channel alone is refused past the phase
    conditioning bound, as inv1 is on the same grid."""
    args = ["scan", "--alpha", "5", "--steps", "5", "--channels", channel, "--tmax"]
    assert main(args + ["1e9"]) == EXIT_USAGE  # conditioning 4.4e-6 and 2.2e-6
    assert "phase conditioning" in capsys.readouterr().err
    assert main(args + ["25"]) == EXIT_OK


def test_reference_refusal_names_only_what_its_sums_depend_on(capsys):
    """The jcm_* baseline (g = 0, l = 1) and harmonic_sy depend on neither
    the scan's g nor its l, so their refusal names only t_max and alpha: a
    user who lowers g as told would be refused again (2.2e-6 at g 0.01 as
    at g 1).  A scan of inv1 at l 1 names g but not l, which cannot go
    lower."""
    for channel in ("jcm_sz", "harmonic_sy"):
        assert main(["scan", "--alpha", "5", "--tmax", "1e9", "--steps", "5", "--channels",
                     channel, "--g", "0.01"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "phase conditioning" in err and err.rstrip().endswith("; lower t_max or alpha")
    assert main(["scan", "--alpha", "5", "--tmax", "1e9", "--steps", "5", "--channels", "inv1",
                 "--g", "0.01"]) == EXIT_USAGE
    assert capsys.readouterr().err.rstrip().endswith("; lower t_max, alpha or g")


def test_scan_refuses_cutoff_eps_and_steps_below_their_floors(capsys):
    """A cutoff_eps below 1e-15, and a subnormal step, are one error line
    naming the bound, before any work; at the bounds' safe side the scan
    runs."""
    for args, bound in ((["--cutoff-eps", "1e-20", "--steps", "5"], "below 1e-15"),
                        (["--tmax", "5e-324", "--steps", "3"], "smallest normal double")):
        assert main(["scan", *args]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert bound in err and err.count("\n") == 1
    for args in (["--alpha", "5", "--cutoff-eps", "1e-15", "--steps", "50"],
                 ["--tmax", "1e-300", "--steps", "5"]):
        assert main(["scan", *args]) == EXIT_OK


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    for args in (["preset", "fig1", "--steps", "8"],
                 ["scan", "--steps", "8", "--tmax", "1", "--channels", "inv1"]):
        assert main(args + ["--out", str(missing)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("tjcm: error: cannot write") and str(missing) in err
        assert "Traceback" not in err


def test_unwritable_out_fails_before_the_run(tmp_path, monkeypatch, capsys):
    """--out is checked before the scan runs, and checking it truncates no
    existing file."""
    def never(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(tjcm.cli, "run_scan", never)
    monkeypatch.setattr(tjcm.cli, "run_preset", never)
    missing = str(tmp_path / "missing" / "x.csv")
    for args in (["preset", "fig1", "--steps", "400000"],
                 ["scan", "--steps", "400000", "--channels", "inv1"]):
        assert main(args + ["--out", missing]) == EXIT_USAGE
        assert "cannot write" in capsys.readouterr().err
    monkeypatch.undo()
    kept = tmp_path / "kept.csv"
    kept.write_text("old contents\n", encoding="utf-8")
    assert main(["scan", "--steps", "8", "--channels", "bogus", "--out", str(kept)]) == EXIT_USAGE
    assert kept.read_text(encoding="utf-8") == "old contents\n"


def test_refused_run_leaves_no_file_it_created(tmp_path, capsys):
    """A run refused after --out was checked leaves no file where there was
    none and an existing file's bytes as they were, with the exit code and
    message of the refusal."""
    runs = [(["scan", "--tmax", "1e9", "--steps", "5", "--channels", "jcm_sz"], EXIT_USAGE,
             "tjcm: error: phase conditioning"),
            (["scan", "--steps", str(10**12), "--channels", "inv1"], EXIT_REFUSED,
             "tjcm: refused: "),
            (["preset", "fig1", "--steps", "1"], EXIT_USAGE, "tjcm: error: steps")]
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"old contents\n")
    for args, code, message in runs:
        out = tmp_path / "x.csv"
        assert main(args + ["--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()
        assert main(args + ["--out", str(kept)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert kept.read_bytes() == b"old contents\n"


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


def test_verify_refuses_fewer_grid_times_than_samples(capsys):
    args = ["verify", "--alpha", "1.0", "--tmax", "4", "--samples", "10"]
    assert main(args + ["--steps", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "1 times after T = 0" in err and "10 samples" in err
    assert main(args + ["--steps", "11"]) == EXIT_OK


@pytest.mark.parametrize("args", [
    ["scan", "--g", "1e300", "--steps", "5"],
    ["scan", "--l", "200", "--steps", "5"],
    ["verify", "--g", "1e300", "--tmax", "3"],
    ["verify", "--l", "200", "--tmax", "3"],
])
def test_overflowing_coupling_is_one_error_line(args):
    """Couplings whose block norm overflows exit 1 with one error line:
    no traceback, no RuntimeWarning, no CSV of frozen atoms."""
    run = subprocess.run([sys.executable, "-c", "from tjcm.cli import run; run()", *args],
                         capture_output=True, text=True)
    assert run.returncode == EXIT_USAGE
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tjcm: error: coupling too strong")


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


def test_presets_and_verify_leave_heavy_modules_unloaded():
    """A fresh process that runs every preset and one verify through the
    command line never imports numpy.ma (the oracle hand-rolls np.unique),
    numpy.polynomial (blocks computes its own Legendre rule), numpy.random
    (verify samples its grid evenly) or scipy."""
    code = (
        "import os, sys; from tjcm.cli import main; "
        "codes = [main(['preset', name, '--out', os.devnull]) "
        "for name in ('fig1', 'fig2', 'fig3', 'fig4')]; "
        "codes.append(main(['verify', '--alpha', '5', '--g', '0.5', '--tmax', '3'])); "
        "print(codes); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'polynomial'], ['numpy', 'random'])))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-2:] == ["[0, 0, 0, 0, 0]", "[]"]


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
