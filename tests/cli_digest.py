"""SHA-256 digests of a fixed set of `isoshift` runs, one line per run.

Run it on two trees and compare the output line by line to see whether a
change moves any byte the command line prints or writes:

    PYTHONPATH=src python -W error::RuntimeWarning tests/cli_digest.py > digest.txt

Each line holds the arguments, the exit code, and the SHA-256 of stdout
(with the certify report's `wall_time_s` values stripped), of stderr and
of each file the run wrote, by name.  The runs call isoshift.cli.main in
this process, each with stdout and stderr captured and, for `extend` and
`interpolate`, a fresh output directory.  The file is not a test module:
pytest does not collect it.
"""

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

from isoshift import cli

RO, DPT = ["--family", "radial_oscillator"], ["--family", "trig_dpt"]


def _certify_runs():
    """The certify runs of the CI workflow, then single DPT cells at and
    around the known failing ones, two RO cells, and one grid size refused
    before any cell runs."""
    runs = []
    # the in-process runs of the CI workflow, as the command line gives them
    for family in (RO + ["--omega", "1", "--ell", "1"], DPT + ["--A", "1", "--B", "1"]):
        for n in (None, 200, 256, 1000, 8000):
            grid = [] if n is None else ["--grid-points", str(n)]
            runs.append(family + ["--branches", "1", "2", "3", "--m", "0", "1", "2"] + grid)
    runs += [
        RO + ["--omega", "0.5", "--ell", "12", "--branches", "1", "2", "3", "4",
              "--m", "0", "2", "6", "10"],
        RO + ["--omega", "4", "--ell", "20", "--branches", "2", "3", "--m", "0", "1", "8"],
        RO + ["--omega", "0.7", "--ell", "1.2", "--branches", "1", "--m", *"123456"],
        DPT + ["--A", "1.43", "--B", "1.43", "--branches", "2", "3", "--m", "1"],
        DPT + ["--A", "30", "--B", "30", "--branches", "2", "3", "--m", "0", "1", "2"],
        DPT + ["--A", "0.3", "--B", "2", "--branches", "2", "3", "--m", "0", "1", "2"],
    ]
    # the command-line runs of the CI workflow
    runs += [
        DPT + ["--A", "1.5", "--B", "3", "--branches", "1", "--m", *"0123456"],
        DPT + ["--A", "0.3", "--B", "-0.3", "--branches", "1", "--m", *"123456"],
        DPT + ["--A", "1.5", "--B", "3", "--branches", "1", "--m", "8", "10", "12"],
        DPT + ["--A", "1.5", "--B", "3", "--branches", "2", "3", "4", "--m", "0", "1"],
        RO + ["--branches", "1", "2", "3", "--m", *"0123456"],
    ]
    # five of these cells fail; the others share a parameter set with one
    cells = [("1.5", "3", k, m) for k in "1234" for m in "0123"]
    cells += [("0.5", "2.5", "4", "4")]
    cells += [("2.5", "0.45", k, m) for k in "12" for m in "34"]
    cells += [("0.5", "0.7", "2", "2")]
    runs += [DPT + ["--A", A, "--B", B, "--branches", k, "--m", m] for A, B, k, m in cells]
    runs += [
        RO + ["--omega", "3.7", "--ell", "2.5", "--branches", "1", "--m", "4"],
        RO + ["--omega", "0.81", "--ell", "3.5", "--branches", "1", "--m", "5"],
        # no cell of this run reaches the FD solver; the grid size is refused
        DPT + ["--branches", "1", "--m", "0", "--grid-points", "10"],
    ]
    return [["certify"] + argv for argv in runs]


def _extend_runs():
    """extend at m 0-3 and seven states, on every branch of both families."""
    return [["extend"] + family + ["--branch", k, "--m", "0", "1", "2", "3", "--nmax", "6"]
            for family in (RO, DPT) for k in "1234"]


def _interpolate_runs():
    """The interpolate runs of the CI workflow."""
    runs = [
        ["--omega", "1", "--ell", "1", "--branch", "2", "--R", "-3"],
        ["--omega", "0.5", "--ell", "2.5", "--branch", "2", "--R", "-7.1"],
        ["--omega", "4", "--ell", "1", "--branch", "2", "--R", "2.7", "--rmax", "60",
         "--grid-points", "20000"],
        DPT + ["--A", "1.5", "--B", "3", "--R", "1"],
    ]
    return [["interpolate"] + argv for argv in runs]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digest(argv):
    """One line: argv, exit code, and the digests of the run's outputs."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        extra = ["--out", tmp] if argv[0] != "certify" else []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + extra)
            except SystemExit as exc:  # argparse's refusals
                code = exc.code
        files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
        written = [f"{p.relative_to(tmp)} {_sha(p.read_bytes())}" for p in files]
    stdout = re.sub(r'"wall_time_s": [^,\n]*', "", out.getvalue())
    fields = [" ".join(argv), f"exit {code}", f"stdout {_sha(stdout.encode())}",
              f"stderr {_sha(err.getvalue().encode())}", *written]
    return " | ".join(fields)


def main():
    for argv in _certify_runs() + _extend_runs() + _interpolate_runs():
        print(digest(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
