"""Seeded workloads of the isoshift benchmark: inputs, one op, and its checks.

Each workload is a stream of blocks.  A block holds one op per stratum of the
workload (a certify cell, or an eigenfunction series and hierarchy index), so
every run sees the strata in the same proportions and only the drawn
parameters change with the seed.  Half the draws are continuous and half lie
on the half-integer lattice, the values most users pick and where the
Jacobi/Laguerre degeneracies live; lattice draws are never filtered out.

Every op of a measured stream must succeed, so `certify_dpt` measures only the
cells that certify handles today: branch 1 at m 0-6 and branches 2-4 at
m 0-1, checked on every lattice pair.  The cells where the library fails
(branches 2-4 at m >= 2, ROADMAP item 5) form `defect_probe`, which the traced
run counts under `fail.*` and which no timing includes.

The program only ever receives the generated inputs: ``execute`` calls the
library through module attributes (so a tracer can patch them), ``judge``
checks the result against closed forms that do not depend on the library's
own verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from isoshift import cli, deform, eop, spectral
from isoshift.catalog import RadialOscillator
from isoshift.errors import IsoshiftError

WORKLOADS = ("certify_ro", "certify_dpt", "eigen_tables")

# the smallest op count of a run: p90 then has ten samples beyond it
MIN_OPS = 100

# acceptance-suite tolerances used by the checks
SHIFT_TOL = 1e-4
RESIDUAL_TOL = 1e-6
# gates of `isoshift certify`, against which margins are reported
GRAM_GATE = 1e-8
ISOSPECTRAL_GATE = 1e-3

# ROADMAP item 5 regressions, the head of the defect probe: an empty
# certification grid (bare ValueError), an integer Jacobi mu
# (InternalInconsistencyError) and a 1.8e-7 Riccati residual
DPT_REGRESSIONS = ((0.5, 2.5, 4, 4), (2.0, 1.5, 3, 3), (2.0, 1.5, 4, 3))

EIGEN_GRID_POINTS = 100_000
_SERIES = ("L1", "L2", "L3")


@dataclass(frozen=True)
class CertifyOp:
    """`isoshift certify` for one (branch, m) cell of one family."""

    family: str  # "radial_oscillator" or "trig_dpt"
    p: float  # omega or A
    q: float  # ell or B
    branch: int
    m: int

    def argv(self):
        names = ("--omega", "--ell") if self.family == "radial_oscillator" else ("--A", "--B")
        return [
            "certify", "--family", self.family,
            names[0], repr(self.p), names[1], repr(self.q),
            "--branches", str(self.branch), "--m", str(self.m),
        ]

    def _ab(self):
        """The branch parameters (a, b) of the catalog table."""
        if self.family == "radial_oscillator":
            w, ell = self.p, self.q
            table = {1: (-ell - 1.0, w), 2: (ell, w), 3: (-ell - 1.0, -w), 4: (ell, -w)}
        else:
            A, B = self.p, self.q
            table = {1: (A, B), 2: (-A - 1.0, B), 3: (A, -B - 1.0), 4: (-A - 1.0, -B - 1.0)}
        return table[self.branch]

    def shift(self):
        """The closed-form shift R of the cell."""
        if self.family == "radial_oscillator":
            return 2.0 * self.m * self.p
        a, b = self._ab()
        return -4.0 * self.m * (self.m + a + b)

    def top_level(self):
        """The level n = 3 of V-, the highest of the four that certify compares."""
        a, b = self._ab()
        if self.family == "radial_oscillator":
            # V has levels omega (2n + ell + 3/2), and V- = V + b (a - 1/2)
            return self.p * (6.0 + self.q + 1.5) + b * (a - 0.5)
        # V has levels (A + B + 2 + 2n)^2, and V- = V - (a + b)^2
        return (self.p + self.q + 8.0) ** 2 - (a + b) ** 2


@dataclass(frozen=True)
class EigenOp:
    """The README tour: seed, extend, closed-form psi on a dense grid, residual."""

    omega: float
    ell: float
    series: str
    m: int
    n: int

    def energy(self):
        """The README ladder formula for the state."""
        w, ell, n, m = self.omega, self.ell, self.n, self.m
        if self.series == "L1":
            return (2 * n + 2 * m + 2 * ell + 1) * w
        if self.series == "L2":
            return (2 * n + 2 * m + 2 * ell + 3) * w
        return 2.0 * (n + m + 1) * w


@dataclass
class Raw:
    """What one op produced, before any check."""

    rc: Optional[int] = None
    stdout: str = ""
    stderr: str = ""
    exc: Optional[BaseException] = None
    refused: bool = False
    energy: float = math.nan
    psi_finite: bool = False
    residual: float = math.nan


@dataclass
class Outcome:
    """The verdict on one op: kind is ok, refused, cert, error, crash or check."""

    kind: str
    layer: str = ""
    detail: str = ""
    output_bytes: int = 0
    gram_offdiag: Optional[float] = None
    iso_deviation: Optional[float] = None

    @property
    def failed(self):
        return self.kind not in ("ok", "refused")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


# parameter axes: low, high, log-uniform, lattice values
_OMEGA = (0.5, 4.0, True, [k / 2.0 for k in range(1, 9)])
_ELL = (0.1, 3.5, False, [k / 2.0 for k in range(1, 8)])
_AB = (0.5, 4.0, False, [k / 2.0 for k in range(1, 9)])
N_MAX = 15

# blocks per sampling cycle; one cycle holds at least MIN_OPS ops and every
# run starts with a whole cycle
CYCLE = {"certify_ro": 6, "certify_dpt": 8, "eigen_tables": 10}

# certify_dpt cells that fail on some draws at present; only the probe runs them
DPT_DEFECT_CELLS = [(k, m) for k in (2, 3, 4) for m in range(2, 7)]


def _strata(name):
    if name == "certify_ro":
        # Every cell once, plus m = 0 twice more per branch.  Cells without a
        # Gram matrix (m = 0, singular branch-1 cells) are then about 60 % of
        # the ops: the median sits among them and the Gram cells form the
        # tail.  With every cell once the split is near 50 %, and the median
        # would jump between the two groups from seed to seed.
        return [(k, m) for k in (1, 2, 3) for m in range(4)] + [(k, 0) for k in (1, 2, 3)] * 2
    if name == "certify_dpt":
        return [(1, m) for m in range(7)] + [(k, m) for k in (2, 3, 4) for m in (0, 1)]
    if name == "eigen_tables":
        return [(s, m) for s in _SERIES for m in (1, 2, 3, 4)]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _shuffled(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return order


def _continuous(rng, axis, count):
    lo, hi, log, _ = axis
    out = []
    for p in _shuffled(rng, count):
        t = (p + rng.random()) / count
        out.append(lo * (hi / lo) ** t if log else lo + t * (hi - lo))
    return out


def _lattice(rng, axis, count):
    values = axis[3]
    return [values[p % len(values)] for p in _shuffled(rng, max(count, len(values)))][:count]


def _plan(name, seed, cycle, stratum):
    """The draws of one stratum over one cycle of blocks.

    Half the draws lie on the lattice and half are continuous; every axis,
    and n, is stratified over the cycle, so a run's mix of costs depends
    little on the seed.
    """
    rng = random.Random(f"{name}/{seed}/{cycle}/{stratum}")
    k = CYCLE[name]
    axes = (_AB, _AB) if name == "certify_dpt" else (_OMEGA, _ELL)
    cont = zip(*(_continuous(rng, axis, k // 2) for axis in axes))
    latt = zip(*(_lattice(rng, axis, k - k // 2) for axis in axes))
    ns = [int((p + rng.random()) * (N_MAX + 1) / k) for p in _shuffled(rng, k)]
    draws = [(*pq, n) for pq, n in zip([*cont, *latt], ns)]
    return [draws[i] for i in _shuffled(rng, k)]


def block(name, seed, index):
    """Block `index` of a workload's op stream; a pure function of its arguments."""
    strata = _strata(name)
    cycle, pos = divmod(index, CYCLE[name])
    ops = []
    for j, (a, b) in enumerate(strata):
        p, q, n = _plan(name, seed, cycle, j)[pos]
        if name == "certify_ro":
            ops.append(CertifyOp("radial_oscillator", p, q, a, b))
        elif name == "certify_dpt":
            ops.append(CertifyOp("trig_dpt", p, q, a, b))
        else:
            ops.append(EigenOp(p, q, a, b, n))
    random.Random(f"{name}/{seed}/{index}").shuffle(ops)
    return ops


def defect_probe(seed):
    """The known failing certify_dpt cells: the regressions, then one draw per defect cell."""
    ops = [CertifyOp("trig_dpt", A, B, k, m) for A, B, k, m in DPT_REGRESSIONS]
    for j, (k, m) in enumerate(DPT_DEFECT_CELLS):
        p, q, _ = _plan("certify_dpt", seed, "probe", j)[j % CYCLE["certify_dpt"]]
        ops.append(CertifyOp("trig_dpt", p, q, k, m))
    return ops


def min_blocks(name):
    """Blocks of the first cycle, which every run measures."""
    return CYCLE[name]


def warm_up_op(name, seed):
    """A cheap op outside the measured stream, run once before timing."""
    return min(block(name, seed, -1), key=lambda op: (op.m, getattr(op, "n", 0)))


def generate(name, seed, n_blocks):
    """The first n_blocks blocks of the stream, flattened."""
    return [op for i in range(n_blocks) for op in block(name, seed, i)]


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------


def execute(op) -> Raw:
    """Run one op against the library; never raises for a library failure.

    Warning registries are reset per op, so each op prints the warnings a
    fresh `isoshift` process would.
    """
    raw = Raw()
    with warnings.catch_warnings():
        try:
            if isinstance(op, CertifyOp):
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        raw.rc = cli.main(op.argv())
                finally:
                    raw.stdout, raw.stderr = out.getvalue(), err.getvalue()
            else:
                _eigen(op, raw)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none aborts
            raw.exc = exc
    return raw


def _eigen(op: EigenOp, raw: Raw):
    fam = RadialOscillator(op.omega, op.ell)
    d = deform.seed_polynomial(fam, eop.series_branch(op.series), op.m)
    pair = deform.extend(d)
    if pair.singular_points:
        # eigenfunction tables refuse singular extensions
        raw.refused = True
        return
    spec = eop.EOPSpec(op.series, op.n, op.m, fam)
    psi = eop.eigenfunction_closed_form(spec)
    raw.energy = eop.eigenvalue(spec)
    s = 1.0 / math.sqrt(op.omega)
    r = np.linspace(0.05 * s, 16.0 * s, EIGEN_GRID_POINTS)
    raw.psi_finite = bool(np.all(np.isfinite(psi.f(r))))
    raw.residual = spectral.schrodinger_residual(psi, raw.energy, pair.V_tilde_minus, r)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def raising_layer(exc):
    """The isoshift module of the innermost frame that raised exc."""
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        path = Path(frame.filename)
        if path.parent.name == "isoshift":
            return path.stem
    return "unattributed"


def _cert_layer(failure):
    for key, layer in (("riccati", "deform"), ("w0", "deform"), ("gram", "eop"),
                       ("isospectral", "spectral")):
        if key in failure:
            return layer
    return "cli"


def judge(op, raw: Raw) -> Outcome:
    """Classify one op and check its outputs against closed forms."""
    nbytes = len(raw.stdout.encode()) + len(raw.stderr.encode())
    if raw.exc is not None:
        kind = "error" if isinstance(raw.exc, IsoshiftError) else "crash"
        return Outcome(kind, raising_layer(raw.exc), f"{type(raw.exc).__name__}: {raw.exc}",
                       nbytes)
    if isinstance(op, EigenOp):
        return _judge_eigen(op, raw)
    return _judge_certify(op, raw, nbytes)


def _judge_eigen(op: EigenOp, raw: Raw) -> Outcome:
    if raw.refused:
        return Outcome("refused", "deform", "singular extension")
    problems = []
    if not raw.psi_finite:
        problems.append("psi not finite on the grid")
    if not raw.residual <= RESIDUAL_TOL:
        problems.append(f"residual {raw.residual:.3e} > {RESIDUAL_TOL:g}")
    want = op.energy()
    if abs(raw.energy - want) > 1e-12 * max(1.0, abs(want)):
        problems.append(f"E={raw.energy!r} but the ladder gives {want!r}")
    if problems:
        return Outcome("check", "eop", "; ".join(problems))
    return Outcome("ok")


def _judge_certify(op: CertifyOp, raw: Raw, nbytes) -> Outcome:
    if raw.rc not in (0, 1, 2) or "Traceback (most recent call last)" in raw.stdout + raw.stderr:
        return Outcome("check", "cli", f"exit code {raw.rc!r} or traceback", nbytes)
    if raw.rc == 2:
        return Outcome("error", "cli", raw.stderr.strip(), nbytes)
    if raw.rc == 1 and not raw.stdout:
        # a typed IsoshiftError caught by the CLI; the traced run attributes it
        return Outcome("error", "unattributed", raw.stderr.strip(), nbytes)
    try:
        report = json.loads(raw.stdout)
    except json.JSONDecodeError as exc:
        return Outcome("check", "cli", f"unparseable JSON: {exc}", nbytes)
    if raw.rc == 1:
        failures = report.get("failures") or ["exit 1 without a failure list"]
        return Outcome("cert", _cert_layer(failures[0]), failures[0], nbytes)
    out = Outcome("ok", output_bytes=nbytes)
    problems = check_certify_report(op, report)
    cell = report["cells"][0] if report.get("cells") else {}
    if isinstance(cell.get("gram_offdiag_max"), float):
        out.gram_offdiag = cell["gram_offdiag_max"]
    if isinstance(cell.get("isospectrality"), dict):
        out.iso_deviation = cell["isospectrality"]["deviation"]
    if problems:
        out.kind, out.layer, out.detail = "check", "cli", "; ".join(problems)
    return out


def check_certify_report(op: CertifyOp, report) -> list:
    """Mismatches between a passing certify report and the closed forms."""
    problems = []
    if report.get("status") != "pass" or report.get("failures"):
        problems.append("exit code 0 but the report does not pass")
    cells = report.get("cells", [])
    if len(cells) != 1 or (cells[0].get("branch"), cells[0].get("m")) != (op.branch, op.m):
        return problems + [f"expected one cell for branch {op.branch} m={op.m}"]
    cell, R = cells[0], op.shift()
    if abs(cell.get("shift", math.nan) - R) > 1e-12 * max(1.0, abs(R)):
        problems.append(f"shift {cell.get('shift')!r} != closed-form R {R!r}")
    iso = cell.get("isospectrality")
    # the FD shift is a difference of FD eigenvalues, so it gets the
    # acceptance suite's FD-eigenvalue tolerance, 1e-4 relative to the level
    E = op.top_level()
    tol = SHIFT_TOL * max(1.0, abs(E), abs(E + R))
    if isinstance(iso, dict) and abs(iso["shift"] - R) > tol:
        problems.append(f"isospectral shift {iso['shift']!r} off R {R!r} by more than {tol:.3g}")
    return problems
