"""Golden CSV hashes: the dual-track CSV is pinned byte for byte.

The sha256 values were taken from the object-per-step fold that built every
row as a dataclass and joined the CSV into one string, and the long sparse
cases from later folds that walked or counted the outcomes of the absorbed
phase.  Those folds iterated Dempster's rule in floats.  Since each row is
the closed form of its two counts, the cases marked REPINNED hold the hashes
of the closed-form rows: their digits moved by a few ulps onto the exact
values, which test_repinned_rows_are_near_a_200_bit_reference checks for
every row.  The other cases' bytes did not move.  Any later fold or writer
must reproduce them all exactly; a changed digit anywhere fails here.

SIMULATE_CASES pin whole `evcalc simulate` calls (exit code, sha256 of
stdout, exact stderr).  They cover a Bernoulli run whose Dempster track
saturates at (1, 1), a faithful run at q below 2/3 (where chains of
combine_interval cycled a few ulps from (1, 1) while they did not carry
1 - pl), and two runs with heavy unit weights.  The iterated fold met a
total conflict in the last of these after four rows; the closed form of
finite weights never does, so it now runs to its end.  The first two and the stderr of the third were taken
from the iterated fold and still hold.
The last three tests send the "faithful" case through `evcalc simulate`'s
stdout, its --out file and a text-only stdout (an io.StringIO), and pin
that Trajectory.to_csv returns text.
"""

import contextlib
import hashlib
import io
import sys
from decimal import Decimal

import pytest

import highprec
from evcalc import StreamSpec, UnitWeights, run_dual_track
from evcalc.cli import main

EXPLICIT = (True, False, False, True, True, True, False, True, False, False) * 30

# (id, StreamSpec kwargs, (w0+, w0-), record_every, sha256 of the CSV)
CASES = [
    ("bernoulli", dict(mode="bernoulli", steps=3000, q=0.4, seed=11), (1.0, 1.0), 1,
     "6c6c12b3d2af179db875d57664ee4736926b90787af0ef2f3c1c551c4711591a"),
    ("faithful", dict(mode="frequency_faithful", steps=3000, q=0.7), (1.0, 1.0), 1,
     "da4d8879ecbff2a56efbf510556d60d7ef13c665f14fcde6fd7ace1e77da7cd3"),
    ("delta_profile", dict(mode="delta_profile", steps=3000, delta=3), (1.0, 1.0), 1,
     "32c9fb24d47db97b67bfc316386c7034e1704038a42cc3f4030591b984acfe4f"),
    ("explicit", dict(mode="explicit", outcomes=EXPLICIT), (1.0, 1.0), 1,
     "5aa61c343d25591c42fdaf9e9a8736f4bc0847783348e6855ac96d8dead316ff"),
    ("asymmetric_bernoulli", dict(mode="bernoulli", steps=3000, q=0.85, seed=2**64 - 1), (0.3, 2.5), 1,
     "c3fb40276a2021c66ff043bef453c6753d3ad024ec10353733aef68aca67ae7f"),
    ("asymmetric_faithful", dict(mode="frequency_faithful", steps=3000, q=0.2), (0.3, 2.5), 1,
     "820b7ac63663b5157077d93950ba6b2e3a789e43edc561f47fe7c0d75b2c68cd"),
    # heavy unit weights: under the iterated rule, 1500 of the 3000 steps took
    # combine_interval's conflict > 0.5 branch
    ("high_conflict", dict(mode="frequency_faithful", steps=3000, q=0.5), (3.0, 3.0), 1,
     "1cc16ede2a94f6c525c6406c11d91ab6b55a48bbf8c7c8de3ae98080577210ba"),
    # 3001 is not a multiple of 7, so the final row is recorded off the grid
    ("record_every", dict(mode="bernoulli", steps=3001, q=0.6, seed=7), (1.0, 1.0), 7,
     "49171e3996d228687f306ea882ff6e300aa47b39258af346a39e23e7579e5bc2"),
    ("zero_steps", dict(mode="frequency_faithful", steps=0, q=0.7), (1.0, 1.0), 1,
     "e2ccde4f685803c2f74ba39e3d227bfd4c9de53f45efd88fabefc6f08c733c9c"),
    # the shape of the sparse benchmark: saturated early, a row per 10k steps
    ("sparse", dict(mode="bernoulli", steps=300_000, q=0.65), (1.0, 1.0), 10_000,
     "8927cdfd45b3ef580b49795d64123a5520bc5b093882e7eab2ac2759f5a589c7"),
    # 0.1 is not dyadic: the rows' k * 0.1 differs from the k repeated additions
    # of 0.1 that the iterated fold made
    ("sparse_tenths", dict(mode="bernoulli", steps=200_000, q=0.7), (0.1, 0.1), 1000,
     "215e28c5d4fd18f9b87f2bdc97f3989e989dc573262903e2e5d634db19ab5f05"),
    # rows straddle the 1024-outcome blocks; the final row falls off the grid
    ("sparse_asymmetric", dict(mode="bernoulli", steps=100_001, q=0.95), (0.3, 2.5), 1025,
     "34b824628932825a9266c8ef04b330d006447c466a8db06a53046a2722f89246"),
    # dyadic weights: k * w0 equals k repeated additions of w0 for every count
    # here, so these rows did not move
    ("sparse_dyadic", dict(mode="bernoulli", steps=200_000, q=0.6, seed=3), (0.5, 0.25), 4096,
     "be2eebcfa17c0a9ccff3ecce900069519767d113d04915b78e093c4fb34465ad"),
    # 1 + 2**-40 has numerator 2**40 + 1, so c * w0 is provably the sum of c copies
    # only for c <= 8191; the run's 32373 positives pass that count partway
    ("sparse_horizon", dict(mode="bernoulli", steps=50_000, q=0.65, seed=4), (1 + 2**-40, 1.0), 3000,
     "b3a3e65d951c1c4c1aea72ac73df70c36be70a8ec5a1859ce37cb59301e78fff"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kwargs,weights,record_every,digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_csv_matches_golden_hash(kwargs, weights, record_every, digest):
    traj = run_dual_track(StreamSpec(**kwargs), UnitWeights(*weights), record_every)
    assert _sha256(traj.to_csv().encode()) == digest


# the cases whose hashes moved when the rows became closed forms of their
# counts, each checked below against a 200-bit evaluation
REPINNED = ["bernoulli", "asymmetric_bernoulli", "asymmetric_faithful", "record_every",
            "sparse_tenths", "sparse_asymmetric", "sparse_horizon"]
# relative error bounds: e^(wp - wm) magnifies the rounding of the weights by
# up to |wp - wm| (about 360 in asymmetric_bernoulli), so bel and pl get more
# room than l, u and f, which are a few roundings of wp and w; a value that
# underflows is off by less than the smallest normal float instead
BEL_PL_REL, LU_F_REL = 1e-13, 2.0**-51
_FLOAT_MIN = Decimal(sys.float_info.min)


@pytest.mark.parametrize("kwargs,weights,record_every", [c[1:4] for c in CASES if c[0] in REPINNED],
                         ids=[c[0] for c in CASES if c[0] in REPINNED])
def test_repinned_rows_are_near_a_200_bit_reference(kwargs, weights, record_every):
    w0_plus, w0_minus = map(Decimal, weights)
    rows = run_dual_track(StreamSpec(**kwargs), UnitWeights(*weights), record_every).rows
    with highprec.context():
        bounds = [Decimal(rel) for rel in (BEL_PL_REL,) * 2 + (LU_F_REL,) * 3]
        for row in rows[1:]:
            wp, wm = row.t_plus * w0_plus, (row.t - row.t_plus) * w0_minus  # exact at 61 digits
            w = wp + wm
            bel, _, width = highprec.belief(wp, wm)
            want = (bel, bel + width, wp / (w + 1), (wp + 1) / (w + 1), wp / w)
            for got, exact, rel in zip(row[2:], want, bounds):
                assert abs(Decimal(got) - exact) <= rel * exact + _FLOAT_MIN, (row, exact)


def test_cli_out_file_and_summary_match_golden(capsys, tmp_path):
    # the "record_every" case, run through `evcalc simulate --out`
    target = tmp_path / "run.csv"
    code = main([
        "simulate", "--mode", "bernoulli", "--q", "0.6", "--seed", "7", "--steps", "3001",
        "--record-every", "7", "--out", str(target),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert _sha256(target.read_bytes()) == dict((c[0], c[4]) for c in CASES)["record_every"]
    assert captured.err == (
        "final row: t=3001 t_plus=1811 bel=1 pl=1 l=0.60326449034 u=0.603597601599 f=0.603465511496\n"
        "predicted dempster limit: 1\n"
    )


# (id, argv, exit code, sha256 of stdout, stderr)
SIMULATE_CASES = [
    ("sparse-absorbs",
     ["simulate", "--mode", "bernoulli", "--q", "0.65", "--steps", "30000", "--record-every", "1000"],
     0, "00906b448a31d5695f9d4b64b22062843aac42683519e4c5056f550ecbc0edc0",
     "final row: t=30000 t_plus=19569 bel=1 pl=1 l=0.652278257391 u=0.652311589614 f=0.6523\n"
     "predicted dempster limit: 1\n"),
    ("faithful-rounding-cycle",
     ["simulate", "--mode", "faithful", "--q", "0.62", "--steps", "5000"],
     0, "97c1bc9489cd4c55b6aba3a81c79c555ff9cc06413d378e55b341a33bb9473ff",
     "final row: t=5000 t_plus=3100 bel=1 pl=1 l=0.619876024795 u=0.620075984803 f=0.62\n"
     "predicted dempster limit: 1\n"),
    ("heavy-conflict-never-met",
     ["simulate", "--mode", "faithful", "--q", "0.995", "--steps", "50", "--w0-pos", "24.69", "--w0-neg", "36.89"],
     0, "c5cc301372ec557c5c1b3afba280b6432ffc584ee712d6daa0533f38b7302016",
     "final row: t=50 t_plus=49 bel=1 pl=1 l=0.969632123107 u=0.97043359782 f=0.970409882089\n"
     "predicted dempster limit: 1\n"),
    ("heavy-conflict-met",
     ["simulate", "--mode", "bernoulli", "--seed", "759152683", "--q", "0.551", "--steps", "50",
      "--w0-pos", "28.09", "--w0-neg", "28.47"],
     0, "e1d52a3c19090c68dd6f2034301b18befdb189e7cd9f88f48a8db5318efcad35",
     "final row: t=50 t_plus=23 bel=5.5822673092e-54 pl=5.5822673092e-54 l=0.456341470306 u=0.457047804713 "
     "f=0.456664027821\npredicted dempster limit: 1\n"),
]


@pytest.mark.parametrize("argv,code,digest,err", [c[1:] for c in SIMULATE_CASES], ids=[c[0] for c in SIMULATE_CASES])
def test_simulate_cli_matches_golden(capsys, argv, code, digest, err):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert _sha256(captured.out.encode()) == digest
    assert captured.err == err


FAITHFUL_DIGEST = dict((c[0], c[4]) for c in CASES)["faithful"]
FAITHFUL_ARGV = ["simulate", "--mode", "faithful", "--q", "0.7", "--steps", "3000"]


def test_simulate_stdout_and_out_file_match_the_faithful_golden_csv(capsys, tmp_path):
    # the "faithful" case's spec, weights and record_every 1, through both outputs
    assert main(FAITHFUL_ARGV) == 0
    assert _sha256(capsys.readouterr().out.encode()) == FAITHFUL_DIGEST
    target = tmp_path / "run.csv"
    assert main(FAITHFUL_ARGV + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert _sha256(target.read_bytes()) == FAITHFUL_DIGEST


def test_simulate_writes_the_same_csv_to_a_text_stdout_without_a_buffer(capsys):
    # an io.StringIO has no binary .buffer under it
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(FAITHFUL_ARGV) == 0
    assert _sha256(out.getvalue().encode()) == FAITHFUL_DIGEST
    assert capsys.readouterr().err.startswith("final row: t=3000 ")


def test_to_csv_returns_text():
    csv = run_dual_track(StreamSpec(mode="frequency_faithful", steps=3000, q=0.7)).to_csv()
    assert type(csv) is str
    assert _sha256(csv.encode()) == FAITHFUL_DIGEST
