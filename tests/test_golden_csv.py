"""Golden CSV hashes: the dual-track CSV is pinned byte for byte.

The sha256 values were taken from the object-per-step fold that built every
row as a dataclass and joined the CSV into one string.  Any later fold or
writer must reproduce them exactly; a changed digit anywhere fails here.
The three long sparse cases were taken from the fold that walked every
outcome of its absorbed phase one at a time, and the two after them from
the fold that counted each absorbed block without a row whole.

SIMULATE_CASES pin whole `evcalc simulate` calls (exit code, sha256 of
stdout, exact stderr), taken from the fold that combined every step.  They
cover a Bernoulli run whose Dempster track reaches an exact Bayesian point,
a faithful run that ends in a rounding cycle instead, and two runs with
heavy unit weights: at (1, 1) a negative outcome is a total conflict, which
one never meets within its steps and the other meets after four rows.
The last three tests send the "faithful" case through `evcalc simulate`'s
stdout, its --out file and a text-only stdout (an io.StringIO), and pin
that Trajectory.to_csv returns text.
"""

import contextlib
import hashlib
import io

import pytest

from evcalc import StreamSpec, UnitWeights, run_dual_track
from evcalc.cli import main

EXPLICIT = (True, False, False, True, True, True, False, True, False, False) * 30

# (id, StreamSpec kwargs, (w0+, w0-), record_every, sha256 of the CSV)
CASES = [
    ("bernoulli", dict(mode="bernoulli", steps=3000, q=0.4, seed=11), (1.0, 1.0), 1,
     "1b8b193cad91c6be5ae563a381caddc7232c42a02753daed60340ab18bbbfa99"),
    ("faithful", dict(mode="frequency_faithful", steps=3000, q=0.7), (1.0, 1.0), 1,
     "da4d8879ecbff2a56efbf510556d60d7ef13c665f14fcde6fd7ace1e77da7cd3"),
    ("delta_profile", dict(mode="delta_profile", steps=3000, delta=3), (1.0, 1.0), 1,
     "32c9fb24d47db97b67bfc316386c7034e1704038a42cc3f4030591b984acfe4f"),
    ("explicit", dict(mode="explicit", outcomes=EXPLICIT), (1.0, 1.0), 1,
     "5aa61c343d25591c42fdaf9e9a8736f4bc0847783348e6855ac96d8dead316ff"),
    ("asymmetric_bernoulli", dict(mode="bernoulli", steps=3000, q=0.85, seed=2**64 - 1), (0.3, 2.5), 1,
     "08183558bc835d27f327bc531cd531492a3ac0e4efc63304b59b3ac6df71f575"),
    ("asymmetric_faithful", dict(mode="frequency_faithful", steps=3000, q=0.2), (0.3, 2.5), 1,
     "8d239a7468adbfe179bb8767ef54aaa56087fa0246b5dea7acead30d165feca0"),
    # 1500 of the 3000 steps take combine_interval's conflict > 0.5 branch
    ("high_conflict", dict(mode="frequency_faithful", steps=3000, q=0.5), (3.0, 3.0), 1,
     "1cc16ede2a94f6c525c6406c11d91ab6b55a48bbf8c7c8de3ae98080577210ba"),
    # 3001 is not a multiple of 7, so the final row is recorded off the grid
    ("record_every", dict(mode="bernoulli", steps=3001, q=0.6, seed=7), (1.0, 1.0), 7,
     "5f431d7eb80a4d0a9f83dfef39251fade2590de6582efdc684db42802bb23e9b"),
    ("zero_steps", dict(mode="frequency_faithful", steps=0, q=0.7), (1.0, 1.0), 1,
     "e2ccde4f685803c2f74ba39e3d227bfd4c9de53f45efd88fabefc6f08c733c9c"),
    # the shape of the sparse benchmark: absorbed early, a row per 10k steps
    ("sparse", dict(mode="bernoulli", steps=300_000, q=0.65), (1.0, 1.0), 10_000,
     "8927cdfd45b3ef580b49795d64123a5520bc5b093882e7eab2ac2759f5a589c7"),
    # 0.1 is not dyadic: k * 0.1 differs from k repeated additions of 0.1
    ("sparse_tenths", dict(mode="bernoulli", steps=200_000, q=0.7), (0.1, 0.1), 1000,
     "b0bcc1d2096429e6b2f86de434ffec5144129e05a692a87434019241b9f4dfc5"),
    # rows straddle the 1024-outcome blocks; the final row falls off the grid
    ("sparse_asymmetric", dict(mode="bernoulli", steps=100_001, q=0.95), (0.3, 2.5), 1025,
     "be3b959882413ddddbabb6ee3735209d1343b39f4b24cb817f83edfa1022cefa"),
    # dyadic weights: k * w0 equals k repeated additions of w0 for every count here
    ("sparse_dyadic", dict(mode="bernoulli", steps=200_000, q=0.6, seed=3), (0.5, 0.25), 4096,
     "be2eebcfa17c0a9ccff3ecce900069519767d113d04915b78e093c4fb34465ad"),
    # 1 + 2**-40 has numerator 2**40 + 1, so c * w0 is provably the sum of c copies
    # only for c <= 8191; the run's 32373 positives pass that count partway
    ("sparse_horizon", dict(mode="bernoulli", steps=50_000, q=0.65, seed=4), (1 + 2**-40, 1.0), 3000,
     "405bf375bb6dbccfaedb53ee8fe4117cebd4d13b74732135d3f4ae8123e3f158"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kwargs,weights,record_every,digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_csv_matches_golden_hash(kwargs, weights, record_every, digest):
    traj = run_dual_track(StreamSpec(**kwargs), UnitWeights(*weights), record_every)
    assert _sha256(traj.to_csv().encode()) == digest


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
     0, "8f50aa31397de2c4fc8d074bbcd9c537fc1c96627dc30c1a9e19e3cbe9f5dcd2",
     "final row: t=50 t_plus=49 bel=1 pl=1 l=0.969632123107 u=0.97043359782 f=0.970409882089\n"
     "predicted dempster limit: 1\n"),
    ("heavy-conflict-met",
     ["simulate", "--mode", "bernoulli", "--seed", "759152683", "--q", "0.551", "--steps", "50",
      "--w0-pos", "28.09", "--w0-neg", "28.47"],
     2, "4cbe4c63c87815cfb405ee9fb8fe45ec5be3a1719191b86d73881fce0082fd70",
     "error: total conflict between BeliefInterval(bel=1.0, pl=1.0) and "
     "BeliefInterval(bel=0.0, pl=4.3209880118411093e-13)\n"),
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
