"""Each CSV writer against the csv.writer form it replaced, byte for byte."""

import csv
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from wrtr import fileio
from wrtr.driver import ScrStats
from wrtr.manifold import random_point
from wrtr.rtr import TcgStop, TrustRegionIteration

# Values that exercise every branch of %g: the STAF floor, signed zeros,
# tiny and large exponents, and rounding at the last printed digit.
AWKWARD = [-300.0, 0.0, -0.0, 1e-12, 1.2e11, -1.2e-11, 123456.789012345, 0.1 + 0.2, 1 / 3, 5e-324]


def _g17(x):
    return format(float(x), ".17g")


def _g10(x):
    return format(float(x), ".10g")


def _csv_bytes(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        for row in rows:
            w.writerow(row)
    return path.read_bytes()


@pytest.fixture
def oracle(tmp_path):
    return lambda rows: _csv_bytes(tmp_path / "oracle.csv", rows)


def _staf_oracle(oracle, values):
    return oracle(
        [["range_bin"] + [str(h) for h in range(values.shape[1])]]
        + [[r] + [_g10(v) for v in row] for r, row in enumerate(values)]
    )


def _g10_cases(rng):
    """Values whose '%.10g' tests the STAF printer: (every case, the ones it must hand to '%.10g')."""
    decades = 10.0 ** np.arange(-6, 13)
    mantissas = rng.uniform(1.0, 10.0, (len(decades), 3))
    edges = np.concatenate([decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf)])
    # exact ties at the 10th digit: q 2^(X-10), q odd, is (2N + 1)/2 10^(X-9) with N of ten digits
    ties = []
    for x in range(-4, 10):
        lo, hi = 2e9 / 5.0 ** (9 - x), 2e10 / 5.0 ** (9 - x)
        q = rng.integers(np.ceil(lo / 2), hi // 2, 3) * 2 + 1
        ties += list(q * 2.0 ** (x - 10))
    # products rounded onto a half: y = v 10^k is m + 1/2, the exact product is not
    for x in range(-4, 9):
        m = rng.integers(10**9, 10**10, 40)
        v = (m + 0.5) / 10.0 ** (9 - x)
        onto = (v * 10.0 ** (9 - x) == m + 0.5) & [Fraction(u) * 10 ** (9 - x) != t + Fraction(1, 2)
                                                    for u, t in zip(v.tolist(), m.tolist())]
        ties += list(v[onto][:3])
    ties = np.array(ties)
    # exponent notation, or a rounding across a decade edge into or out of it
    exponent = [1e-5, 9.99999999996e-5, 1e10, 9999999999.6, 1.234e-7, 5.5e11]
    special = [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan]
    fallback = np.concatenate([ties, exponent, special])
    plain = [-300.0, 9.9999999995, 9.99999999949, 0.0001, 123.456, 1e9 + 0.25, 0.1 + 0.2, 1 / 3]
    signed = np.concatenate([(mantissas * decades[:, None]).ravel(), edges, ties, exponent, special[:4], plain])
    return np.concatenate([signed, -signed, special[4:]]), fallback


def test_staf(tmp_path, oracle, rng):
    # n = 300 ends on a partial block; the writer prints whatever rows it is
    # given, so 3 rows of n = 4099 (one row a block) stand for that n^2 surface
    for n_rows, n in [(1, 1), (3, 3), (16, 16), (300, 300), (3, 4099)]:
        values = 20 * np.log10(rng.uniform(1e-16, 1.0, (n_rows, n)))
        values.flat[: len(AWKWARD)] = AWKWARD[: values.size]
        values.flat[-1] = -values.flat[-1]
        fileio.write_staf_csv(tmp_path / "staf.csv", values)
        assert (tmp_path / "staf.csv").read_bytes() == _staf_oracle(oracle, values), n


def test_staf_prints_every_value_as_percent_g(tmp_path, oracle, rng, monkeypatch):
    cases, fallback = _g10_cases(rng)
    handed_back = []

    def percent_g(value):
        handed_back.append(value)
        return fallback_slot(value)

    fallback_slot = fileio._fallback_slot
    monkeypatch.setattr(fileio, "_fallback_slot", percent_g)
    values = np.resize(cases, (90, 53))  # blocks of 2^12 // 53 = 77 rows, so the second is partial
    rng.shuffle(values.ravel())
    fileio.write_staf_csv(tmp_path / "staf.csv", values)
    assert (tmp_path / "staf.csv").read_bytes() == _staf_oracle(oracle, values)
    # a value the printer cannot prove correctly rounded is printed by '%.10g' itself
    back = {_g10(v) for v in handed_back}
    assert {_g10(v) for v in fallback} <= back
    assert {"0", "-0", "inf", "-inf", "nan", _g10(5e-324)} <= back
    assert not {_g10(v) for v in (-300.0, 123.456, 1 / 3)} & back


def test_cut(tmp_path, oracle, rng):
    bins = list(range(len(AWKWARD)))
    dopplers = np.array(bins, dtype=float) / len(bins)
    values = np.array(AWKWARD)
    fileio.write_cut_csv(tmp_path / "cut.csv", bins, dopplers, values)
    expected = oracle(
        [["doppler_bin", "doppler", "value_db"]]
        + [[h, _g10(v), _g10(db)] for h, v, db in zip(bins, dopplers, values)]
    )
    assert (tmp_path / "cut.csv").read_bytes() == expected


def test_sequence(tmp_path, oracle):
    seq = random_point(33, 3)
    fileio.write_sequence_csv(tmp_path / "seq.csv", seq)
    expected = oracle(
        [["index", "real", "imag"]] + [[i, _g17(z.real), _g17(z.imag)] for i, z in enumerate(seq.entries)]
    )
    assert (tmp_path / "seq.csv").read_bytes() == expected
    assert np.array_equal(fileio.read_sequence_csv(tmp_path / "seq.csv").entries, seq.entries)


def test_spectrum(tmp_path, oracle, rng):
    eigenvalues = np.concatenate([AWKWARD, rng.standard_normal(5)])
    fileio.write_spectrum_csv(tmp_path / "spec.csv", eigenvalues)
    expected = oracle([["index", "eigenvalue"]] + [[i, _g17(ev)] for i, ev in enumerate(eigenvalues)])
    assert (tmp_path / "spec.csv").read_bytes() == expected


def test_trace(tmp_path, oracle):
    stops = list(TcgStop)
    rtr_rows = [
        TrustRegionIteration(
            cost=c, grad_norm=abs(c) / 3, rho=-c, delta=2.0**-k, step_norm=c / 7,
            accepted=k % 2 == 0, tcg_stop=stops[k % len(stops)],
        )
        for k, c in enumerate(AWKWARD)
    ]
    rcg_rows = [
        TrustRegionIteration(cost=c, grad_norm=abs(c), rho=None, delta=None, step_norm=c / 9, accepted=True,
                             tcg_stop=None)
        for c in AWKWARD
    ]
    sections = [
        (0, "worst", SimpleNamespace(iterations=rtr_rows)),
        (0, "seq", None),
        (1, "rcg", SimpleNamespace(iterations=rcg_rows)),
    ]
    fileio.write_trace_csv(tmp_path / "traces.csv", sections)
    rows = [["outer", "phase", "iteration", "cost", "grad_norm", "rho", "delta",
             "step_norm", "accepted", "tcg_stop"]]
    for i, it in enumerate(rtr_rows):
        rows.append([0, "worst", i, _g17(it.cost), _g17(it.grad_norm), _g17(it.rho),
                     _g17(it.delta), _g17(it.step_norm), int(it.accepted), it.tcg_stop.value])
    for i, it in enumerate(rcg_rows):
        rows.append([1, "rcg", i, _g17(it.cost), _g17(it.grad_norm), "", "",
                     _g17(it.step_norm), 1, ""])
    assert (tmp_path / "traces.csv").read_bytes() == oracle(rows)


def test_mc(tmp_path, oracle):
    # design names come from a user manifest, so they may need csv quoting
    names = ["robust", "with,comma", 'with "quotes"', "two\nlines", "cr\rhere", "plain space"]
    rows = [
        (name, model, ScrStats(mean_db=a, std_db=abs(a), min_db=-a, max_db=a / 3, n_trials=k + 1))
        for k, (name, a) in enumerate(zip(names, AWKWARD))
        for model in ("doppler_interval", "uniform_random_phase")
    ]
    fileio.write_mc_csv(tmp_path / "mc.csv", rows)
    expected = oracle(
        [["design", "error_model", "n_trials", "mean_db", "std_db", "min_db", "max_db"]]
        + [[d, m, s.n_trials, _g17(s.mean_db), _g17(s.std_db), _g17(s.min_db), _g17(s.max_db)]
           for d, m, s in rows]
    )
    assert (tmp_path / "mc.csv").read_bytes() == expected
