"""Each CSV writer against the csv.writer form it replaced, byte for byte."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest

from wrtr import fileio
from wrtr.driver import ScrStats
from wrtr.manifold import random_point
from wrtr.rcg import RcgIteration
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


def test_staf(tmp_path, oracle, rng):
    n = 16
    values = 20 * np.log10(rng.uniform(1e-16, 1.0, (n, n)))
    values[0, : len(AWKWARD)] = AWKWARD
    values[1, 0] = -values[1, 0]
    fileio.write_staf_csv(tmp_path / "staf.csv", values)
    expected = oracle(
        [["range_bin"] + [str(h) for h in range(n)]]
        + [[r] + [_g10(v) for v in row] for r, row in enumerate(values)]
    )
    assert (tmp_path / "staf.csv").read_bytes() == expected


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
    rcg_rows = [RcgIteration(cost=c, grad_norm=abs(c), step_norm=c / 9) for c in AWKWARD]
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
