from pathlib import Path

import numpy as np
import pytest

from wrtr import fileio
from wrtr.manifold import UnitModulusSequence, random_point
from wrtr.objectives import SequenceObjective
from wrtr.radar import (
    STAF_DB_FLOOR,
    ClutterBank,
    ClutterScatterer,
    ClutterScene,
    DegenerateSceneError,
    clutter_energy,
    figures,
    ratio_db,
    staf,
    staf_blocks,
)
from wrtr.scenario import load_scenario

from conftest import dense_psi, random_scene, random_sequence, traced_peak


def pure_shifts(n: int) -> ClutterBank:
    """Bank whose scatterer r is the bare shift J^r (zero Doppler, unit power)."""
    return ClutterBank(ClutterScene([ClutterScatterer(r, 0.0, 1.0) for r in range(n)], n))


def every_shift_scene(n: int, rng) -> ClutterScene:
    """One random scatterer at each shift 0..n-1, so both edges are covered."""
    return ClutterScene(
        [ClutterScatterer(r, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.2, 2.0)))
         for r in range(n)],
        n,
    )


def random_vector(n: int, rng) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def single(bank: ClutterBank, k: int):
    """Diagonals of Psi_k alone: the weighted sum with weight 1 on scatterer k."""
    c = np.zeros(bank.size, dtype=complex)
    c[k] = 1.0
    return bank.diagonals(c)


def shift_matrix_sum(bank: ClutterBank, rows: np.ndarray) -> np.ndarray:
    """Dense oracle of down_shift_sum: sum_b J^{R_b} rows_b with J^r = np.eye(n, k=-r)."""
    shifted_rows = (np.eye(bank.n, k=-r) @ row for r, row in zip(bank.shifts, rows))
    return sum(shifted_rows, np.zeros(bank.n, dtype=complex))


def assert_bank_matches_dense(scene: ClutterScene, rng) -> None:
    """forms, and diagonals through down_shift_sum and shifted, against dense Psi_k, one and all weighted."""
    n = scene.n
    bank = ClutterBank(scene)
    u, v = random_vector(n, rng), random_vector(n, rng)
    psis = [dense_psi(sc, n) for sc in scene.scatterers]
    forms = bank.forms(bank.lags(u, v))
    for k, psi in enumerate(psis):
        assert forms[k] == pytest.approx(np.vdot(v, psi @ u), abs=1e-12)
        d = single(bank, k)
        assert np.allclose(bank.down_shift_sum(d * v), psi @ v, atol=1e-12)
        assert np.allclose((np.conj(d) * bank.shifted(v)).sum(axis=0), psi.conj().T @ v, atol=1e-12)
    c = random_vector(bank.size, rng)
    total = sum((ck * psi for ck, psi in zip(c, psis)), np.zeros((n, n), dtype=complex))
    d = bank.diagonals(c)
    assert np.allclose(bank.down_shift_sum(d * v), total @ v, atol=1e-11)
    assert np.allclose(bank.down_shift_sum(d * v), shift_matrix_sum(bank, d * v), atol=1e-11)
    assert np.allclose((np.conj(d) * bank.shifted(v)).sum(axis=0), total.conj().T @ v, atol=1e-11)


class TestShift:
    """The J^r factor of the bank, seen through zero-Doppler unit-power scatterers."""

    def test_identity(self, rng):
        x = random_vector(6, rng)
        bank = ClutterBank(ClutterScene([ClutterScatterer(0, 0.0, 1.0)], 6))
        assert np.array_equal(bank.down_shift_sum(x[None, :]), x)
        assert np.array_equal(bank.shifted(x)[0], x)

    def test_small_example(self):
        a, b, c, d = 1 + 1j, 2.0, 3 - 1j, 4j
        bank = ClutterBank(ClutterScene([ClutterScatterer(2, 0.0, 1.0)], 4))
        assert np.allclose(bank.down_shift_sum(np.array([[a, b, 0, 0]])), [0, 0, a, b])
        assert np.allclose(bank.shifted(np.array([a, b, c, d]))[0], [c, d, 0, 0])

    def test_matches_dense_matrix(self, rng):
        # one row per shift, zero past n - r as lag products are
        n = 8
        bank = pure_shifts(n)
        rows = random_vector(n, rng)[None, :] * (np.arange(n) < n - bank.shifts[:, None])
        for b, r in enumerate(bank.shifts):
            alone = np.zeros_like(rows)
            alone[b] = rows[b]
            assert np.allclose(bank.down_shift_sum(alone), np.eye(n, k=-r) @ rows[b], atol=1e-15)
        assert np.allclose(bank.down_shift_sum(rows), shift_matrix_sum(bank, rows), atol=1e-14)

    def test_adjoint_identity(self, rng):
        # down_shift_sum(d (.) .) and sum_b conj(d_b) (.) shifted(.)_b are adjoint
        n = 8
        u, v = random_vector(n, rng), random_vector(n, rng)
        bank = pure_shifts(n)
        d = bank.diagonals(random_vector(n, rng))
        lhs = np.vdot(v, bank.down_shift_sum(d * u))
        rhs = np.vdot((np.conj(d) * bank.shifted(v)).sum(axis=0), u)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ClutterScene([ClutterScatterer(4, 0.0, 1.0)], 4)
        with pytest.raises(ValueError):
            ClutterScatterer(-1, 0.0, 1.0)


class TestClutterOperator:
    """Each scatterer of the bank against the dense oracle Psi_k = amp_k J^{r_k} diag(p(v_k))."""

    def test_quadratic_form_identity_case(self):
        n = 8
        s = random_point(n, 0)
        bank = ClutterBank(ClutterScene([ClutterScatterer(0, 0.0, 1.0)], n))
        assert bank.quadratic_forms(s.entries)[0] == pytest.approx(n, abs=1e-12)

    def test_quadratic_form_max_shift_single_overlap(self):
        n = 8
        s = random_point(n, 1)
        amp = 1.7
        bank = ClutterBank(ClutterScene([ClutterScatterer(n - 1, 0.3, amp**2)], n))
        assert abs(bank.quadratic_forms(s.entries)[0]) == pytest.approx(amp, abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        n = 8
        s = random_point(n, 2)
        scene = every_shift_scene(n, rng)
        q = ClutterBank(scene).quadratic_forms(s.entries)
        for k, sc in enumerate(scene.scatterers):
            expected = np.vdot(s.entries, dense_psi(sc, n) @ s.entries)
            assert q[k] == pytest.approx(expected, abs=1e-12)

    def test_down_shift_sum_matches_dense(self, rng):
        # all distinct shifts 0..n-1, so both edges are covered
        n = 8
        assert_bank_matches_dense(every_shift_scene(n, rng), rng)


class TestClutterBank:
    def test_matches_per_operator_application(self, rng):
        # random shifts with repeats, one dense Psi_k per scatterer
        n = 12
        assert_bank_matches_dense(random_scene(n, 6, rng), rng)

    def test_repeated_shifts_span_several_blocks(self, rng):
        # 9 scatterers on shift 3 and one each on 0 and n - 1: the crowded
        # shift is split over blocks of the bank's width
        n = 10
        dopplers = rng.uniform(0.0, 1.0, 11)
        shifts = [3] * 9 + [0, n - 1]
        scene = ClutterScene(
            [ClutterScatterer(r, float(v), 0.5 + k) for k, (r, v) in enumerate(zip(shifts, dopplers))], n
        )
        bank = ClutterBank(scene)
        assert bank.width == 4
        assert sorted(bank.shifts.tolist()) == [0, 3, 3, 3, n - 1]
        assert_bank_matches_dense(scene, rng)

    def test_weight_rows_equal_the_elementwise_expression(self, rng):
        # diagonals(e_k) is scatterer k's weight row on its shift's blocks; it
        # must equal amp_k e^{j 2 pi v_k m}, cut at n - r_k, with no rounding change
        n = 10
        scene = random_scene(n, 7, rng)
        bank = ClutterBank(scene)
        m = np.arange(n)
        for k, sc in enumerate(scene.scatterers):
            c = np.zeros(len(scene.scatterers), dtype=complex)
            c[k] = 1.0
            row = bank.diagonals(c)[bank.shifts == sc.range_shift].sum(axis=0)
            expected = np.sqrt(sc.power) * np.exp(2j * np.pi * sc.doppler * m) * (m < n - sc.range_shift)
            assert np.array_equal(row, expected)

    def test_quadratic_forms(self, rng):
        n = 10
        scene = random_scene(n, 5, rng)
        s = random_point(n, 3)
        q = ClutterBank(scene).quadratic_forms(s.entries)
        expected = [np.vdot(s.entries, dense_psi(sc, n) @ s.entries) for sc in scene.scatterers]
        assert np.allclose(q, expected, atol=1e-12)

    def test_empty_scene(self, rng):
        n = 4
        bank = ClutterBank(ClutterScene((), n))
        v = random_vector(n, rng)
        assert bank.quadratic_forms(v).shape == (0,)
        d = bank.diagonals(np.zeros(0, dtype=complex))
        assert d.shape == (0, n)
        assert np.array_equal(bank.down_shift_sum(d * v), np.zeros(n))
        assert clutter_energy(random_point(n, 3), ClutterScene((), n)) == 0.0


    def test_chunked_build_matches_the_elementwise_expression(self, rng):
        # at n = 1024 the weights are filled 2^12 // (width n) blocks at a
        # time; each row must equal amp_k e^{j 2 pi v_k m}, cut at n - r_k, as
        # one expression gives it, and a block's empty slots must be zero
        n = 1024
        scene = random_scene(n, 37, rng)
        bank = ClutterBank(scene)
        m = np.arange(n)
        empty = np.ones(bank._weights.shape[:2], dtype=bool)
        for k, sc in enumerate(scene.scatterers):
            expected = np.sqrt(sc.power) * np.exp(2j * np.pi * sc.doppler * m) * (m < n - sc.range_shift)
            assert np.array_equal(bank._weights[bank._block[k], bank._slot[k]], expected), k
            empty[bank._block[k], bank._slot[k]] = False
        assert empty.any() and not bank._weights[empty].any()

    def test_memory_at_n1024(self, rng):
        # the analysis-n1024 benchmark's scene size: 128 scatterers at random
        # shifts, so about 120 blocks of width 2 and 3.8 MB of weights. A
        # clutter energy streams them through a 256 kB buffer and builds
        # none; the first forms call fills them, with one 2-block chunk of
        # temporaries beside them
        n = 1024
        scene = random_scene(n, 128, rng)
        s = random_point(n, 48)
        _, peak = traced_peak(lambda: clutter_energy(s, scene))
        assert peak <= 2**20
        bank = scene.bank
        assert "_weights" not in vars(bank)
        lags = bank.lags(s.entries, s.entries)
        _, peak = traced_peak(lambda: bank.forms(lags))
        assert peak <= bank._weights.nbytes + 2**19
        _, peak = traced_peak(lambda: clutter_energy(s, scene))
        assert peak <= 2**20


def streamed_case(kind: str, rng) -> ClutterScene:
    if kind == "partly-empty-blocks":
        # width 3: shift 2's five scatterers fill one block and two slots of
        # another, and shift 7's one scatterer one slot of a third
        return ClutterScene([ClutterScatterer(r, 0.1 * k, 1.0 + k) for k, r in enumerate([2, 7, 2, 2, 2, 2])], 16)
    if kind == "one-scatterer":
        return ClutterScene([ClutterScatterer(3, 0.37, 2.0)], 8)
    if kind == "n1":
        return ClutterScene([ClutterScatterer(0, 0.1 * k, 1.0 + k) for k in range(3)], 1)
    if kind == "none":
        return ClutterScene((), 5)
    if kind == "n300":
        return random_scene(300, 200, rng)
    return random_scene(1024, 128, rng)


class TestStreamedForms:
    @pytest.mark.parametrize("kind", ["partly-empty-blocks", "one-scatterer", "none", "n1", "n300", "n1024"])
    def test_quadratic_forms_equal_forms_bitwise(self, rng, kind):
        scene = streamed_case(kind, rng)
        bank = ClutterBank(scene)
        step = max(1, 2**14 // (bank.width * bank.n))
        if kind == "n300":
            # several chunks of blocks, the last of them partial
            assert bank.shifts.size > step and bank.shifts.size % step
        if kind == "partly-empty-blocks":
            assert bank.width == 3 and bank.shifts.size == 3
        s = random_point(scene.n, 52).entries
        before = bank.quadratic_forms(s)
        assert "_weights" not in vars(bank)
        expected = bank.forms(bank.lags(s, s))
        assert "_weights" in vars(bank)
        assert before.shape == (len(scene.scatterers),)
        assert before.tobytes() == expected.tobytes()
        assert bank.quadratic_forms(s).tobytes() == expected.tobytes()
        # 0 without scatterers
        assert clutter_energy(UnitModulusSequence(s), scene) == np.sum(np.abs(expected) ** 2)


class TestSceneBank:
    def test_one_bank_per_scene(self, rng):
        scene = random_scene(8, 4, rng)
        assert scene.bank is scene.bank
        assert SequenceObjective(scene)._bank is scene.bank

    def test_bank_is_not_part_of_equality_or_hash(self, rng):
        scatterers = random_scene(8, 4, rng).scatterers
        built, fresh = ClutterScene(scatterers, 8), ClutterScene(scatterers, 8)
        built.bank
        assert "bank" in vars(built) and "bank" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)

    def test_to_scene_does_not_build_the_bank(self):
        scene = load_scenario(Path(__file__).resolve().parents[1] / "configs" / "small.json").to_scene()
        assert "bank" not in vars(scene)


class TestClutterEnergy:
    def test_zero_power_scene(self):
        n = 6
        scene = ClutterScene([ClutterScatterer(2, 0.3, 0.0)], n)
        assert clutter_energy(random_point(n, 4), scene) == 0.0

    def test_single_identity_scatterer(self):
        n = 7
        scene = ClutterScene([ClutterScatterer(0, 0.0, 1.0)], n)
        assert clutter_energy(random_point(n, 5), scene) == pytest.approx(n**2, rel=1e-12)

    def test_matches_dense_brute_force(self, rng):
        n = 8
        scene = random_scene(n, 3, rng)
        s = random_point(n, 6)
        expected = sum(
            abs(np.vdot(s.entries, dense_psi(sc, n) @ s.entries)) ** 2
            for sc in scene.scatterers
        )
        assert clutter_energy(s, scene) == pytest.approx(expected, rel=1e-10)

    def test_global_phase_invariance(self, rng):
        n = 16
        scene = random_scene(n, 5, rng)
        s = random_point(n, 7)
        phi = rng.uniform(0, 2 * np.pi)
        rotated = UnitModulusSequence(np.exp(1j * phi) * s.entries)
        assert clutter_energy(rotated, scene) == pytest.approx(
            clutter_energy(s, scene), rel=1e-10
        )


class TestFigures:
    def test_each_figure_is_its_quotient_bit_for_bit(self, rng):
        # one clutter energy u, and the dB of n^2 / u, c / u and c / (n + u),
        # each with the expression and operand order the reports are pinned to
        n, eps = 16, 5.0
        scene = random_scene(n, 4, rng)
        s, st = random_point(n, 10), random_sequence(n, rng)
        fig = figures(s, scene, steering=st, epsilon=eps)
        u = clutter_energy(s, scene)
        c = abs(np.vdot(s.entries, st.entries)) ** 2
        assert fig.energy == u
        assert fig.nominal_scr_db == 10.0 * np.log10(n**2 / u)
        assert fig.scr_db == float(10.0 * np.log10(c / u))
        assert fig.scnr_db == float(10.0 * np.log10(c / (n + u)))
        assert fig.worst_case_scr_db == fig.nominal_scr_db + 20.0 * np.log10(1.0 - eps / (2 * n))

    def test_only_the_asked_figures_are_set(self, rng):
        n = 8
        fig = figures(random_point(n, 11), random_scene(n, 3, rng))
        assert (fig.scr_db, fig.scnr_db, fig.worst_case_scr_db) == (None, None, None)

    def test_noise_term_uses_constant_sequence_norm(self):
        # powers are in noise units, so the noise term is exactly ||s||^2 = n
        # on M; the identity scatterer of power p gives every s energy p n^2
        n, p = 16, 1e-3
        scene = ClutterScene([ClutterScatterer(0, 0.0, p)], n)
        for seed in range(3):
            s = random_point(n, seed)
            fig = figures(s, scene, steering=s)
            assert fig.energy == pytest.approx(p * n**2, rel=1e-12)
            assert fig.scnr_db == pytest.approx(10 * np.log10(n**2 / (n + p * n**2)), abs=1e-12)

    def test_matched_steering_scr_is_the_nominal_scr(self, rng):
        n = 8
        s = random_point(n, 10)
        fig = figures(s, random_scene(n, 4, rng), steering=s)
        assert fig.scr_db == pytest.approx(fig.nominal_scr_db, abs=1e-12)

    def test_orthogonal_steering_is_null(self):
        scene = ClutterScene([ClutterScatterer(0, 0.0, 1.0)], 2)
        s = UnitModulusSequence(np.array([1.0 + 0j, 1.0 + 0j]))
        st = UnitModulusSequence(np.array([1.0 + 0j, -1.0 + 0j]))
        fig = figures(s, scene, steering=st)
        assert (fig.scr_db, fig.scnr_db) == (None, None)
        assert np.isfinite(fig.nominal_scr_db)

    @pytest.mark.parametrize("eps_over_n", [0.0, 0.5, 1.999])
    def test_worst_case_is_the_ball_coupling_over_the_energy(self, rng, eps_over_n):
        # the worst coupling over the eps-ball is (n - eps/2)^2 for every design
        n = 12
        s = random_point(n, 12)
        fig = figures(s, random_scene(n, 3, rng), epsilon=eps_over_n * n)
        expected = 10 * np.log10((n - eps_over_n * n / 2) ** 2 / fig.energy)
        assert fig.worst_case_scr_db == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("eps_over_n", [2.0, 3.0])
    def test_worst_case_is_null_from_two_n_on(self, rng, eps_over_n):
        n = 12
        assert figures(random_point(n, 13), random_scene(n, 3, rng), epsilon=eps_over_n * n).worst_case_scr_db is None

    def test_zero_energy_raises(self):
        scene = ClutterScene([ClutterScatterer(0, 0.0, 0.0)], 4)
        with pytest.raises(DegenerateSceneError, match="sees zero clutter energy"):
            figures(random_point(4, 9), scene)

    def test_an_exact_null_is_not_an_underflow(self):
        # (1, 1, 1, -1) has a zero lag product at shift 2, whatever the power
        scene = ClutterScene([ClutterScatterer(2, 0.0, 1.0)], 4)
        with pytest.raises(DegenerateSceneError, match="sees zero clutter energy"):
            figures(UnitModulusSequence(np.array([1.0, 1.0, 1.0, -1.0], dtype=complex)), scene)

    def test_an_underflowing_energy_names_the_largest_power(self):
        scene = ClutterScene([ClutterScatterer(2, 0.1, 5e-324), ClutterScatterer(1, 0.3, 0.0)], 9)
        with pytest.raises(DegenerateSceneError, match=r"underflowed to 0 \(the largest scatterer power is 4.94e-324\)"):
            figures(random_point(9, 3), scene)

    @pytest.mark.parametrize("power", [5e-324, 1e-310])
    def test_subnormal_power_figures_are_finite(self, power):
        # n^2 / u overflows for these powers; the figures come from the logs,
        # with no overflow warning (the suite turns warnings into errors)
        n = 9
        scene = ClutterScene([ClutterScatterer(0, 0.0, power)], n)
        s = random_point(n, 14)
        fig = figures(s, scene, steering=s, epsilon=1.0)
        assert n**2 / fig.energy == float("inf")
        values = [fig.nominal_scr_db, fig.scr_db, fig.scnr_db, fig.worst_case_scr_db]
        assert all(np.isfinite(values))
        assert fig.nominal_scr_db == pytest.approx(20 * np.log10(n) - 10 * np.log10(fig.energy), rel=1e-15)
        assert fig.scnr_db == pytest.approx(10 * np.log10(n), abs=1e-9)

    def test_ratio_db_takes_logs_only_where_the_quotient_overflows(self):
        num = np.array([1e300, 1e-300, 2.0, 1e10])
        den = 1e-20
        db = ratio_db(num, den)
        with np.errstate(over="ignore"):
            ratio = num / den
        finite = np.isfinite(ratio)
        assert finite.tolist() == [False, True, True, True]
        assert db[finite].tobytes() == (10.0 * np.log10(ratio[finite])).tobytes()
        assert db[0] == pytest.approx(3200.0, rel=1e-15)


class TestStaf:
    def test_peak_at_origin_is_zero_db(self):
        n = 16
        s = random_point(n, 11)
        surface = staf(s)
        assert surface.shape == (n, n)
        assert surface[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert np.max(surface) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_psi_evaluation(self):
        # row r is range bin r and column k Doppler k/n
        for n in (8, 16):
            s = random_point(n, 13 + n)
            surface = staf(s)
            raw = np.array(
                [
                    [abs(np.vdot(s.entries, dense_psi(ClutterScatterer(r, k / n, 1.0), n) @ s.entries))
                     for k in range(n)]
                    for r in range(n)
                ]
            )
            expected = 20 * np.log10(np.maximum(raw / raw.max(), 1e-15))
            # row 0 (lag 0) is exactly 0 off k = 0; the two evaluations round
            # those zeros to 0 and to 3e-14 (-290 dB), either side of the floor
            zeros = np.zeros((n, n), dtype=bool)
            zeros[0, 1:] = True
            assert surface.shape == (n, n)
            assert np.allclose(surface[~zeros], expected[~zeros], atol=1e-10)
            assert np.all(surface[zeros] < -240) and np.all(expected[zeros] < -240)
            assert np.max(surface) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "n",
        [
            # 2^14 // 300 = 54 rows per block: the sixth block is partial
            pytest.param(300, id="n300-all"),
            # 64 full blocks of 16 rows
            pytest.param(1024, id="n1024-all"),
        ],
    )
    def test_blocks_match_one_transform_bitwise(self, n):
        # the reference transforms every lag row in one np.fft.fft call
        s = random_point(n, 17)
        x = s.entries
        lags = np.zeros((n, n), dtype=np.complex128)
        for r in range(n):
            lags[r, : n - r] = x[r:] * np.conj(x[: n - r])
        amp = np.abs(np.fft.fft(lags, axis=1))
        amp /= np.max(amp)
        expected = 20.0 * np.log10(np.maximum(amp, STAF_DB_FLOOR))
        surface = staf(s)
        assert surface.shape == expected.shape
        assert surface.tobytes() == expected.tobytes()

    def test_memory_is_the_result_and_one_block(self):
        # a complex (n, n) lag array alongside its magnitudes would be 3x the result
        n = 1024
        surface, peak = traced_peak(lambda: staf(random_point(n, 18)))
        assert peak <= 1.25 * surface.nbytes


class TestSceneValidation:
    def test_range_shift_bounds(self):
        with pytest.raises(ValueError):
            ClutterScene([ClutterScatterer(8, 0.0, 1.0)], 8)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ClutterScatterer(0, 0.0, -1.0)


def staf_case(n: int, kind: str) -> UnitModulusSequence:
    if kind == "random":
        return random_point(n, 19 + n)
    if kind == "ones":
        # every lag row is real with exact zeros off Doppler 0: many entries at the floor
        return UnitModulusSequence(np.ones(n))
    return UnitModulusSequence(np.exp(1j * np.pi * np.arange(n) ** 2 / n))


def one_transform_magnitudes(s: UnitModulusSequence) -> np.ndarray:
    """|DFT| of every lag row s[m + r] conj(s[m]) in one np.fft.fft call: the surface before its peak."""
    n, x = s.n, s.entries
    lags = np.zeros((n, n), dtype=np.complex128)
    for r in range(n):
        lags[r, : n - r] = x[r:] * np.conj(x[: n - r])
    return np.abs(np.fft.fft(lags, axis=1))


# n = 1 and 3 are one short block; 2^14 // n rows make 64 and 65 one block,
# 300 five full blocks and a partial one, 1024 sixty-four blocks
STAF_CASES = [pytest.param(n, kind, id=f"n{n}-{kind}") for n in (1, 3, 64, 65, 300, 1024)
              for kind in ("random", "ones", "chirp")]


class TestStafBlocks:
    @pytest.mark.parametrize("n, kind", STAF_CASES)
    def test_streamed_csv_matches_the_whole_surface_printer(self, tmp_path, n, kind):
        s = staf_case(n, kind)
        amp = one_transform_magnitudes(s)
        amp /= np.max(amp)
        whole = 20.0 * np.log10(np.maximum(amp, STAF_DB_FLOOR))
        fileio.write_staf_csv(tmp_path / "whole.csv", whole)
        fileio.write_staf_blocks(tmp_path / "streamed.csv", n, staf_blocks(s))
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    @pytest.mark.parametrize("n, kind", STAF_CASES)
    def test_first_block_holds_the_peak(self, n, kind):
        # staf_blocks normalizes every block by the first block's peak, which
        # must be np.max of the whole magnitude surface, bit for bit
        s = staf_case(n, kind)
        rows = len(next(staf_blocks(s)))
        amp = one_transform_magnitudes(s)
        assert np.max(amp[:rows]).tobytes() == np.max(amp).tobytes()
        assert np.max(amp[0]).tobytes() == np.max(amp).tobytes()  # row 0, Doppler 0: sum |s_m|^2
