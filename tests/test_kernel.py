"""The compiled kernels (alignment DP and SMO sweep) against their numpy
reference loops, the fallbacks when they cannot be built, and how and
when they are built."""

import platform
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odse
from odse import _dp, alignment, classifiers
from odse.alignment import (
    BY_MAX_LENGTH,
    GAP_WEIGHT_MAX,
    RAW,
    alignment_cost_rows,
    build_cost_model,
    dissimilarities_to_targets,
    load_similarity_matrix,
    numpy_cost_rows,
    pam120_path,
)
from odse.classifiers import smo_solve
from odse.embedding import RepresentationSet, compute_matrix

from conftest import RESIDUES, random_sequences
from test_classifiers import random_gram

needs_kernel = pytest.mark.skipif(
    _dp.load() is None, reason="no C compiler to build the compiled kernels"
)


@pytest.fixture(scope="module")
def pam120():
    return load_similarity_matrix(pam120_path())


@pytest.fixture
def fresh_build(monkeypatch, tmp_path):
    """Forget the loaded kernel and cache new builds under tmp_path."""
    monkeypatch.setattr(_dp, "_kernel", _dp._UNSET)
    monkeypatch.setattr(_dp, "cache_dirs", lambda: (tmp_path / "a", tmp_path / "b"))
    return tmp_path


def random_batch(rng, n_alpha, max_len=120):
    """Encoded query and padded target batch with ragged lengths 0..max_len,
    padded past the longest target by up to four columns."""
    query = rng.integers(0, n_alpha, size=int(rng.integers(0, max_len + 1)))
    n_targets = int(rng.integers(0, 12))
    lens = rng.integers(0, max_len + 1, size=n_targets)
    width = (int(lens.max()) if n_targets else 0) + int(rng.integers(0, 5))
    mat = rng.integers(0, n_alpha, size=(n_targets, width))
    return query, mat, lens


@pytest.fixture(scope="module")
def plain_library(tmp_path_factory):
    """A second build of `_dp.c` with __ELF__ undefined: the
    multiversioning guard is off, so only the plain lane loop is
    compiled, as on platforms without ifunc clones."""
    path = tmp_path_factory.mktemp("plain") / "plain.so"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_dp, "FLAGS", (*_dp.FLAGS, "-U__ELF__"))
        _dp._build(_dp.compiler(), path)
    return path


@pytest.fixture(scope="module")
def plain_kernels(plain_library):
    return _dp._open(plain_library)


@pytest.fixture(scope="module")
def plain_kernel(plain_kernels):
    """`alignment_cost_rows` over the plain build instead of the library
    in use, which on x86-64 machines with AVX2 runs its AVX2 clone."""

    def rows(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_dp, "load", lambda: plain_kernels)
            return alignment_cost_rows(*args)

    return rows


def assert_kernels_agree(rows, query, mat, lens, cm):
    want = numpy_cost_rows(query, mat, lens, cm.sub_cost, cm.gap_cost)
    got = rows(query, mat, lens, cm.sub_cost, cm.gap_cost)
    assert np.array_equal(got, want)


@needs_kernel
class TestCompiledKernel:
    def test_compiled_kernel_is_the_one_in_use(self, monkeypatch):
        def reference_called(*args):
            raise AssertionError("the numpy loop ran with a compiled kernel available")

        monkeypatch.setattr(alignment, "numpy_cost_rows", reference_called)
        out = alignment_cost_rows(
            np.array([0, 1]), np.array([[1, 0, 2]]), np.array([3]),
            np.zeros((3, 3)), 1.0,
        )
        assert out.tolist() == [1.0]

    @pytest.mark.parametrize("table", ["pam120", "toy"])
    def test_equals_numpy_reference_bit_for_bit(self, table, pam120, toy_sim):
        sim = pam120 if table == "pam120" else toy_sim
        rng = np.random.default_rng(3)
        for gap_weight in np.concatenate(([1e-6, 4.0], rng.uniform(0.0, 4.0, 60))):
            cm = build_cost_model(sim, gap_weight=float(gap_weight))
            query, mat, lens = random_batch(rng, len(cm.alphabet))
            want = numpy_cost_rows(query, mat, lens, cm.sub_cost, cm.gap_cost)
            got = alignment_cost_rows(query, mat, lens, cm.sub_cost, cm.gap_cost)
            assert np.array_equal(got, want)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_equals_numpy_reference_on_drawn_batches(self, data, pam120, plain_kernel):
        rows = data.draw(st.sampled_from((alignment_cost_rows, plain_kernel)))
        cm = build_cost_model(pam120, gap_weight=data.draw(st.floats(1e-3, GAP_WEIGHT_MAX)))
        codes = st.integers(0, len(cm.alphabet) - 1)
        query = data.draw(st.lists(codes, max_size=50))
        targets = data.draw(st.lists(st.lists(codes, max_size=50), max_size=9))
        lens = np.array([len(t) for t in targets], dtype=np.intp)
        # ragged targets padded past the longest with arbitrary codes
        width = int(lens.max(initial=0)) + data.draw(st.integers(0, 3))
        mat = np.array(
            [t + data.draw(st.lists(codes, min_size=width - len(t), max_size=width - len(t)))
             for t in targets],
            dtype=np.intp,
        ).reshape(len(targets), width)
        assert_kernels_agree(rows, np.array(query, dtype=np.intp), mat, lens, cm)

    def test_plain_build_has_no_clones(self, plain_library):
        # on x86-64 ELF the library in use holds an AVX2 and a default
        # clone; the plain build must hold neither, or the test above
        # would compare the same code twice
        names = (b"odse_cost_rows.avx2", b"odse_cost_rows.default")
        if platform.machine() == "x86_64" and sys.platform.startswith("linux"):
            in_use = _dp.cache_dirs()[0] / _dp.library_name()
            if in_use.exists():
                assert all(name in in_use.read_bytes() for name in names)
        assert not any(name in plain_library.read_bytes() for name in names)

    def test_empty_query_and_empty_targets(self, toy_cm):
        sub, gap = toy_cm.sub_cost, toy_cm.gap_cost
        mat, lens = np.array([[1, 2, 3], [0, 0, 0]]), np.array([3, 0])
        for query in (np.array([], dtype=np.intp), np.array([2, 1])):
            assert np.array_equal(
                alignment_cost_rows(query, mat, lens, sub, gap),
                numpy_cost_rows(query, mat, lens, sub, gap),
            )
        empty = np.zeros((0, 0), dtype=np.intp), np.zeros(0, dtype=np.intp)
        assert alignment_cost_rows(np.array([1]), *empty, sub, gap).shape == (0,)

    @pytest.mark.parametrize("normalization", [RAW, BY_MAX_LENGTH])
    def test_normalizations_match_numpy_fallback(self, normalization, pam120, monkeypatch):
        rng = np.random.default_rng(5)
        targets = random_sequences(rng, 15, lo=0, hi=60, alphabet=RESIDUES, prefix="t")
        queries = random_sequences(rng, 6, lo=0, hi=60, alphabet=RESIDUES, prefix="q")
        cm = build_cost_model(pam120, gap_weight=0.7, normalization=normalization)
        compiled = [dissimilarities_to_targets(q, targets, cm) for q in queries]
        monkeypatch.setattr(_dp, "load", lambda: None)
        for q, got in zip(queries, compiled):
            assert np.array_equal(got, dissimilarities_to_targets(q, targets, cm))

    @pytest.mark.parametrize("n_targets", range(1, 10))
    def test_lane_edges(self, n_targets, pam120, plain_kernel):
        # blocks of four lanes: 1-9 targets leave every count of idle
        # lanes; lengths in no order, empty targets and queries, and
        # widths padded past the longest target
        rng = np.random.default_rng(n_targets)
        cm = build_cost_model(pam120, gap_weight=1.7)
        lens = rng.integers(0, 45, size=n_targets)
        lens[rng.integers(n_targets)] = 0
        for lens in (lens, np.zeros_like(lens)):
            for pad in (0, 1, 10):
                mat = rng.integers(0, len(cm.alphabet), size=(n_targets, int(lens.max()) + pad))
                for n_query in (0, 1, 30):
                    query = rng.integers(0, len(cm.alphabet), size=n_query)
                    for rows in (alignment_cost_rows, plain_kernel):
                        assert_kernels_agree(rows, query, mat, lens, cm)

    def test_concurrent_first_calls_build_once(self, fresh_build):
        loaded = []
        threads = [threading.Thread(target=lambda: loaded.append(_dp.load())) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert len(loaded) == 4 and loaded[0] is not None
        assert all(k is loaded[0] for k in loaded)
        assert [p.name for p in (fresh_build / "a").iterdir()] == [_dp.library_name()]

    def test_unwritable_cache_dir_falls_through_to_the_next(self, fresh_build):
        (fresh_build / "a").write_text("not a directory", encoding="utf-8")
        assert _dp.load() is not None
        assert (fresh_build / "b" / _dp.library_name()).exists()


@pytest.mark.parametrize("path", [pytest.param("compiled", marks=needs_kernel), "numpy"])
def test_bad_codes_and_lengths_rejected(path, toy_cm, monkeypatch):
    # both paths check the batch before either runs: unchecked, the numpy
    # loop would read code -1 as the table's last column
    if path == "numpy":
        monkeypatch.setattr(_dp, "load", lambda: None)
    sub, gap = toy_cm.sub_cost, toy_cm.gap_cost
    with pytest.raises(IndexError):
        alignment_cost_rows(np.array([4]), np.array([[0]]), np.array([1]), sub, gap)
    with pytest.raises(IndexError):
        alignment_cost_rows(np.array([0]), np.array([[4]]), np.array([1]), sub, gap)
    with pytest.raises(IndexError):
        alignment_cost_rows(np.array([0]), np.array([[-1]]), np.array([1]), sub, gap)
    with pytest.raises(IndexError):
        alignment_cost_rows([-1], [[0]], [1], sub, gap)
    with pytest.raises(ValueError, match="width"):
        alignment_cost_rows(np.array([0]), np.array([[0]]), np.array([2]), sub, gap)


def test_fallback_gives_unchanged_results(pam120, monkeypatch):
    rng = np.random.default_rng(7)
    seqs = random_sequences(rng, 20, lo=0, hi=40, alphabet=RESIDUES)
    r = RepresentationSet(tuple(seqs[:8]))
    cm = build_cost_model(pam120, gap_weight=1.3)
    before = compute_matrix(seqs, r, cm, threads=2).values
    monkeypatch.setattr(_dp, "load", lambda: None)
    after = compute_matrix(seqs, r, cm, threads=2).values
    assert np.array_equal(before, after)


def test_failed_build_falls_back_to_numpy(fresh_build, monkeypatch, toy_cm):
    monkeypatch.setattr(_dp, "compiler", lambda: "false")
    assert _dp.load() is None
    query, mat, lens = np.array([0, 3]), np.array([[1, 2]]), np.array([2])
    got = alignment_cost_rows(query, mat, lens, toy_cm.sub_cost, toy_cm.gap_cost)
    want = numpy_cost_rows(query, mat, lens, toy_cm.sub_cost, toy_cm.gap_cost)
    assert np.array_equal(got, want)


def test_compiler_on_path_means_compiled_kernel():
    # a build that breaks would otherwise fall back to numpy unnoticed
    if _dp.compiler() is None:
        pytest.skip("no C compiler on PATH")
    assert _dp.load() is not None


def test_import_builds_no_kernel():
    src = str(Path(odse.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import odse; "
        "from odse import _dp; assert _dp._kernel is _dp._UNSET"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def solve_with(kernels, gram, y, c, max_passes):
    """`smo_solve` with `_dp.load` giving kernels: None runs the numpy
    sweep."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_dp, "load", lambda: kernels)
        return smo_solve(gram, y, c, 1e-3, max_passes)


def assert_same_bits(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


def never_called(*args):
    raise AssertionError("a sweep ran")


@needs_kernel
class TestCompiledSmoSweep:
    def test_compiled_sweep_is_the_one_in_use(self, monkeypatch):
        monkeypatch.setattr(classifiers, "numpy_smo_sweep", never_called)
        alphas, _ = smo_solve(np.eye(2), np.array([1.0, -1.0]), 1.0, 1e-3, 10)
        assert alphas.tolist() == [1.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_numpy_sweep_on_drawn_grams(self, data, plain_kernels):
        build = data.draw(st.sampled_from(("in-use", "plain")))
        kernels = _dp.load() if build == "in-use" else plain_kernels
        kind = data.draw(st.sampled_from(("psd", "ulps", "indefinite")))
        n = data.draw(st.integers(2, 120))
        y = np.array(data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n)))
        c = 10.0 ** data.draw(st.floats(-7.0, 2.0))
        max_passes = data.draw(st.integers(1, 200))
        gram = random_gram(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n, kind)
        want = solve_with(None, gram, y, c, max_passes)
        assert_same_bits(solve_with(kernels, gram, y, c, max_passes), want)

    def test_threads_solving_at_once_give_serial_results(self):
        # ctypes drops the GIL for the sweep, so solves on the GA's
        # thread pool overlap; the sweep keeps no state between calls
        rng = np.random.default_rng(23)
        problems = []
        for kind in ("psd", "ulps", "indefinite") * 3:
            n = int(rng.integers(60, 121))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            problems.append((random_gram(rng, n, kind), y, 2.0, 1e-3, 200))
        serial = [smo_solve(*p) for p in problems]
        with ThreadPoolExecutor(4) as pool:
            for _ in range(3):
                for got, want in zip(pool.map(lambda p: smo_solve(*p), problems), serial):
                    assert_same_bits(got, want)


@pytest.mark.parametrize("path", [pytest.param("compiled", marks=needs_kernel), "numpy"])
def test_bad_smo_inputs_rejected(path, monkeypatch):
    # both paths check gram and targets before any sweep runs: unchecked,
    # a mis-shaped gram is an out-of-bounds read in C, and a NaN makes
    # numpy's argmax and the C scan pick partners by different rules
    if path == "numpy":
        monkeypatch.setattr(_dp, "load", lambda: None)
        monkeypatch.setattr(classifiers, "numpy_smo_sweep", never_called)
    else:
        kernels = _dp.load()._replace(smo_sweep=never_called)
        monkeypatch.setattr(_dp, "load", lambda: kernels)
    y = np.array([1.0, -1.0, 1.0])
    gram = np.eye(3)
    for bad_gram, bad_y in [
        (np.eye(3, 4), y),
        (np.eye(4), y),
        (np.ones(3), y),
        (np.ones((3, 3, 1)), y),
        (gram, y[:, None]),
        (gram, np.float64(1.0)),
    ]:
        with pytest.raises(ValueError, match="array"):
            smo_solve(bad_gram, bad_y, 1.0, 1e-3, 10)
    for value in (np.nan, np.inf, -np.inf):
        bad_gram = gram.copy()
        bad_gram[2, 1] = value
        bad_y = y.copy()
        bad_y[1] = value
        for args in ((bad_gram, y), (gram, bad_y)):
            with pytest.raises(ValueError, match="finite"):
                smo_solve(*args, 1.0, 1e-3, 10)
