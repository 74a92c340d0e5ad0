"""The compiled kernels (alignment DP, SMO sweep and Parzen exponents)
against their numpy reference loops, the fallbacks when they cannot be
built, and how and when they are built."""

import inspect
import os
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
from odse import _dp, alignment
from odse._dp import numpy_cost_rows
from odse.alignment import (
    BY_MAX_LENGTH,
    GAP_WEIGHT_MAX,
    RAW,
    alignment_cost_rows,
    build_cost_model,
    dissimilarities_to_targets,
    load_similarity_matrix,
    pam120_path,
)
from odse.classifiers import KnnConfig, SvmConfig, smo_solve
from odse.embedding import compute_matrix
from odse.entropy import MST, QRE, EstimatorConfig, column_scores
from odse.model import FitnessWeights, GaConfig, ga_optimize, model_to_json

from conftest import RESIDUES, random_sequences
from test_classifiers import random_gram

needs_kernel = pytest.mark.skipif(
    _dp.load() is _dp.NUMPY, reason="no C compiler to build the compiled kernels"
)


@pytest.fixture(scope="module")
def pam120():
    return load_similarity_matrix(pam120_path())


@pytest.fixture
def fresh_build(monkeypatch, tmp_path):
    """Forget the loaded kernel and cache new builds under tmp_path."""
    monkeypatch.setattr(_dp, "_kernel", None)
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


def build_variant(tmp_path_factory, name, flag):
    """A second build of `_dp.c` at tmp/name.so, with flag added."""
    path = tmp_path_factory.mktemp(name) / f"{name}.so"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_dp, "FLAGS", (*_dp.FLAGS, flag))
        _dp._build(_dp.compiler(), path)
    return path


@pytest.fixture(scope="module")
def plain_library(tmp_path_factory):
    """`_dp.c` with __ELF__ undefined: the AVX2 guard is off, so only the
    plain lane loop is compiled, as on platforms other than x86-64 ELF."""
    return build_variant(tmp_path_factory, "plain", "-U__ELF__")


@pytest.fixture(scope="module")
def plain_kernels(plain_library):
    return _dp._open(plain_library)


@pytest.fixture(scope="module")
def avx2_library(tmp_path_factory):
    """`_dp.c` with ODSE_NO_AVX512 defined: the AVX-512 query-pair loop
    is left out, so on a processor with AVX2 the AVX2 loop runs, which
    the library in use skips on a processor with AVX-512."""
    return build_variant(tmp_path_factory, "avx2", "-DODSE_NO_AVX512")


@pytest.fixture(scope="module")
def avx2_kernels(avx2_library):
    return _dp._open(avx2_library)


@pytest.fixture(scope="module")
def plain_kernel(plain_kernels):
    """`alignment_cost_rows` over the plain build instead of the library
    in use, which on x86-64 machines with AVX2 runs its AVX2 loop."""

    def rows(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_dp, "load", lambda: plain_kernels)
            return alignment_cost_rows(*args)

    return rows


def assert_kernels_agree(rows, query, mat, lens, cm):
    want = numpy_cost_rows(query, mat, lens, cm.sub_cost, cm.gap_cost)
    got = rows(query, mat, lens, cm.sub_cost, cm.gap_cost)
    assert np.array_equal(got, want)


def assert_table_agrees(kernels, queries, mat, lens, cm, cols=None):
    """One `kernels.cost_table` call over every query (compiled, or the
    numpy loop of `_dp.NUMPY`), each row against numpy_cost_rows: target
    k's cost must land in column cols[k], the identity columns when cols
    is None."""
    codes = np.concatenate([np.asarray(q, dtype=np.intp) for q in queries] or [np.zeros(0)])
    starts = np.cumsum([0] + [len(q) for q in queries]).astype(np.intp)
    codes, mat, lens, sub = alignment._checked_batch(codes, mat, lens, cm.sub_cost)
    if cols is None:
        cols = np.arange(len(lens), dtype=np.intp)
    out = np.full((len(queries), len(lens)), np.nan)
    kernels.cost_table(codes, starts, mat, lens, sub, cm.gap_cost, cols, out)
    for q, row in zip(queries, out):
        want = numpy_cost_rows(np.asarray(q, dtype=np.intp), mat, lens, sub, cm.gap_cost)
        assert np.array_equal(row[cols], want)


@needs_kernel
class TestCompiledKernel:
    def test_compiled_kernel_is_the_one_in_use(self, monkeypatch):
        def reference_called(*args):
            raise AssertionError("the numpy loop ran with a compiled kernel available")

        monkeypatch.setattr(_dp, "numpy_cost_rows", reference_called)
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
    def test_equals_numpy_reference_on_drawn_batches(self, data, pam120, plain_kernels,
                                                      avx2_kernels):
        kernels = data.draw(st.sampled_from((_dp.load(), avx2_kernels, plain_kernels, _dp.NUMPY)))
        cm = build_cost_model(pam120, gap_weight=data.draw(st.floats(1e-3, GAP_WEIGHT_MAX)))
        codes = st.integers(0, len(cm.alphabet) - 1)
        queries = data.draw(st.lists(st.lists(codes, max_size=50), max_size=5))
        targets = data.draw(st.lists(st.lists(codes, max_size=50), max_size=17))
        lens = np.array([len(t) for t in targets], dtype=np.intp)
        # ragged targets padded past the longest with arbitrary codes
        width = int(lens.max(initial=0)) + data.draw(st.integers(0, 3))
        mat = np.array(
            [t + data.draw(st.lists(codes, min_size=width - len(t), max_size=width - len(t)))
             for t in targets],
            dtype=np.intp,
        ).reshape(len(targets), width)
        cols = data.draw(st.none() | st.permutations(range(len(targets))))
        cols = None if cols is None else np.array(cols, dtype=np.intp)
        assert_table_agrees(kernels, queries, mat, lens, cm, cols)

    def test_plain_build_has_no_clones(self, plain_library, avx2_library):
        # on x86-64 ELF the library in use holds the AVX2 query loop and
        # the AVX-512 query-pair loop beside the plain one; the plain
        # build must hold neither and the avx2 build not the pair loop,
        # or the tests that call several builds would compare the same
        # code twice
        plain, avx2, avx512 = b"query_plain", b"query_avx2", b"query_pair_avx512"
        if platform.machine() == "x86_64" and sys.platform.startswith("linux"):
            in_use = _dp.cache_dirs()[0] / _dp.library_name()
            if in_use.exists():
                assert all(name in in_use.read_bytes() for name in (plain, avx2, avx512))
            assert avx2 in avx2_library.read_bytes()
        assert avx2 not in plain_library.read_bytes()
        for library in (plain_library, avx2_library):
            assert avx512 not in library.read_bytes()

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
        monkeypatch.setattr(_dp, "load", lambda: _dp.NUMPY)
        for q, got in zip(queries, compiled):
            assert np.array_equal(got, dissimilarities_to_targets(q, targets, cm))

    @pytest.mark.parametrize("n_targets", [0, *range(1, 10), 15, 16, 17])
    def test_lane_edges(self, n_targets, pam120, plain_kernel, plain_kernels, avx2_kernels):
        # blocks of eight lanes: 0-9 and 15-17 targets leave every count
        # of idle lanes in a first or a later block; lengths in no order,
        # empty targets and queries, and widths padded past the longest
        # target; the queries run one per call and all in one call
        rng = np.random.default_rng(n_targets)
        cm = build_cost_model(pam120, gap_weight=1.7)
        lens = rng.integers(0, 45, size=n_targets)
        if n_targets:
            lens[rng.integers(n_targets)] = 0
        for lens in (lens, np.zeros_like(lens)):
            for pad in (0, 1, 10):
                mat = rng.integers(0, len(cm.alphabet), size=(n_targets, int(lens.max(initial=0)) + pad))
                queries = [rng.integers(0, len(cm.alphabet), size=n) for n in (0, 1, 30, 0)]
                for kernels in (_dp.load(), avx2_kernels, plain_kernels, _dp.NUMPY):
                    assert_table_agrees(kernels, queries, mat, lens, cm)
                for query in queries[:3]:
                    for rows in (alignment_cost_rows, plain_kernel):
                        assert_kernels_agree(rows, query, mat, lens, cm)

    def test_query_pair_edges(self, pam120, plain_kernels, avx2_kernels):
        # the AVX-512 loop runs the queries of a call two at a time: 0-3
        # queries give no pair, a query alone, a pair, and a pair and a
        # query alone; an empty query beside a long one, and pairs whose
        # lengths differ by 0, 1 and 50, put either query of a pair
        # through rows alone
        rng = np.random.default_rng(47)
        cm = build_cost_model(pam120, gap_weight=0.6)
        n_alpha = len(cm.alphabet)
        lens = rng.integers(0, 60, size=11)
        mat = rng.integers(0, n_alpha, size=(11, int(lens.max()) + 2))

        def query(n):
            return rng.integers(0, n_alpha, size=n)

        calls = [[query(25) for _ in range(n)] for n in range(4)]
        calls += [[query(0), query(70)], [query(70), query(0)], [query(0), query(70), query(0)]]
        for n, diff in ((30, 0), (30, 1), (7, 50)):
            calls += [[query(n), query(n + diff)], [query(n + diff), query(n), query(n + diff)]]
        for queries in calls:
            for kernels in (_dp.load(), avx2_kernels, plain_kernels, _dp.NUMPY):
                assert_table_agrees(kernels, queries, mat, lens, cm)

    @pytest.mark.parametrize(
        "n_queries", [2 * alignment.CHUNK_ROWS - 1, 2 * alignment.CHUNK_ROWS + 1]
    )
    def test_odd_chunks_on_two_threads(self, n_queries, pam120, monkeypatch):
        # two threads cut 511 queries into calls of 255 and 256 queries,
        # and 513 into 128, 128, 128 and 129: a call with an odd query
        # count, running beside another
        rng = np.random.default_rng(n_queries)
        queries = random_sequences(rng, n_queries, lo=0, hi=20, alphabet=RESIDUES, prefix="q")
        targets = random_sequences(rng, 9, lo=0, hi=20, alphabet=RESIDUES, prefix="t")
        cm = build_cost_model(pam120, gap_weight=1.2)
        compiled = alignment.dissimilarity_table(queries, targets, cm, threads=2)
        monkeypatch.setattr(_dp, "load", lambda: _dp.NUMPY)
        assert np.array_equal(compiled, alignment.dissimilarity_table(queries, targets, cm))

    def test_concurrent_first_calls_build_once(self, fresh_build):
        loaded = []
        threads = [threading.Thread(target=lambda: loaded.append(_dp.load())) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert len(loaded) == 4 and loaded[0] is not _dp.NUMPY
        assert all(k is loaded[0] for k in loaded)
        assert [p.name for p in (fresh_build / "a").iterdir()] == [_dp.library_name()]

    # an earlier source's library, then files that only look like one
    STALE = "_dp-0123456789abcdef.so"
    UNRELATED = ("notes.txt", "_dp-0123456789abcdef.so.bak", "_dp-0123456789abcdefq1w2.so")

    def stand_in_build(self, monkeypatch, *dirs):
        """Fill dirs with a stale library and unrelated files, and make
        a build write a stand-in library, so no compiler is needed."""
        monkeypatch.setattr(_dp, "compiler", lambda: "cc")
        monkeypatch.setattr(_dp, "_build", lambda cc, target: target.write_bytes(b"so"))
        monkeypatch.setattr(_dp, "_open", lambda path: path)
        for directory in dirs:
            directory.mkdir()
            for name in (self.STALE, *self.UNRELATED):
                (directory / name).write_text("x", encoding="utf-8")

    def test_build_in_package_dir_removes_stale_libraries(self, fresh_build, monkeypatch):
        own = fresh_build / "a"
        self.stand_in_build(monkeypatch, own)
        assert _dp.load() == own / _dp.library_name()
        assert {p.name for p in own.iterdir()} == {_dp.library_name(), *self.UNRELATED}

    def test_build_in_shared_cache_keeps_every_library(self, fresh_build, monkeypatch):
        shared = fresh_build / "b"
        self.stand_in_build(monkeypatch, shared)
        (fresh_build / "a").write_text("not a directory", encoding="utf-8")
        assert _dp.load() == shared / _dp.library_name()
        assert {p.name for p in shared.iterdir()} == {
            _dp.library_name(), self.STALE, *self.UNRELATED
        }

    def test_unwritable_cache_dir_falls_through_to_the_next(self, fresh_build):
        (fresh_build / "a").write_text("not a directory", encoding="utf-8")
        assert _dp.load() is not _dp.NUMPY
        assert (fresh_build / "b" / _dp.library_name()).exists()


@needs_kernel
def test_column_scores_use_the_compiled_parzen_exponents(monkeypatch):
    kernels = _dp.load()
    calls = []
    counted = kernels._replace(
        parzen_exponents=lambda *args: calls.append(len(args[0])) or kernels.parzen_exponents(*args)
    )
    monkeypatch.setattr(_dp, "load", lambda: counted)
    table = np.random.default_rng(31).uniform(0.0, 9.0, size=(7, 3))
    column_scores(table, EstimatorConfig(kind=QRE), 0.5)
    assert calls == [7, 7, 7]


def test_numpy_table_writes_each_row_into_its_columns(pam120):
    # the path without a compiler: one numpy_cost_rows call per query,
    # each row scattered to cols, on the identity and a permutation
    rng = np.random.default_rng(37)
    cm = build_cost_model(pam120, gap_weight=1.1)
    lens = rng.integers(0, 40, size=11)
    mat = rng.integers(0, len(cm.alphabet), size=(11, int(lens.max()) + 2))
    queries = [rng.integers(0, len(cm.alphabet), size=n) for n in (0, 7, 33)]
    for cols in (None, rng.permutation(11)):
        assert_table_agrees(_dp.NUMPY, queries, mat, lens, cm, cols)


@pytest.mark.parametrize("path", [pytest.param("compiled", marks=needs_kernel), "numpy"])
def test_bad_codes_and_lengths_rejected(path, toy_cm, monkeypatch):
    # both paths check the batch before either runs: unchecked, the numpy
    # loop would read code -1 as the table's last column
    if path == "numpy":
        monkeypatch.setattr(_dp, "load", lambda: _dp.NUMPY)
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


@pytest.mark.parametrize("normalization", [RAW, BY_MAX_LENGTH])
def test_chunks_and_threads_leave_the_table_unchanged(normalization, pam120, monkeypatch):
    # chunks of at most 3 cut 11 queries into calls of 3, 3, 3 and 2
    # rows at 1 and 2 threads, and of 2, 2, 2, 2, 2 and 1 rows at 3
    # threads; every cut gives the cells of one call per row
    rng = np.random.default_rng(29)
    queries = random_sequences(rng, 11, lo=0, hi=50, alphabet=RESIDUES, prefix="q")
    targets = random_sequences(rng, 19, lo=0, hi=50, alphabet=RESIDUES, prefix="t")
    cm = build_cost_model(pam120, gap_weight=0.9, normalization=normalization)
    whole = alignment.dissimilarity_table(queries, targets, cm)
    rows = np.array([dissimilarities_to_targets(q, targets, cm) for q in queries])
    assert np.array_equal(whole, rows)
    calls = []
    kernels = _dp.load()
    counted = kernels._replace(
        cost_table=lambda *args: calls.append(len(args[1]) - 1) or kernels.cost_table(*args)
    )
    monkeypatch.setattr(_dp, "load", lambda: counted)
    monkeypatch.setattr(alignment, "CHUNK_ROWS", 3)
    for threads, sizes in ((1, [3, 3, 3, 2]), (2, [3, 3, 3, 2]), (3, [2] * 5 + [1])):
        calls.clear()
        assert np.array_equal(alignment.dissimilarity_table(queries, targets, cm, threads), whole)
        assert sorted(calls, reverse=True) == sizes


def test_fallback_gives_unchanged_results(pam120, monkeypatch):
    rng = np.random.default_rng(7)
    seqs = random_sequences(rng, 20, lo=0, hi=40, alphabet=RESIDUES)
    cm = build_cost_model(pam120, gap_weight=1.3)
    before = compute_matrix(seqs, seqs[:8], cm, threads=2).values
    monkeypatch.setattr(_dp, "load", lambda: _dp.NUMPY)
    after = compute_matrix(seqs, seqs[:8], cm, threads=2).values
    assert np.array_equal(before, after)


def test_failed_build_falls_back_to_numpy(fresh_build, monkeypatch, toy_cm):
    monkeypatch.setattr(_dp, "compiler", lambda: "false")
    assert _dp.load() is _dp.NUMPY
    query, mat, lens = np.array([0, 3]), np.array([[1, 2]]), np.array([2])
    got = alignment_cost_rows(query, mat, lens, toy_cm.sub_cost, toy_cm.gap_cost)
    want = numpy_cost_rows(query, mat, lens, toy_cm.sub_cost, toy_cm.gap_cost)
    assert np.array_equal(got, want)


def test_compiler_on_path_means_compiled_kernel():
    # a build that breaks would otherwise fall back to numpy unnoticed
    if _dp.compiler() is None:
        pytest.skip("no C compiler on PATH")
    assert _dp.load() is not _dp.NUMPY


@needs_kernel
def test_both_kernel_sets_take_the_same_parameters():
    # a parameter added to or renamed in one set only fails here
    compiled = _dp.load()
    for field in _dp.Kernels._fields:
        want = list(inspect.signature(getattr(compiled, field)).parameters)
        assert list(inspect.signature(getattr(_dp.NUMPY, field)).parameters) == want, field


@needs_kernel
@pytest.mark.parametrize("inner", [SvmConfig(c=2.0), KnnConfig(k=3)], ids=["svm", "knn"])
@pytest.mark.parametrize("kind", [QRE, MST])
def test_saved_model_is_the_same_whichever_kernels_ran(inner, kind, pam120, monkeypatch):
    # a GA run calls all three kernels; its saved model must not show
    # which set ran them
    rng = np.random.default_rng(43)
    seqs = random_sequences(rng, 40, lo=12, hi=30, alphabet=RESIDUES)
    train = [(s, i % 2) for i, s in enumerate(seqs)]
    cfg = GaConfig(population_size=6, max_generations=2, rng_seed=5)
    args = (train, None, pam120, inner, FitnessWeights(), EstimatorConfig(kind=kind), cfg)
    compiled = model_to_json(ga_optimize(*args))
    monkeypatch.setattr(_dp, "load", lambda: _dp.NUMPY)
    assert model_to_json(ga_optimize(*args)) == compiled


SANITIZE = (
    "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined",
)


def sanitizer_runtime():
    """Path of the kernel compiler's AddressSanitizer runtime on Linux,
    or None."""
    cc = _dp.compiler()
    if cc is None or not sys.platform.startswith("linux"):
        return None
    printed = subprocess.run(
        [cc, "-print-file-name=libasan.so"], capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    # a compiler without the runtime prints the bare name back
    return printed if os.path.isabs(printed) and os.path.isfile(printed) else None


def check_kernels_against_numpy(path):
    """Require each kernel of the library at path to equal `_dp.NUMPY`
    bit for bit: the edge cases first, then 100 seeded random ones per
    kernel.  A sanitized child interpreter runs this function's
    source, so it imports what it uses."""
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from odse import _dp

    kernels = _dp._open(path)
    rng = np.random.default_rng(0)

    def cost_table(queries, lens, pad, n_alpha, permute, gen=rng):
        lens = np.asarray(lens, dtype=np.intp)
        width = int(lens.max(initial=0)) + pad
        targets = gen.integers(0, n_alpha, size=(len(lens), width)).astype(np.intp)
        codes = np.concatenate([np.zeros(0), *queries]).astype(np.intp)
        starts = np.cumsum([0, *map(len, queries)]).astype(np.intp)
        cols = (gen.permutation(len(lens)) if permute else np.arange(len(lens))).astype(np.intp)
        sub = gen.uniform(0.0, 4.0, size=(n_alpha, n_alpha))
        gap = float(gen.uniform(0.01, 4.0))
        got, want = (np.full((len(queries), len(lens)), np.nan) for _ in range(2))
        kernels.cost_table(codes, starts, targets, lens, sub, gap, cols, got)
        _dp.NUMPY.cost_table(codes, starts, targets, lens, sub, gap, cols, want)
        assert got.tobytes() == want.tobytes()

    def queries(n_alpha, n, max_len):
        return [rng.integers(0, n_alpha, size=int(rng.integers(0, max_len + 1))) for _ in range(n)]

    def smo_sweeps(n, kind, c):
        # psd: Gaussian kernel of points with the first one repeated, so
        # some pairs have zero curvature; indefinite: Gaussian kernel of
        # a symmetric non-metric distance table
        if kind == "psd":
            x = rng.normal(size=(n, 2))
            x[-1] = x[0]
            d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        else:
            d = np.triu(rng.uniform(0.0, 3.0, size=(n, n)), 1)
            d = d + d.T
        k = np.exp(-float(rng.uniform(0.05, 2.0)) * d)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        diag = np.diag(k)
        eta = np.ascontiguousarray((diag[:, None] + diag[None, :]) - 2.0 * k)
        runs = []
        for sweep in (kernels.smo_sweep, _dp.NUMPY.smo_sweep):
            alphas, b, trail = np.zeros(n), 0.0, []
            for _ in range(50):
                errors = k @ (alphas * y) + b - y
                b, changed = sweep(k, y, eta, c, 1e-3, 1e-7, alphas, errors, b)
                trail.append((alphas.tobytes(), errors.tobytes(), np.float64(b).tobytes(), changed))
                if not changed:
                    break
            runs.append(trail)
        assert runs[0] == runs[1]

    def parzen_exponents(n):
        column = rng.normal(size=(n, 3))[:, 1]
        scale = float(rng.uniform(0.1, 4.0))
        got, want = np.empty((n, n)), np.empty((n, n))
        kernels.parzen_exponents(column, scale, got)
        _dp.NUMPY.parzen_exponents(column, scale, want)
        assert got.tobytes() == want.tobytes()

    for n_targets in (0, 1, 7, 8, 9, 17):
        lens = rng.integers(0, 30, size=n_targets)
        for pad in (0, 3):
            for permute in (False, True):
                cost_table([[], *queries(24, 2, 30)], lens, pad, 24, permute)
        # padded width 0
        cost_table(queries(24, 3, 10), [0] * n_targets, 0, 24, True)
    # the AVX-512 loop's query pairs: 0-3 queries, an empty query beside a
    # long one, lengths that differ by 0, 1 and 50, and a call of 129
    # queries beside one of 128 on another thread, the last of the four
    # calls that two threads make of 513 queries
    lens = rng.integers(0, 60, size=11)
    for n in range(4):
        cost_table(queries(24, n, 40), lens, 1, 24, True)
    for a, b in ((0, 70), (70, 0), (30, 30), (30, 31), (57, 7)):
        pair = [rng.integers(0, 24, size=a), rng.integers(0, 24, size=b)]
        cost_table(pair, lens, 1, 24, False)
        cost_table([*pair, pair[0]], lens, 1, 24, True)
    calls = [(queries(24, n, 20), np.random.default_rng(n)) for n in (128, 129)]
    with ThreadPoolExecutor(2) as pool:
        list(pool.map(lambda call: cost_table(call[0], lens, 0, 24, False, call[1]), calls))
    for n in (2, 3, 17, 40):
        for kind in ("psd", "indefinite"):
            smo_sweeps(n, kind, 1.0)
    for n in (0, 1, 2, 7, 8):
        parzen_exponents(n)
    for _ in range(100):
        n_alpha = int(rng.choice([1, 4, 24]))
        lens = rng.integers(0, 40, size=int(rng.integers(0, 18)))
        cost_table(queries(n_alpha, int(rng.integers(0, 5)), 40), lens,
                   int(rng.integers(0, 4)), n_alpha, bool(rng.random() < 0.5))
        smo_sweeps(int(rng.integers(2, 60)), str(rng.choice(["psd", "indefinite"])),
                   float(10.0 ** rng.uniform(-2.0, 2.0)))
        parzen_exponents(int(rng.integers(1, 50)))
    return "checked"


@pytest.mark.parametrize(
    "extra", [(), ("-DODSE_NO_AVX512",), ("-U__ELF__",)], ids=["default", "avx2", "plain"]
)
def test_kernels_agree_under_sanitizers(extra, tmp_path):
    # an out-of-bounds access or undefined behaviour that leaves the
    # results unchanged passes every equality test; AddressSanitizer and
    # UBSan stop the child at the first one
    runtime = sanitizer_runtime()
    if runtime is None:
        pytest.skip("no C compiler with an AddressSanitizer runtime on Linux")
    path = tmp_path / "sanitized.so"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_dp, "FLAGS", (*_dp.FLAGS, *extra, *SANITIZE))
        _dp._build(_dp.compiler(), path)
    assert b"__asan" in path.read_bytes()
    src = str(Path(odse.__file__).resolve().parents[1])
    code = "\n".join((
        f"import sys; sys.path.insert(0, {src!r})",
        inspect.getsource(check_kernels_against_numpy),
        f"print(check_kernels_against_numpy({str(path)!r}))",
    ))
    env = {**os.environ, "LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["checked"]


def test_import_builds_no_kernel():
    src = str(Path(odse.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import odse; "
        "from odse import _dp; assert _dp._kernel is None"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_library_name_loads_no_hashlib():
    # hashlib loads OpenSSL's libcrypto; naming the library uses zlib,
    # which numpy has loaded.  Some numpy versions import hashlib
    # themselves (numpy.random -> secrets -> hmac), so the child blocks
    # any further import of it after numpy's, and odse must not need one
    src = str(Path(odse.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numpy; "
        "sys.modules['hashlib'] = None; import odse; from odse import _dp; "
        "_dp.library_name()"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def solve_with(kernels, gram, y, c, max_passes):
    """`smo_solve` with `_dp.load` giving kernels: `_dp.NUMPY` runs the
    numpy sweep."""
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
        monkeypatch.setattr(_dp, "numpy_smo_sweep", never_called)
        monkeypatch.setattr(_dp, "NUMPY", _dp.NUMPY._replace(smo_sweep=never_called))
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
        want = solve_with(_dp.NUMPY, gram, y, c, max_passes)
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
    kernels = (_dp.NUMPY if path == "numpy" else _dp.load())._replace(smo_sweep=never_called)
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
