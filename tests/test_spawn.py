"""Batched generator spawning (``core.spawn_seeds`` and
``core.spawn_generators``) against numpy's own ``SeedSequence.spawn`` and
``Generator.spawn``, and the top-k and tree paths that use it."""

import copy
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampen import core, graphs, harness, trees
from dampen.core import KeptSeedSequence, spawn_generators, spawn_seeds
from dampen.fixtures import example_graph, random_induction_table
from dampen.oracles import diffp_id3_oracle, topk_rounds_oracle

SeedSequence = np.random.SeedSequence


def draws(seq, n=4):
    return np.random.Generator(np.random.PCG64(seq)).random(n)


def assert_same_state(a, b):
    # an MT19937 state holds an array, so compare with numpy's helper
    np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)


def assert_same_child(kept, ref):
    """``kept`` is numpy's child ``ref``: key, pool, every state numpy
    generates from it, and the first draws of a generator over it."""
    assert type(kept) is KeptSeedSequence
    assert kept.spawn_key == ref.spawn_key
    assert kept.pool_size == ref.pool_size
    assert kept.n_children_spawned == ref.n_children_spawned
    assert kept.pool.dtype == ref.pool.dtype
    assert np.array_equal(kept.pool, ref.pool)
    for n_words in range(1, 10):
        for dtype in (np.uint32, np.uint64):
            got = kept.generate_state(n_words, dtype)
            want = ref.generate_state(n_words, dtype)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(draws(kept), draws(ref))


_big = st.integers(0, 2**200)
_u32 = st.integers(0, 2**32 - 1)
_entropy = st.one_of(
    _big,
    st.builds(lambda v, t: t(v), st.integers(0, 2**31 - 1),
              st.sampled_from([np.uint32, np.int64, np.uint64, np.int32])),
    st.lists(_big, max_size=6),
    st.lists(_big, max_size=6).map(tuple),
    st.builds(range, st.integers(0, 40), st.integers(0, 50)),
    st.lists(_u32, max_size=8).map(lambda v: np.array(v, dtype=np.uint32)),
    st.lists(st.integers(0, 2**63 - 1), max_size=5).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(0, 2**64 - 1), max_size=5).map(
        lambda v: np.array(v, dtype=np.uint64)),
    st.lists(st.one_of(_big, st.lists(_u32, max_size=3)), max_size=4),
)
_parent = st.tuples(
    _entropy,
    st.lists(st.integers(0, 2**70), max_size=3).map(tuple),   # spawn key
    st.one_of(st.just(4), st.integers(5, 9)),                  # pool size
    st.integers(0, 6),                                         # counter
    st.integers(0, 6),                                         # children
)


class TestSpawnSeeds:
    @settings(max_examples=120, deadline=None)
    @given(parents=st.lists(_parent, min_size=1, max_size=4))
    def test_children_equal_numpy_spawn(self, parents):
        # one batch over parents of every entropy form, pool size, key
        # length and counter: each child, and each of its own children, is
        # numpy's; a numpy parent's read-only counter is left as it is
        seqs = [SeedSequence(e, spawn_key=key, pool_size=pool,
                             n_children_spawned=counter)
                for e, key, pool, counter, _ in parents]
        got = spawn_seeds(seqs, [n for *_, n in parents])
        for seq, children, (e, key, pool, counter, n) in zip(seqs, got,
                                                             parents):
            assert seq.n_children_spawned == counter
            want = SeedSequence(e, spawn_key=key, pool_size=pool,
                                n_children_spawned=counter).spawn(n)
            assert len(children) == n
            for kept, ref in zip(children, want):
                assert kept.entropy is seq.entropy
                assert_same_child(kept, ref)
                for _ in range(2):      # the counter advances like numpy's
                    for a, b in zip(kept.spawn(2), ref.spawn(2)):
                        assert_same_child(a, b)
                assert kept.n_children_spawned == ref.n_children_spawned == 4

    def test_children_past_two_to_the_32(self):
        # a child index of two words; numpy's own spawn does not end there,
        # so the reference is the child numpy's SeedSequence defines
        parent = SeedSequence([3, 2**40], n_children_spawned=2**32 - 2)
        for entropy in ([3, 2**40], 0):
            for start in (2**32 - 2, 2**32 + 5):
                kept = spawn_seeds([SeedSequence(entropy)], [1])[0][0]
                kept.n_children_spawned = start
                children = spawn_seeds([kept], [4])[0]
                for i, child in enumerate(children):
                    ref = SeedSequence(entropy, spawn_key=(0, start + i))
                    assert_same_child(child, ref)
                assert kept.n_children_spawned == start + 4
        children = spawn_seeds([parent], [4])[0]
        for i, child in enumerate(children):
            assert_same_child(child, SeedSequence(
                [3, 2**40], spawn_key=(2**32 - 2 + i,)))

    def test_int_parents_are_fresh_seed_sequences(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 7,
                 np.uint64(2**63 + 5)]
        for seed, children in zip(seeds, spawn_seeds(seeds, [3] * len(seeds))):
            for kept, ref in zip(children, SeedSequence(seed).spawn(3)):
                assert_same_child(kept, ref)

    def test_a_parent_twice_spawns_twice(self):
        kept = spawn_seeds([5], [1])[0][0]
        ref = SeedSequence(5).spawn(1)[0]
        first, second = spawn_seeds([kept, kept], [2, 3])
        for a, b in zip(first + second, ref.spawn(2) + ref.spawn(3)):
            assert_same_child(a, b)
        assert kept.n_children_spawned == 5

    def test_chunks_split_runs_and_parents(self, monkeypatch):
        # passes of three children split parents' runs at every offset
        monkeypatch.setattr(core, "SPAWN_CHUNK", 3)
        rng = np.random.default_rng(8)
        seqs = [SeedSequence(int(rng.integers(2**63)),
                             spawn_key=tuple(range(int(rng.integers(3)))),
                             n_children_spawned=int(rng.integers(4)))
                for _ in range(9)]
        counts = [int(c) for c in rng.integers(0, 6, size=len(seqs))]
        got = spawn_seeds(seqs, counts)
        for seq, n, children in zip(seqs, counts, got):
            want = SeedSequence(seq.entropy, spawn_key=seq.spawn_key,
                                n_children_spawned=seq.n_children_spawned)
            for kept, ref in zip(children, want.spawn(n), strict=True):
                assert_same_child(kept, ref)

    @pytest.mark.parametrize("bad", [
        "12", 1.5, np.random.default_rng(0), np.random.MT19937(1)])
    def test_other_parents_are_refused(self, bad):
        with pytest.raises(TypeError):
            spawn_seeds([bad], [2])

    def test_entropy_of_another_form_is_refused(self):
        # numpy reads a string inside a list as an int; the batch does not
        with pytest.raises(TypeError):
            spawn_seeds([SeedSequence(["12"])], [1])

    def test_kept_state_words_are_copies(self):
        kept = spawn_seeds([9], [1])[0][0]
        words = kept.generate_state(4, np.uint64)
        words[:] = 0
        assert np.array_equal(kept.generate_state(4, np.uint64),
                              SeedSequence(9).spawn(1)[0].generate_state(
                                  4, np.uint64))
        with pytest.raises(ValueError):
            kept.generate_state(4, np.int64)

    def test_generators_pickle_and_copy(self):
        import pickle

        gen = spawn_generators([4], [1])[0][0]
        for clone in (copy.deepcopy(gen), pickle.loads(pickle.dumps(gen))):
            assert np.array_equal(clone.random(3), copy.deepcopy(gen).random(3))
            assert (clone.spawn(1)[0].bit_generator.state
                    == np.random.default_rng(4).spawn(1)[0].spawn(1)[0]
                    .bit_generator.state)


class TestSpawnGenerators:
    def test_every_kind_of_parent(self):
        # int seeds and generators made here go through the batch; a
        # caller's generator and an MT19937 one spawn themselves
        made = spawn_generators([11], [1])[0][0]
        made_ref = np.random.default_rng(11).spawn(1)[0]
        made.random()
        made_ref.random()
        caller = np.random.default_rng([1, 2])
        caller_ref = np.random.default_rng([1, 2])
        mt = np.random.Generator(np.random.MT19937(3))
        mt_ref = np.random.Generator(np.random.MT19937(3))
        got = spawn_generators([7, made, caller, mt, made], [2, 3, 2, 2, 1])
        want = [np.random.default_rng(7).spawn(2), made_ref.spawn(3),
                caller_ref.spawn(2), mt_ref.spawn(2), made_ref.spawn(1)]
        for children, refs in zip(got, want, strict=True):
            for a, b in zip(children, refs, strict=True):
                assert type(a.bit_generator) is type(b.bit_generator)
                assert_same_state(a, b)
                assert np.array_equal(a.random(3), b.random(3))
        assert type(got[3][0].bit_generator) is np.random.MT19937
        assert made.bit_generator.seed_seq.n_children_spawned == 4
        assert caller.bit_generator.seed_seq.n_children_spawned == 2
        assert made.bit_generator.state == made_ref.bit_generator.state

    def test_empty_batch(self):
        assert spawn_generators([], []) == []
        assert spawn_generators([3], [0]) == [[]]

    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy 2 loads numpy.random on first use; importing the CLI must
        # not use it (the kept class is registered on first spawn)
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "import dampen.cli; "
                "print(before, 'numpy.random' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout.split()
        assert out[1] == out[0]


class TestTopKRounds:
    def test_mt19937_generator_spawns_itself(self):
        g = example_graph()
        for mechanism in ("em", "pf", "ld", "sld"):
            selector = graphs.TopKSelector(g, 3, mechanism)
            for seed in range(3):
                a = np.random.Generator(np.random.MT19937(seed))
                b = np.random.Generator(np.random.MT19937(seed))
                assert selector.draw(a, 2.0).chosen == topk_rounds_oracle(
                    g, 2.0, 3, mechanism, b)
                assert_same_state(a, b)
                assert (a.bit_generator.seed_seq.n_children_spawned
                        == b.bit_generator.seed_seq.n_children_spawned == 3)

    def test_callers_generator_ends_as_with_the_oracle(self):
        g = example_graph()
        selector = graphs.TopKSelector(g, 2, "sld")
        a, b = np.random.default_rng([4, 4]), np.random.default_rng([4, 4])
        for eps in (0.5, 4.0):
            assert selector.draw(a, eps).chosen == topk_rounds_oracle(
                g, eps, 2, "sld", b)
        assert a.bit_generator.state == b.bit_generator.state
        assert a.bit_generator.seed_seq.n_children_spawned == 4

    def test_rounds_takes_k_generators(self):
        selector = graphs.TopKSelector(example_graph(), 2, "em")
        with pytest.raises(core.InvalidInputError, match="takes 2 generators"):
            selector.rounds(spawn_generators([1], [3])[0], 1.0)

    @pytest.mark.parametrize("mechanism", ["em", "sld"])
    def test_cell_equals_per_run_draws_across_chunks(self, monkeypatch,
                                                     mechanism):
        # batches of 3 runs (k = 2) and passes of 7 children: runs and
        # passes straddle each other; every run draws what
        # draw(default_rng(cell_seed(...))) draws
        monkeypatch.setattr(core, "SPAWN_CHUNK", 7)
        monkeypatch.setattr(harness, "SPAWN_CHUNK", 7)
        g, k, runs = example_graph(), 2, 8
        picked = []
        accuracy = graphs.topk_accuracy
        monkeypatch.setattr(graphs, "topk_accuracy", lambda result, *a: (
            picked.append(result.chosen), accuracy(result, *a))[1])
        spec = harness.ExperimentSpec("topk", "g", (1.0, 6.0), (mechanism,),
                                      base_seed=3,
                                      params={"k": k, "runs": runs})
        rows = harness.run_experiment(spec, g)
        monkeypatch.undo()
        selector = graphs.TopKSelector(g, k, mechanism)
        for eps_ix, (eps, row) in enumerate(zip((1.0, 6.0), rows)):
            results = [selector.draw(np.random.default_rng(harness.cell_seed(
                3, "topk", mechanism, eps_ix, run)), eps)
                for run in range(runs)]
            assert picked[eps_ix * runs:(eps_ix + 1) * runs] == [
                r.chosen for r in results]
            scores = np.array([graphs.topk_accuracy(r, g, k) for r in results])
            assert row.value == float(scores.mean())
            assert row.dispersion == float(scores.std(ddof=1) / math.sqrt(runs))


class TestTreeSpawns:
    def test_mt19937_generator_spawns_itself(self):
        rng = np.random.default_rng(30)
        for trial in range(8):
            table = random_induction_table(rng, max_rows=40)
            attrs = table.schema.attribute_names()
            for variant in trees.VARIANTS:
                a = np.random.Generator(np.random.MT19937(trial))
                b = np.random.Generator(np.random.MT19937(trial))
                got = trees.build_diffp_id3(table, attrs, 3, 4.0, variant, a)
                want = diffp_id3_oracle(table, attrs, 3, 4.0, variant, b)
                assert got[0] == want[0]
                assert_same_state(a, b)
                assert (a.bit_generator.seed_seq.n_children_spawned
                        == b.bit_generator.seed_seq.n_children_spawned)

    def test_callers_generator_ends_as_with_the_oracle(self):
        rng = np.random.default_rng(31)
        split = 0
        for trial in range(10):
            table = random_induction_table(rng, max_rows=50)
            attrs = table.schema.attribute_names()
            a = np.random.default_rng([trial, 9])
            b = np.random.default_rng([trial, 9])
            got = trees.build_diffp_id3(table, attrs, 2, 20.0, "local", a)
            want = diffp_id3_oracle(table, attrs, 2, 20.0, "local", b)
            assert got[0] == want[0]
            assert a.bit_generator.state == b.bit_generator.state
            spawned = a.bit_generator.seed_seq.n_children_spawned
            assert spawned == b.bit_generator.seed_seq.n_children_spawned
            split += spawned > 0
        assert split >= 3

    @pytest.mark.parametrize("folds", [2, 3, 7, 10**6, 3 * 10**9])
    def test_fold_generators_are_numpy_spawns(self, folds):
        # fold f draws from child f of default_rng(seed).spawn(folds); a
        # fold past the row count has no rows, so no generator is made
        rng = np.random.default_rng(folds % 97)
        table = random_induction_table(rng, max_rows=9)
        while len(table) < 2:
            table = random_induction_table(rng, max_rows=9)
        split = trees.cv_folds(trees.cv_table(table), 42, folds)
        made = min(folds, len(table))
        want = np.random.default_rng(42).spawn(made)
        assert len(split) == made           # every fold with a row tests one
        for (_, _, got), ref in zip(split, want):
            assert type(got.bit_generator.seed_seq) is KeptSeedSequence
            assert got.bit_generator.state == ref.bit_generator.state

