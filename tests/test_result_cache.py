"""The result cache's append-only segment store
(``repro/experiments/cache.py``): torn and malformed lines, the last
line for an id winning, per-writer segments across instances and forked
children, the retired one-file-per-entry layout, and a property test of
two writers against a dict model of the index rule."""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import CACHE_VERSION, ResultCache, content_key


def payload(i: int) -> dict:
    return {"kind": "sim", "cell": i}


def cost(i: int) -> dict:
    return {"online_cost": float(i)}


def segments(root: Path) -> list[Path]:
    return sorted(root.glob("*.jsonl"))


class TestLines:
    @pytest.mark.parametrize(
        "tail",
        [lambda line: line[: len(line) // 2], lambda line: line.rstrip("\n")],
        ids=["cut-off", "no-newline"],
    )
    def test_torn_and_non_object_lines_are_no_entry(self, tmp_path, tail):
        """A ``[]`` line and a last line without its newline (cut off
        mid-object, or a whole object) hold no entry, and ``get``,
        ``contains`` and ``len()`` agree on both."""
        writer = ResultCache(tmp_path)
        for i in range(3):
            writer.put(payload(i), cost(i))
        (seg,) = segments(tmp_path)
        lines = seg.read_text().splitlines(keepends=True)
        seg.write_text(lines[0] + "[]\n" + tail(lines[2]))
        cache = ResultCache(tmp_path)
        assert len(cache) == 1
        assert [cache.contains(payload(i)) for i in range(3)] == [
            True, False, False
        ]
        assert [cache.get(payload(i)) for i in range(3)] == [cost(0), None, None]
        assert (cache.hits, cache.misses) == (1, 2)

    def test_last_line_for_an_id_wins(self, tmp_path):
        """Within a segment the later line wins; across segments, the
        line of the more recently modified segment."""
        first = ResultCache(tmp_path)
        first.put(payload(0), cost(1))
        first.put(payload(0), cost(2))
        assert first.get(payload(0)) == cost(2)
        assert ResultCache(tmp_path).get(payload(0)) == cost(2)
        assert len(ResultCache(tmp_path)) == 1
        (old,) = segments(tmp_path)
        second = ResultCache(tmp_path)
        second.put(payload(0), cost(3))
        (new,) = set(segments(tmp_path)) - {old}
        os.utime(old, ns=(10**9, 10**9))
        os.utime(new, ns=(2 * 10**9, 2 * 10**9))
        assert ResultCache(tmp_path).get(payload(0)) == cost(3)
        os.utime(old, ns=(3 * 10**9, 3 * 10**9))
        assert ResultCache(tmp_path).get(payload(0)) == cost(2)

    def test_get_returns_a_fresh_dict_as_a_reader_sees_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(payload(0), {"pair": (1, 2)})
        got = cache.get(payload(0))
        assert got == {"pair": [1, 2]} == ResultCache(tmp_path).get(payload(0))
        got["pair"] = None
        assert cache.get(payload(0)) == {"pair": [1, 2]}

    def test_old_layout_is_not_read(self, tmp_path):
        """An entry in the one-file-per-entry layout, ``<xx>/<key>.json``,
        is no entry; a put beside it appends a segment."""
        key = content_key({**payload(0), "cache_version": CACHE_VERSION})
        old = tmp_path / key[:2] / f"{key}.json"
        old.parent.mkdir()
        old.write_text(json.dumps({"key": payload(0), "value": cost(0)}))
        cache = ResultCache(tmp_path)
        assert cache.get(payload(0)) is None
        assert not cache.contains(payload(0)) and len(cache) == 0
        cache.put(payload(0), cost(0))
        assert len(segments(tmp_path)) == 1 and old.exists()


class TestWriters:
    def test_interleaved_instances_see_own_puts_at_once(self, tmp_path):
        """Two instances on one root, interleaving puts: each sees its
        own puts at once, the other's that were on disk at its first
        lookup, and all of them from a fresh instance."""
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        for i in range(4):
            writer = a if i % 2 == 0 else b
            writer.put(payload(i), cost(i))
            assert writer.get(payload(i)) == cost(i)
        # a's first lookup (its first put) came before b wrote; b's
        # came after a's first put
        assert [a.contains(payload(i)) for i in range(4)] == [
            True, False, True, False
        ]
        assert [b.contains(payload(i)) for i in range(4)] == [
            True, True, False, True
        ]
        assert len(segments(tmp_path)) == 2
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 4
        assert [fresh.get(payload(i)) for i in range(4)] == [
            cost(i) for i in range(4)
        ]

    def test_forked_child_puts_to_a_segment_of_its_own(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        cache = ResultCache(tmp_path)
        cache.put(payload(0), cost(0))
        (parent_seg,) = segments(tmp_path)
        before = parent_seg.read_bytes()
        child = multiprocessing.get_context("fork").Process(
            target=cache.put, args=(payload(1), cost(1))
        )
        child.start()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        assert parent_seg.read_bytes() == before
        (child_seg,) = set(segments(tmp_path)) - {parent_seg}
        assert [
            json.loads(line)["key"] for line in child_seg.read_text().splitlines()
        ] == [payload(1)]
        # the parent keeps appending to its own segment
        cache.put(payload(2), cost(2))
        assert len(parent_seg.read_text().splitlines()) == 2
        assert len(segments(tmp_path)) == 2
        assert len(ResultCache(tmp_path)) == 3


# a writer's operation: (instance, op, cell); "new" replaces the
# instance with a fresh one, as a new run on the same root would
OPS = st.lists(
    st.tuples(
        st.sampled_from("ab"),
        st.sampled_from(("put", "get", "contains", "len", "new")),
        st.integers(0, 5),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(OPS)
def test_two_writers_match_a_dict_model(ops):
    """Put/get sequences across two instances on one root against a
    model of the index rule: an instance sees the cells on disk at its
    first lookup (``put`` included) plus its own puts, and a fresh
    instance sees every put.  As in the runner, a cell's value depends
    on its key alone."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        caches = {w: ResultCache(root) for w in "ab"}
        views: dict[str, set | None] = dict.fromkeys("ab")
        on_disk: set[int] = set()
        for w, op, i in ops:
            if op == "new":
                caches[w], views[w] = ResultCache(root), None
                continue
            if views[w] is None:
                views[w] = set(on_disk)
            cache, view = caches[w], views[w]
            if op == "put":
                cache.put(payload(i), cost(i))
                view.add(i)
                on_disk.add(i)
            elif op == "get":
                assert cache.get(payload(i)) == (cost(i) if i in view else None)
            elif op == "contains":
                assert cache.contains(payload(i)) == (i in view)
            else:
                assert len(cache) == len(view)
        fresh = ResultCache(root)
        assert len(fresh) == len(on_disk)
        for i in range(6):
            assert fresh.get(payload(i)) == (cost(i) if i in on_disk else None)
