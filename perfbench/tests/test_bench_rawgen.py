"""The raw-export generator round-trips through ``build_dataset``."""

import warnings

import pytest

import rawgen
from icuxai import preprocess


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    raw = rawgen.write_raw_exports(tmp_path_factory.mktemp("raw"), seed=4,
                                   n_kept=7, n_rejected=2)
    p = raw.paths
    log = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = preprocess.build_dataset(p["events"], p["notes"], p["vitals"],
                                      p["labels"], seed=4, log_fn=log.append)
    return raw, ds, log, caught


def test_paper_geometry(built):
    _, ds, _, _ = built
    assert ds.events.shape == (7, preprocess.WINDOW_HOURS, 76)
    assert ds.notes.shape == (7, 1 + preprocess.NOTE_WORDS)
    assert ds.vitals.shape == (7, preprocess.VITALS_STEPS, 21)
    # every stay's text is long enough to fill the note window
    assert (ds.notes != 0).all()


def test_planted_rejections_unmatched_and_unlabeled(built):
    raw, ds, log, caught = built
    assert ds.meta["rejected"] == raw.rejected and len(raw.rejected) == 2
    assert ds.ids == raw.kept
    assert not set(raw.unlabeled) & set(ds.ids)
    unmatched = sorted(s for e in log if e["event"] == "unmatched-stays"
                       for s in e["stays"])
    assert unmatched == raw.unmatched
    assert any("no label" in str(w.message) for w in caught)
    assert set(ds.labels) == {0, 1}


def test_dropped_text_never_reaches_the_vocabulary(built):
    _, ds, _, _ = built
    vocab = ds.meta["vocab"]
    for word in (rawgen.ERROR_MARKER, rawgen.LATE_MARKER,
                 *rawgen.PLACEHOLDER_WORDS, *preprocess.DEFAULT_STOPLIST):
        assert word not in vocab


def test_same_seed_same_bytes(tmp_path):
    a = rawgen.write_raw_exports(tmp_path / "a", seed=9, n_kept=5, n_rejected=1)
    b = rawgen.write_raw_exports(tmp_path / "b", seed=9, n_kept=5, n_rejected=1)
    c = rawgen.write_raw_exports(tmp_path / "c", seed=10, n_kept=5, n_rejected=1)
    for name in rawgen.FILES:
        assert a.paths[name].read_bytes() == b.paths[name].read_bytes()
    assert a.paths["vitals"].read_bytes() != c.paths["vitals"].read_bytes()
