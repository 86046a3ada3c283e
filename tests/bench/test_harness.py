"""Benchmark harness plumbing: presets, table formatting, static tables."""

import numpy as np
import pytest

from repro.bench.presets import PRESETS, get_preset
from repro.bench.tables import (
    TABLE1_REFERENCE,
    format_table,
    measure_engine_latency,
    table1_rows,
    table2_rows,
)
from repro.ckksrns import CkksRnsParams
from repro.utils.timing import LatencyStats


def test_presets_resolve(monkeypatch):
    assert get_preset("tiny").name == "tiny"
    monkeypatch.setenv("REPRO_BENCH_PRESET", "reduced")
    assert get_preset().name == "reduced"
    with pytest.raises(ValueError):
        get_preset("giant")


def test_preset_params_cover_depth():
    for preset in PRESETS.values():
        p = preset.rns_params(depth=9)
        assert p.levels == 9
        mp = preset.mp_params(depth=9)
        assert mp.levels == 9


def test_preset_specials_are_word_size():
    """The presets switch keys over 3 x 31-bit special primes, below the
    2**31 int64 bound; where a security budget leaves less room (the
    paper preset's n = 2**14 on a long chain), 2 x 36 and then 1 x 49."""
    for name in ("tiny", "reduced"):
        for depth in (5, 9, 13):
            assert PRESETS[name].rns_params(depth).special_bits == (31, 31, 31)
    paper = PRESETS["paper"]
    assert paper.rns_params(9).special_bits == (31, 31, 31)  # 164 spare bits
    assert paper.rns_params(12).special_bits == (36, 36)  # 86
    assert paper.rns_params(13).special_bits == 49  # 60


def test_latency_excludes_the_cold_request():
    """The first classify (plan compile, Galois keys) runs untimed."""

    class Engine:
        calls = 0

        def classify(self, images):
            self.calls += 1
            self.latency.add(10.0 if self.calls == 1 else 1.0)

    engine = Engine()
    engine.latency = LatencyStats()
    stats = measure_engine_latency(engine, np.zeros((1, 4)), repeats=2)
    assert engine.calls == 3
    assert stats.samples == [1.0, 1.0]


def test_format_table():
    out = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert "2.50" in out


def test_table1_reference_matches_paper_rows():
    names = {r[1] for r in TABLE1_REFERENCE}
    assert {"CryptoNets", "Lo-La", "nGraph-HE", "E2DM", "HCNN"} <= names
    headers, rows = table1_rows(measured=[("CNN1-HE-RNS", 1.23, 98.0)])
    assert headers[0] == "Year"
    assert rows[-1][1] == "CNN1-HE-RNS"
    assert len(rows) == len(TABLE1_REFERENCE) + 1


def test_table2_reports_paper_setting():
    headers, rows = table2_rows(CkksRnsParams.paper_table2())
    d = {r[0]: r[1] for r in rows}
    assert d["N"] == 2**14
    assert d["log q"] == 366
    assert d["L"] == 12  # 13 primes -> 12 rescale levels in our convention
    assert d["HE-standard OK"] is True
