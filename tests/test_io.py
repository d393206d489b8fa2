"""File formats: graphs, signals, CSV emission, atomic writes."""
import json

import numpy as np
import pytest

from glct import NumericalError, SignalNd, ValidationError, make_low_stretch_tree, make_ring
from glct.io import (
    atomic_write_text,
    csv_text,
    dumps_json,
    fmt_num,
    read_graph,
    read_signal,
    signal_to_dict,
    write_csv,
    write_graph,
    write_signal,
)


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        g = make_low_stretch_tree(16)
        path = tmp_path / "g.json"
        write_graph(path, g)
        assert read_graph(path) == g

    def test_schema(self, tmp_path):
        path = tmp_path / "ring.json"
        write_graph(path, make_ring(4))
        data = json.loads(path.read_text())
        assert data["n"] == 4
        assert [0, 1, 1.0] in data["edges"]

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            read_graph(path)
        path.write_text('{"n": 3}')
        with pytest.raises(ValidationError):
            read_graph(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            read_graph(tmp_path / "nope.json")

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_weight_raises(self, tmp_path, token):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[0, 1, %s], [1, 2, 1.0]]}' % token)
        with pytest.raises(ValidationError, match="finite"):
            read_graph(path)

    @pytest.mark.parametrize("token", ["0.7", "true"])
    def test_non_integer_vertex_index_raises(self, tmp_path, token):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[%s, 2, 1.0], [1, 2, 1.0]]}' % token)
        with pytest.raises(ValidationError, match="vertex index"):
            read_graph(path)

    @pytest.mark.parametrize("token", ["true", "false", '"2.5"', "null", "[1.0]"])
    def test_non_real_weight_raises(self, tmp_path, token):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[0, 1, %s], [1, 2, 1.0]]}' % token)
        with pytest.raises(ValidationError, match="edge weight must be a real number"):
            read_graph(path)

    def test_weight_too_large_for_a_float_raises(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[0, 1, 1%s], [1, 2, 1.0]]}' % ("0" * 400))
        with pytest.raises(ValidationError, match="malformed"):
            read_graph(path)


class TestSignalFiles:
    def test_csv_real_round_trip(self, tmp_path):
        sig = SignalNd((2, 3), np.arange(6, dtype=float) - 2.5)
        path = tmp_path / "s.csv"
        write_signal(path, sig, fmt="csv")
        back = read_signal(path, shape=(2, 3))
        np.testing.assert_array_equal(back.values, sig.values)
        assert back.shape == (2, 3)

    def test_csv_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        sig = SignalNd((4,), rng.normal(size=4) + 1j * rng.normal(size=4))
        path = tmp_path / "c.csv"
        write_signal(path, sig, fmt="csv")
        np.testing.assert_array_equal(read_signal(path).values, sig.values)

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        sig = SignalNd((3, 2), rng.normal(size=6) + 1j * rng.normal(size=6))
        path = tmp_path / "s.json"
        write_signal(path, sig, fmt="json")
        back = read_signal(path)
        assert back.shape == (3, 2)
        np.testing.assert_array_equal(back.values, sig.values)

    def test_json_shape_mismatch_raises(self, tmp_path):
        path = tmp_path / "s.json"
        write_signal(path, SignalNd((2, 2), np.ones(4)), fmt="json")
        with pytest.raises(ValidationError):
            read_signal(path, shape=(4,))

    def test_csv_wrong_length_raises(self, tmp_path):
        path = tmp_path / "s.csv"
        write_signal(path, SignalNd((3,), np.ones(3)), fmt="csv")
        with pytest.raises(ValidationError):
            read_signal(path, shape=(2, 2))

    def test_malformed_csv_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(ValidationError):
            read_signal(path)

    @pytest.mark.parametrize(
        "name,text",
        [
            ("s.json", '{"shape": [2], "data": [[1.0, 0.0], [NaN, 0.0]]}'),
            ("s.json", '{"shape": [2], "data": [[1.0, -Infinity], [0.0, 0.0]]}'),
            ("s.csv", "1.0\nnan\n"),
            ("s.csv", "1.0\n(1+infj)\n"),
        ],
        ids=["json-nan", "json-inf", "csv-nan", "csv-inf"],
    )
    def test_non_finite_values_raise(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValidationError, match="non-finite"):
            read_signal(path)

    @pytest.mark.parametrize("entry", ["[1%s, 0.0]", "1%s"], ids=["pair", "scalar"])
    def test_json_integer_too_large_for_a_float_raises(self, tmp_path, entry):
        path = tmp_path / "s.json"
        path.write_text('{"shape": [2], "data": [%s, [1.0, 0.0]]}' % (entry % ("0" * 400)))
        with pytest.raises(ValidationError, match="malformed"):
            read_signal(path)

    @pytest.mark.parametrize(
        "data",
        [
            [[1.5, -0.0], [2, 3], [-0.0, 5e-324]],
            [[9007199254740993, 0], [True, 1.5]],
            [1.5, [2.0, 3.0]],
            [1.5, "1+2j"],
            [["1.5", 0.0], [1.0, 2.0]],
            [[1.0, 2.0], [3.0]],
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
            [[None, 1.0], [1.0, 2.0]],
            [[1.0, 2.0], {"re": 1}],
            [[[1.0, 2.0]], [[3.0, 4.0]]],
        ],
        ids=["pairs", "ints-bools", "mixed", "scalars", "strings", "ragged", "triples", "null",
             "object", "nested"],
    )
    def test_json_entries_read_as_the_entry_loop_reads_them(self, tmp_path, data):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"shape": [len(data)], "data": data}))
        try:
            expected = _frozen_json_values(data)
        except (TypeError, ValueError):
            with pytest.raises(ValidationError, match="malformed"):
                read_signal(path)
            return
        got = read_signal(path).values
        assert got.tobytes() == expected.tobytes()


def _frozen_json_values(entries):
    """The entry-by-entry conversion signal files were always read with."""
    vals = []
    for entry in entries:
        if isinstance(entry, (list, tuple)):
            re, im = entry
            vals.append(complex(float(re), float(im)))
        else:
            vals.append(complex(entry))
    return np.array(vals, dtype=complex)


def _frozen_signal_to_dict(sig):
    """The per-value serializer signal files were always written with."""
    return {"shape": list(sig.shape), "data": [[float(v.real), float(v.imag)] for v in sig.values]}


def test_signal_json_bytes_match_frozen_serializer(tmp_path):
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e-300, 1 / 3, 2.0]
    rng = np.random.default_rng(2)
    pairs = [[re, im] for re in specials for im in specials] + rng.normal(size=(40, 2)).tolist()
    sig = SignalNd((len(pairs),), np.array(pairs, dtype=float).view(complex).ravel())
    frozen = dumps_json(_frozen_signal_to_dict(sig), compact=True)
    assert "-0.0" in frozen and "5e-324" in frozen
    assert dumps_json(signal_to_dict(sig), compact=True) == frozen
    write_signal(tmp_path / "s.json", sig)
    assert (tmp_path / "s.json").read_text() == frozen


class TestSerialization:
    def test_fmt_num(self):
        assert fmt_num(1.0) == "1"
        assert fmt_num(0.1) == "0.1"
        assert fmt_num(-2.5e-30) == "-2.5e-30"
        assert fmt_num("") == ""
        assert float(fmt_num(1 / 3)) == 1 / 3

    def test_csv_text_layout(self):
        text = csv_text(("a", "b"), [{"a": 1.0, "b": 0.5}], config={"seed": 7})
        lines = text.splitlines()
        assert lines[0] == '# config: {"seed": 7}'
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"

    def test_write_csv_deterministic(self, tmp_path):
        rows = [{"x": 0.1 * k, "y": k} for k in range(5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ("x", "y"), rows, config={"seed": 0})
        write_csv(p2, ("x", "y"), rows, config={"seed": 0})
        assert p1.read_bytes() == p2.read_bytes()

    def test_dumps_json_rejects_non_finite(self):
        assert dumps_json({"x": [1.5, 2]}, compact=True) == '{"x":[1.5,2]}\n'
        for bad in (float("nan"), float("inf")):
            with pytest.raises(NumericalError):
                dumps_json({"x": bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_csv_text_rejects_non_finite(self, bad):
        with pytest.raises(NumericalError):
            csv_text(("a", "b"), [{"a": 1.0, "b": bad}])

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert list(tmp_path.iterdir()) == [path]  # no temp leftovers
