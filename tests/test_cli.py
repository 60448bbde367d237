import errno
import json
import os
import time

import pytest

import simplexcolor.model as model_module
from simplexcolor import cli
from simplexcolor.cli import main
from simplexcolor.errors import InvariantError
from simplexcolor.generators import MAX_ENTRIES, GeneratorSpec, generate
from simplexcolor.model import load, save
from simplexcolor.render import RenderOptions, render_svg


def run(*argv):
    return main(list(argv))


@pytest.fixture
def fan_file(tmp_path):
    path = str(tmp_path / "fan.json")
    assert run("generate", "--kind", "fan", "--dim", "2", "--size", "3", "-o", path) == 0
    return path


class TestGenerate:
    def test_fan(self, fan_file):
        c = load(fan_file)
        assert c.dimension == 2
        assert len(c.simplices) == 3

    def test_freudenthal_4d_cells(self, tmp_path):
        path = str(tmp_path / "f4.json")
        assert run("generate", "--kind", "freudenthal", "--dim", "4",
                   "--cells", "2", "-o", path) == 0
        assert len(load(path).simplices) == 384  # 2^4 * 4!

    def test_high_dimensional_fan(self, tmp_path):
        path = str(tmp_path / "f7.json")
        assert run("generate", "--kind", "fan", "--dim", "7", "--size", "3",
                   "-o", path) == 0
        assert load(path).dimension == 7

    def test_bad_kind_dimension_pair(self, tmp_path):
        path = str(tmp_path / "x.json")
        assert run("generate", "--kind", "tri-tiling", "--dim", "3",
                   "--size", "2", "-o", path) == 2


    def test_size_cap_exit_2_at_once(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        t0 = time.perf_counter()
        assert run("generate", "--kind", "fan", "--dim", "2", "--size", "100000000",
                   "-o", str(path)) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "fan" in err and "100000000" in err and "1000000" in err
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["fan", "path", "boundary-abstract"])
    def test_dimension_cap_exit_2_at_once(self, tmp_path, capsys, kind):
        # Few simplices, but about 10^8 coordinates or ids in dimension 10^4.
        path = tmp_path / "huge.json"
        t0 = time.perf_counter()
        assert run("generate", "--kind", kind, "--dim", "10000", "--size", "3",
                   "-o", str(path)) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert kind in err and "dimension 10000 " in err and str(MAX_ENTRIES) in err
        assert not path.exists()

    @pytest.mark.parametrize("sizes", [("--size", "5", "--cells", "3"),
                                       ("--cells", "2", "--points", "40")])
    def test_size_spellings_conflict_exit_2(self, tmp_path, sizes):
        path = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            run("generate", "--kind", "freudenthal", "--dim", "2", *sizes, "-o", str(path))
        assert exc.value.code == 2
        assert not path.exists()

    def test_points_alone_sets_size(self, tmp_path):
        path = str(tmp_path / "d.json")
        assert run("generate", "--kind", "delaunay2d", "--dim", "2", "--points", "40",
                   "-o", path) == 0
        assert len(load(path).vertices) == 40


class TestColorVerify:
    def test_fan_three_colors(self, fan_file, tmp_path, capsys):
        col_path = str(tmp_path / "fan.colors.json")
        assert run("color", fan_file, "-o", col_path) == 0
        out = capsys.readouterr().out
        assert "3 colors" in out
        data = json.loads(open(col_path).read())
        assert sorted(set(data["colors"])) == [0, 1, 2]
        cert = json.loads(open(col_path + ".cert.json").read())
        assert cert["method"] == "combinatorial"
        assert len(cert["steps"]) == 3

    def test_geometric_method(self, fan_file, tmp_path):
        col_path = str(tmp_path / "fan.colors.json")
        assert run("color", fan_file, "--method", "geometric", "-o", col_path) == 0
        assert run("verify", fan_file, col_path) == 0

    def test_path_two_colors(self, tmp_path, capsys):
        path = str(tmp_path / "p.json")
        run("generate", "--kind", "path", "--dim", "2", "--size", "5", "-o", path)
        col_path = str(tmp_path / "p.colors.json")
        assert run("color", path, "-o", col_path) == 0
        assert "2 colors" in capsys.readouterr().out

    def test_boundary_abstract_exit_3(self, tmp_path, capsys):
        # The stall message names the input file under both peel methods.
        path = str(tmp_path / "b.json")
        run("generate", "--kind", "boundary-abstract", "--dim", "2", "-o", path)
        capsys.readouterr()
        col_path = tmp_path / "b.colors.json"
        for method in ("combinatorial", "geometric"):
            assert run("color", path, "--method", method, "-o", str(col_path)) == 3, method
            assert capsys.readouterr().err == (
                f"error: {path}: no simplex with an exposed facet in residual complex of 4 simplices\n"
            ), method
            assert not col_path.exists(), method

    def test_verify_bad_coloring_exit_4(self, fan_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"colors": [0, 0, 0]}')
        assert run("verify", fan_file, str(bad)) == 4
        # The fan's simplices are (0, 1, 2), (0, 2, 3) and (0, 1, 3).
        assert capsys.readouterr().err == (
            "conflict: simplices 0 and 1 share facet (0, 2) and color 0\n"
            "conflict: simplices 0 and 2 share facet (0, 1) and color 0\n"
            "conflict: simplices 1 and 2 share facet (0, 3) and color 0\n"
        )

    @pytest.mark.parametrize("method", ["combinatorial", "geometric"])
    def test_overglued_facet_exit_2_under_both_methods(self, tmp_path, capsys, method):
        # Three triangles on the edge (0, 1), apexes on both of its sides.
        path = tmp_path / "overglued.json"
        path.write_text('{"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1], [0, -1]], '
                        '"simplices": [[0, 1, 2], [0, 1, 3], [0, 1, 4]]}')
        out = tmp_path / "o.json"
        assert run("color", str(path), "--method", method, "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid complex: facet (0, 1) shared by 3 simplices\n")
        assert not out.exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert run("color", str(tmp_path / "void.json"), "-o", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("content", [
        b'{"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "simplices": [[0, 1.7, 2]]}',
        b'{"dimension": true, "vertices": [[0], [1]], "simplices": [[0, 1]]}',
        b'{"dimension": 1, "vertices": [[0], [true]], "simplices": [[0, 1]]}',
    ])
    def test_hostile_complex_exit_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run("color", str(bad), "-o", str(tmp_path / "o.json")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_input_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert run("color", str(bad), "-o", str(tmp_path / "o.json")) == 2
        assert f"{bad}: not UTF-8" in capsys.readouterr().err

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000 + "]" * 100000)
        assert run("color", str(bad), "-o", str(tmp_path / "o.json")) == 2
        assert f"{bad}: JSON nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content", [
        ("huge.json", '{"dimension": 2, "vertices": [[0, 0], ["1e99999999", 0], [0, 1]], '
                      '"simplices": [[0, 1, 2]]}'),
        ("huge.off", "OFF\n3 1 0\n0 0\n1e-99999999 0\n0 1\n3 0 1 2\n"),
    ])
    def test_huge_decimal_exponent_exit_2_at_once(self, tmp_path, capsys, name, content):
        # Fraction('1e99999999') alone would build 10**99999999 exactly.
        bad = tmp_path / name
        bad.write_text(content)
        t0 = time.perf_counter()
        assert run("color", str(bad), "-o", str(tmp_path / "o.json")) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:") and "decimal exponent" in err

    @pytest.mark.parametrize("name, content", [
        ("exponent.json", '{"dimension": 2, "vertices": [[0, 0], ["1e%s", 0], [0, 1]], '
                          '"simplices": [[0, 1, 2]]}' % ("9" * 100000)),
        ("word.json", '{"dimension": 2, "vertices": [[0, 0], ["%s", 0], [0, 1]], '
                      '"simplices": [[0, 1, 2]]}' % ("x" * 100000)),
        ("coordinate.off", "OFF\n3 1 0\n0 0\n%s 0\n0 1\n3 0 1 2\n" % ("1/" * 50000)),
        ("id.json", json.dumps({"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
                                "simplices": [[0, 1, "x" * 100000]]})),
        ("row.json", json.dumps({"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
                                 "simplices": [list(range(30000, 0, -1))]})),
    ], ids=["json-exponent", "json-non-numeric", "off-coordinate", "simplex-id", "simplex-row"])
    def test_long_bad_token_is_not_echoed(self, tmp_path, capsys, name, content):
        bad = tmp_path / name
        bad.write_text(content)
        assert run("color", str(bad), "-o", str(tmp_path / "o.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:") and len(err.encode()) < 1000, err[:2000]
        assert err.count(str(bad)) == 1

    def test_oversized_json_integer_exit_2(self, tmp_path, capsys):
        # Past the interpreter's digit limit json.loads raises a plain ValueError.
        bad = tmp_path / "big.json"
        bad.write_text('{"dimension": 2, "vertices": [[0, 0], [1%s, 0], [0, 1]], '
                       '"simplices": [[0, 1, 2]]}' % ("0" * 5000))
        assert run("color", str(bad), "-o", str(tmp_path / "o.json")) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON")

    @pytest.mark.parametrize("colors", ["[1.9, 0, 2]", "[true, 0, 2]", '"ab"', "[0, 1, 2.0]"])
    def test_hostile_coloring_exit_2(self, fan_file, tmp_path, colors):
        bad = tmp_path / "bad.colors.json"
        bad.write_text('{"colors": %s}' % colors)
        assert run("verify", fan_file, str(bad)) == 2

    def test_coloring_type_error_names_file(self, fan_file, tmp_path, capsys):
        bad = tmp_path / "bad.colors.json"
        bad.write_text('{"colors": "ab"}')
        assert run("verify", fan_file, str(bad)) == 2
        assert capsys.readouterr().err == f"error: {bad}: 'colors' must be a list of integers\n"

    def test_verify_color_out_of_range_exit_4(self, fan_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"colors": [0, 1, 7]}')
        assert run("verify", fan_file, str(bad)) == 4
        assert capsys.readouterr().err == "color out of range: simplex 2 has color 7\n"

    @pytest.mark.parametrize("command, colors", [
        ("verify", [0, 1]),
        ("render", [0, 1]),
        ("render", [-1, 0, 1]),
    ])
    def test_coloring_content_error_names_file_once(self, fan_file, tmp_path, capsys,
                                                    command, colors):
        bad = tmp_path / "bad.colors.json"
        bad.write_text(json.dumps({"colors": colors}))
        svg = tmp_path / "x.svg"
        if command == "verify":
            assert run("verify", fan_file, str(bad)) == 2
        else:
            assert run("render", fan_file, "--coloring", str(bad), "-o", str(svg)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count(str(bad)) == 1
        assert not svg.exists()

    def test_empty_complex_not_blamed_on_coloring(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"dimension": 2, "vertices": [], "simplices": []}')
        col = tmp_path / "c.json"
        col.write_text('{"colors": [0, 1]}')
        assert run("render", str(empty), "--coloring", str(col), "-o", str(tmp_path / "x.svg")) == 2
        assert capsys.readouterr().err == (
            f"error: {empty}: nothing to render: complex has no simplices\n")

    def test_missing_vertex_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]], '
                       '"simplices": [[0, 1, 5]]}')
        assert run("color", str(bad), "-o", str(tmp_path / "o.json")) == 2
        assert capsys.readouterr().err == f"error: {bad}: simplex 0 references a missing vertex\n"

    @pytest.mark.parametrize("name, content", [
        ("bad.json", '{"dimension": 2,,}'),
        ("bad.off", "OFF\n3 1 0\n0 0\n1 0\n0 1\n4 0 1 2 3\n"),
        ("bad.off", "OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 7\n"),
    ])
    def test_input_error_names_file_once(self, tmp_path, capsys, name, content):
        bad = tmp_path / name
        bad.write_text(content)
        assert run("color", str(bad), "-o", str(tmp_path / "o.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:") and err.count(str(bad)) == 1

    @pytest.mark.parametrize("content, message", [
        ("OFF\n-1 1 0\n0 0\n1 0\n0 1\n3 0 1 2\n", "2: negative vertex or face count"),
        ("OFF\n3 -1 0\n0 0\n1 0\n0 1\n3 0 1 2\n", "2: negative vertex or face count"),
        ("OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1\n", "6: face lists 2 of its 3 vertex ids"),
        ("OFF\n# header only\n", " truncated OFF file"),
        ("OFF\n3 x 0\n0 0\n1 0\n0 1\n3 0 1 2\n", "2: bad counts line"),
        ("OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 2 0\n", "6: face repeats a vertex"),
    ], ids=["vertex-count", "face-count", "short-face", "truncated", "bad-counts", "repeated-vertex"])
    def test_bad_off_counts_exit_2(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.off"
        bad.write_text(content)
        assert run("color", str(bad), "-o", str(tmp_path / "o.json")) == 2
        assert capsys.readouterr().err == f"error: {bad}:{message}\n"

    def test_color_then_verify_generator_outputs(self, tmp_path):
        cases = [
            ("fan", "2", "6"), ("closed-fan", "2", "5"), ("tri-tiling", "2", "3"),
            ("delaunay2d", "2", "25"), ("freudenthal", "3", "2"), ("path", "3", "6"),
        ]
        for kind, dim, size in cases:
            cpath = str(tmp_path / f"{kind}.json")
            col = str(tmp_path / f"{kind}.colors.json")
            assert run("generate", "--kind", kind, "--dim", dim,
                       "--size", size, "-o", cpath) == 0
            assert run("color", cpath, "-o", col) == 0
            assert run("verify", cpath, col) == 0


class TestErrorBoundary:
    """Every error a command raises exits 2 (3 for a stalled peel) with one
    line that names the file it is about; none escapes as a traceback."""

    @pytest.mark.parametrize("argv, named", [
        (["color", "{fan}", "-o", "{fan}/x.json"], "{fan}/x.json: Not a directory"),
        (["color", "{fan}", "-o", "{tmp}/c.json", "--certificate", "{fan}/x.json"],
         "{fan}/x.json: Not a directory"),
        (["render", "{fan}", "-o", "{fan}/x.svg"], "{fan}/x.svg: Not a directory"),
        (["color", "{fan}/x", "-o", "{tmp}/c.json"], "{fan}/x: Not a directory"),
        (["color", "{fan}", "-o", "{tmp}/" + "n" * 300], "{tmp}/" + "n" * 300 + ": File name too long"),
    ], ids=["output", "certificate", "render-output", "input", "name-too-long"])
    def test_os_error_exit_2_names_path(self, fan_file, tmp_path, capsys, argv, named):
        fill = {"fan": fan_file, "tmp": str(tmp_path)}
        before = sorted(tmp_path.iterdir())
        assert run(*(a.format(**fill) for a in argv)) == 2
        assert capsys.readouterr().err == f"error: {named.format(**fill)}\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv, named", [
        (["color", "{fan}", "-o", "{tmp}/same.json", "--certificate", "{tmp}/same.json"],
         "{tmp}/same.json: the coloring and the certificate must be different files"),
        (["color", "{fan}", "-o", "{fan}"], "{fan}: the input and the coloring must be different files"),
        (["color", "{fan}", "-o", "{tmp}/c.json", "--certificate", "{tmp}/./fan.json"],
         "{fan}: the input and the certificate must be different files"),
        (["color", "{fan}", "-o", "{tmp}/link.json"],
         "{fan}: the input and the coloring must be different files"),
        (["render", "{fan}", "-o", "{fan}"], "{fan}: the input and the SVG must be different files"),
        (["render", "{fan}", "--coloring", "{colors}", "-o", "{tmp}/sub/../colors.json"],
         "{colors}: the coloring and the SVG must be different files"),
    ], ids=["two-outputs", "coloring-input", "certificate-input", "symlink-input",
            "render-input", "render-coloring"])
    def test_colliding_paths_exit_2_write_nothing(self, fan_file, tmp_path, capsys, argv, named):
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(fan_file)
        colors = tmp_path / "colors.json"
        colors.write_text('{"colors": [0, 1, 2]}')
        fill = {"fan": fan_file, "tmp": str(tmp_path), "colors": str(colors)}
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run(*(a.format(**fill) for a in argv)) == 2
        assert capsys.readouterr().err == f"error: {named.format(**fill)}\n"
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("argv", [
        ["verify", "{bad}", "{colors}"],
        ["analyze", "{bad}"],
        ["chromatic", "{bad}"],
        ["render", "{bad}", "--show-dual", "-o", "{tmp}/x.svg"],
        ["render", "{bad}", "-o", "{tmp}/x.svg"],
    ], ids=["verify", "analyze", "chromatic", "render", "render-no-overlay"])
    def test_overglued_facet_names_input(self, tmp_path, capsys, argv):
        # `color` under both methods: test_overglued_facet_exit_2_under_both_methods.
        bad = tmp_path / "overglued.json"
        bad.write_text('{"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1], [0, -1]], '
                       '"simplices": [[0, 1, 2], [0, 1, 3], [0, 1, 4]]}')
        colors = tmp_path / "colors.json"
        colors.write_text('{"colors": [0, 1, 2]}')
        assert run(*(a.format(bad=bad, tmp=tmp_path, colors=colors) for a in argv)) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: invalid complex: facet (0, 1) shared by 3 simplices\n")
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("argv, target", [
        (["color", "{fan}", "-o", "{tmp}/c.json"], "c.json"),
        (["color", "{fan}", "-o", "{tmp}/c.json", "--certificate", "{tmp}/c.cert"], "c.cert"),
        (["generate", "--kind", "fan", "--dim", "2", "--size", "3", "-o", "{tmp}/g.json"], "g.json"),
        (["generate", "--kind", "fan", "--dim", "2", "--size", "3", "-o", "{tmp}/g.off"], "g.off"),
        (["render", "{fan}", "-o", "{tmp}/f.svg"], "f.svg"),
    ], ids=["coloring", "certificate", "generate", "generate-off", "render"])
    def test_full_disk_names_the_output(self, fan_file, tmp_path, capsys, monkeypatch,
                                        argv, target):
        # A full disk fails at close with an OSError that names no file, as
        # writing to /dev/full does: the message names the output, not the
        # input, and color leaves no new file behind.
        target = str(tmp_path / target)

        class FullDisk:
            def __enter__(self):
                return self

            def write(self, text):
                pass

            def __exit__(self, *exc):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def full_open(path, mode="r", **kwargs):
            if path != target:
                return open(path, mode, **kwargs)
            open(path, mode, **kwargs).close()
            return FullDisk()

        monkeypatch.setattr(model_module, "open", full_open, raising=False)
        fill = {"fan": fan_file, "tmp": str(tmp_path)}
        before = sorted(tmp_path.iterdir())
        assert run(*(a.format(**fill) for a in argv)) == 2
        assert capsys.readouterr().err == f"error: {target}: No space left on device\n"
        if argv[0] == "color":
            assert sorted(tmp_path.iterdir()) == before

    def test_internal_error_exits_2(self, fan_file, tmp_path, capsys, monkeypatch):
        # A broken invariant inside the library is reported as an internal
        # error, not as a fault of the input, and writes nothing.
        def broken_peel(c, method):
            raise InvariantError("peel lost a simplex")

        monkeypatch.setattr(cli, "peel", broken_peel)
        assert run("color", fan_file, "-o", str(tmp_path / "c.json")) == 2
        assert capsys.readouterr().err == "internal error: peel lost a simplex\n"
        assert not (tmp_path / "c.json").exists()


class TestAnalyze:
    def test_fan_report(self, fan_file, capsys):
        assert run("analyze", fan_file) == 0
        out = capsys.readouterr().out
        assert "max dual degree: 2" in out
        assert "K_4: absent" in out
        assert "K_3 cliques: 1" in out
        assert "halfspace ok: True" in out

    def test_fan_json_report(self, fan_file, capsys):
        assert run("analyze", fan_file, "--json") == 0
        info = json.loads(capsys.readouterr().out)
        assert info["max_degree"] == 2
        assert info["forbidden_clique"] is None
        assert info["max_clique_reports"][0]["vertex_count_ok"] is True

    def test_abstract_boundary_has_forbidden_clique(self, tmp_path, capsys):
        path = str(tmp_path / "b.json")
        run("generate", "--kind", "boundary-abstract", "--dim", "2", "-o", path)
        capsys.readouterr()
        assert run("analyze", path, "--json") == 0
        info = json.loads(capsys.readouterr().out)
        assert info["forbidden_clique"] == [0, 1, 2, 3]

    def test_freudenthal_2d_no_k4(self, tmp_path, capsys):
        path = str(tmp_path / "f.json")
        run("generate", "--kind", "freudenthal", "--dim", "2", "--size", "3", "-o", path)
        capsys.readouterr()
        assert run("analyze", path, "--json") == 0
        info = json.loads(capsys.readouterr().out)
        assert info["forbidden_clique"] is None


class TestChromatic:
    def test_fan(self, fan_file, capsys):
        assert run("chromatic", fan_file) == 0
        assert "3" in capsys.readouterr().out

    def test_long_odd_closed_fan(self, tmp_path, capsys):
        path = str(tmp_path / "fan1501.json")
        run("generate", "--kind", "closed-fan", "--dim", "2", "--size", "1501", "-o", path)
        capsys.readouterr()
        assert run("chromatic", path, "--limit", "2000") == 0
        assert capsys.readouterr().out == "exact chromatic number: 3\n"

    def test_limit_refusal(self, tmp_path, capsys):
        path = str(tmp_path / "big.json")
        run("generate", "--kind", "path", "--dim", "2", "--size", "50", "-o", path)
        capsys.readouterr()
        assert run("chromatic", path) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: graph has 50 nodes, above")
        assert run("chromatic", path, "--limit", "50") == 0

    def test_negative_limit_names_the_option(self, fan_file, capsys):
        assert run("chromatic", fan_file, "--limit", "-1") == 2
        assert capsys.readouterr().err == "error: --limit: oracle limit must be non-negative, got -1\n"


class TestRender:
    def test_fan_svg(self, fan_file, tmp_path, capsys):
        col_path = str(tmp_path / "c.json")
        run("color", fan_file, "-o", col_path)
        svg_path = str(tmp_path / "fan.svg")
        assert run("render", fan_file, "--coloring", col_path, "-o", svg_path) == 0
        svg = open(svg_path).read()
        assert svg.count("<polygon") == 3
        fills = {ln.split('fill="')[1].split('"')[0] for ln in svg.splitlines()
                 if "<polygon" in ln}
        assert len(fills) == 3

    def test_show_dual_overlay(self, fan_file, tmp_path):
        svg_path = str(tmp_path / "fan.svg")
        assert run("render", fan_file, "-o", svg_path, "--show-dual") == 0
        svg = open(svg_path).read()
        assert svg.count("<circle") == 3
        assert svg.count("<line") == 3

    def test_3d_input_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "t.json")
        run("generate", "--kind", "freudenthal", "--dim", "3", "--size", "1", "-o", path)
        capsys.readouterr()
        assert run("render", path, "-o", str(tmp_path / "t.svg")) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: rendering supports dimension 2 only, got dimension 3\n")

    def test_byte_determinism(self, tmp_path):
        c = generate(GeneratorSpec("tri-tiling", 2, 3))
        src = str(tmp_path / "t.json")
        save(c, src)
        out1, out2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        assert run("render", src, "-o", out1, "--show-dual") == 0
        assert run("render", src, "-o", out2, "--show-dual") == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_wrong_length_coloring_exit_2(self, fan_file, tmp_path, capsys):
        # The same rule and message as verify's.
        col_path = tmp_path / "short.json"
        col_path.write_text('{"colors": [0, 1]}')
        svg_path = tmp_path / "x.svg"
        assert run("render", fan_file, "--coloring", str(col_path), "-o", str(svg_path)) == 2
        assert capsys.readouterr().err == f"error: {col_path}: coloring has 2 entries for 3 simplices\n"
        assert not svg_path.exists()

    def test_negative_color_exit_2(self, fan_file, tmp_path, capsys):
        col_path = tmp_path / "neg.json"
        col_path.write_text('{"colors": [-1, 0, 1]}')
        svg_path = tmp_path / "x.svg"
        assert run("render", fan_file, "--coloring", str(col_path), "-o", str(svg_path)) == 2
        assert "color index -1" in capsys.readouterr().err
        assert not svg_path.exists()

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    @pytest.mark.parametrize("value", ["0", "-10"])
    def test_non_positive_size_exit_2(self, fan_file, tmp_path, capsys, flag, value):
        svg_path = tmp_path / "x.svg"
        assert run("render", fan_file, flag, value, "-o", str(svg_path)) == 2
        assert f"{flag[2:]} must be positive, got {value}" in capsys.readouterr().err
        assert not svg_path.exists()

    @pytest.mark.parametrize("palette", ['red" onload="alert(1),blue,green', 'a"b,blue,green',
                                         "red,,blue", "red,<b>,blue", "red,&amp,blue"])
    def test_unsafe_palette_exit_2(self, fan_file, tmp_path, capsys, palette):
        col_path = str(tmp_path / "c.json")
        run("color", fan_file, "-o", col_path)
        svg_path = tmp_path / "p.svg"
        assert run("render", fan_file, "--coloring", col_path, "--palette", palette,
                   "-o", str(svg_path)) == 2
        assert "must be non-empty and free of" in capsys.readouterr().err
        assert not svg_path.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--width", "0", "render width must be positive, got 0"),
        ("--height", "-10", "render height must be positive, got -10"),
        ("--palette", 'a"b,blue,green', """palette entry 'a"b' must be non-empty and free of " < > &"""),
        ("--palette", "", """palette entry '' must be non-empty and free of " < > &"""),
    ])
    def test_option_error_names_the_option(self, fan_file, tmp_path, capsys, option, value, message):
        before = sorted(tmp_path.iterdir())
        assert run("render", fan_file, option, value, "-o", str(tmp_path / "x.svg")) == 2
        assert capsys.readouterr().err == f"error: {option}: {message}\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_palette_too_small(self, fan_file, tmp_path):
        col_path = str(tmp_path / "c.json")
        run("color", fan_file, "-o", col_path)
        assert run("render", fan_file, "--coloring", col_path,
                   "--palette", "#111111,#222222", "-o", str(tmp_path / "x.svg")) == 2


def test_render_options_pure_function():
    c = generate(GeneratorSpec("fan", 2, 4))
    a = render_svg(c, None, RenderOptions(show_dual=True))
    b = render_svg(c, None, RenderOptions(show_dual=True))
    assert a == b
