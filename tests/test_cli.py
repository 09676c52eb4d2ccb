import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gbsr
from gbsr import cli
from gbsr.cli import main
from gbsr.explorer import ExploreBounds
from gbsr.graph import parse, parse_end
from gbsr.moves import expand, initial_state

LOOP23 = "vertex v\nedge c v 2 3 v\n"
LOOP16 = "vertex v\nedge c v 1 6 v\n"
BS14 = "vertex v\nedge c v 1 4 v\n"
BS26 = "vertex v\nedge c v 2 6 v\n"
NOTRED = "vertex a\nvertex b\nedge e a 3 1 b\nedge c b 5 7 b\n"
SLIDE = "vertex v\nvertex u\nvertex w\nedge e v 4 2 u\nedge f v 2 3 w\n"


@pytest.fixture
def gbs(tmp_path):
    def _write(text, name="g.gbs"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_check_rigid_loop(gbs, capsys):
    code, out, err = run(capsys, "check", gbs(LOOP23))
    assert code == 0 and err == ""
    assert out == "reduced not-ascending slide-free rigid\n"


def test_check_ascending_composite(gbs, capsys):
    code, out, _ = run(capsys, "check", gbs(LOOP16))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "reduced ascending not-slide-free not-rigid (s=6 is not 1 or prime)"
    )
    assert lines[1] == "violation: vertex=v endE=c.B endF=c.A condition=composite"


def test_check_ascending_prime(gbs, capsys):
    code, out, _ = run(capsys, "check", gbs("vertex v\nedge c v 1 3 v\n"))
    assert code == 0
    assert out == "reduced ascending not-slide-free rigid\n"


def test_check_violation_lines(gbs, capsys):
    text = "vertex x\nvertex y\nedge c x 2 2 x\nedge h x 2 3 y\n"
    code, out, _ = run(capsys, "check", gbs(text))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "reduced not-ascending not-slide-free not-rigid"
    assert lines[1:] == [
        "violation: vertex=x endE=c.A endF=h.A condition=divides",
        "violation: vertex=x endE=c.B endF=h.A condition=divides",
        "violation: vertex=x endE=h.A endF=c.A condition=divides",
        "violation: vertex=x endE=h.A endF=c.B condition=divides",
    ]


def test_check_json(gbs, capsys):
    code, out, _ = run(capsys, "check", gbs(LOOP23), "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "ascending": False,
        "reduced": True,
        "rigid": True,
        "stronglySlideFree": True,
        "violations": [],
    }


def test_check_json_not_reduced(gbs, capsys):
    code, out, _ = run(capsys, "check", gbs(NOTRED), "--json")
    assert code == 0
    data = json.loads(out)
    assert not data["reduced"] and not data["rigid"]
    assert data["violations"] == [
        {"condition": "not-reduced", "endE": "e.B", "endF": "e.B", "vertex": "b"}
    ]


def test_reduce_prints_state(gbs, capsys):
    code, out, _ = run(capsys, "reduce", gbs(NOTRED))
    assert code == 0
    assert out == (
        "vertex a\n"
        "edge c a 15 21 a\n"
        "marking:\n"
        "  t_c = t_c\n"
        "  x_a = x_a\n"
        "  x_b = x_a^3\n"
    )


def test_collapse_json_records_move(gbs, capsys):
    code, out, _ = run(capsys, "collapse", gbs(NOTRED), "e", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"graph", "marking", "moves"}
    assert data["moves"] == ["collapse e"]
    assert "edge c a 15 21 a" in data["graph"]


def test_expand_moves_named_end(gbs, capsys):
    code, out, _ = run(capsys, "expand", gbs(BS26), "v", "2", "c.B")
    assert code == 0
    assert out == (
        "vertex u0\n"
        "vertex v\n"
        "edge c v 2 3 u0\n"
        "edge d0 v 2 1 u0\n"
        "marking:\n"
        "  t_c = t_d0^-1\n"
        "  x_v = x_v\n"
    )


def test_expand_records_its_ends_sorted_once(gbs, capsys):
    code, out, _ = run(capsys, "expand", gbs(BS26), "v", "2", "c.B", "c.A", "c.B", "--json")
    assert code == 0
    want = expand(initial_state(parse(BS26)), "v", 2, [parse_end("c.B"), parse_end("c.A")])
    assert json.loads(out)["moves"] == [str(m) for m in want.history] == ["expand v 2 c.A c.B"]


def test_slide_updates_labels(gbs, capsys):
    code, out, _ = run(capsys, "slide", gbs(SLIDE), "e.A", "across", "f.A")
    assert code == 0
    assert "edge e w 6 2 u" in out
    assert "edge f v 2 3 w" in out


def test_slide_requires_keyword(gbs, capsys):
    code, out, err = run(capsys, "slide", gbs(SLIDE), "e.A", "over", "f.A")
    assert code == 2 and out == ""
    assert "usage: gbsr slide" in err


def test_induct_twists_marking(gbs, capsys):
    code, out, _ = run(capsys, "induct", gbs(BS14), "2")
    assert code == 0
    assert "x_v = t_c^-1 x_v^2 t_c" in out


def test_induct_rejects_nondivisor(gbs, capsys):
    code, out, err = run(capsys, "induct", gbs(BS14), "3")
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_length(gbs, capsys):
    path = gbs(LOOP23)
    assert run(capsys, "length", path, "t_c") == (0, "1\n", "")
    assert run(capsys, "length", path, "x_v") == (0, "0\n", "")
    assert run(capsys, "length", path, "t_c x_v t_c^-1 x_v") == (0, "2\n", "")


def test_explore_human_output(gbs, capsys):
    code, out, _ = run(capsys, "explore", gbs(LOOP23))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rigid: yes"
    assert lines[1] == "classes: 1"
    code, out, _ = run(capsys, "explore", gbs(BS26))
    assert code == 0
    assert "rigid: no" in out
    assert "classes: 2" in out
    assert "witness: expand v 2 c.B; slide d0.A across c.A" in out


def test_explore_json(gbs, capsys):
    code, out, _ = run(capsys, "explore", gbs(BS26), "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"classes", "rigid", "witness"}
    assert data["rigid"] == "no"
    assert data["witness"] == ["expand v 2 c.B", "slide d0.A across c.A"]
    assert all(
        set(c) == {"count", "fingerprint", "graph", "representativeMoves"}
        for c in data["classes"]
    )


def test_explore_depth_flag_clips(gbs, capsys):
    code, out, _ = run(capsys, "explore", gbs(LOOP23), "--depth", "0")
    assert code == 0
    assert out.splitlines()[0] == "rigid: inconclusive"


def test_explore_refuses_negative_bounds(gbs, capsys):
    # BS(2,6) is not rigid: a negative edge allowance must not answer "yes"
    for flag in ("--max-extra-edges", "--depth"):
        code, out, err = run(capsys, "explore", gbs(BS26), flag, "-5")
        assert code == 1 and out == ""
        assert err.startswith("error: BoundsTooTight:")


def test_export_dot(gbs, capsys):
    code, out, _ = run(capsys, "export-dot", gbs(LOOP23))
    assert code == 0
    assert out == (
        "graph gbs {\n"
        '  "v";\n'
        '  "v" -- "v" [label="c", taillabel="2", headlabel="3"];\n'
        "}\n"
    )


def test_export_dot_json_wraps_the_dot_text(gbs, capsys):
    path = gbs(LOOP23)
    code, out, err = run(capsys, "export-dot", path, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"dot": run(capsys, "export-dot", path)[1]}


def test_expand_at_an_unknown_vertex_or_index_0_exits_1(gbs, capsys):
    code, out, err = run(capsys, "expand", gbs(BS26), "w", "2")
    assert (code, out) == (1, "") and err.startswith("error: UnknownVertex:")
    code, out, err = run(capsys, "expand", gbs(BS26), "v", "0", "c.B")
    assert (code, out) == (1, "") and err.startswith("error: NotDivisible:")


def test_domain_errors_exit_1(gbs, capsys):
    code, out, err = run(capsys, "check", gbs("vertex v\nedge c v 0 3 v\n"))
    assert code == 1 and out == ""
    assert err.startswith("error: NonPositiveLabel:")
    code, _, err = run(capsys, "check", gbs("vertex v\nedge c v two 3 v\n"))
    assert code == 1
    assert err.startswith("error: SyntaxError: line 2:")
    code, _, err = run(capsys, "collapse", gbs(LOOP23), "c")
    assert code == 1
    assert err.startswith("error: NotCollapsible:")


def test_missing_file_exits_1(tmp_path, capsys):
    code, out, err = run(capsys, "check", str(tmp_path / "missing.gbs"))
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["check"]) == 2
    capsys.readouterr()


def test_repeated_calls_keep_their_own_flags(gbs, capsys):
    path = gbs(LOOP16)
    code, out, _ = run(capsys, "check", path, "--json")
    assert code == 0 and json.loads(out)["rigid"] is False
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out.splitlines()[0] == (
        "reduced ascending not-slide-free not-rigid (s=6 is not 1 or prime)"
    )


def test_a_usage_error_does_not_spoil_the_next_call(gbs, capsys):
    code, out, err = run(capsys, "expand", gbs(LOOP23), "v", "two")
    assert code == 2 and out == "" and "invalid int value" in err
    assert run(capsys, "length", gbs(LOOP23), "t_c") == (0, "1\n", "")


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_explore_flags_default_to_the_explore_bounds():
    args = cli._build_parser().parse_args(["explore", "g.gbs"])
    flags = (args.max_extra_edges, args.max_label, args.depth, args.radius)
    d = ExploreBounds()
    assert flags == (d.max_extra_edges, d.max_label, d.max_depth, d.radius)


def test_each_subcommand_parses_into_its_named_arguments():
    d = ExploreBounds()
    cases = [
        (["check", "g"], {"file": "g", "json": False}),
        (["reduce", "g", "--json"], {"file": "g", "json": True}),
        (["export-dot", "g"], {"file": "g", "json": False}),
        (["collapse", "g", "e"], {"file": "g", "edge": "e", "json": False}),
        (["expand", "g", "v", "2"], {"file": "g", "vertex": "v", "p": 2, "ends": [], "json": False}),
        (["expand", "g", "v", "3", "e.E", "f.F"],
         {"file": "g", "vertex": "v", "p": 3, "ends": ["e.E", "f.F"], "json": False}),
        (["slide", "g", "a.A", "across", "b.B", "--json"],
         {"file": "g", "moving": "a.A", "keyword": "across", "across": "b.B", "json": True}),
        (["induct", "g", "6"], {"file": "g", "d": 6, "json": False}),
        (["explore", "g.gbs"],
         {"file": "g.gbs", "max_extra_edges": d.max_extra_edges, "max_label": d.max_label,
          "depth": d.max_depth, "radius": d.radius, "json": False}),
        (["explore", "g", "--max-extra-edges", "1", "--max-label", "9", "--depth", "3",
          "--radius", "2", "--json"],
         {"file": "g", "max_extra_edges": 1, "max_label": 9, "depth": 3, "radius": 2, "json": True}),
        (["length", "g", "w"], {"file": "g", "word": "w"}),
    ]
    for argv, want in cases:
        assert vars(cli._build_parser().parse_args(argv)) == {"command": argv[0], **want}, argv


def test_length_of_a_large_power_inside_a_word_is_fast(gbs, capsys):
    path = gbs("vertex v\nedge c v 1 3 v\n")
    t0 = time.perf_counter()
    code = main(["length", path, "x_v t_c^1000000"])
    elapsed = time.perf_counter() - t0
    assert (code, capsys.readouterr().out) == (0, "1000000\n")
    assert elapsed < 0.2


def _shell_gbsr(*argv):
    """Run the CLI in its own process, as a shell user does."""
    env = dict(os.environ, PYTHONPATH=str(Path(gbsr.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "gbsr.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )


def test_unreadable_files_are_named_domain_errors(tmp_path):
    bad = tmp_path / "bad.gbs"
    bad.write_bytes(b"vertex v\xff\n")
    for path in (bad, tmp_path / "missing.gbs", tmp_path):
        done = _shell_gbsr("check", str(path))
        assert done.returncode == 1 and done.stdout == "", path
        assert "Traceback" not in done.stderr, path
        assert done.stderr.startswith("error: UnreadableFile: "), (path, done.stderr)
        assert ("not UTF-8" in done.stderr) == (path == bad)


def test_an_exponent_too_long_for_int_is_a_malformed_word(gbs):
    done = _shell_gbsr("length", gbs(LOOP23), "x_v^" + "9" * 5000)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: MalformedWord: ") and "Traceback" not in done.stderr


def test_a_power_too_long_to_spell_out_is_a_named_error(gbs):
    # t_c^(10^4000 - 1) next to another syllable would be spelled out letter
    # by letter; the letter budget refuses it before anything is allocated
    done = _shell_gbsr("length", gbs("vertex v\nedge c v 1 3 v\n"), "x_v t_c^" + "9" * 4000)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: WordTooLong: ") and "Traceback" not in done.stderr

def test_explore_at_a_radius_past_the_recursion_limit(gbs, capsys):
    # 2,000 sample words on one generator, each up to 1,000 letters long
    t0 = time.perf_counter()
    code, out, err = run(capsys, "explore", gbs("vertex v\n"), "--radius", "1000")
    elapsed = time.perf_counter() - t0
    assert (code, err) == (0, "") and out.splitlines()[0] == "rigid: yes"
    assert elapsed < 5


def test_a_stdout_closed_by_its_reader_ends_without_a_traceback(gbs):
    # about 290 kB of JSON: more than a pipe holds, so the writer is still
    # writing when the reader goes away
    env = dict(os.environ, PYTHONPATH=str(Path(gbsr.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gbsr.cli", "explore", gbs(BS26), "--radius", "8", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == b"{\n"
    assert "Traceback" not in err and err == ""
