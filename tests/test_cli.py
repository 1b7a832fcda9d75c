import argparse
import hashlib
import random
import shlex
import sys
from pathlib import Path

import pytest

from thompsonf import generator, parse_pair, power
from thompsonf import metric as metric_module
from thompsonf.cli import COMMANDS, build_parser, main, main_entry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalFormCommands:
    def test_nf(self, capsys):
        code, out, _ = run(capsys, "nf", "x1 x0")
        assert code == 0
        assert out == "x0 x2\n"

    def test_nf_reads_leading_zeros(self, capsys):
        assert run(capsys, "nf", "x0001 x0^0002") == (0, "x0^2 x3\n", "")

    def test_nf_identity_prints_empty_line(self, capsys):
        code, out, _ = run(capsys, "nf", "x0 x0^-1")
        assert code == 0
        assert out == "\n"

    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "x0^-1 x1", "x0")
        assert code == 0
        assert out == "x2\n"

    def test_inv(self, capsys):
        code, out, _ = run(capsys, "inv", "x0 x2")
        assert code == 0
        assert out == "x2^-1 x0^-1\n"

    def test_pow(self, capsys):
        code, out, _ = run(capsys, "pow", "x0 x1^-1", "--pow", "3")
        assert code == 0
        assert out == "x0^3 x3^-1 x2^-1 x1^-1\n"


class TestMetricCommands:
    def test_metric_with_pow(self, capsys):
        code, out, _ = run(capsys, "metric", "x0 x1^-1", "--pow", "5")
        assert code == 0
        assert out == "N=7 bounds=(5, 24)\n"

    def test_metric_with_radius(self, capsys):
        code, out, _ = run(capsys, "metric", "x0^-1 x1 x0", "--radius", "4")
        assert code == 0
        assert out == "N=4 bounds=(2, 12) exact=3\n"

    def test_metric_exact_unknown(self, capsys):
        code, out, _ = run(capsys, "metric", "x0 x1^-1", "--pow", "9", "--radius", "2")
        assert code == 0
        assert out.endswith("exact=unknown\n")

    def test_metric_radius_makes_no_products(self, capsys, monkeypatch):
        # the exact length is read off the pair, not found by a search
        def forbidden(*args):
            raise AssertionError("metric --radius multiplies nothing in the metric module")
        monkeypatch.setattr(metric_module, "multiply", forbidden)
        assert run(capsys, "metric", "x0^-1 x1 x0", "--radius", "9") == (
            0, "N=4 bounds=(2, 12) exact=3\n", "")

    def test_metric_checks_the_radius_of_the_identity(self, capsys):
        for radius, err in [("-1", "radius must be nonnegative"),
                            ("10", "radius 10 exceeds the oracle cap 9")]:
            assert run(capsys, "metric", "x0 x0^-1", "--radius", radius) == (
                1, "", f"error: {err}\n")
        assert run(capsys, "metric", "x0 x0^-1", "--radius", "0") == (
            0, "N=0 bounds=(0, 0) exact=0\n", "")

    def test_metric_radius_over_cap(self, capsys):
        code, _, err = run(capsys, "metric", "x0", "--radius", "12")
        assert code == 1
        assert "cap" in err

    def test_ball(self, capsys):
        code, out, _ = run(capsys, "ball", "--radius", "2")
        assert code == 0
        assert out == "radius,sphere,ball\n0,1,1\n1,4,5\n2,12,17\n"

    def test_ball_stats_go_to_stderr(self, capsys, searches):
        code, plain, plain_err = run(capsys, "ball", "--radius", "9")
        assert (code, plain_err) == (0, "")
        assert searches == []  # the sphere sizes are counted
        code, out, err = run(capsys, "ball", "--radius", "9", "--stats")
        assert searches == []  # the stats follow from the counted sizes
        assert code == 0
        assert out == plain
        lines = err.splitlines()
        assert len(lines) == 9
        assert lines[0] == "stats level=1 products=4 new=4 duplicates=0"
        assert sum(int(line.split("products=")[1].split()[0]) for line in lines) == 33_228

    def test_ball_radius_over_cap(self, capsys):
        code, _, err = run(capsys, "ball", "--radius", "11")
        assert code == 1
        assert "cap" in err


class TestEmbeddingCommands:
    def test_embed_phi(self, capsys):
        code, out, _ = run(capsys, "embed-phi", "", "2")
        assert code == 0
        assert out == "x0^2 x2^-1 x1^-1\n"

    def test_embed_phi_shifts_word(self, capsys):
        code, out, _ = run(capsys, "embed-phi", "x0", "0")
        assert code == 0
        assert out == "x2\n"

    def test_embed_psi(self, capsys):
        code, out, _ = run(capsys, "embed-psi", "x0", "--addresses", "0,11", "--z", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 and lines[0]

    def test_embed_psi_root_z(self, capsys):
        code, out, _ = run(capsys, "embed-psi", "--addresses", "", "--z", "2")
        assert code == 0
        assert out == "x0^2 x2^-1 x1^-1\n"

    def test_embed_psi_bad_z_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "embed-psi", "x0", "--addresses", "0,11", "--z", "1,,2")
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --z: invalid integer list: '1,,2'\n")

    def test_embed_psi_prefix_violation(self, capsys):
        code, _, err = run(capsys, "embed-psi", "x0", "--addresses", "1,11", "--z", "1")
        assert code == 1
        assert "prefix" in err

    def test_sweep_deterministic(self, capsys, tmp_path):
        path1, path2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--samples", "10", "--seed", "3", "--out", str(path1)]) == 0
        assert main(["sweep", "--samples", "10", "--seed", "3", "--out", str(path2)]) == 0
        assert path1.read_bytes() == path2.read_bytes()
        header = path1.read_text().splitlines()[0]
        assert header == "m,n,addresses,input_norm,caret_count,lower,upper,exact"

    def test_sweep_seed_changes_output(self, capsys, tmp_path):
        path1, path2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--samples", "10", "--seed", "3", "--out", str(path1)])
        main(["sweep", "--samples", "10", "--seed", "4", "--out", str(path2)])
        assert path1.read_bytes() != path2.read_bytes()

    def test_sweep_phi_rejects_addresses_and_n_it_cannot_honour(self, capsys):
        for flags in [("--addresses", "0", "--n", "3"), ("--addresses", "0"),
                      ("--n", "3"), ("--addresses", "")]:
            code, out, err = run(capsys, "sweep", "--embedding", "phi", *flags,
                                 "--samples", "2")
            assert (code, out) == (1, ""), flags
            assert err == "error: the F x Z embedding has address 11 and m = n = 1\n"
        assert run(capsys, "sweep", "--embedding", "phi", "--addresses", "11",
                   "--n", "1", "--samples", "2") == run(capsys, "sweep", "--samples", "2")

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_sweep_psi_rejects_addresses_that_are_not_prefix_free(self, capsys, samples):
        code, out, err = run(capsys, "sweep", "--embedding", "psi", "--addresses", "0,01",
                             "--samples", samples)
        assert (code, out) == (1, "")
        assert err == "error: addresses must be pairwise prefix-free\n"

    @pytest.mark.parametrize("samples", ["0", "2"])
    def test_sweep_rejects_a_bad_radius(self, capsys, samples):
        # also when no image needs it: none is drawn, or each is the identity
        for flags, err in [(("--embedding", "psi", "--radius", "-1"),
                            "radius must be nonnegative"),
                           (("--radius", "99"), "radius 99 exceeds the oracle cap 9")]:
            assert run(capsys, "sweep", *flags, "--samples", samples) == (
                1, "", f"error: {err}\n")

    def test_sweep_rejects_a_negative_sample_count(self, capsys):
        assert run(capsys, "sweep", "--samples", "-3") == (
            1, "", "error: samples must be nonnegative\n")
        assert run(capsys, "sweep", "--samples", "0") == (
            0, "m,n,addresses,input_norm,caret_count,lower,upper,exact\n", "")

    def test_sweep_psi_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--embedding", "psi", "--addresses", "0,10,11",
            "--n", "1", "--samples", "4",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("m,n,")
        assert len(out.splitlines()) == 5


class TestRenderAndVerify:
    def test_render_identity(self, capsys):
        code, out, _ = run(capsys, "render", "x1 x1^-1")
        assert code == 0
        assert out == "L | L\n"

    def test_render_x0(self, capsys):
        code, out, _ = run(capsys, "render", "x0")
        assert code == 0
        assert out == "(L (L L)) | ((L L) L)\n"

    def test_render_dot(self, capsys):
        code, out, _ = run(capsys, "render", "x0", "--format", "dot")
        assert code == 0
        assert "digraph neg {" in out and "digraph pos {" in out

    def test_render_deep_element(self, capsys, default_recursion_limit):
        code, out, _ = run(capsys, "render", "x0^1500")
        assert code == 0
        assert parse_pair(out.rstrip("\n")) == power(generator(0), 1500).pair
        code, out, _ = run(capsys, "render", "x0^1500", "--format", "dot")
        assert code == 0
        assert out.count(" -> ") == 2 * 2 * 1501

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"
        assert "ok   [x0 x1^-1, x0^-1 x1 x0]" in out


class TestErrors:
    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "nf", "x1 y0")
        assert code == 1
        assert "position 3" in err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_caret_cap_is_an_error_that_names_it(self, capsys):
        for argv, what in [(("pow", "x0", "--pow", "500001"), "power 500001 could need 1000002"),
                           (("embed-phi", "x0", "1000001"), "Z height 1000001 could need 1000005"),
                           (("embed-psi", "--z", "1000000,1"), "product embedding could need 1000005")]:
            assert run(capsys, *argv) == (
                1, "", f"error: {what} carets, more than _MAX_CARETS = 1000000\n")

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "nf.txt"
        assert main(["nf", "x1 x0", "--out", str(path)]) == 0
        assert path.read_text() == "x0 x2\n"

    def test_out_flag_keeps_the_file_when_the_command_fails(self, capsys, tmp_path):
        path = tmp_path / "keep.csv"
        path.write_bytes(b"keep me\n")
        for argv in (["sweep", "--samples", "-3"], ["nf", "x1 y0"]):
            assert main([*argv, "--out", str(path)]) == 1
            assert path.read_bytes() == b"keep me\n"

    def test_out_flag_to_an_unwritable_path_is_an_error(self, capsys, tmp_path):
        # tmp_path is a directory, so opening it for writing fails
        code, out, err = run(capsys, "nf", "x1 x0", "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_readme_examples_print_their_comments(capsys):
    # the README's command-line lines whose comment is the exact output, or
    # its suffix after "... "; the other commands' comments describe it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    checked = []
    for line in block.splitlines():
        command, _, comment = line.partition("  # ")
        if command.split()[1:2] not in (["nf"], ["mul"], ["inv"], ["pow"], ["metric"]):
            continue
        out = run(capsys, *shlex.split(command)[1:])[1]
        if comment.startswith("... "):
            assert out.endswith(comment[4:] + "\n"), line
        else:
            assert out == comment + "\n", line
        checked.append(command.split()[1])
    assert checked == ["nf", "mul", "inv", "pow", "metric", "metric"]


def _random_word(seed, letters, max_index=4):
    """A word of ``letters`` letters over x0..x_max_index and inverses."""
    rng = random.Random(seed)
    return " ".join(f"x{rng.randrange(max_index + 1)}{rng.choice(('', '^-1'))}"
                    for _ in range(letters))


def _golden_id(argv):
    return " ".join(a if len(a) <= 40 else f"<{a.count('x')} letters>" for a in argv)


# sha256 of "exit code NUL stdout NUL stderr" per invocation: CLI output is
# meant to stay byte-identical, so any byte that moves fails here
GOLDEN = [
    (("nf", "x1 x0"),
     "b6e8e5ca8f3ad988f8221dd6742a75f51f9b8fcff306f4cccfe06e2120ace795"),
    (("mul", "x0^-1 x1", "x0"),
     "d196860238156f5e5830ae22852cd205a3c2f194a69392bc6b401fc33937d77c"),
    (("inv", "x0 x2"),
     "771e913fc0df3dfbeb50e894ba12c09c622b31d4f48b169a31c67d6037b6abce"),
    (("pow", "x0", "--pow", "500"),
     "d5b45e0063c29029c468973d81b3c110455def5f9b38ea9bdcf6a97f57edd126"),
    (("metric", "x0^-1 x1 x0", "--radius", "4"),
     "602937e6764c814df4ff525b60fa6140cc11b64367d36e849d5122c8afbf94b7"),
    (("metric", "x0", "--radius", "10"),
     "997bd3ed1658cd972deac4de3feb979dcfc7803eca4b2f5bbbc9d1ea5a908a8d"),
    (("metric", "x0", "--radius", "-1"),
     "cb180c461aab8d6fc4dfd95c9b0147cc6108c3966e4a5b505a8965c85e9a0ff0"),
    (("ball", "--radius", "9"),
     "3d951bf13488ad2b6d7dcff20791f2c5555012c09427d5cbe3ed40e965af34b8"),
    (("ball", "--radius", "11"),
     "9460ab5d71c5a87dd4d40671ba65870a237caa62e8bd790d4466d7d9b97d2a3b"),
    (("ball", "--radius", "5", "--stats"),
     "eb443c7b9eca0e386683776633706b313f89c7c0a494d90c4267c9daf895ac85"),
    (("ball", "--radius", "9", "--stats"),
     "ac498c30b1a7abaf9ae624e37b18ed00560efaf5661f3da9e554864ae6433c3c"),
    (("embed-phi", "x0 x1^-1", "3"),
     "6e5f7b1b8ba7db162b643aaa46790e4cb5c3272064207092c6ce4a5788a51074"),
    (("embed-psi", "x0", "x1^2", "--addresses", "0,10,11", "--z", "2,-1"),
     "e91bab9170fd08ffaa986bb0a3dd55ca81a9c3b0ec2f174146cfade706949473"),
    (("embed-psi", "x0", "--addresses", "1,11", "--z", "1"),
     "4ef2ba9766c4aa79a8c339a1f09cf6d6b31e4045c1f12d90fd5397c58daed87b"),
    (("sweep", "--samples", "1000"),
     "5d36af478b819fd55e034acd9872a9b3119be3778299d8403551682851a28bbf"),
    (("sweep", "--embedding", "psi", "--addresses", "0,10,11", "--n", "1",
      "--samples", "1000"),
     "5f32ef0a04c897b7a024605c17381bd9d440fa2ccc8127f52a41b4e714a21e66"),
    (("sweep", "--radius", "7", "--samples", "200"),
     "d7cd3d557830d86901e1f71a3d912e47a97d2fec9ba8f97dfc73b1fae366f767"),
    (("sweep", "--radius", "10", "--samples", "5"),
     "997bd3ed1658cd972deac4de3feb979dcfc7803eca4b2f5bbbc9d1ea5a908a8d"),
    (("sweep", "--radius", "-1", "--samples", "5"),
     "cb180c461aab8d6fc4dfd95c9b0147cc6108c3966e4a5b505a8965c85e9a0ff0"),
    (("sweep", "--embedding", "psi", "--addresses", "00,01,1", "--n", "2",
      "--radius", "9", "--samples", "300"),
     "59e1d6e2a18198deb880636949f2e70bee37746afa6ebd13d9f37ae1aa5f3341"),
    # an unsorted family, so the skeleton's order is pinned; and the benchmark's spec
    (("sweep", "--embedding", "psi", "--addresses", "11,0,10", "--n", "1",
      "--samples", "300"),
     "c5daa3cf021c217d99630eb04f647a23fa02fc04b75906e8ac5da5f0f40acfdb"),
    (("sweep", "--embedding", "psi", "--addresses", "0,11", "--n", "1",
      "--samples", "300"),
     "ee6e15c98fd40830baf079c18567fee291878bb551d44bbd74f09ad615f5a869"),
    (("render", "x0 x1^2 x3^-1"),
     "bf2ecc4b33892f41eabfc48808871863bf15d2e74889865b9497e9911dbaee8a"),
    (("render", "x0 x1^2 x3^-1", "--format", "dot"),
     "31e997542b97d8d05b4b35d4531213e69c8304c0eedb5d7c5bd6e66251665813"),
    (("verify",),
     "a7d153f241a50d0797f6c6a883c0bd22ccda3ccbd0d1273cc30436e3bf5716d5"),
    (("nf", "x1 y0"),
     "9abd92e1fb410336786118df24fe56e4e3aa5eeb4a805f9f3fadf61988e59140"),
    (("frobnicate",),
     "dfa9b0b73929df02b68318b571ae5d521713649c74fed927de55d7fa576d2b16"),
    # usage errors raised by the parser of the one command named
    (("nf", "x0", "--bogus"),
     "e84b2b06aabe1eefed70d8e6509ab030ed08c9f96d9c4b7b466dea2ed4cabeea"),
    (("pow", "x0", "--pow", "z"),
     "53288fdbe3e1d0a320a860ebb85ea9f5ecb08b800a609be9110115d15bd4fbc3"),
    (("mul", "x0"),
     "2d2be01e92f220d6cacfa91a48ca07e476beb86ebcb320445d07d12cdcdf8501"),
    # long words, so the word route is pinned byte for byte too
    (("nf", _random_word(1, 2000)),
     "1f4c9d4937a0b8b7e3324d9a7ee59928f05905673fc046233146c6fe6693b1d6"),
    (("render", _random_word(2, 300)),
     "ce21ddc3a70451aa2dcd55c578ea713230f186e54cc9883343307ba05413b463"),
    (("mul", _random_word(3, 500), _random_word(4, 500)),
     "2398be5d8d107d799c08abc530bed0fc78e1a62f0040ad24f1ec2b0d0dc79c22"),
]


# The bytes of these are argparse's own text. Python 3.13 changed how argparse
# wraps a usage line and quotes choices, so they are pinned on 3.10 to 3.12,
# where the digests were checked; on later versions the output must be what
# the parser of every command writes itself.
ARGPARSE_TEXT = {("frobnicate",), ("nf", "x0", "--bogus"), ("pow", "x0", "--pow", "z"),
                 ("mul", "x0")}


def parse(capsys, parser, argv):
    """(exit code, stdout, stderr, namespace) of ``parser.parse_args(argv)``."""
    try:
        code, namespace = None, parser.parse_args(argv)
    except SystemExit as exc:
        code, namespace = exc.code, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[_golden_id(a) for a, _ in GOLDEN])
def test_cli_bytes_unchanged(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this
    code, out, err = run(capsys, *argv)
    if argv in ARGPARSE_TEXT and sys.version_info >= (3, 13):
        assert (code, out, err) == parse(capsys, build_parser(), list(argv))[:3]
        assert (code, out) == (2, "")
        return
    got = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
    assert got == digest, (code, out[:200], err[:200])


# per command: the arguments of a valid call, then argument lists that pass
# a bad int or choice, or abbreviate a long option
CALLS = {
    "nf": (["x1 x0"], []),
    "mul": (["x0", "x1"], []),
    "inv": (["x0"], []),
    "pow": (["x0", "--pow", "3"], [["x0", "--pow", "z"], ["x0", "--po", "2"]]),
    "metric": (["x0", "--radius", "2"], [["x0", "--pow", "z"], ["x0", "--rad", "2"]]),
    "ball": (["--radius", "2"], [["--radius", "z"], ["--st"]]),
    "embed-phi": (["x0", "2"], [["x0", "z"]]),
    "embed-psi": (["x0", "--addresses", "0,11", "--z", "1"],
                  [["--addr", "0,11"], ["x0", "--z", "1,,2"]]),
    "sweep": (["--samples", "2"], [["--samples", "z"], ["--embedding", "chi"],
                                   ["--emb", "psi", "--sa", "1"]]),
    "render": (["x0", "--format", "dot"], [["x0", "--format", "svg"], ["x0", "--form", "dot"]]),
    "verify": ([], []),
}


@pytest.mark.parametrize("columns", ["80", "50"])
@pytest.mark.parametrize("name", [name for name, *_ in COMMANDS])
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch, columns, name):
    monkeypatch.setenv("COLUMNS", columns)
    valid, misuses = CALLS[name]
    battery = [["-h"], [], [*valid, "--bogus"], [*valid, "extra"], [*valid, "--ou", "f"],
               valid, *misuses]
    for args in battery:
        full = parse(capsys, build_parser(), [name, *args])
        assert parse(capsys, build_parser(name), [name, *args]) == full, args
        assert args is not valid or full[3] is not None


@pytest.mark.parametrize("argv,built", [(["nf", "x0"], 2), (["--help"], 1 + len(COMMANDS))])
def test_main_builds_only_the_named_commands_parser(capsys, monkeypatch, argv, built):
    inits = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        inits.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert len(inits) == built
    monkeypatch.setattr(sys, "argv", ["thompsonf", *argv])  # as the entry point runs
    assert main() == 0
    assert len(inits) == 2 * built


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["thompsonf", "nf", "x1 x0"])
    assert main() == 0
    assert capsys.readouterr().out == "x0 x2\n"
    monkeypatch.setattr(sys, "argv", ["thompsonf", "--help"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("usage: thompsonf [-h]")
    monkeypatch.setattr(sys, "argv", ["thompsonf", "nf", "x1 x0"])
    with pytest.raises(SystemExit) as done:  # the installed script's entry point
        main_entry()
    assert done.value.code == 0
    assert capsys.readouterr().out == "x0 x2\n"
