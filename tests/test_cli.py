import hashlib

import pytest

from thompsonf import generator, parse_pair, power
from thompsonf.cli import main


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

    def test_metric_radius_over_cap(self, capsys):
        code, _, err = run(capsys, "metric", "x0", "--radius", "12")
        assert code == 1
        assert "cap" in err

    def test_ball(self, capsys):
        code, out, _ = run(capsys, "ball", "--radius", "2")
        assert code == 0
        assert out == "radius,sphere,ball\n0,1,1\n1,4,5\n2,12,17\n"

    def test_ball_stats_go_to_stderr(self, capsys):
        code, plain, plain_err = run(capsys, "ball", "--radius", "9")
        assert (code, plain_err) == (0, "")
        code, out, err = run(capsys, "ball", "--radius", "9", "--stats")
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

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "nf.txt"
        assert main(["nf", "x1 x0", "--out", str(path)]) == 0
        assert path.read_text() == "x0 x2\n"


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
    (("ball", "--radius", "9"),
     "3d951bf13488ad2b6d7dcff20791f2c5555012c09427d5cbe3ed40e965af34b8"),
    (("ball", "--radius", "11"),
     "9460ab5d71c5a87dd4d40671ba65870a237caa62e8bd790d4466d7d9b97d2a3b"),
    (("ball", "--radius", "5", "--stats"),
     "eb443c7b9eca0e386683776633706b313f89c7c0a494d90c4267c9daf895ac85"),
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
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_bytes_unchanged(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this
    code, out, err = run(capsys, *argv)
    got = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
    assert got == digest, (code, out[:200], err[:200])
