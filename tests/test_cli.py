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
