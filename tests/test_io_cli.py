"""CSV import/export and the interactive shell."""

import io

import pytest

from repro import connect
from repro.cli import Shell
from repro.errors import ReproError
from repro.io import dump_csv, load_csv


class TestCSV:
    def test_load_with_type_inference(self):
        db = connect()
        source = io.StringIO("a,b,name\n1,2.5,x\n2,,y\n")
        inserted = load_csv(db, "t", source)
        assert inserted == 2
        assert db.sql("SELECT a, b, name FROM t ORDER BY a").rows == [
            (1, 2.5, "x"), (2, None, "y")]

    def test_load_into_existing_table(self):
        db = connect()
        db.execute("CREATE TABLE t (a int, name text)")
        load_csv(db, "t", io.StringIO("a,name\n7,z\n"))
        assert db.sql("SELECT * FROM t").rows == [(7, "z")]

    def test_load_without_header(self):
        db = connect()
        load_csv(db, "t", io.StringIO("1,x\n2,y\n"), header=False)
        assert db.sql("SELECT col1 FROM t ORDER BY col1").rows == [
            (1,), (2,)]

    def test_column_mismatch_raises(self):
        db = connect()
        db.execute("CREATE TABLE t (a int)")
        with pytest.raises(ReproError, match="columns"):
            load_csv(db, "t", io.StringIO("a,b\n1,2\n"))

    def test_missing_table_without_create_raises(self):
        db = connect()
        with pytest.raises(ReproError, match="does not exist"):
            load_csv(db, "t", io.StringIO("a\n1\n"), create=False)

    def test_roundtrip_with_nulls(self, figure3_db):
        text = dump_csv(figure3_db.sql(
            "SELECT a, (SELECT c FROM s WHERE c > 99) AS v FROM r"))
        db2 = connect()
        load_csv(db2, "t", io.StringIO(text))
        assert db2.sql("SELECT v FROM t").rows == [
            (None,), (None,), (None,)]

    def test_dump_provenance_result(self, figure3_db):
        text = dump_csv(figure3_db.provenance(
            "SELECT a FROM r WHERE a = 1"))
        assert text.splitlines()[0] == "a,prov_r_a,prov_r_b"
        assert text.splitlines()[1] == "1,1,1"

    def test_file_roundtrip(self, tmp_path, figure3_db):
        path = tmp_path / "out.csv"
        dump_csv(figure3_db.sql("SELECT a FROM r"), path)
        db2 = connect()
        assert load_csv(db2, "t", path) == 3


class TestShell:
    def run(self, shell, *lines):
        out = io.StringIO()
        for line in lines:
            assert shell.run_line(line, out)
        return out.getvalue()

    def test_sql_and_listing(self):
        shell = Shell()
        text = self.run(
            shell,
            "CREATE TABLE t (x int)",
            "INSERT INTO t VALUES (1), (2)",
            "SELECT x FROM t ORDER BY x",
            "\\d")
        assert "ok" in text
        assert "(2 rows)" in text
        assert "table t (2 rows)" in text

    def test_describe(self):
        shell = Shell()
        self.run(shell, "CREATE TABLE t (x int, s text)")
        text = self.run(shell, "\\d t")
        assert "x" in text and "integer" in text

    def test_strategy_applies_to_provenance(self, figure3_db):
        shell = Shell(figure3_db)
        self.run(shell, "\\strategy unn")
        text = self.run(
            shell,
            "SELECT PROVENANCE a FROM r WHERE a = ANY (SELECT c FROM s)")
        assert "prov_s_c" in text

    def test_bad_strategy_reports_error(self, figure3_db):
        shell = Shell(figure3_db)
        self.run(shell, "\\strategy turbo")
        text = self.run(
            shell, "SELECT PROVENANCE a FROM r")
        assert "error:" in text

    def test_timing_toggle(self):
        shell = Shell()
        text = self.run(shell, "\\timing")
        assert "timing: on" in text

    def test_explain(self, figure3_db):
        shell = Shell(figure3_db)
        text = self.run(shell, "\\explain SELECT a FROM r")
        assert "Scan r" in text

    def test_sql_error_reported_not_raised(self):
        shell = Shell()
        text = self.run(shell, "SELECT nope FROM nothing")
        assert "error:" in text

    def test_quit(self):
        shell = Shell()
        out = io.StringIO()
        assert shell.run_line("\\q", out) is False

    def test_unknown_meta(self):
        shell = Shell()
        text = self.run(shell, "\\frobnicate")
        assert "unknown command" in text

    def test_tpch_loader(self):
        shell = Shell()
        text = self.run(shell, "\\tpch 0.00004")
        assert "loaded TPC-H" in text
        text = self.run(shell, "SELECT count(*) AS n FROM region")
        assert "(1 rows)" in text

    def test_script_file(self, tmp_path):
        script = tmp_path / "setup.sql"
        script.write_text("CREATE TABLE t (x int); "
                          "INSERT INTO t VALUES (9);")
        shell = Shell()
        self.run(shell, f"\\i {script}")
        assert "9" in self.run(shell, "SELECT x FROM t")
