"""Property tests of the CSV readers: any text is read or rejected cleanly."""

import io

from hypothesis import HealthCheck, example, given, settings, strategies as st

import margrid as mg
from margrid.cli import main

# Cells that steer inputs toward the readers' branches: header names,
# comments, non-finite and unparsable numbers, quotes and stray commas.
_CELL = st.one_of(
    st.sampled_from(["", "x0", "x1", "y", "dim0", "dim1", "psi0", "#", "nan", "inf",
                     "1e400", "1_0", " 2 ", '"3"', '"', "a,b", "\r"]),
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.text(max_size=3),
)
CSV_TEXT = st.one_of(
    st.text(max_size=40),
    st.lists(st.lists(_CELL, max_size=4).map(",".join), max_size=5).map("\n".join),
)

READERS = {
    "grid": (mg.grid_from_csv, (ValueError, mg.GridError)),
    "dataset": (mg.gp_dataset_from_csv, ValueError),
    "table": (mg.discrete_table_from_csv, ValueError),
}

# derandomized, so that a run of the suite is reproducible
FUZZ = settings(max_examples=100, deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def rejects(reader, path_or_buf) -> bool:
    fn, errors = READERS[reader]
    try:
        fn(path_or_buf)
    except errors:
        return True
    return False


@FUZZ
@given(text=CSV_TEXT)
@example(text="1,2\r3")  # a bare carriage return in a text buffer is a csv.Error
def test_readers_return_or_raise_value_errors(text):
    for reader in READERS:
        rejects(reader, io.StringIO(text))


@FUZZ
@given(text=CSV_TEXT, kind=st.sampled_from([("gp", "dataset"), ("discrete", "table")]))
def test_cli_rejects_unreadable_model_csv_with_an_error_line(tmp_path, capsys, text, kind):
    model_kind, key = kind
    data = tmp_path / "input.csv"
    data.write_text(text, encoding="utf-8", newline="")
    if not rejects(key, data):
        return
    config = tmp_path / "model.ini"
    config.write_text(f"[model]\nkind = {model_kind}\n{key} = input.csv\n")
    capsys.readouterr()
    code = main(["estimate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
