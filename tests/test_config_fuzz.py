"""Property test of the config path: any edited config runs or fails cleanly."""

import configparser

from hypothesis import HealthCheck, example, given, settings, strategies as st

from margrid.cli import main
from margrid.experiments import CONFIG_KEYS
from test_cli import SMALL_DISCRETE, SMALL_GP, SMALL_TABLE, SMALL_TOY

CONFIGS = {"toy": SMALL_TOY, "gp": SMALL_GP, "discrete": SMALL_DISCRETE}
COMMANDS = ("estimate", "compare", "rate-study", "design")

# Values steered at the readers' branches: zero, negative and small counts,
# an integer past int64, floats past the float range, non-finite numbers,
# empty values, words (model kinds and scales among them) and lists.  Large
# but valid effort values are left out: `burn_in = 2**62` runs for hours.
TOKENS = ["0", "-1", "1", "2", "3", str(2**63), "1e20", "nan", "inf", "1e400", "",
          "toy", "gp", "discrete", "log", "linear", "word", "1 2", "-1 1", "1,,2"]


# every key a config may hold, so an edit can add a key (and its section)
# that the base config lacks
KEYS = sorted((section, key) for section, keys in CONFIG_KEYS.items() for key in keys)

EDITED_CONFIG = st.tuples(
    st.sampled_from(sorted(CONFIGS)),
    st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(TOKENS)),
             min_size=1, max_size=3),
)

# derandomized, so that a run of the suite is reproducible
FUZZ = settings(max_examples=25, deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(case=EDITED_CONFIG)
# a discrete model without a table once raised TypeError, and an integer
# past int64 an OverflowError from numpy
@example(case=("toy", [(("model", "kind"), "discrete")]))
@example(case=("toy", [(("grids", "sim_counts"), str(2**63))]))
# a negative GP jitter once failed inside the Cholesky factorization
@example(case=("gp", [(("model", "jitter_scale"), "-1")]))
# an out-of-range discrete sim_columns once raised IndexError, and a GP
# dataset of no points or of negative noise variance warned
@example(case=("discrete", [(("grids", "sim_columns"), "9")]))
@example(case=("gp", [(("model", "n_data"), "0")]))
@example(case=("gp", [(("model", "noise_var"), "-1")]))
def test_every_command_runs_or_fails_with_an_error_line(tmp_path, capsys, case):
    name, edits = case
    parser = configparser.ConfigParser()
    parser.read_string(CONFIGS[name])
    for (section, key), value in edits:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    config = tmp_path / "exp.ini"
    with open(config, "w") as fh:
        parser.write(fh)
    (tmp_path / "table.csv").write_text(SMALL_TABLE)
    for command in COMMANDS:
        capsys.readouterr()
        code = main([command, "--config", str(config), "--out", str(tmp_path / command)])
        assert code in (0, 1)
        if code == 1:
            assert capsys.readouterr().err.startswith("error: ")
