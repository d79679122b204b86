"""Every accepted input changes the run: a walk over ``cli._MODE_FLAGS``.

Each option of each subcommand of ``build_parser()`` is, in each mode of
that subcommand, either read or refused. A read option changes an output
file or the manifest when its value changes. A refused option exits 2
before any file is read and leaves ``--out-dir`` uncreated. README's
refusal table is held to the same table.
"""

import argparse
import itertools
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import fairprice as fp
from fairprice import cli

from test_cli import SCENARIO

README = Path(__file__).resolve().parents[1] / "README.md"
# options whose value cannot change what a run computes
NOT_INPUTS = {"--out-dir", "--quiet", "--help", "--version"}
# flag -> the subcommands where its value picks the mode that reads it: a
# pair of values is two modes, so the walk compares the modes' runs
SELECTORS = {"--model": {"fit"}, "--kind": {"sweep"},
             "--scope": {"price", "sweep"}, "--search": {"ope"}}
# flags that pick an audit or ope mode: given in another mode, the run names
# both modes and exits 2 with missing_field, not config_parse
PICKS_ANOTHER_MODE = {("audit", "--records"), ("audit", "--model"),
                      ("audit", "--policy"), ("audit", "--population"),
                      ("ope", "--policy"), ("ope", "--search")}


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _options():
    """Subcommand -> the long names of its options, NOT_INPUTS aside."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {command: {s for a in parser._actions for s in a.option_strings
                      if s.startswith("--") and s not in NOT_INPUTS}
            for command, parser in sub.choices.items()}


def _refused(command, mode):
    """The flags that a run of ``mode`` refuses: those only other modes of
    its subcommand read."""
    modes = cli._MODE_FLAGS.get(command, {})
    return {_flag(d) for flags in modes.values() for d in flags} - {
        _flag(d) for d in modes.get(mode, ())}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("modes")
    (root / "scenario.txt").write_text(SCENARIO)
    (root / "scenario2.txt").write_text(SCENARIO.replace("n = 800", "n = 400"))
    assert cli.main(["simulate", "--scenario", str(root / "scenario.txt"),
                     "--seed", "3", "--out-dir", str(root / "sim"),
                     "--quiet"]) == 0
    lines = (root / "sim" / "records.csv").read_text().splitlines(True)
    (root / "records2.csv").write_text("".join(lines[:401]))
    for name, records in [("model", root / "sim" / "records.csv"),
                          ("model2", root / "records2.csv")]:
        assert cli.main(["fit", "--records", str(records), "--model", "linear",
                         "--out-dir", str(root / name), "--quiet"]) == 0
    population = json.loads((root / "sim" / "population.json").read_text())
    masses = [0.4, 0.6]
    rho = {g: sum(m * row[k] for m, row in zip(masses,
                                                population["membership"]))
           for k, g in enumerate(population["groups"])}
    (root / "population2.json").write_text(json.dumps(
        dict(population, masses=masses, rho=rho)))
    for name, price in [("policy.json", 1.2), ("policy2.json", 1.6)]:
        (root / name).write_text(json.dumps(
            fp.policy_to_dict(fp.ConstantPolicy(price))))
    paths = dict(
        scenario=root / "scenario.txt", scenario2=root / "scenario2.txt",
        records=root / "sim" / "records.csv", records2=root / "records2.csv",
        model=root / "model" / "model.json",
        model2=root / "model2" / "model.json",
        population=root / "sim" / "population.json",
        population2=root / "population2.json",
        policy=root / "policy.json", policy2=root / "policy2.json")
    return SimpleNamespace(root=root, runs={}, count=itertools.count(),
                           **{k: str(v) for k, v in paths.items()})


def _bases(f):
    """(subcommand, mode) -> the flags of a run in that mode; True gives a
    flag with no value. ``simulate`` has one mode, None."""
    price = {"--model": f.model, "--population": f.population}
    share, group = {"--share-lambda": "0.3"}, {"--scope": "group",
                                               "--group": "b"}
    sweep = {**price, "--grid": "0,0.1"}
    return {
        ("simulate", None): {"--scenario": f.scenario, "--seed": "3"},
        ("fit", "linear fits"): {"--records": f.records, "--model": "linear"},
        ("fit", "logistic fits"): {"--records": f.records,
                                   "--model": "logistic"},
        ("price", "parity runs"): price,
        ("price", "share runs"): {**price, **share},
        ("price", "share runs with --scope group"): {**price, **share,
                                                     **group},
        ("sweep", "parity runs"): sweep,
        ("sweep", "share runs"): {**sweep, "--kind": "share"},
        ("sweep", "share runs with --scope group"): {**sweep, "--kind": "share",
                                                     **group},
        ("audit", "records audits"): {"--records": f.records},
        ("audit", "model audits"): {"--model": f.model, "--policy": f.policy,
                                    "--population": f.population},
        ("ope", "--policy"): {"--records": f.records, "--policy": f.policy,
                              "--n-boot": "3"},
        ("ope", "--search"): {"--records": f.records, "--search": True,
                              "--n-boot": "3", "--n-starts": "2"},
    }


def _values(f):
    """Flag -> two values, each of which runs in every mode that reads the
    flag; None leaves the flag out. A refused flag is given the second."""
    return {
        "--scenario": (f.scenario, f.scenario2), "--seed": ("3", "4"),
        "--records": (f.records, f.records2), "--model": (f.model, f.model2),
        "--population": (f.population, f.population2),
        "--policy": (f.policy, f.policy2), "--allow-upward": (None, True),
        "--gamma": ("0.1", "0.2"), "--share-lambda": ("0.3", "0.6"),
        "--mode": ("attribute_based", "attribute_blind"),
        "--scope": ("population", "group"), "--group": ("a", "b"),
        "--grid": ("0,0.1", "0,0.2"), "--kind": ("parity", "share"),
        "--metric": (None, "access"), "--alpha": ("0.05", "0.1"),
        "--search": (None, True), "--bandwidth": ("0.3", "0.5"),
        "--n-boot": ("3", "4"), "--n-starts": ("2", "3"),
    }


def _argv(command, flags):
    return [command] + [t for flag, value in flags.items() if value is not None
                        for t in ([flag] if value is True else [flag, value])]


def _run(f, command, flags, capsys):
    """(exit status, stderr, outputs): every output file's text, with the
    manifest parsed and its ``duration_s`` and ``inputs`` dropped, so that
    a new input file has to change what the run computes. Runs are cached."""
    argv = _argv(command, flags)
    key = tuple(argv)
    if key not in f.runs:
        out = f.root / f"run{next(f.count)}"
        code = cli.main(argv + ["--out-dir", str(out), "--quiet"])
        err = capsys.readouterr().err
        outputs = {}
        if code == 0:
            outputs = {p.name: p.read_text() for p in out.iterdir()}
            manifest = json.loads(outputs.pop("run_manifest.json"))
            del manifest["duration_s"], manifest["inputs"]
            outputs["run_manifest.json"] = manifest
        else:
            assert not out.exists(), argv
        f.runs[key] = code, err, outputs
    return f.runs[key]


def test_bases_cover_every_mode_of_the_table(files):
    bases = _bases(files)
    assert {k for k in bases if k[1] is not None} == {
        (command, mode) for command, modes in cli._MODE_FLAGS.items()
        for mode in modes}
    parser = cli.build_parser()
    for (command, mode), flags in bases.items():
        args = parser.parse_args(_argv(command, flags))
        assert cli._run_mode(args) == mode


@pytest.mark.parametrize("command, mode", [("simulate", None)] + [
    (command, mode) for command, modes in cli._MODE_FLAGS.items()
    for mode in modes])
def test_every_option_is_read_or_refused(files, capsys, command, mode):
    bases, values = _bases(files), _values(files)
    base = bases[command, mode]
    code, err, base_outputs = _run(files, command, base, capsys)
    assert code == 0, err
    refused = _refused(command, mode)
    for flag in sorted(_options()[command]):
        if flag in refused:
            # the inputs are real files: only the refusal stops the run
            code, err, _ = _run(files, command,
                                {**base, flag: values[flag][1]}, capsys)
            expected = ("missing_field" if (command, flag) in PICKS_ANOTHER_MODE
                        else "config_parse")
            assert code == 2 and f"error_code={expected}" in err, (flag, err)
        elif command in SELECTORS.get(flag, ()):
            others = [k for k, flags in bases.items() if k[0] == command
                      and flags.get(flag) != base.get(flag)]
            assert others, flag
            for other in others:
                code, err, outputs = _run(files, command, bases[other], capsys)
                assert code == 0 and outputs != base_outputs, (flag, other)
        else:
            runs = [_run(files, command, {**base, flag: value}, capsys)
                    for value in values[flag]]
            assert [code for code, *_ in runs] == [0, 0], (flag, runs)
            assert runs[0][2] != runs[1][2], flag


def test_a_records_audit_refuses_the_model_inputs(files, capsys):
    # each of the trio picks model mode, so with --records the run names
    # both modes, even when the file does not exist
    for flag in ("--model", "--policy", "--population"):
        out = files.root / "refused" / flag
        code = cli.main(["audit", "--records", files.records, flag,
                         str(files.root / "missing.json"),
                         "--out-dir", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert ("pass either --records or the --model/--policy/--population "
                "trio") in err
        assert "error_code=missing_field" in err
        assert not out.exists()


def _readme_rows():
    """(subcommand, mode) -> (accepted flags with their stated defaults,
    refused flags) of README's "run | accepts | refuses" table."""
    lines = README.read_text().splitlines()
    start = lines.index("| run | accepts | refuses |") + 2
    rows = {}
    for line in itertools.takewhile(lambda s: s.startswith("|"),
                                    lines[start:]):
        run, accepts, refuses = (c.strip() for c in
                                 re.split(r"(?<!\\)\|", line)[1:-1])
        command, mode = run.replace("`", "").split(", ", 1)
        assert (command, mode) not in rows, line
        rows[command, mode] = (
            dict(re.findall(r"`(--[a-z-]+)[^`]*`(?: \(default `([^`]+)`\))?",
                            accepts.replace("\\|", "|"))),
            set(re.findall(r"`(--[a-z-]+)`", refuses)))
    return rows


def test_readme_refusal_table_is_the_code_table():
    expected = {}
    for command, modes in cli._MODE_FLAGS.items():
        for mode, flags in modes.items():
            accepts = {_flag(d): "" if v is None else str(v)
                       for d, v in flags.items()}
            expected[command, mode] = (accepts, _refused(command, mode))
    assert _readme_rows() == expected
