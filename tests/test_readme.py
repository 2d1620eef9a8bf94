"""The README's Library quick start runs as documented, and its CLI flag
table lists each command's options."""

import argparse
import contextlib
import io
import math
import re
from pathlib import Path

from timebin_cavity.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    section = README.read_text().split("## Library quick start", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    return block


def test_library_quick_start_prints_what_it_documents():
    namespace = {}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(quick_start_block(), str(README), "exec"), namespace)
    brute, closed, p_e_hat = stdout.getvalue().splitlines()
    assert brute == "0.18379127246930158"
    assert abs(float(closed) - float(brute)) <= 1e-10
    expected = float(brute)
    accepted = namespace["stats"].accepted_total
    sigma = math.sqrt(expected * (1.0 - expected) / accepted)
    assert abs(float(p_e_hat) - expected) <= 5 * sigma


def test_cli_flag_table_lists_each_commands_options():
    text = README.read_text().split("Each command takes only the flags it reads", 1)
    table = text[1].split("\n\n")[1].splitlines()
    assert table[0] == "| command | flags |"
    listed = {}
    for row in table[2:]:
        commands, flags = row.strip("|").split("|")
        for command in re.findall(r"`(.*?)`", commands):
            assert command not in listed, command
            listed[command] = re.findall(r"`(.*?)`", flags)
    (sub,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        command: [
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        ]
        for command, parser in sub.choices.items()
    }
    assert listed == options
