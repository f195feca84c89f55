"""The argparse parser of the CLI's command table, loaded only for --help,
--version and usage errors.  It takes the table as arguments: coldspin.cli
runs as __main__ under `python -m coldspin.cli`, and an import of it would
run it again."""

import argparse


def build_parser(commands: dict, common_options: dict, modes: tuple, version: str):
    parser = argparse.ArgumentParser(
        prog="coldspin",
        description="Faraday-rotation probe simulator and analysis tools",
    )
    parser.add_argument("--version", action="version", version=f"coldspin {version}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, row in commands.items():
        sub = subparsers.add_parser(name, help=row.help)
        if row.modes:
            sub.add_argument("mode", nargs="?", choices=modes)
        for option, help_text in common_options.items():
            sub.add_argument(option, metavar="PATH", help=help_text)
        if row.input_help:
            sub.add_argument("--in", dest="in_path", metavar="PATH", help=row.input_help)
        for flag in row.flags:
            if flag.switch is None:
                sub.add_argument(flag.option, type=flag.type, choices=flag.choices,
                                 help=flag.help)
            else:
                sub.add_argument(flag.option, action="store_const", const=True,
                                 help=flag.help)
    return parser
