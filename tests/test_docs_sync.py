"""Docs cannot drift: the CLI reference must cover the live argparse
tree, the endpoint reference must mirror the route table, and the
markdown files must not contain dangling local links."""

import argparse
import pathlib
import re

import pytest

from repro.cli import build_parser
from repro.service.server import ROUTES

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLI_DOC = ROOT / "docs" / "cli.md"
DOC_FILES = [ROOT / "README.md",
             *sorted((ROOT / "docs").glob("*.md"))]


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices.items()


def _collect_cli_surface():
    """(subcommand, option-or-positional) pairs of the whole tree."""
    surface = []
    for name, sub in _subparsers(build_parser()):
        surface.append((name, None))
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.option_strings:
                longest = max(action.option_strings, key=len)
                surface.append((name, longest))
            else:
                surface.append((name, action.dest))
    return surface


class TestCliDocSync:
    def test_doc_exists(self):
        assert CLI_DOC.is_file()

    @pytest.mark.parametrize(
        "command,token", _collect_cli_surface(),
        ids=[f"{c}:{t or '<command>'}" for c, t in _collect_cli_surface()])
    def test_every_command_and_flag_documented(self, command, token):
        text = CLI_DOC.read_text()
        assert f"repro {command}" in text, \
            f"subcommand {command!r} missing from docs/cli.md"
        if token is not None:
            needle = token if token.startswith("-") else f"`{token}`"
            assert needle in text, \
                f"{command}: {token!r} missing from docs/cli.md"

    def test_no_phantom_flags_documented(self):
        """Every `--flag` mentioned in the doc exists somewhere in the
        argparse tree (catches docs for removed options)."""
        real = {opt for _, sub in _subparsers(build_parser())
                for action in sub._actions
                for opt in action.option_strings}
        documented = set(re.findall(r"(?<![-\w])--[a-z][a-z-]+",
                                    CLI_DOC.read_text()))
        assert documented <= real, \
            f"docs/cli.md documents unknown flags: {documented - real}"


class TestEndpointDocSync:
    def test_endpoint_table_mirrors_route_table(self):
        """The ``## Endpoints`` table of docs/serving.md lists exactly
        the rows of ``ROUTES``: methods, pattern and router policy."""
        text = (ROOT / "docs" / "serving.md").read_text()
        section = text.split("## Endpoints", 1)[1].split("\n#", 1)[0]
        documented = []
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if line.startswith("|") and cells[1].startswith("`/"):
                documented.append((tuple(cells[0].split("/")),
                                   cells[1].strip("`"), cells[2]))
        assert documented == [(r.methods, r.pattern, r.fleet)
                              for r in ROUTES]


LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


class TestMarkdownLinks:
    @pytest.mark.parametrize("path", DOC_FILES,
                             ids=[p.name for p in DOC_FILES])
    def test_local_links_resolve(self, path):
        assert path.is_file()
        broken = []
        for target in LINK.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            local = target.split("#", 1)[0]
            if not local:
                continue  # pure in-page anchor
            if not (path.parent / local).exists():
                broken.append(target)
        assert not broken, f"{path.name}: broken local links {broken}"

    def test_readme_links_docs(self):
        text = (ROOT / "README.md").read_text()
        assert "docs/architecture.md" in text
        assert "docs/cli.md" in text
