"""Parser for fpt-core configuration files.

The format follows the paper's section 3.4 exactly:

* ``[module-type]`` starts a new module instance of that type.
* ``id = instance-id`` names the instance (optional; an id of the form
  ``<type><n>`` is generated otherwise).
* ``input[name] = instance-id.outputname`` wires a single upstream output
  to the input ``name``.
* ``input[name] = @instance-id`` wires *all* outputs of the upstream
  instance to the input ``name``.
* Every other ``key = value`` assignment is an opaque parameter handed to
  the module instance for its own interpretation.

Comments start with ``#`` or ``;`` and run to end of line.  The parser is
line-oriented; values may contain spaces.

Every parsed element remembers the 1-based line it came from
(``InstanceSpec.header_line``, ``InstanceSpec.param_lines``,
``InputSpec.line``), and every :class:`ConfigError` raised here carries
``line_no``, ``line_text`` and a ``code`` (FPT002 for a duplicate id,
FPT000 for the rest) so callers -- the CLI, ``repro lint`` -- can point
at the offending configuration line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import ConfigError

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]$")
_INPUT_KEY_RE = re.compile(r"^input\[([A-Za-z_][A-Za-z0-9_]*)\]$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class InputSpec:
    """One ``input[...]`` assignment.

    ``output_name`` is ``None`` for the ``@instance`` form, meaning "all
    outputs of that instance".  ``line`` is the 1-based config line the
    assignment came from (0 when built programmatically); it does not
    participate in equality so positionless specs still compare equal.
    """

    input_name: str
    instance_id: str
    output_name: Optional[str]
    line: int = field(default=0, compare=False)

    def render(self) -> str:
        if self.output_name is None:
            return f"input[{self.input_name}] = @{self.instance_id}"
        return (
            f"input[{self.input_name}] = "
            f"{self.instance_id}.{self.output_name}"
        )


@dataclass
class InstanceSpec:
    """A fully parsed module-instance declaration (one config section)."""

    module_type: str
    instance_id: str
    params: Dict[str, str] = field(default_factory=dict)
    inputs: List[InputSpec] = field(default_factory=list)
    #: 1-based line of the ``[section]`` header (0 if built in code).
    header_line: int = field(default=0, compare=False)
    #: Parameter name -> 1-based line of its assignment.
    param_lines: Dict[str, int] = field(default_factory=dict, compare=False)

    def param_line(self, name: str) -> int:
        """Line a parameter was assigned on (the header as fallback)."""
        return self.param_lines.get(name, self.header_line)

    def render(self) -> str:
        lines = [f"[{self.module_type}]", f"id = {self.instance_id}"]
        lines.extend(spec.render() for spec in self.inputs)
        lines.extend(f"{key} = {value}" for key, value in self.params.items())
        return "\n".join(lines)


def _strip_comment(line: str) -> str:
    for marker in ("#", ";"):
        index = line.find(marker)
        if index != -1:
            line = line[:index]
    return line.strip()


def parse_config(
    text: str, *, collect: Optional[List[ConfigError]] = None
) -> List[InstanceSpec]:
    """Parse configuration ``text`` into a list of instance specs.

    Raises :class:`ConfigError` on syntax errors, assignments outside a
    section, duplicate parameters or inputs within a section, and
    duplicate instance ids across sections.

    When ``collect`` is a list, errors are appended to it instead of
    being raised and parsing continues past the offending line -- the
    lenient mode ``repro lint`` uses to report every problem
    in one pass rather than stopping at the first.
    """
    specs: List[InstanceSpec] = []
    current: Optional[InstanceSpec] = None
    type_counters: Dict[str, int] = {}
    explicit_id = False

    def fail(
        message: str, line_no: Optional[int], line_text: Optional[str],
        code: str = "FPT000",
    ) -> None:
        prefix = f"line {line_no}: " if line_no is not None else ""
        error = ConfigError(
            prefix + message, line_no=line_no, line_text=line_text, code=code
        )
        if collect is None:
            raise error
        collect.append(error)

    def parse_input_value(
        value: str, line_no: int, raw_line: str
    ) -> "Optional[tuple[str, Optional[str]]]":
        if value.startswith("@"):
            instance_id = value[1:].strip()
            if not _IDENT_RE.match(instance_id):
                fail(f"bad instance id in '@{instance_id}'", line_no, raw_line)
                return None
            return instance_id, None
        if "." not in value:
            fail(
                f"input value must be 'instance.output' or '@instance', "
                f"got {value!r}",
                line_no,
                raw_line,
            )
            return None
        instance_id, output_name = value.split(".", 1)
        instance_id = instance_id.strip()
        output_name = output_name.strip()
        if not _IDENT_RE.match(instance_id) or not output_name:
            fail(f"bad input value {value!r}", line_no, raw_line)
            return None
        return instance_id, output_name

    def finish(spec: Optional[InstanceSpec], had_id: bool) -> None:
        if spec is None:
            return
        if not had_id:
            counter = type_counters.setdefault(spec.module_type, 0)
            spec.instance_id = f"{spec.module_type}{counter}"
            type_counters[spec.module_type] = counter + 1
        specs.append(spec)

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line)
        if not line:
            continue

        section = _SECTION_RE.match(line)
        if section:
            finish(current, explicit_id)
            current = InstanceSpec(
                module_type=section.group(1),
                instance_id="",
                header_line=line_no,
            )
            explicit_id = False
            continue

        if "=" not in line:
            fail(f"expected 'key = value', got {line!r}", line_no, raw_line)
            continue
        if current is None:
            fail("assignment outside of a [section]", line_no, raw_line)
            continue

        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            fail("empty key", line_no, raw_line)
            continue

        input_key = _INPUT_KEY_RE.match(key)
        if input_key:
            input_name = input_key.group(1)
            parsed = parse_input_value(value, line_no, raw_line)
            if parsed is None:
                continue
            instance_id, output_name = parsed
            spec = InputSpec(input_name, instance_id, output_name, line=line_no)
            if spec in current.inputs:
                fail(
                    f"duplicate input wiring {spec.render()!r}",
                    line_no,
                    raw_line,
                )
                continue
            current.inputs.append(spec)
        elif key == "id":
            if explicit_id:
                fail("duplicate 'id' assignment", line_no, raw_line)
                continue
            if not _IDENT_RE.match(value):
                fail(f"bad instance id {value!r}", line_no, raw_line)
                continue
            current.instance_id = value
            explicit_id = True
        else:
            if key in current.params:
                fail(
                    f"duplicate parameter '{key}' in section "
                    f"[{current.module_type}]",
                    line_no,
                    raw_line,
                )
                continue
            current.params[key] = value
            current.param_lines[key] = line_no

    finish(current, explicit_id)

    seen_ids: Dict[str, InstanceSpec] = {}
    deduped: List[InstanceSpec] = []
    for spec in specs:
        if spec.instance_id in seen_ids:
            first = seen_ids[spec.instance_id]
            fail(
                f"duplicate instance id '{spec.instance_id}' "
                f"(sections [{first.module_type}] and "
                f"[{spec.module_type}])",
                spec.header_line or None,
                f"[{spec.module_type}]" if spec.header_line else None,
                code="FPT002",
            )
            continue  # lenient mode: keep the first declaration only
        seen_ids[spec.instance_id] = spec
        deduped.append(spec)
    return deduped


def render_config(specs: List[InstanceSpec]) -> str:
    """Render specs back to configuration-file text (parse round-trips)."""
    return "\n\n".join(spec.render() for spec in specs) + "\n"
