"""The wire schema is frozen: drift must be deliberate.

``repro.server.protocol`` is the contract between every deployed client
and the server.  Its observable schema — the error-code constants,
``PROTOCOL_VERSION``, ``MAX_FRAME_BYTES``, ``NO_TIMEOUT``, and the frame
types and header keys its docstring documents — is read off the
imported module and must equal the checked-in ``protocol_schema.json``
beside it; every error code and frame type must also be documented in
``docs/SERVER.md``.  After an intentional protocol change, regenerate
the schema with::

    PYTHONPATH=src python -m tests.server.test_protocol_schema

and document the change in ``docs/SERVER.md``.

``test_a_version_bump_without_a_new_schema_is_caught`` reads the schema
off an in-memory copy of ``protocol.py`` with ``PROTOCOL_VERSION``
bumped and shows the comparison fails on it.
"""

import json
import os
import re

import pytest

from repro.server import protocol
from tests.mutation import mutated

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SCHEMA = os.path.join(os.path.dirname(protocol.__file__),
                      "protocol_schema.json")
SERVER_MD = os.path.join(REPO_ROOT, "docs", "SERVER.md")

_ERROR_CODE = re.compile(r"^[A-Z][A-Z_]+$")
_FRAME_TYPE = re.compile(r"\"type\":\s*\"(\w+)\"")
_FRAME_KEY = re.compile(r"\"(\$?\w+)\"\s*:")


def schema_of(module) -> dict:
    """The observable wire schema of a protocol module."""
    doc = module.__doc__ or ""
    return {
        "error_codes": sorted({
            value for name, value in vars(module).items()
            if _ERROR_CODE.match(name) and isinstance(value, str)
            and value.isupper()}),
        "frame_keys": sorted(set(_FRAME_KEY.findall(doc))),
        "frame_types": sorted(set(_FRAME_TYPE.findall(doc))),
        "max_frame_bytes": module.MAX_FRAME_BYTES,
        "no_timeout": module.NO_TIMEOUT,
        "protocol_version": module.PROTOCOL_VERSION,
    }


def frozen() -> dict:
    with open(SCHEMA, encoding="utf-8") as handle:
        return json.load(handle)


def test_the_protocol_matches_its_frozen_schema():
    assert schema_of(protocol) == frozen()


def server_md() -> str:
    with open(SERVER_MD, encoding="utf-8") as handle:
        return handle.read()


SCHEMA_NOW = schema_of(protocol)


def test_the_protocol_defines_error_codes_and_frame_types():
    assert SCHEMA_NOW["error_codes"], \
        "no error codes found in repro.server.protocol"
    assert SCHEMA_NOW["frame_types"], \
        "no frame types found in repro.server.protocol's docstring"


@pytest.mark.parametrize("code", SCHEMA_NOW["error_codes"])
def test_every_error_code_documented_in_server_md(code):
    assert code in server_md(), f"undocumented error code: {code}"


@pytest.mark.parametrize("frame_type", SCHEMA_NOW["frame_types"])
def test_every_frame_type_documented_in_server_md(frame_type):
    assert re.search(rf"[`\"]{frame_type}[`\"]", server_md()), \
        f"undocumented frame type: {frame_type}"


def test_a_version_bump_without_a_new_schema_is_caught():
    bumped = mutated(protocol, "PROTOCOL_VERSION = 4\n",
                     "PROTOCOL_VERSION = 5\n")
    assert schema_of(bumped) != frozen()
    assert schema_of(bumped)["protocol_version"] == 5


if __name__ == "__main__":
    with open(SCHEMA, "w", encoding="utf-8") as handle:
        json.dump(schema_of(protocol), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {SCHEMA}")
