"""Every document that the suite checks against a shipped schema through
``emit.validate_against_schema`` (every document that a command emits among
them) is also checked by jsonschema, the independent oracle; the two
verdicts must agree.  A disagreement fails the test through pytest.fail,
which the command line's ``except Exception`` does not catch."""

import functools

import jsonschema
import pytest

from trinoids import emit


@functools.lru_cache(maxsize=None)
def jsonschema_validator(name: str):
    """jsonschema's validator of a shipped schema; the schema is not checked
    against its metaschema here, so that the counts of
    ``test_cli_cache.test_parser_and_validators_built_once`` hold."""
    schema = emit.load_schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


@pytest.fixture(autouse=True, scope="session")
def checker_agrees_with_jsonschema():
    checker = emit.validate_against_schema

    def both(doc, schema_name):
        valid = jsonschema_validator(schema_name).is_valid(doc)
        try:
            checker(doc, schema_name)
        except emit.SchemaViolation:
            if valid:
                pytest.fail(f"jsonschema accepts what the checker refuses: {doc!r}")
            raise
        if not valid:
            pytest.fail(f"the checker accepts what jsonschema refuses: {doc!r}")

    emit.validate_against_schema = both
    yield
    emit.validate_against_schema = checker
