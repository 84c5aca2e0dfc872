"""Fixture: a finding the checker's allowlist covers by rule and scope."""


def slurp(rel):
    return list(rel.data.scan())
