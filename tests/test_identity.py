"""Every output in the identity manifest is unchanged (see identity.py)."""

import identity


def test_outputs_match_the_identity_manifest():
    recorded = [tuple(line.split("\t")) for line in identity.MANIFEST.read_text().splitlines()]
    current = identity.manifest()
    for old in [*recorded, ("<end of manifest>", "")]:
        try:
            new = next(current, ("<end of manifest>", ""))
        except Exception as exc:
            raise AssertionError(f"record {old[0]!r} or one after it raised {exc!r}") from exc
        assert new == old, f"first record that differs: {old[0]!r} in tests/identity.txt, {new[0]!r} here"
