"""Every memo table in `speckit` is bounded, as README promises."""

from support import memo_tables


def test_every_memo_table_is_bounded():
    tables = memo_tables()
    assert {
        "speckit.lexicon.phrase_key",
        "speckit.resolver._sentences",
        "speckit.resolver._unchanged",
        "speckit.tokenizer._token",
        "speckit.tokenizer._chunk_tokens",
    } <= set(tables)
    for name, table in tables.items():
        maxsize = table.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, name
