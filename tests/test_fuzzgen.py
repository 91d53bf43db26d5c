from __future__ import annotations

import itertools
import random

import pytest

from fingerfuzz.errors import ConfigError, ParseError
from fingerfuzz.fuzzgen import (
    DEFAULT_COMMANDS,
    FuzzConfig,
    build_collection,
    escape_line,
    mutate,
    unescape_line,
)
from fingerfuzz.rng import SplitMix64

from conftest import is_base, layout

PRINTABLE = set(range(0x20, 0x7F))


def small_config(**overrides) -> FuzzConfig:
    params = dict(commands=("NOOP",), max_arg_len=1, instances=1, mutations=1, seed=7)
    params.update(overrides)
    return FuzzConfig(**params)


def test_four_record_example():
    # 1 command * 2 lengths * 1 instance * 2 steps = 4 records
    col = build_collection(small_config())
    assert len(col.records) == 4 and col.config.block_length == 4
    base0, mutant0, base1, mutant1 = col.records
    assert base0.bytes == b"NOOP"
    assert is_base(col.config, base0) and is_base(col.config, base1)
    assert mutant0.bytes != base0.bytes
    assert base1.bytes[:5] == b"NOOP " and len(base1.bytes) == 6
    assert base1.bytes[5] in PRINTABLE
    assert mutant1.bytes != base1.bytes


def test_default_collection_is_pinned():
    # the same collection on every machine is what makes fingerprints of
    # different targets comparable; any change to generation shows here
    col = build_collection(FuzzConfig())
    assert len(col.records) == 4590
    assert col.digest == "f93b0f162654ba94df6f620896a706a0a0e9f52f0911716abb107909c1cb303a"


def test_zero_mutations_gives_bases_only():
    cfg = small_config(commands=("NOOP", "SYST"), max_arg_len=2, mutations=0)
    col = build_collection(cfg)
    assert len(col.records) == 2 * 3 and cfg.block_length == 3
    assert all(is_base(cfg, r) for r in col.records)


def test_generation_is_deterministic():
    cfg = small_config(commands=DEFAULT_COMMANDS, max_arg_len=3, mutations=2, seed=99)
    assert build_collection(cfg) == build_collection(cfg)


def test_seed_changes_output():
    a = build_collection(small_config(seed=1, max_arg_len=4, mutations=3))
    b = build_collection(small_config(seed=2, max_arg_len=4, mutations=3))
    assert a.digest != b.digest


@pytest.mark.parametrize(
    "commands,max_len,instances,mutations",
    [(("NOOP",), 0, 1, 0), (("USER", "PASS"), 3, 2, 2), (DEFAULT_COMMANDS, 2, 1, 1)],
)
def test_cardinality(commands, max_len, instances, mutations):
    cfg = FuzzConfig(commands, max_len, instances, mutations, seed=5)
    col = build_collection(cfg)
    assert len(col.records) == len(commands) * (max_len + 1) * instances * (mutations + 1)
    assert [r.index for r in col.records] == list(range(len(col.records)))


def test_canonical_order():
    # command blocks in config order, argument length ascending within a
    # block, and each base followed by its mutants
    for cfg in (FuzzConfig(("CWD", "PWD"), 1, 2, 1, seed=3),
                FuzzConfig(("USER", "SITE", "MODE"), 4, 3, 2, seed=8)):
        col = build_collection(cfg)
        assert cfg.block_length == (cfg.max_arg_len + 1) * cfg.instances * (cfg.mutations + 1)
        assert len(col.records) == len(cfg.commands) * cfg.block_length == cfg.record_count()
        for record in col.records:
            if layout(cfg, record.index)[2] == 0:  # the mutation step
                assert is_base(cfg, record), record
            else:
                before = col.records[record.index - 1].bytes
                assert record.bytes != before
                assert abs(len(record.bytes) - len(before)) <= 1


def test_no_line_breaks_anywhere():
    cfg = FuzzConfig(("STAT", "HELP"), 6, 2, 5, seed=11)
    for record in build_collection(cfg).records:
        assert b"\r" not in record.bytes
        assert b"\n" not in record.bytes


def test_base_records_are_printable():
    cfg = FuzzConfig(("TYPE",), 8, 3, 0, seed=2)
    for record in build_collection(cfg).records:
        assert all(b in PRINTABLE for b in record.bytes)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(commands=()), "commands"),
        (dict(commands=("noop",)), "commands"),
        (dict(commands=("TOOLONGCMD",)), "commands"),
        (dict(commands=("NOOP", "NOOP")), "commands"),
        (dict(max_arg_len=-1), "max_arg_len"),
        (dict(instances=0), "instances"),
        (dict(mutations=-1), "mutations"),
        (dict(seed=2**64), "seed"),
        (dict(alphabet=frozenset({0x0A, 0x41})), "alphabet"),
        (dict(alphabet=frozenset({0x41})), "alphabet"),
    ],
)
def test_config_validation_names_field(kwargs, field):
    with pytest.raises(ConfigError) as err:
        build_collection(small_config(**kwargs))
    assert err.value.field == field


# --- mutate -----------------------------------------------------------------

def test_delete_reaches_empty():
    rng = SplitMix64(0)
    seen_empty = False
    for _ in range(64):
        if mutate(b"A", rng) == b"":
            seen_empty = True
            break
    assert seen_empty


def test_empty_message_forces_insert():
    rng = SplitMix64(4)
    for _ in range(32):
        out = mutate(b"", rng)
        assert len(out) == 1


def test_change_has_hamming_distance_one():
    rng = SplitMix64(9)
    message = b"ABC"
    for _ in range(200):
        out = mutate(message, rng)
        if len(out) == len(message):
            diffs = sum(1 for x, y in zip(out, message) if x != y)
            assert diffs == 1


def test_mutation_metric_properties():
    rng = SplitMix64(123)
    chooser = random.Random(42)
    alphabet = tuple(sorted(set(range(256)) - {0x0D, 0x0A}))
    for _ in range(2000):
        length = chooser.randint(0, 30)
        message = bytes(chooser.choice(alphabet) for _ in range(length))
        out = mutate(message, rng)
        assert abs(len(out) - len(message)) <= 1
        if len(out) == len(message):
            assert sum(1 for x, y in zip(out, message) if x != y) == 1
        assert 0x0D not in out and 0x0A not in out


def test_restricted_alphabet_is_respected():
    rng = SplitMix64(5)
    alphabet = frozenset(b"AB")
    for _ in range(100):
        out = mutate(b"AAB", rng, tuple(sorted(alphabet)))
        assert set(out) <= {0x41, 0x42}


def reference_mutate(message, rng, letters):
    """mutate as first written, drawing a change from a list of the alphabet
    without the original byte; the oracle for the draws."""
    op = "insert" if not message else rng.choice(("insert", "change", "delete"))
    if op == "insert":
        pos = rng.below(len(message) + 1)
        return message[:pos] + bytes([rng.choice(letters)]) + message[pos:]
    pos = rng.below(len(message))
    if op == "change":
        byte = rng.choice([b for b in letters if b != message[pos]])
        return message[:pos] + bytes([byte]) + message[pos + 1:]
    return message[:pos] + message[pos + 1:]


@pytest.mark.parametrize("excluded", [b"", b"O", b"NOP", bytes(range(0x80, 0x100))],
                         ids=["none", "O", "NOP", "high"])
def test_change_draws_as_from_the_alphabet_without_the_original(excluded):
    # an excluded command letter is a byte outside the alphabet: its change
    # draws from the whole alphabet
    letters = tuple(sorted(set(range(256)) - {0x0D, 0x0A} - set(excluded)))
    ours, reference = SplitMix64(77), SplitMix64(77)
    message = b"NOOP"
    for _ in range(3000):
        expected = reference_mutate(message, reference, letters)
        assert mutate(message, ours, letters) == expected
        message = expected if len(expected) < 12 else b"NOOP"


def test_custom_alphabet_without_command_letters_is_pinned():
    alphabet = frozenset(range(0x20, 0x7F)) - set(b"OS")
    col = build_collection(small_config(commands=("NOOP", "SYST"), max_arg_len=3,
                                        instances=2, mutations=4, seed=5,
                                        alphabet=alphabet))
    assert col.digest == "460b2275fc23fcab9470dd0aa901a39299605a524699addea16ba626b89a892e"


# --- escape codec -----------------------------------------------------------

def test_escape_examples():
    assert escape_line(b"NOOP") == "NOOP"
    assert escape_line(b"\\") == "\\\\"
    assert escape_line(b"\x07") == "\\x07"
    assert escape_line(b"USER \x00\xff") == "USER \\x00\\xff"


def test_unescape_examples():
    assert unescape_line("NOOP") == b"NOOP"
    assert unescape_line("\\\\") == b"\\"
    assert unescape_line("\\x07") == b"\x07"


@pytest.mark.parametrize("bad", ["\\", "abc\\", "\\x0", "\\xzz", "\\q", "a\tb",
                                 # escapes escape_line never writes: int() reads
                                 # each as a byte, so a second spelling of a line
                                 "\\x+f", "\\x f", "\\x-1", "\\x0A", "\\xFF",
                                 "\\x41", "\\x20", "\\x7e", "\\x5c"])
def test_unescape_rejects_malformed(bad):
    with pytest.raises(ParseError):
        unescape_line(bad)


@pytest.mark.parametrize("line, column", [
    ("\\", 1), ("abc\\", 4), ("a\tb", 2), ("ok\\x41", 3), ("\\\\\\q", 3),
    ("\\x7f\\xFF", 5), ("\\x0", 1),
])
def test_unescape_gives_the_column_of_the_first_bad_character(line, column):
    with pytest.raises(ParseError) as err:
        unescape_line(line)
    assert err.value.column == column
    assert str(err.value).startswith(f"column {column}: ")


def test_every_short_line_is_canonical_or_refused():
    # every string of up to five characters over the characters escapes are
    # made of: either refused, or the one spelling escape_line writes
    alphabet = "\\x0178aefF \t"
    for length in range(6):
        for chars in itertools.product(alphabet, repeat=length):
            line = "".join(chars)
            try:
                data = unescape_line(line)
            except ParseError:
                continue
            assert escape_line(data) == line


def test_every_short_byte_string_round_trips():
    for length in range(3):
        for data in map(bytes, itertools.product(range(256), repeat=length)):
            assert unescape_line(escape_line(data)) == data


def test_long_printable_line_decodes():
    data = (bytes(range(0x20, 0x7F)) * 700)[:65536]
    assert unescape_line(escape_line(data)) == data


def test_codec_round_trip_property():
    chooser = random.Random(7)
    for _ in range(2000):
        length = chooser.randint(0, 40)
        data = bytes(chooser.randint(0, 255) for _ in range(length))
        assert unescape_line(escape_line(data)) == data
