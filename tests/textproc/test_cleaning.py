"""Unit tests for the 12-step polishing pipeline (repro.textproc.cleaning)."""

import pytest

from repro.forums.models import Forum, Message, UserRecord
from repro.obs.metrics import get_registry
from repro.textproc.cleaning import (
    CleaningConfig,
    MessagePolisher,
    PolishReport,
    is_bot_alias,
    dedup_key,
    polish_forum,
    polish_messages,
)

GOOD = ("I really think this vendor deserves more attention because "
        "the quality has been consistent for months")


def _msg(i, author, text, forum="f", section="s", ts=1_500_000_000):
    return Message(message_id=f"m{i}", author=author, text=text,
                   timestamp=ts + i, forum=forum, section=section)


def _forum(messages):
    forum = Forum(name="f")
    for m in messages:
        forum.add_message(m)
    return forum


class TestBotDetection:
    @pytest.mark.parametrize("alias", ["botlord", "remindbot",
                                       "BotMaster", "tipBOT"])
    def test_bot_aliases_detected(self, alias):
        assert is_bot_alias(alias)

    @pytest.mark.parametrize("alias", ["abbot7", "robotics_fan",
                                       "botanical", "alice"])
    def test_non_bot_aliases_kept(self, alias):
        # only prefix/suffix count, per the paper's heuristic
        if alias in ("abbot7", "robotics_fan", "alice"):
            assert not is_bot_alias(alias)
        else:
            # 'botanical' starts with bot -> dropped (heuristic cost)
            assert is_bot_alias(alias)


class TestMessagePolisher:
    def test_good_message_survives(self):
        polisher = MessagePolisher()
        assert polisher.polish_text(GOOD) == GOOD

    def test_short_message_dropped(self):
        polisher = MessagePolisher()
        assert polisher.polish_text("totally agree with this") is None

    def test_low_diversity_dropped(self):
        polisher = MessagePolisher()
        spam = "buy cheap meds now " * 6
        assert polisher.polish_text(spam) is None

    def test_non_english_dropped(self):
        polisher = MessagePolisher()
        text = ("Creo que deberíamos esperar hasta mañana antes de "
                "decidir nada importante sobre este asunto")
        assert polisher.polish_text(text) is None

    def test_quote_removed_but_reply_kept(self):
        polisher = MessagePolisher()
        out = polisher.polish_text(f"> someone else said this\n{GOOD}")
        assert out == GOOD

    def test_url_normalized_inside_kept_message(self):
        polisher = MessagePolisher()
        out = polisher.polish_text(
            f"{GOOD} more at https://www.reddit.com/r/x/123?a=b")
        assert out is not None
        assert "reddit.com" in out
        assert "r/x/123" not in out

    def test_email_masked(self):
        polisher = MessagePolisher()
        out = polisher.polish_text(f"{GOOD} reach me at a@b.com")
        assert out is not None
        assert "_mail_" in out
        assert "a@b.com" not in out

    def test_pgp_removed(self):
        pgp = ("-----BEGIN PGP PUBLIC KEY BLOCK-----\nxyz\n"
               "-----END PGP PUBLIC KEY BLOCK-----")
        polisher = MessagePolisher()
        out = polisher.polish_text(f"{GOOD}\nmy PGP key:\n{pgp}")
        assert out is not None
        assert "PGP" not in out

    def test_emoji_removed(self):
        polisher = MessagePolisher()
        out = polisher.polish_text(f"{GOOD} 😀🔥")
        assert out is not None
        assert "😀" not in out

    def test_long_words_removed(self):
        polisher = MessagePolisher()
        out = polisher.polish_text(f"{GOOD} {'z' * 50}")
        assert out is not None
        assert "z" * 50 not in out

    def test_disabled_pipeline_passthrough(self):
        polisher = MessagePolisher(CleaningConfig(enabled=False))
        assert polisher.polish_text("short") == "short"


class TestDedupKey:
    def test_case_and_spacing_ignored(self):
        assert dedup_key("Buy NOW  please") == dedup_key("buy now please")

    def test_different_texts_differ(self):
        assert dedup_key("alpha beta") != dedup_key("alpha gamma")


class TestPolishMessages:
    def test_duplicates_removed(self):
        kept = polish_messages([GOOD, GOOD, GOOD.upper()])
        assert len(kept) == 1

    def test_order_preserved(self):
        other = ("Another perfectly reasonable english message about "
                 "the state of the community these days")
        kept = polish_messages([GOOD, other])
        assert kept == [GOOD, other]


class TestPolishForum:
    def test_bot_accounts_dropped(self):
        forum = _forum([_msg(1, "spambot", GOOD),
                        _msg(2, "alice", GOOD)])
        polished, report = polish_forum(forum)
        assert "spambot" not in polished.users
        assert "alice" in polished.users
        assert report.dropped_bot_accounts == 1

    def test_crosspost_deduplicated_across_sections(self):
        forum = _forum([
            _msg(1, "alice", GOOD, section="r/a"),
            _msg(2, "alice", GOOD, section="r/b"),
        ])
        polished, report = polish_forum(forum)
        assert len(polished.users["alice"].messages) == 1
        assert report.dropped_duplicates == 1

    def test_same_text_by_two_users_kept_for_both(self):
        # deduplication is per user: another alias posting the same
        # text is not a crosspost
        forum = _forum([
            _msg(1, "alice", GOOD, section="r/a"),
            _msg(2, "bob", GOOD, section="r/b"),
        ])
        polished, report = polish_forum(forum)
        assert [m.text for m in polished.users["alice"].messages] == [GOOD]
        assert [m.text for m in polished.users["bob"].messages] == [GOOD]
        assert report.dropped_duplicates == 0

    def test_empty_users_removed(self):
        forum = _forum([_msg(1, "bob", "too short to keep")])
        polished, report = polish_forum(forum)
        assert polished.n_users == 0
        assert report.dropped_short == 1

    def test_report_accounting_consistent(self):
        forum = _forum([
            _msg(1, "alice", GOOD),
            _msg(2, "alice", "short msg"),
            _msg(3, "bob", GOOD + " extra words here"),
        ])
        polished, report = polish_forum(forum)
        dropped = (report.dropped_short + report.dropped_duplicates
                   + report.dropped_low_diversity
                   + report.dropped_non_english
                   + report.dropped_empty_after_cleaning)
        assert report.kept_messages + dropped == report.input_messages
        assert report.kept_users == polished.n_users

    def test_input_forum_untouched(self):
        forum = _forum([_msg(1, "alice", GOOD + " 😀")])
        polish_forum(forum)
        assert "😀" in forum.users["alice"].messages[0].text

    def test_timestamps_preserved(self):
        forum = _forum([_msg(1, "alice", GOOD)])
        polished, _ = polish_forum(forum)
        assert polished.users["alice"].messages[0].timestamp == \
            forum.users["alice"].messages[0].timestamp

    def test_world_polish_drops_noise(self, world, polished_reddit):
        # integration: polished world has strictly fewer messages
        raw = world.forums["reddit"]
        assert polished_reddit.n_messages < raw.n_messages
        assert polished_reddit.n_users <= raw.n_users

    def test_report_counters_sum_reports(self, world):
        # One increment per forum and field: the counters' deltas over
        # polishing every forum equal the field-wise sum of the reports.
        def counters():
            snapshot = get_registry().snapshot()
            return {name: snapshot[f"polish_{name}_total"]["value"]
                    for name in PolishReport().as_dict()}

        before = counters()
        expected = dict.fromkeys(before, 0)
        for name in sorted(world.forums):
            _, report = polish_forum(world.forums[name])
            for field, value in report.as_dict().items():
                expected[field] += value
        after = counters()
        assert {name: after[name] - before[name] for name in after} \
            == expected
        assert expected["input_messages"] > expected["kept_messages"] > 0
