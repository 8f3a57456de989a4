"""Unit tests for the language detector (repro.textproc.langdetect)."""

import pytest

from repro.errors import LanguageDetectionError
from repro.textproc.langdetect import (
    LanguageDetector,
    LanguageProfile,
    char_ngrams,
    default_detector,
    detect_language,
)


@pytest.fixture(scope="module")
def detector():
    return default_detector()


class TestDetection:
    @pytest.mark.parametrize("text,lang", [
        ("I think we should wait until tomorrow before we decide", "en"),
        ("Creo que deberíamos esperar hasta mañana antes de decidir",
         "es"),
        ("Je pense que nous devrions attendre jusqu'à demain", "fr"),
        ("Ich denke, wir sollten bis morgen warten, bevor wir "
         "entscheiden", "de"),
        ("Penso che dovremmo aspettare fino a domani prima di decidere",
         "it"),
        ("Acho que deveríamos esperar até amanhã antes de decidir",
         "pt"),
        ("Ik denk dat we tot morgen moeten wachten voordat we beslissen",
         "nl"),
        ("Myślę, że powinniśmy poczekać do jutra zanim zdecydujemy",
         "pl"),
        ("Jag tror att vi borde vänta till imorgon innan vi bestämmer",
         "sv"),
        ("Я думаю, что нам стоит подождать до завтра прежде чем решать",
         "ru"),
    ])
    def test_each_language_recognized(self, detector, text, lang):
        assert detector.detect(text).language == lang

    def test_forum_style_english(self, detector):
        text = ("tbh the vendor was legit, shipping took 3 days and "
                "the quality is exactly what i expected lol")
        assert detector.detect(text).language == "en"

    def test_confidence_in_unit_interval(self, detector):
        result = detector.detect(
            "this is clearly an english sentence about nothing")
        assert 0.0 < result.confidence <= 1.0

    def test_scores_cover_all_languages(self, detector):
        result = detector.detect("plain english text for scoring test")
        assert set(result.scores) == set(detector.languages)

    def test_too_short_raises(self, detector):
        with pytest.raises(LanguageDetectionError):
            detector.detect("ok")

    def test_symbols_only_raises(self, detector):
        with pytest.raises(LanguageDetectionError):
            detector.detect("!!! ??? 123 ...")

    @pytest.mark.parametrize("text", ["'''''' ''''", "it's 'a' 'b'"])
    def test_apostrophes_are_not_letters(self, detector, text):
        # fewer than MIN_DETECTABLE_CHARS letters, however many quotes
        with pytest.raises(LanguageDetectionError):
            detector.detect(text)

    def test_six_letters_are_enough(self, detector):
        assert detector.detect("'abcdef'").language in detector.languages

    def test_deterministic(self, detector):
        text = "short ambiguous text here for determinism check"
        first = detector.detect(text)
        second = detector.detect(text)
        assert first.language == second.language
        assert first.confidence == second.confidence


class TestIsEnglish:
    def test_english_accepted(self, detector):
        assert detector.is_english(
            "the package arrived on time and everything was fine")

    def test_german_rejected(self, detector):
        assert not detector.is_english(
            "das Paket ist pünktlich angekommen und alles war gut")

    def test_undetectable_rejected_not_raised(self, detector):
        assert not detector.is_english("...")

    def test_confidence_floor_respected(self, detector):
        # an impossible floor rejects everything
        assert not detector.is_english(
            "the package arrived on time", min_confidence=1.01)


class TestConstruction:
    def test_subset_of_languages(self):
        detector = LanguageDetector(["en", "de"])
        assert detector.languages == ("en", "de")

    def test_unknown_language_rejected(self):
        with pytest.raises(LanguageDetectionError):
            LanguageDetector(["en", "klingon"])

    def test_empty_language_list_rejected(self):
        with pytest.raises(LanguageDetectionError):
            LanguageDetector([])

    def test_profile_from_empty_text_rejected(self):
        with pytest.raises(LanguageDetectionError):
            LanguageProfile.from_text("xx", "12345 !!!")


class TestCharNgrams:
    def test_orders_counted(self):
        counts = char_ngrams(" ab ", orders=(1, 2))
        assert counts["a"] == 1
        assert counts["ab"] == 1
        assert counts[" a"] == 1

    def test_short_text_skips_long_orders(self):
        counts = char_ngrams("ab", orders=(5,))
        assert len(counts) == 0


def test_module_level_helper():
    assert detect_language(
        "one more plain english sentence to finish") == "en"
